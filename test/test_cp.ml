module Cp = Mirage_cp.Cp

let solve_exn m =
  match Cp.solve m with
  | Cp.Sat f, _ -> f
  | Cp.Unsat, _ -> Alcotest.fail "unexpectedly unsat"
  | Cp.Unknown, _ -> Alcotest.fail "node limit"

let test_simple_eq () =
  let m = Cp.create () in
  let x = Cp.var m ~lo:0 ~hi:10 and y = Cp.var m ~lo:0 ~hi:10 in
  Cp.linear_eq m [ (1, x); (1, y) ] 7;
  Cp.linear_le m [ (1, x) ] 3;
  let f = solve_exn m in
  Alcotest.(check int) "sum" 7 (f x + f y);
  Alcotest.(check bool) "x bound" true (f x <= 3)

let test_unsat_bounds () =
  let m = Cp.create () in
  let x = Cp.var m ~lo:0 ~hi:3 and y = Cp.var m ~lo:0 ~hi:3 in
  Cp.linear_eq m [ (1, x); (1, y) ] 10;
  match Cp.solve m with
  | Cp.Unsat, st ->
      Alcotest.(check bool) "stats on unsat" true (st.Cp.st_nodes >= 1)
  | _ -> Alcotest.fail "expected unsat"

let test_negative_coefficients () =
  let m = Cp.create () in
  let x = Cp.var m ~lo:0 ~hi:10 and y = Cp.var m ~lo:0 ~hi:10 in
  (* x - y = 3 *)
  Cp.linear_eq m [ (1, x); (-1, y) ] 3;
  Cp.linear_le m [ (1, y) ] 2;
  let f = solve_exn m in
  Alcotest.(check int) "difference" 3 (f x - f y)

let test_transportation_model () =
  (* the keygen shape: two covers + overlapping group sums *)
  let m = Cp.create () in
  let xs = Array.init 6 (fun _ -> Cp.var m ~lo:0 ~hi:100) in
  Cp.linear_eq m [ (1, xs.(0)); (1, xs.(1)); (1, xs.(2)) ] 60;
  Cp.linear_eq m [ (1, xs.(3)); (1, xs.(4)); (1, xs.(5)) ] 40;
  Cp.linear_eq m [ (1, xs.(0)); (1, xs.(3)) ] 30;
  Cp.linear_eq m [ (1, xs.(1)); (1, xs.(4)) ] 45;
  let f = solve_exn m in
  Alcotest.(check int) "cover 1" 60 (f xs.(0) + f xs.(1) + f xs.(2));
  Alcotest.(check int) "group a" 30 (f xs.(0) + f xs.(3));
  Alcotest.(check int) "group b" 45 (f xs.(1) + f xs.(4))

let test_aux_vars_not_searched () =
  let m = Cp.create () in
  let x = Cp.var m ~lo:0 ~hi:5 in
  let y = Cp.var m ~aux:true ~lo:0 ~hi:1_000_000 in
  Cp.lp_linear_le m [ (1, y); (-1, x) ] 0;
  Cp.linear_eq m [ (1, x) ] 3;
  let f = solve_exn m in
  Alcotest.(check int) "x" 3 (f x)

let test_lp_objective_guides () =
  let m = Cp.create () in
  let x = Cp.var m ~lo:0 ~hi:100 and y = Cp.var m ~lo:0 ~hi:100 in
  Cp.linear_eq m [ (1, x); (1, y) ] 50;
  Cp.set_objective m [ (1, x) ];
  let f = solve_exn m in
  Alcotest.(check int) "still feasible" 50 (f x + f y)

let test_empty_model () =
  let m = Cp.create () in
  Alcotest.(check bool) "trivially sat" true
    (match Cp.solve m with Cp.Sat _, _ -> true | _ -> false)

let test_restart_ladder () =
  (* market-split instance: all-even weights, odd target.  Unsat, but the
     proof needs far more nodes than the budget, so every rung of the
     escalating-restart ladder is node-limited and the outcome is Unknown
     with restarts recorded. *)
  let m = Cp.create () in
  let rng = Mirage_util.Rng.create 42 in
  let xs = Array.init 30 (fun _ -> Cp.var m ~lo:0 ~hi:1) in
  let terms =
    Array.to_list
      (Array.map (fun x -> (2 * (1 + Mirage_util.Rng.int rng 50), x)) xs)
  in
  Cp.linear_eq m terms 101;
  match Cp.solve ~max_nodes:10_000 ~lp_guide:false m with
  | Cp.Unknown, st ->
      Alcotest.(check bool) "restarted" true (st.Cp.st_restarts >= 1);
      Alcotest.(check bool) "nodes near budget" true
        (st.Cp.st_nodes >= 10_000 && st.Cp.st_nodes <= 10_010)
  | Cp.Sat _, _ -> Alcotest.fail "weights are even, target odd: cannot be sat"
  | Cp.Unsat, _ -> Alcotest.fail "unsat proof should exceed the node budget"

let test_var_validation () =
  let m = Cp.create () in
  Alcotest.(check bool) "lo > hi" true
    (try ignore (Cp.var m ~lo:3 ~hi:2); false with Invalid_argument _ -> true)

(* property: random transportation systems built from a known feasible point
   must be solved, and the solution must satisfy every constraint *)
let prop_random_feasible_systems =
  QCheck.Test.make ~name:"systems built from a point are solved correctly" ~count:100
    QCheck.(pair (int_range 2 4) (int_range 2 4))
    (fun (ni, nj) ->
      let rng = Mirage_util.Rng.create ((ni * 7) + nj) in
      let point = Array.init (ni * nj) (fun _ -> Mirage_util.Rng.int rng 50) in
      let m = Cp.create () in
      let xs = Array.init (ni * nj) (fun _ -> Cp.var m ~lo:0 ~hi:200) in
      (* covers per column j *)
      let col_sum j =
        List.init ni (fun i -> point.((i * nj) + j)) |> List.fold_left ( + ) 0
      in
      for j = 0 to nj - 1 do
        Cp.linear_eq m (List.init ni (fun i -> (1, xs.((i * nj) + j)))) (col_sum j)
      done;
      (* one overlapping group sum *)
      let group = List.init nj (fun j -> (1, xs.(j))) in
      let gsum = List.init nj (fun j -> point.(j)) |> List.fold_left ( + ) 0 in
      Cp.linear_eq m group gsum;
      match Cp.solve m with
      | Cp.Sat f, _ ->
          List.for_all
            (fun j ->
              List.init ni (fun i -> f xs.((i * nj) + j)) |> List.fold_left ( + ) 0
              = col_sum j)
            (List.init nj (fun j -> j))
          && List.init nj (fun j -> f xs.(j)) |> List.fold_left ( + ) 0 = gsum
      | (Cp.Unsat | Cp.Unknown), _ -> false)

(* --- differential: event kernel vs naive full-sweep reference ------------ *)

(* Test-local reference semantics, independent of the kernel: a full
   constraint sweep repeated to fixpoint (the pre-watch-list algorithm), and
   brute-force enumeration as feasibility ground truth. *)
type ref_constr = { terms : (int * int) list; eq : bool; rhs : int }

exception Ref_fail

let ref_fixpoint constrs lo hi =
  let changed = ref true in
  let tighten_lo v x =
    if x > lo.(v) then begin
      lo.(v) <- x;
      if lo.(v) > hi.(v) then raise Ref_fail;
      changed := true
    end
  in
  let tighten_hi v x =
    if x < hi.(v) then begin
      hi.(v) <- x;
      if lo.(v) > hi.(v) then raise Ref_fail;
      changed := true
    end
  in
  let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
  let cdiv a b = if a >= 0 then (a + b - 1) / b else -((-a) / b) in
  while !changed do
    changed := false;
    List.iter
      (fun { terms; eq; rhs } ->
        let sum_lo = ref 0 and sum_hi = ref 0 in
        List.iter
          (fun (a, v) ->
            if a >= 0 then begin
              sum_lo := !sum_lo + (a * lo.(v));
              sum_hi := !sum_hi + (a * hi.(v))
            end
            else begin
              sum_lo := !sum_lo + (a * hi.(v));
              sum_hi := !sum_hi + (a * lo.(v))
            end)
          terms;
        if !sum_lo > rhs then raise Ref_fail;
        if eq && !sum_hi < rhs then raise Ref_fail;
        List.iter
          (fun (a, v) ->
            if a <> 0 then begin
              let term_lo = if a >= 0 then a * lo.(v) else a * hi.(v) in
              let term_hi = if a >= 0 then a * hi.(v) else a * lo.(v) in
              let ub = rhs - (!sum_lo - term_lo) in
              if a > 0 then tighten_hi v (fdiv ub a)
              else tighten_lo v (cdiv (-ub) (-a));
              if eq then begin
                let lb = rhs - (!sum_hi - term_hi) in
                if a > 0 then tighten_lo v (cdiv lb a)
                else tighten_hi v (fdiv (-lb) (-a))
              end
            end)
          terms)
      constrs
  done

let ref_holds constrs a =
  List.for_all
    (fun { terms; eq; rhs } ->
      let s = List.fold_left (fun acc (c, v) -> acc + (c * a.(v))) 0 terms in
      if eq then s = rhs else s <= rhs)
    constrs

(* exhaustive feasibility over the (tiny) initial box *)
let ref_brute_force constrs lo hi =
  let n = Array.length lo in
  let a = Array.copy lo in
  let rec go v = if v = n then ref_holds constrs a
    else begin
      let found = ref false in
      let x = ref lo.(v) in
      while (not !found) && !x <= hi.(v) do
        a.(v) <- !x;
        if go (v + 1) then found := true;
        incr x
      done;
      !found
    end
  in
  go 0

(* The pre-kernel search, as a test-local oracle: [ref_fixpoint] at every
   node, domain arrays copied per branch, the widest variable branched first
   (lowest index on ties), value [lo] before [lo + 1, hi].  With the LP guide
   off and before any restart, the kernel must walk this exact tree. *)
type ref_outcome = Ref_sat of int array | Ref_unsat | Ref_unknown

let ref_search ~max_nodes constrs lo0 hi0 =
  let n = Array.length lo0 in
  let nodes = ref 0 in
  let exception Found of int array in
  let exception Out_of_nodes in
  let rec search lo hi =
    incr nodes;
    if !nodes > max_nodes then raise Out_of_nodes;
    ref_fixpoint constrs lo hi;
    let best = ref (-1) and best_width = ref 0 in
    for v = 0 to n - 1 do
      let w = hi.(v) - lo.(v) in
      if w > !best_width then begin
        best := v;
        best_width := w
      end
    done;
    if !best = -1 then raise (Found (Array.copy lo));
    let v = !best in
    let g = lo.(v) in
    let branch l h =
      let lo' = Array.copy lo and hi' = Array.copy hi in
      lo'.(v) <- l;
      hi'.(v) <- h;
      search lo' hi'
    in
    (try branch g g with Ref_fail -> ());
    branch (g + 1) hi.(v)
  in
  let outcome =
    match search (Array.copy lo0) (Array.copy hi0) with
    | () -> Ref_unsat
    | exception Ref_fail -> Ref_unsat
    | exception Out_of_nodes -> Ref_unknown
    | exception Found a -> Ref_sat a
  in
  (outcome, !nodes)

(* the kernel's outcome equals the naive search's; before any restart its
   witness and node count do too *)
let kernel_matches_naive m constrs lo0 hi0 =
  let max_nodes = 1_000_000 in
  let outcome, st = Cp.solve ~max_nodes ~lp_guide:false m in
  let naive, naive_nodes = ref_search ~max_nodes constrs lo0 hi0 in
  let first_attempt = st.Cp.st_restarts = 0 in
  (match (outcome, naive) with
  | Cp.Sat f, Ref_sat a -> (not first_attempt) || Cp.solution_of_fun m f = a
  | Cp.Unsat, Ref_unsat | Cp.Unknown, Ref_unknown -> true
  | _ -> false)
  && ((not first_attempt) || st.Cp.st_nodes = naive_nodes)

(* random small system, posted simultaneously to the kernel and to the
   reference representation *)
let gen_system seed =
  let rng = Mirage_util.Rng.create seed in
  let n = 3 + Mirage_util.Rng.int rng 4 in
  let lo0 = Array.init n (fun _ -> Mirage_util.Rng.int rng 3) in
  let hi0 = Array.init n (fun i -> lo0.(i) + Mirage_util.Rng.int rng 4) in
  let m = Cp.create () in
  let xs = Array.init n (fun i -> Cp.var m ~lo:lo0.(i) ~hi:hi0.(i)) in
  let constrs = ref [] in
  let nc = 1 + Mirage_util.Rng.int rng 5 in
  for _ = 1 to nc do
    let k = 2 + Mirage_util.Rng.int rng (min 3 n - 1) in
    let terms =
      List.init k (fun _ ->
          let c =
            match Mirage_util.Rng.int rng 4 with
            | 0 -> -2
            | 1 -> -1
            | 2 -> 1
            | _ -> 2
          in
          (c, Mirage_util.Rng.int rng n))
    in
    let eq = Mirage_util.Rng.int rng 2 = 0 in
    let rhs = Mirage_util.Rng.int rng 10 - 2 in
    if eq then Cp.linear_eq m (List.map (fun (c, v) -> (c, xs.(v))) terms) rhs
    else Cp.linear_le m (List.map (fun (c, v) -> (c, xs.(v))) terms) rhs;
    constrs := { terms; eq; rhs } :: !constrs
  done;
  (m, List.rev !constrs, lo0, hi0)

let prop_differential_kernel =
  QCheck.Test.make
    ~name:"event kernel == naive fixpoint bounds, solve == brute-force verdict"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let m, constrs, lo0, hi0 = gen_system seed in
      (* 1. root propagation: identical fixpoint bounds or identical failure *)
      let reference =
        let lo = Array.copy lo0 and hi = Array.copy hi0 in
        match ref_fixpoint constrs lo hi with
        | () -> Some (lo, hi)
        | exception Ref_fail -> None
      in
      let bounds_ok =
        match (reference, Cp.root_fixpoint m) with
        | None, None -> true
        | Some (rlo, rhi), Some (klo, khi) -> rlo = klo && rhi = khi
        | _ -> false
      in
      (* 2. full solve: verdict must match exhaustive enumeration, and a Sat
         witness must actually satisfy every constraint *)
      let sat_truth = ref_brute_force constrs lo0 hi0 in
      let verdict_ok =
        match Cp.solve ~lp_guide:false m with
        | Cp.Sat f, _ -> sat_truth && ref_holds constrs (Cp.solution_of_fun m f)
        | Cp.Unsat, _ -> not sat_truth
        | Cp.Unknown, _ -> false
      in
      if not (bounds_ok && verdict_ok) then begin
        (let o, _ = Cp.solve ~lp_guide:false m in
         Printf.eprintf "outcome=%s\n"
           (match o with
           | Cp.Sat f ->
               Printf.sprintf "Sat [%s]"
                 (String.concat ";"
                    (Array.to_list
                       (Array.map string_of_int (Cp.solution_of_fun m f))))
           | Cp.Unsat -> "Unsat"
           | Cp.Unknown -> "Unknown"));
        Printf.eprintf "seed=%d bounds_ok=%b verdict_ok=%b sat_truth=%b\n" seed
          bounds_ok verdict_ok sat_truth;
        Printf.eprintf "lo0=[%s] hi0=[%s]\n"
          (String.concat ";" (Array.to_list (Array.map string_of_int lo0)))
          (String.concat ";" (Array.to_list (Array.map string_of_int hi0)));
        List.iter
          (fun { terms; eq; rhs } ->
            Printf.eprintf "  lin %s %s %d\n"
              (String.concat "+"
                 (List.map (fun (c, v) -> Printf.sprintf "%d*x%d" c v) terms))
              (if eq then "=" else "<=")
              rhs)
          constrs
      end;
      bounds_ok && verdict_ok)

let prop_kernel_search =
  QCheck.Test.make ~name:"event kernel search == naive full-sweep search"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let m, constrs, lo0, hi0 = gen_system seed in
      kernel_matches_naive m constrs lo0 hi0)

(* A transportation-like system of the key-generator shape, built from a
   known feasible point: [nj] cover equalities (one per T-partition column),
   [ni] pool-capacity rows and [groups] group budgets over contiguous blocks
   of the partition grid. *)
let make_cp_system ~ni ~nj ~groups =
  let rng = Mirage_util.Rng.create (ni + (31 * nj) + (977 * groups)) in
  (* sparse point with small values, so the zero-first search walks
     straight to it instead of thrashing *)
  let point =
    Array.init (ni * nj) (fun _ ->
        if Mirage_util.Rng.int rng 3 = 0 then 1 + Mirage_util.Rng.int rng 3
        else 0)
  in
  let col_sum j =
    List.init ni (fun i -> point.((i * nj) + j)) |> List.fold_left ( + ) 0
  in
  (* wide enough for one variable to absorb a whole column residual *)
  let hi = 1 + List.fold_left max 0 (List.init nj col_sum) in
  let m = Cp.create () in
  let xs = Array.init (ni * nj) (fun _ -> Cp.var m ~lo:0 ~hi) in
  let constrs = ref [] in
  let post eq terms rhs =
    let cp_terms = List.map (fun (a, q) -> (a, xs.(q))) terms in
    if eq then Cp.linear_eq m cp_terms rhs else Cp.linear_le m cp_terms rhs;
    constrs := { terms; eq; rhs } :: !constrs
  in
  let sum_of terms = List.fold_left (fun acc (_, q) -> acc + point.(q)) 0 terms in
  for j = 0 to nj - 1 do
    let terms = List.init ni (fun i -> (1, (i * nj) + j)) in
    post true terms (sum_of terms)
  done;
  (* slack for one full column residual, so these rows prune hi bounds
     without blocking the walk *)
  for i = 0 to ni - 1 do
    let terms = List.init nj (fun j -> (1, (i * nj) + j)) in
    post false terms (sum_of terms + (nj * hi))
  done;
  let block = max 2 (ni * nj / max 1 groups) in
  for g = 0 to groups - 1 do
    let start = g * block in
    if start + block <= ni * nj then begin
      let terms = List.init block (fun q -> (1, start + q)) in
      post false terms (sum_of terms + (block * hi))
    end
  done;
  (m, List.rev !constrs, Array.make (ni * nj) 0, Array.make (ni * nj) hi)

let test_transportation_search () =
  List.iter
    (fun (ni, nj, groups) ->
      let m, constrs, lo0, hi0 = make_cp_system ~ni ~nj ~groups in
      (match Cp.solve ~lp_guide:false m with
      | Cp.Sat _, _ -> ()
      | _ -> Alcotest.failf "%dx%d/%d: built from a point, must be sat" ni nj groups);
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d/%d kernel == naive" ni nj groups)
        true
        (kernel_matches_naive m constrs lo0 hi0))
    [ (2, 4, 2); (4, 8, 4); (6, 12, 8); (8, 16, 12); (10, 24, 16) ]

let () =
  Alcotest.run "cp"
    [
      ( "solver",
        [
          Alcotest.test_case "simple equality" `Quick test_simple_eq;
          Alcotest.test_case "unsat by bounds" `Quick test_unsat_bounds;
          Alcotest.test_case "negative coefficients" `Quick test_negative_coefficients;
          Alcotest.test_case "transportation model" `Quick test_transportation_model;
          Alcotest.test_case "aux vars" `Quick test_aux_vars_not_searched;
          Alcotest.test_case "lp objective" `Quick test_lp_objective_guides;
          Alcotest.test_case "empty model" `Quick test_empty_model;
          Alcotest.test_case "restart ladder" `Quick test_restart_ladder;
          Alcotest.test_case "var validation" `Quick test_var_validation;
          QCheck_alcotest.to_alcotest prop_random_feasible_systems;
          QCheck_alcotest.to_alcotest prop_differential_kernel;
          QCheck_alcotest.to_alcotest prop_kernel_search;
          Alcotest.test_case "transportation search == naive" `Quick
            test_transportation_search;
        ] );
    ]
