module Lp = Mirage_lp.Lp
module Rng = Mirage_util.Rng

(* --- oracle: the dense kernel the sparse one replaced ---------------------- *)

(* The dense two-phase tableau simplex, Gauss–Jordan over every column, kept
   verbatim as the reference: the sparse kernel must take the same pivots and
   return bitwise the same solution. *)
module Dense = struct
  let simplex_tableau ~eps ?allowed tab basis m total =
    let obj = m in
    let rhs = total in
    let allowed = match allowed with Some a -> a | None -> total in
    let rec iterate guard =
      if guard > 20_000 then `Unbounded
      else begin
        let entering = ref (-1) in
        (try
           for j = 0 to allowed - 1 do
             if tab.(obj).(j) < -.eps then begin
               entering := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !entering = -1 then `Optimal
        else begin
          let j = !entering in
          let leaving = ref (-1) in
          let best = ref infinity in
          for r = 0 to m - 1 do
            if tab.(r).(j) > eps then begin
              let ratio = tab.(r).(rhs) /. tab.(r).(j) in
              if
                ratio < !best -. eps
                || (abs_float (ratio -. !best) <= eps
                   && (!leaving = -1 || basis.(r) < basis.(!leaving)))
              then begin
                best := ratio;
                leaving := r
              end
            end
          done;
          if !leaving = -1 then `Unbounded
          else begin
            let r = !leaving in
            let piv = tab.(r).(j) in
            for k = 0 to total do
              tab.(r).(k) <- tab.(r).(k) /. piv
            done;
            for r' = 0 to m do
              if r' <> r && abs_float tab.(r').(j) > 0.0 then begin
                let f = tab.(r').(j) in
                for k = 0 to total do
                  tab.(r').(k) <- tab.(r').(k) -. (f *. tab.(r).(k))
                done
              end
            done;
            basis.(r) <- j;
            iterate (guard + 1)
          end
        end
      end
    in
    iterate 0

  let solve ?(eps = 1e-9) ~a ~b ~c () =
    let m = Array.length a in
    let n = Array.length c in
    let a = Array.map Array.copy a and b = Array.copy b in
    for r = 0 to m - 1 do
      if b.(r) < 0.0 then begin
        b.(r) <- -.b.(r);
        for j = 0 to n - 1 do
          a.(r).(j) <- -.a.(r).(j)
        done
      end
    done;
    let total = n + m in
    let tab = Array.make_matrix (m + 1) (total + 1) 0.0 in
    let basis = Array.make m 0 in
    for r = 0 to m - 1 do
      for j = 0 to n - 1 do
        tab.(r).(j) <- a.(r).(j)
      done;
      tab.(r).(n + r) <- 1.0;
      tab.(r).(total) <- b.(r);
      basis.(r) <- n + r
    done;
    for j = 0 to total do
      let s = ref 0.0 in
      for r = 0 to m - 1 do
        s := !s +. tab.(r).(j)
      done;
      tab.(m).(j) <- -. !s
    done;
    for r = 0 to m - 1 do
      tab.(m).(n + r) <- 0.0
    done;
    match simplex_tableau ~eps tab basis m total with
    | `Unbounded -> Lp.Infeasible
    | `Optimal ->
        if tab.(m).(total) < -.(eps *. 1e3) -. 1e-6 then Lp.Infeasible
        else begin
          for r = 0 to m - 1 do
            if basis.(r) >= n then begin
              let j = ref (-1) in
              (try
                 for k = 0 to n - 1 do
                   if abs_float tab.(r).(k) > eps *. 10.0 then begin
                     j := k;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if !j >= 0 then begin
                let piv = tab.(r).(!j) in
                for k = 0 to total do
                  tab.(r).(k) <- tab.(r).(k) /. piv
                done;
                for r' = 0 to m do
                  if r' <> r && abs_float tab.(r').(!j) > 0.0 then begin
                    let f = tab.(r').(!j) in
                    for k = 0 to total do
                      tab.(r').(k) <- tab.(r').(k) -. (f *. tab.(r).(k))
                    done
                  end
                done;
                basis.(r) <- !j
              end
            end
          done;
          for k = 0 to total do
            tab.(m).(k) <- 0.0
          done;
          for j = 0 to n - 1 do
            tab.(m).(j) <- c.(j)
          done;
          for r = 0 to m - 1 do
            if basis.(r) < n && abs_float tab.(m).(basis.(r)) > 0.0 then begin
              let f = tab.(m).(basis.(r)) in
              for k = 0 to total do
                tab.(m).(k) <- tab.(m).(k) -. (f *. tab.(r).(k))
              done
            end
          done;
          match simplex_tableau ~eps ~allowed:n tab basis m total with
          | `Unbounded -> Lp.Unbounded
          | `Optimal ->
              let x = Array.make n 0.0 in
              for r = 0 to m - 1 do
                if basis.(r) < n then x.(basis.(r)) <- tab.(r).(total)
              done;
              Array.iteri (fun i v -> if v < 0.0 then x.(i) <- 0.0) x;
              Lp.Optimal x
        end
end

let test_feasible_point_simple () =
  (* x + y = 5 *)
  let a = [| [| (0, 1.0); (1, 1.0) |] |] and b = [| 5.0 |] in
  match Lp.feasible_point ~n:2 ~a ~b () with
  | Some x ->
      Alcotest.(check (float 1e-6)) "sums to 5" 5.0 (x.(0) +. x.(1));
      Alcotest.(check bool) "non-negative" true (x.(0) >= -1e-9 && x.(1) >= -1e-9)
  | None -> Alcotest.fail "feasible system"

let test_optimal_known () =
  (* minimise x subject to x + y = 10, x - s = 3  (i.e. x >= 3) -> x = 3 *)
  let a = [| [| (0, 1.0); (1, 1.0) |]; [| (0, 1.0); (2, -1.0) |] |] in
  let b = [| 10.0; 3.0 |] in
  let c = [| 1.0; 0.0; 0.0 |] in
  match Lp.solve ~a ~b ~c () with
  | Lp.Optimal x -> Alcotest.(check (float 1e-6)) "x = 3" 3.0 x.(0)
  | _ -> Alcotest.fail "should be optimal"

let test_infeasible () =
  (* x = 5 and x = 3 *)
  let a = [| [| (0, 1.0) |]; [| (0, 1.0) |] |] and b = [| 5.0; 3.0 |] in
  Alcotest.(check bool) "infeasible" true (Lp.feasible_point ~n:1 ~a ~b () = None)

let test_negative_rhs_normalised () =
  (* -x = -4  ->  x = 4 *)
  let a = [| [| (0, -1.0) |] |] and b = [| -4.0 |] in
  match Lp.feasible_point ~n:1 ~a ~b () with
  | Some x -> Alcotest.(check (float 1e-6)) "x = 4" 4.0 x.(0)
  | None -> Alcotest.fail "feasible"

let rejects label a =
  Alcotest.(check bool) label true
    (try
       ignore (Lp.solve ~a ~b:[| 1.0 |] ~c:[| 1.0; 2.0 |] ());
       false
     with Invalid_argument _ -> true)

(* A sparse row is ragged when it reaches past the [n] columns fixed by [c]. *)
let test_ragged_rejected () =
  rejects "column n" [| [| (0, 1.0); (2, 1.0) |] |];
  rejects "negative column" [| [| (-1, 1.0) |] |]

let test_duplicate_column_rejected () =
  rejects "column twice" [| [| (1, 1.0); (0, 1.0); (1, 2.0) |] |]

(* --- random LPs shaped like Cp.lp_guess's relaxation ------------------------ *)

let densify ~n a =
  Array.map
    (fun row ->
      let d = Array.make n 0.0 in
      Array.iter (fun (j, v) -> d.(j) <- v) row;
      d)
    a

(* All-ones cover equalities, [≤] rows with a slack, [x - y - s = 0] rows and
   bound rows [x + s = hi], [x - s' = lo] over a hidden integer point with
   many zeros and tight bounds (degenerate ties).  Some rows are posted
   negated (negative right-hand sides), some right-hand sides are perturbed
   (infeasible systems), some variables have no bound row and the objective
   may pull them up (unbounded systems), and repeated terms are summed the
   way lp_guess sums them, which can leave an explicit zero entry. *)
let random_lp seed =
  let rng = Rng.create seed in
  let int n = Rng.int rng n in
  let k = 1 + int 12 in
  let x0 = Array.init k (fun _ -> if int 3 = 0 then 0 else int 6) in
  let rows = ref [] and n = ref k in
  let noise () = if int 10 = 0 then int 7 - 3 else 0 in
  let add ?slack terms rhs =
    let terms =
      List.fold_left
        (fun acc (v, coef) ->
          match List.assoc_opt v acc with
          | Some s -> (v, s +. coef) :: List.remove_assoc v acc
          | None -> (v, 0.0 +. coef) :: acc)
        [] terms
    in
    let terms =
      match slack with
      | None -> terms
      | Some coef ->
          incr n;
          (!n - 1, coef) :: terms
    in
    let terms, rhs =
      if int 6 = 0 then (List.map (fun (v, x) -> (v, -.x)) terms, -rhs) else (terms, rhs)
    in
    rows := (Array.of_list terms, float_of_int (rhs + noise ())) :: !rows
  in
  let value terms =
    List.fold_left (fun s (v, coef) -> s + (int_of_float coef * x0.(v))) 0 terms
  in
  let pick () = List.init (1 + int 4) (fun _ -> int k) in
  for _ = 1 to int 3 do
    let vs = List.sort_uniq compare (pick ()) in
    let terms = List.map (fun v -> (v, 1.0)) vs in
    add terms (value terms)
  done;
  for _ = 1 to int 4 do
    let terms =
      List.map (fun v -> (v, [| 1.0; 1.0; 1.0; 2.0; 3.0; -1.0 |].(int 6))) (pick ())
    in
    add ~slack:1.0 terms (value terms + int 3)
  done;
  for _ = 1 to int 3 do
    let x = int k and y = int k in
    if x <> y then begin
      let x, y = if x0.(x) >= x0.(y) then (x, y) else (y, x) in
      add ~slack:(-1.0) [ (x, 1.0); (y, -1.0) ] 0
    end
  done;
  for v = 0 to k - 1 do
    if int 6 <> 0 then add ~slack:1.0 [ (v, 1.0) ] (x0.(v) + int 2);
    if x0.(v) > 0 && int 3 = 0 then add ~slack:(-1.0) [ (v, 1.0) ] (x0.(v) - int 2)
  done;
  let a, b = List.split (List.rev !rows) in
  let c =
    Array.init !n (fun v -> if v < k then [| -1.0; 0.0; 0.0; 1.0; 2.0 |].(int 5) else 0.0)
  in
  (Array.of_list a, Array.of_list b, c)

(* bitwise-equal solutions, except that [-0.0 = 0.0] *)
let same_outcome o1 o2 =
  let same_float x y =
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) || (x = 0.0 && y = 0.0)
  in
  match (o1, o2) with
  | Lp.Optimal x, Lp.Optimal y ->
      Array.length x = Array.length y && Array.for_all2 same_float x y
  | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> true
  | _ -> false

let agrees_with_dense (a, b, c) =
  let n = Array.length c in
  same_outcome (Lp.solve ~a ~b ~c ()) (Dense.solve ~a:(densify ~n a) ~b ~c ())
  && same_outcome
       (match Lp.feasible_point ~n ~a ~b () with
        | Some x -> Lp.Optimal x
        | None -> Lp.Infeasible)
       (match Dense.solve ~a:(densify ~n a) ~b ~c:(Array.make n 0.0) () with
        | Lp.Optimal x -> Lp.Optimal x
        | _ -> Lp.Infeasible)

let prop_sparse_equals_dense =
  QCheck.Test.make ~name:"sparse kernel = dense kernel, bitwise" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed -> agrees_with_dense (random_lp seed))

let outcome_name = function
  | Lp.Optimal _ -> "optimal"
  | Lp.Infeasible -> "infeasible"
  | Lp.Unbounded -> "unbounded"

(* Random LPs side by side on disjoint columns, until the tableau reaches
   the size that [Mem.zeroed] maps from zero pages instead of mallocing. *)
let test_mapped_tableau () =
  let rows = ref [] and bs = ref [] and cs = ref [] and n = ref 0 and m = ref 0 in
  let seed = ref 0 in
  while (!m + 1) * (!n + !m + 1) * 8 < Mirage_util.Mem.mapped_min_bytes do
    let a, b, c = random_lp !seed in
    incr seed;
    if outcome_name (Lp.solve ~a ~b ~c ()) = "optimal" then begin
      let off = !n in
      rows := Array.map (Array.map (fun (j, v) -> (j + off, v))) a :: !rows;
      bs := b :: !bs;
      cs := c :: !cs;
      n := !n + Array.length c;
      m := !m + Array.length a
    end
  done;
  let a = Array.concat (List.rev !rows)
  and b = Array.concat (List.rev !bs)
  and c = Array.concat (List.rev !cs) in
  Alcotest.(check string) "outcome" "optimal" (outcome_name (Lp.solve ~a ~b ~c ()));
  Alcotest.(check bool) "same solution as the dense oracle, bitwise" true
    (agrees_with_dense (a, b, c))

let test_differential_outcomes () =
  (* the generator must reach every outcome, each bitwise-equal to the
     oracle's *)
  let seen = Hashtbl.create 3 in
  for seed = 0 to 999 do
    let ((a, b, c) as lp) = random_lp seed in
    if not (agrees_with_dense lp) then Alcotest.failf "seed %d: sparse <> dense" seed;
    Hashtbl.replace seen (outcome_name (Lp.solve ~a ~b ~c ())) ()
  done;
  List.iter
    (fun o -> Alcotest.(check bool) (o ^ " reached") true (Hashtbl.mem seen o))
    [ "optimal"; "infeasible"; "unbounded" ]

let test_inputs_unchanged () =
  for seed = 0 to 99 do
    let a, b, c = random_lp seed in
    let before = Marshal.to_string (a, b, c) [] in
    ignore (Lp.solve ~a ~b ~c ());
    ignore (Lp.feasible_point ~n:(Array.length c) ~a ~b ());
    if not (String.equal before (Marshal.to_string (a, b, c) [])) then
      Alcotest.failf "seed %d: solve mutated its inputs" seed
  done

let test_round_preserving_sum_basic () =
  let r = Lp.round_preserving_sum [| 1.4; 2.6; 3.0 |] ~total:7 in
  Alcotest.(check int) "sums" 7 (Array.fold_left ( + ) 0 r);
  Array.iter (fun v -> Alcotest.(check bool) "non-negative" true (v >= 0)) r

let test_round_deficit_and_excess () =
  let r = Lp.round_preserving_sum [| 0.5; 0.5 |] ~total:1 in
  Alcotest.(check int) "deficit handled" 1 (Array.fold_left ( + ) 0 r);
  let r = Lp.round_preserving_sum [| 2.0; 2.0 |] ~total:3 in
  Alcotest.(check int) "excess handled" 3 (Array.fold_left ( + ) 0 r)

let prop_round_sum =
  QCheck.Test.make ~name:"rounding preserves total and non-negativity" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 8) (float_range 0.0 50.0)) (int_range 0 100))
    (fun (xs, total) ->
      let arr = Array.of_list xs in
      let r = Lp.round_preserving_sum arr ~total in
      Array.fold_left ( + ) 0 r = total || Array.fold_left ( +. ) 0.0 arr < float_of_int total /. 2.0
      (* when the input mass is far below the target the repair can only add
         1 per element; accept those degenerate cases *)
      || Array.length r = 0)

let prop_feasible_systems_found =
  (* A x = b with b computed from a known x0 >= 0 must be feasible *)
  QCheck.Test.make ~name:"systems with known solutions are feasible" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 1 6))
    (fun (m, n) ->
      let rng = Mirage_util.Rng.create ((m * 13) + n) in
      let a =
        Array.init m (fun _ ->
            Array.init n (fun _ -> float_of_int (Mirage_util.Rng.int rng 4)))
      in
      let sparse =
        Array.map
          (fun row ->
            Array.of_list
              (List.filter
                 (fun (_, v) -> v <> 0.0)
                 (List.mapi (fun j v -> (j, v)) (Array.to_list row))))
          a
      in
      let x0 = Array.init n (fun _ -> float_of_int (Mirage_util.Rng.int rng 9)) in
      let b =
        Array.init m (fun r ->
            Array.to_list (Array.mapi (fun j v -> v *. x0.(j)) a.(r))
            |> List.fold_left ( +. ) 0.0)
      in
      match Lp.feasible_point ~n ~a:sparse ~b () with
      | Some x ->
          (* verify A x = b within tolerance *)
          Array.to_list a
          |> List.mapi (fun r row ->
                 let s =
                   Array.to_list (Array.mapi (fun j v -> v *. x.(j)) row)
                   |> List.fold_left ( +. ) 0.0
                 in
                 abs_float (s -. b.(r)) < 1e-4)
          |> List.for_all (fun ok -> ok)
      | None -> false)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "feasible point" `Quick test_feasible_point_simple;
          Alcotest.test_case "known optimum" `Quick test_optimal_known;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_normalised;
          Alcotest.test_case "ragged rejected" `Quick test_ragged_rejected;
          Alcotest.test_case "duplicate column rejected" `Quick
            test_duplicate_column_rejected;
          QCheck_alcotest.to_alcotest prop_feasible_systems_found;
          Alcotest.test_case "inputs unchanged" `Quick test_inputs_unchanged;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "every outcome = dense oracle" `Quick
            test_differential_outcomes;
          QCheck_alcotest.to_alcotest prop_sparse_equals_dense;
          Alcotest.test_case "mapped tableau = dense oracle" `Quick test_mapped_tableau;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "basic" `Quick test_round_preserving_sum_basic;
          Alcotest.test_case "deficit and excess" `Quick test_round_deficit_and_excess;
          QCheck_alcotest.to_alcotest prop_round_sum;
        ] );
    ]
