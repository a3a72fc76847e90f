module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Parser = Mirage_sql.Parser
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan
module Db = Mirage_engine.Db
module Col = Mirage_engine.Col
module Exec = Mirage_engine.Exec
module Ir = Mirage_core.Ir
module Diag = Mirage_core.Diag
module Decouple = Mirage_core.Decouple
module Cdf = Mirage_core.Cdf
module Nonkey = Mirage_core.Nonkey
module Acc = Mirage_core.Acc
module Rewrite = Mirage_core.Rewrite
module Extract = Mirage_core.Extract
module Keygen = Mirage_core.Keygen
module Workload = Mirage_core.Workload

module Str_ext = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

let schema =
  Schema.make
    [
      {
        Schema.tname = "s";
        pk = "s_pk";
        nonkeys = [ { Schema.cname = "s1"; domain_size = 4; kind = Schema.Kint } ];
        fks = [];
        row_count = 4;
      };
      {
        Schema.tname = "t";
        pk = "t_pk";
        nonkeys =
          [
            { Schema.cname = "t1"; domain_size = 5; kind = Schema.Kint };
            { Schema.cname = "t2"; domain_size = 4; kind = Schema.Kint };
            { Schema.cname = "tt"; domain_size = 3; kind = Schema.Kstring };
          ];
        fks = [ { Schema.fk_col = "t_fk"; references = "s" } ];
        row_count = 8;
      };
    ]

let dom t c = (Schema.nonkey (Schema.table schema t) c).Schema.domain_size
let table_rows t = (Schema.table schema t).Schema.row_count

let scc table pred rows =
  { Ir.scc_table = table; scc_pred = Parser.pred pred; scc_rows = rows; scc_source = "test" }

(* --- Decouple (§4.1) ------------------------------------------------------ *)

let test_decouple_single_literal () =
  let d =
    Decouple.run schema ~dom ~table_rows ~param_key:(fun _ -> None)
      [ scc "t" "t1 > $p" 6 ]
  in
  Alcotest.(check int) "one ucc" 1 (List.length d.Decouple.uccs);
  Alcotest.(check int) "no acc" 0 (List.length d.Decouple.accs)

let test_decouple_arith_to_acc () =
  let d =
    Decouple.run schema ~dom ~table_rows ~param_key:(fun _ -> None)
      [ scc "t" "t1 - t2 > $p" 5 ]
  in
  Alcotest.(check int) "one acc" 1 (List.length d.Decouple.accs);
  let a = List.hd d.Decouple.accs in
  Alcotest.(check int) "rows kept" 5 a.Ir.acc_rows

let test_decouple_fig5_v9 () =
  (* (t1 <= p4 or t2 = p5) and t1 - t2 < p6 with |V| = 1: the kept clause is
     the unary one (cheapest), the arith clause becomes universal, the
     eliminated literal gets a sentinel *)
  let d =
    Decouple.run schema ~dom ~table_rows ~param_key:(fun _ -> None)
      [ scc "t" "(t1 <= $p4 or t2 = $p5) and t1 - t2 < $p6" 1 ]
  in
  Alcotest.(check int) "exactly one ucc" 1 (List.length d.Decouple.uccs);
  let u = List.hd d.Decouple.uccs in
  Alcotest.(check int) "count preserved" 1 u.Ir.ucc_rows;
  Alcotest.(check string) "on t1" "t1" u.Ir.ucc_col;
  (* p6 eliminated as universe *)
  (match Pred.Env.find "p6" d.Decouple.fixed_env with
  | Some (Pred.Env.Scalar (Value.Float f)) ->
      Alcotest.(check bool) "p6 = +inf" true (f > 1e17)
  | _ -> Alcotest.fail "p6 not bound");
  (* p5 eliminated as empty (value 0 outside cardinality space) *)
  match Pred.Env.find "p5" d.Decouple.fixed_env with
  | Some (Pred.Env.Scalar (Value.Int 0)) -> ()
  | _ -> Alcotest.fail "p5 not bound to the empty sentinel"

let test_decouple_fig5_v10_demorgan () =
  (* t1 <> p7 or t2 <> p8 with |V| = 5 over |T| = 8: rule 3 gives the
     complement intersection with count 3, as equality UCCs plus a bound
     group *)
  let d =
    Decouple.run schema ~dom ~table_rows ~param_key:(fun _ -> None)
      [ scc "t" "t1 <> $p7 or t2 <> $p8" 5 ]
  in
  Alcotest.(check int) "two eq uccs" 2 (List.length d.Decouple.uccs);
  List.iter
    (fun (u : Ir.ucc) -> Alcotest.(check int) "complement count" 3 u.Ir.ucc_rows)
    d.Decouple.uccs;
  match d.Decouple.bound with
  | [ b ] ->
      Alcotest.(check int) "bound rows" 3 b.Ir.br_rows;
      Alcotest.(check int) "two cells" 2 (List.length b.Ir.br_cells)
  | _ -> Alcotest.fail "expected one bound group"

let test_decouple_key_column_skipped () =
  let d =
    Decouple.run schema ~dom ~table_rows ~param_key:(fun _ -> None)
      [ scc "t" "t_fk = $p" 2 ]
  in
  Alcotest.(check int) "skipped" 1 (List.length d.Decouple.skipped)

let test_decouple_conflicting_param_counts () =
  let sccs = [ scc "t" "t1 = $p" 3; scc "t" "t1 = $p" 5 ] in
  let d = Decouple.run schema ~dom ~table_rows ~param_key:(fun _ -> None) sccs in
  Alcotest.(check int) "kept one" 1 (List.length d.Decouple.uccs);
  Alcotest.(check int) "conflict reported" 1 (List.length d.Decouple.skipped)

let test_decouple_double_bind_guard () =
  (* $p is kept as a forced UCC and also appears in an OR clause whose
     elimination would sentinel-bind it; the guard must keep the counted
     constraint and drop the sentinel binding *)
  let d =
    Decouple.run schema ~dom ~table_rows ~param_key:(fun _ -> None)
      [ scc "t" "t1 = $p" 3; scc "t" "t1 = $p or t2 > $q" 5 ]
  in
  Alcotest.(check bool) "p not sentinel-bound" false
    (List.mem_assoc "p" (Pred.Env.bindings d.Decouple.fixed_env));
  Alcotest.(check bool) "double bind reported" true
    (List.exists
       (fun (d : Diag.t) ->
         Str_ext.contains d.Diag.d_message "both eliminated and kept")
       d.Decouple.skipped)

let test_sentinels () =
  let lit cmp = Pred.Cmp { col = "t1"; cmp; arg = Pred.Param "p" } in
  let u = Decouple.universe_sentinel Schema.Kint ~dom:5 in
  let e = Decouple.empty_sentinel Schema.Kint ~dom:5 in
  Alcotest.(check bool) "gt universe = 0" true
    (u (lit Pred.Gt) = Some (Pred.Env.Scalar (Value.Int 0)));
  Alcotest.(check bool) "le universe = dom" true
    (u (lit Pred.Le) = Some (Pred.Env.Scalar (Value.Int 5)));
  Alcotest.(check bool) "eq has no universe" true (u (lit Pred.Eq) = None);
  Alcotest.(check bool) "eq empty = 0" true
    (e (lit Pred.Eq) = Some (Pred.Env.Scalar (Value.Int 0)));
  Alcotest.(check bool) "neq has no empty" true (e (lit Pred.Neq) = None)

(* --- Cdf (§4.2-4.3) ------------------------------------------------------- *)

let no_elements _ = []
let no_key _ = None

let ucc table col lit rows =
  { Ir.ucc_table = table; ucc_col = col; ucc_lit = lit; ucc_rows = rows; ucc_source = "test" }

let cmp_lit col cmp p = Pred.Cmp { col; cmp; arg = Pred.Param p }

let layout_exn = function Ok l -> l | Error m -> Alcotest.failf "cdf failed: %s" m

(* evaluate a UCC against a layout: count rows its instantiated parameter
   selects in the value multiset *)
let count_in_layout (l : Cdf.layout) lit =
  let card p =
    match Cdf.lookup_param_card l p with Some v -> v | None -> Alcotest.failf "no card for %s" p
  in
  let counts = l.Cdf.l_value_counts in
  let sum_where f =
    let s = ref 0 in
    Array.iteri (fun i c -> if f (i + 1) then s := !s + c) counts;
    !s
  in
  match lit with
  | Pred.Cmp { cmp = Pred.Le; arg = Pred.Param p; _ } -> sum_where (fun v -> v <= card p)
  | Pred.Cmp { cmp = Pred.Lt; arg = Pred.Param p; _ } -> sum_where (fun v -> v < card p)
  | Pred.Cmp { cmp = Pred.Gt; arg = Pred.Param p; _ } -> sum_where (fun v -> v > card p)
  | Pred.Cmp { cmp = Pred.Ge; arg = Pred.Param p; _ } -> sum_where (fun v -> v >= card p)
  | Pred.Cmp { cmp = Pred.Eq; arg = Pred.Param p; _ } -> sum_where (fun v -> v = card p)
  | Pred.Cmp { cmp = Pred.Neq; arg = Pred.Param p; _ } -> sum_where (fun v -> v <> card p)
  | _ -> Alcotest.fail "unsupported literal in test"

let test_cdf_example_46 () =
  (* Example 4.6: |T| = 8, dom 5, UCCs t1>p2=6, t1<=p4=1, t1=p7=3 *)
  let uccs =
    [
      ucc "t" "t1" (cmp_lit "t1" Pred.Gt "p2") 6;
      ucc "t" "t1" (cmp_lit "t1" Pred.Le "p4") 1;
      ucc "t" "t1" (cmp_lit "t1" Pred.Eq "p7") 3;
    ]
  in
  let l =
    layout_exn
      (Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:5 ~rows:8 ~uccs
         ~elements:no_elements ~param_key:no_key ())
  in
  Alcotest.(check int) "total rows" 8 (Array.fold_left ( + ) 0 l.Cdf.l_value_counts);
  Alcotest.(check int) "all 5 values present" 5
    (Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 l.Cdf.l_value_counts);
  List.iter
    (fun (u : Ir.ucc) ->
      let expected =
        match u.Ir.ucc_lit with
        | Pred.Cmp { cmp = Pred.Gt; _ } -> 6
        | Pred.Cmp { cmp = Pred.Le; _ } -> 1
        | _ -> 3
      in
      Alcotest.(check int) "ucc satisfied" expected (count_in_layout l u.Ir.ucc_lit))
    uccs

let test_cdf_equal_counts_share_value () =
  let uccs =
    [
      ucc "t" "t1" (cmp_lit "t1" Pred.Eq "a") 4;
      ucc "t" "t1" (cmp_lit "t1" Pred.Eq "b") 4;
    ]
  in
  let key p = Some (Value.Int (if p = "a" || p = "b" then 2 else 0)) in
  let l =
    layout_exn
      (Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:5 ~rows:8 ~uccs
         ~elements:no_elements ~param_key:key ())
  in
  Alcotest.(check (option int)) "same value" (Cdf.lookup_param_card l "a")
    (Cdf.lookup_param_card l "b")

let test_cdf_string_rendering_order () =
  let uccs = [ ucc "t" "tt" (cmp_lit "tt" Pred.Le "p") 5 ] in
  let l =
    layout_exn
      (Cdf.build ~table:"t" ~col:"tt" ~kind:Schema.Kstring ~dom:3 ~rows:8 ~uccs
         ~elements:no_elements ~param_key:no_key ())
  in
  (* rendering preserves order *)
  let r1 = l.Cdf.l_render 1 and r2 = l.Cdf.l_render 2 in
  Alcotest.(check bool) "lexicographic" true (Value.compare r1 r2 < 0)

let test_cdf_infeasible_inputs () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "count > rows" true
    (is_err
       (Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:5 ~rows:8
          ~uccs:[ ucc "t" "t1" (cmp_lit "t1" Pred.Eq "p") 9 ]
          ~elements:no_elements ~param_key:no_key ()));
  Alcotest.(check bool) "dom > rows" true
    (is_err
       (Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:9 ~rows:8 ~uccs:[]
          ~elements:no_elements ~param_key:no_key ()))

let test_cdf_default_layout () =
  let l = Cdf.default_layout ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:5 ~rows:8 in
  Alcotest.(check int) "rows" 8 (Array.fold_left ( + ) 0 l.Cdf.l_value_counts);
  Array.iter (fun c -> Alcotest.(check bool) "every value present" true (c > 0))
    l.Cdf.l_value_counts

let prop_cdf_satisfies_random_anchor_sets =
  (* random consistent F-anchors (from a production-like column) are always
     satisfied exactly: Theorem 6.1 *)
  QCheck.Test.make ~name:"random anchor sets reproduce exactly" ~count:200
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Mirage_util.Rng.create seed in
      let rows = 40 + Mirage_util.Rng.int rng 60 in
      let dom = 2 + Mirage_util.Rng.int rng 10 in
      (* fabricate a production column and derive true counts *)
      let data = Array.init rows (fun _ -> 1 + Mirage_util.Rng.int rng dom) in
      let dom_actual = Array.to_list data |> List.sort_uniq compare |> List.length in
      let n_anchors = 1 + Mirage_util.Rng.int rng 3 in
      let uccs =
        List.init n_anchors (fun i ->
            let pv = 1 + Mirage_util.Rng.int rng dom in
            let cnt = Array.fold_left (fun a v -> if v <= pv then a + 1 else a) 0 data in
            ( ucc "t" "t1" (cmp_lit "t1" Pred.Le (Printf.sprintf "p%d" i)) cnt,
              cnt ))
      in
      match
        Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:dom_actual ~rows
          ~uccs:(List.map fst uccs) ~elements:no_elements ~param_key:no_key ()
      with
      | Error _ -> false
      | Ok l ->
          List.for_all
            (fun ((u : Ir.ucc), cnt) -> count_in_layout l u.Ir.ucc_lit = cnt)
            uccs)

(* Random UCC mixes over a fabricated production column: ranges, equality
   and inequality, IN lists and LIKE groups, with production keys that
   repeat (several parameters on one value, so equal (key, rows) items
   alias) and, on integer columns, keys given as [Float] images that
   [Value.compare] equates with the [Int] keys. *)
let random_cdf_input seed =
  let rng = Mirage_util.Rng.create seed in
  let int n = Mirage_util.Rng.int rng n in
  let kind = if int 2 = 0 then Schema.Kint else Schema.Kstring in
  let rows = 20 + int 150 in
  let distinct = 2 + int 25 in
  let data = Array.init rows (fun _ -> 1 + int distinct) in
  let present = Array.to_list data |> List.sort_uniq compare in
  let count f = Array.fold_left (fun a v -> if f v then a + 1 else a) 0 data in
  let key v =
    match kind with
    | Schema.Kint -> if int 3 = 0 then Value.Float (float_of_int v) else Value.Int v
    | _ -> Value.Str (Printf.sprintf "s%03d" v)
  in
  let keys = Hashtbl.create 16 and element_lists = Hashtbl.create 16 in
  let pick () = 1 + int distinct in
  let uccs =
    List.init (1 + int 12) (fun i ->
        let p = Printf.sprintf "p%d" i in
        let v = pick () in
        let scalar cmp f =
          Hashtbl.replace keys p (key v);
          ucc "t" "c" (cmp_lit "c" cmp p) (count f)
        in
        match int (if kind = Schema.Kstring then 9 else 8) with
        | 0 -> scalar Pred.Le (fun x -> x <= v)
        | 1 -> scalar Pred.Lt (fun x -> x < v)
        | 2 -> scalar Pred.Gt (fun x -> x > v)
        | 3 -> scalar Pred.Ge (fun x -> x >= v)
        | 4 | 5 -> scalar Pred.Eq (fun x -> x = v)
        | 6 -> scalar Pred.Neq (fun x -> x <> v)
        | 7 ->
            let vs = List.sort_uniq compare (List.init (1 + int 4) (fun _ -> pick ())) in
            let neg = int 4 = 0 in
            Hashtbl.replace element_lists p
              (List.map (fun v -> (key v, count (( = ) v))) vs);
            let k = count (fun x -> List.mem x vs) in
            ucc "t" "c"
              (Pred.In { col = "c"; neg; arg = Pred.Param p })
              (if neg then rows - k else k)
        | _ ->
            let vs = List.filter (fun _ -> int 3 = 0) present in
            let neg = int 4 = 0 in
            Hashtbl.replace element_lists p
              (List.map (fun v -> (key v, count (( = ) v))) vs);
            let k = count (fun x -> List.mem x vs) in
            ucc "t" "c"
              (Pred.Like { col = "c"; neg; arg = Pred.Param p })
              (if neg then rows - k else k))
  in
  let elements = function
    | Pred.In { arg = Pred.Param p; _ } | Pred.Like { arg = Pred.Param p; _ } ->
        Option.value (Hashtbl.find_opt element_lists p) ~default:[]
    | _ -> []
  in
  let dom = max 1 (min rows (List.length present - 1 + int 4)) in
  (kind, rows, dom, uccs, elements, Hashtbl.find_opt keys)

let prop_cdf_matches_scan_reference =
  QCheck.Test.make ~name:"build = list-scan reference on random UCC mixes" ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let kind, rows, dom, uccs, elements, param_key = random_cdf_input seed in
      match
        ( Cdf.build ~table:"t" ~col:"c" ~kind ~dom ~rows ~uccs ~elements ~param_key (),
          Cdf_reference.build ~table:"t" ~col:"c" ~kind ~dom ~rows ~uccs ~elements
            ~param_key () )
      with
      | Ok l, Ok r ->
          l.Cdf.l_value_counts = r.Cdf_reference.l_value_counts
          && l.Cdf.l_param_card = r.Cdf_reference.l_param_card
          && l.Cdf.l_bindings = r.Cdf_reference.l_bindings
          && List.for_all
               (fun v -> l.Cdf.l_render v = r.Cdf_reference.l_render v)
               (List.init (dom + 1) Fun.id)
      | Error a, Error b -> a = b
      | Ok _, Error e -> QCheck.Test.fail_reportf "reference failed: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "build failed: %s" e)

(* A LIKE parameter matching [m] distinct production values expands to [m]
   E-items, each of which looks up an alias and a parameter card.  Linear
   lookups take about 4x as long at 4m as at m; a scan over all items per
   lookup takes about 16x. *)
let test_cdf_like_items_scale_linearly () =
  let build_seconds m =
    let els = List.init m (fun i -> (Value.Str (Printf.sprintf "s%07d" i), 1 + (i mod 3))) in
    let rows = List.fold_left (fun a (_, c) -> a + c) m els in
    let uccs =
      [ ucc "t" "c" (Pred.Like { col = "c"; neg = false; arg = Pred.Param "p" }) (rows - m) ]
    in
    (* CPU seconds: time other processes take on the host is not counted.
       A full major collection first, so no run pays for the garbage the
       previous one left. *)
    Gc.full_major ();
    let t0 = Sys.time () in
    let l =
      layout_exn
        (Cdf.build ~table:"t" ~col:"c" ~kind:Schema.Kstring ~dom:(m + 1) ~rows ~uccs
           ~elements:(fun _ -> els) ~param_key:no_key ())
    in
    let dt = Sys.time () -. t0 in
    Alcotest.(check int) "one card per item" m (List.length l.Cdf.l_param_card);
    dt
  in
  (* each size's minimum CPU time over 3 runs; the sizes alternate, so a
     change in the host's load reaches both *)
  let small = ref infinity and large = ref infinity in
  for _ = 1 to 3 do
    small := Float.min !small (build_seconds 50_000);
    large := Float.min !large (build_seconds 200_000)
  done;
  let small = !small and large = !large in
  if large > 8.0 *. small then
    Alcotest.failf "200k LIKE items took %.3f CPU s, %.1fx the %.3f CPU s of 50k" large
      (large /. small) small

(* --- Nonkey (§4.3) --------------------------------------------------------- *)

let test_nonkey_preserves_multisets () =
  let t = Schema.table schema "t" in
  let layouts =
    List.map
      (fun (c : Schema.column) ->
        ( c.Schema.cname,
          Cdf.default_layout ~table:"t" ~col:c.Schema.cname ~kind:c.Schema.kind
            ~dom:c.Schema.domain_size ~rows:8 ))
      t.Schema.nonkeys
  in
  let cols =
    Nonkey.generate ~rng:(Mirage_util.Rng.create 3) ~table:t ~rows:8 ~layouts
      ~bound:[] ~param_values:(fun _ -> None) ()
  in
  Alcotest.(check int) "pk + 3 nonkeys" 4 (List.length cols);
  List.iter
    (fun (name, col) ->
      Alcotest.(check int) (name ^ " length") 8 (Mirage_engine.Col.length col);
      Alcotest.(check bool) (name ^ " no nulls") true
        (Array.for_all
           (fun v -> v <> Value.Null)
           (Mirage_engine.Col.to_values col)))
    cols

let test_nonkey_bound_rows () =
  let t = Schema.table schema "t" in
  let mk col =
    (col, Cdf.default_layout ~table:"t" ~col ~kind:Schema.Kint
            ~dom:(Schema.nonkey t col).Schema.domain_size ~rows:8)
  in
  let layouts = [ mk "t1"; mk "t2"; ("tt", Cdf.default_layout ~table:"t" ~col:"tt" ~kind:Schema.Kstring ~dom:3 ~rows:8) ] in
  let bound =
    [ { Ir.br_table = "t"; br_cells = [ ("t1", "p7"); ("t2", "p8") ]; br_rows = 1;
        br_source = "test" } ]
  in
  let param_values p = if p = "p7" then Some [ 4 ] else if p = "p8" then Some [ 2 ] else None in
  let cols =
    Nonkey.generate ~rng:(Mirage_util.Rng.create 4) ~table:t ~rows:8 ~layouts ~bound
      ~param_values ()
  in
  let t1 = Mirage_engine.Col.to_values (List.assoc "t1" cols)
  and t2 = Mirage_engine.Col.to_values (List.assoc "t2" cols) in
  (* count rows where t1=4 and t2=2 simultaneously: at least the bound one *)
  let joint = ref 0 in
  Array.iteri
    (fun i v -> if v = Value.Int 4 && t2.(i) = Value.Int 2 then incr joint)
    t1;
  Alcotest.(check bool) "bound row present" true (!joint >= 1)

(* --- Acc (§4.4) ------------------------------------------------------------ *)

let fbig a = Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a

let test_acc_threshold_exact () =
  let values = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let t = Acc.choose_threshold ~cmp:Pred.Gt ~target:2 (fbig values) in
  Alcotest.(check int) "exactly 2 greater" 2
    (Array.fold_left (fun a v -> if v > t then a + 1 else a) 0 values);
  let t = Acc.choose_threshold ~cmp:Pred.Le ~target:4 (fbig values) in
  Alcotest.(check int) "exactly 4 at most" 4
    (Array.fold_left (fun a v -> if v <= t then a + 1 else a) 0 values)

let test_acc_threshold_extremes () =
  let values = [| 1.0; 2.0; 3.0 |] in
  let t = Acc.choose_threshold ~cmp:Pred.Gt ~target:0 (fbig values) in
  Alcotest.(check int) "none greater" 0
    (Array.fold_left (fun a v -> if v > t then a + 1 else a) 0 values);
  let t = Acc.choose_threshold ~cmp:Pred.Gt ~target:3 (fbig values) in
  Alcotest.(check int) "all greater" 3
    (Array.fold_left (fun a v -> if v > t then a + 1 else a) 0 values)

let prop_acc_threshold_best_effort =
  QCheck.Test.make ~name:"threshold minimises deviation" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (int_range 0 10)) (int_range 0 30))
    (fun (vals, target) ->
      let values = Array.of_list (List.map float_of_int vals) in
      let target = min target (Array.length values) in
      let t = Acc.choose_threshold ~cmp:Pred.Le ~target (fbig values) in
      let count = Array.fold_left (fun a v -> if v <= t then a + 1 else a) 0 values in
      (* achieved count is within the best achievable deviation: check no
         single distinct value does strictly better *)
      let distinct = Array.to_list values |> List.sort_uniq compare in
      let best =
        List.fold_left
          (fun best d ->
            let c = Array.fold_left (fun a v -> if v <= d then a + 1 else a) 0 values in
            min best (abs (c - target)))
          (abs (0 - target))
          distinct
      in
      abs (count - target) <= best)

(* the comparators of an arithmetic predicate (§2.2) *)
let acc_cmp = QCheck.Gen.oneofl Pred.[ Gt; Ge; Lt; Le ]

let bits = Int64.bits_of_float

(* the candidate-list reference, except that a winning run of zeros holding
   both signs is [+0.0]: the reference returns whichever zero its sort put
   last *)
let reference_threshold ~cmp ~target values =
  let t = Acc_reference.choose_threshold ~cmp ~target values in
  let has z = Array.exists (fun x -> bits x = bits z) values in
  if t = 0.0 && has 0.0 && has (-0.0) then 0.0 else t

let prop_acc_threshold_matches_reference =
  let value =
    QCheck.Gen.(
      oneof
        [
          map float_of_int (int_range (-4) 4);
          oneofl [ 0.0; -0.0; 0.5; -0.5; infinity; neg_infinity; 1e20; -1e20; max_float ];
        ])
  in
  QCheck.Test.make ~name:"threshold = candidate-list reference, bit for bit" ~count:2000
    (QCheck.make
       ~print:(fun (_, values, target) ->
         Printf.sprintf "target %d, values [%s]" target
           (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") values))))
       QCheck.Gen.(triple acc_cmp (array_size (0 -- 40) value) (int_range 0 42)))
    (fun (cmp, values, target) ->
      bits (Acc.choose_threshold ~cmp ~target (fbig values))
      = bits (reference_threshold ~cmp ~target values))

(* [Acc.instantiate] on a stored table: two small-int date columns whose
   difference takes five values, so every threshold sits on a tie run, and
   a dictionary column *)
let acc_schema =
  Schema.make
    [
      {
        Schema.tname = "li";
        pk = "li_pk";
        nonkeys =
          [
            { Schema.cname = "ship"; domain_size = 40; kind = Schema.Kint };
            { Schema.cname = "recv"; domain_size = 40; kind = Schema.Kint };
            { Schema.cname = "mode"; domain_size = 3; kind = Schema.Kstring };
          ];
        fks = [];
        row_count = 400;
      };
    ]

let acc_db ?(nulls = []) ?(recv = fun i ship -> ship + (i * 7 mod 5)) n =
  let db = Db.create acc_schema in
  let ship = Array.init n (fun i -> i * 13 mod 31) in
  let ship_nulls =
    match nulls with
    | [] -> None
    | rows ->
        let b = Col.Bitset.create n in
        List.iter (Col.Bitset.set b) rows;
        Some b
  in
  Db.put_cols db "li"
    [
      ("li_pk", Col.of_ints (Array.init n Fun.id));
      ("ship", Col.of_ints ?nulls:ship_nulls ship);
      ("recv", Col.of_ints (Array.mapi recv ship));
      ("mode", Col.of_strings (Array.init n (fun i -> [| "AIR"; "RAIL"; "SHIP" |].(i mod 3))));
    ];
  db

let acc_of ~rows expr =
  {
    Ir.acc_table = "li";
    acc_expr =
      (match Parser.pred (expr ^ " > $p") with
      | Pred.Lit (Pred.Arith_cmp { expr; _ }) -> expr
      | _ -> assert false);
    acc_cmp = Pred.Gt;
    acc_param = "p";
    acc_rows = rows;
    acc_source = "test";
  }

let li_ints db c = Array.map (function Value.Int x -> x | _ -> min_int) (Db.column db "li" c)

let acc_threshold (_, b) =
  match b with Pred.Env.Scalar (Value.Float p) -> p | _ -> Alcotest.fail "not a float"

let test_acc_repair_reaches_target () =
  let db = acc_db 400 in
  let diffs () = Array.map2 ( - ) (li_ints db "recv") (li_ints db "ship") in
  let above p = Array.fold_left (fun a d -> if float_of_int d > p then a + 1 else a) 0 (diffs ()) in
  (* 123 rows: no threshold over the five tie runs selects that many.
     [d > p] selects what [d > c] does for the largest candidate [c <= p],
     so the distinct values and one sentinel below them cover every
     threshold. *)
  let unrepaired = Array.to_list (diffs ()) in
  let candidates =
    float_of_int (List.fold_left min max_int unrepaired - 1)
    :: List.map float_of_int (List.sort_uniq compare unrepaired)
  in
  Alcotest.(check bool) "ties leave every threshold off target" true
    (List.for_all (fun p -> above p <> 123) candidates);
  let p =
    acc_threshold
      (Acc.instantiate ~rng:(Mirage_util.Rng.create 3) ~db ~sample_size:1000
         (acc_of ~rows:123 "recv - ship"))
  in
  Alcotest.(check int) "repair reaches the exact count" 123 (above p)

let test_acc_repair_frozen_prefix () =
  let db = acc_db 400 in
  let before = List.map (fun c -> (c, li_ints db c)) [ "li_pk"; "ship"; "recv" ] in
  let mode = Db.column db "li" "mode" in
  ignore
    (Acc.instantiate ~frozen_prefix:100 ~rng:(Mirage_util.Rng.create 5) ~db ~sample_size:1000
       (acc_of ~rows:251 "recv - ship"));
  let sorted a = List.sort compare (Array.to_list a) in
  let moved = ref false in
  List.iter
    (fun (c, old) ->
      let now = li_ints db c in
      Alcotest.(check (array int)) (c ^ " prefix untouched") (Array.sub old 0 100)
        (Array.sub now 0 100);
      Alcotest.(check (list int)) (c ^ " multiset kept") (sorted old) (sorted now);
      if now <> old then moved := true)
    before;
  Alcotest.(check bool) "repair swapped some rows" true !moved;
  Alcotest.(check bool) "untouched column" true (Db.column db "li" "mode" = mode)

let test_acc_invalid_rows () =
  let raises msg db expr =
    Alcotest.check_raises expr (Invalid_argument msg) (fun () ->
        ignore
          (Acc.instantiate ~rng:(Mirage_util.Rng.create 1) ~db ~sample_size:1000
             (acc_of ~rows:10 expr)))
  in
  let non_numeric = "Acc: non-numeric column in arithmetic expression" in
  raises non_numeric (acc_db ~nulls:[ 17 ] 40) "recv - ship";
  raises non_numeric (acc_db 40) "recv - mode";
  raises "Acc: division by zero" (acc_db ~recv:(fun i _ -> i mod 9) 40) "ship / recv"

let test_acc_unsampled_null () =
  let n = 400 and s = 50 in
  let sampled = Mirage_util.Rng.sample_without_replacement (Mirage_util.Rng.create 9) s n in
  let outside = List.find (fun r -> not (Array.mem r sampled)) (List.init n Fun.id) in
  let db = acc_db ~nulls:[ outside ] n in
  ignore
    (Acc.instantiate ~rng:(Mirage_util.Rng.create 9) ~db ~sample_size:s
       (acc_of ~rows:200 "recv - ship"));
  let db = acc_db ~nulls:[ sampled.(s / 2) ] n in
  Alcotest.check_raises "a sampled NULL raises"
    (Invalid_argument "Acc: non-numeric column in arithmetic expression") (fun () ->
      ignore
        (Acc.instantiate ~rng:(Mirage_util.Rng.create 9) ~db ~sample_size:s
           (acc_of ~rows:200 "recv - ship")))

(* tables large enough for the selection to partition several times, with
   long tie runs and signed zeros *)
let prop_acc_threshold_large_matches_reference =
  QCheck.Test.make ~name:"threshold = reference on tie-heavy views up to 3000" ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple acc_cmp (int_range 0 3000)
           (pair (int_range 1 40) (int_range 0 1000000))))
    (fun (cmp, n, (spread, seed)) ->
      let st = Random.State.make [| seed |] in
      let values =
        Array.init n (fun _ ->
            match Random.State.int st 50 with
            | 0 -> -0.0
            | 1 -> infinity
            | _ -> float_of_int (Random.State.int st spread - (spread / 2)))
      in
      let target = Random.State.int st (n + 3) - 1 in
      bits (Acc.choose_threshold ~cmp ~target (fbig values))
      = bits (reference_threshold ~cmp ~target values))

(* [=] and [<>] are no arithmetic comparison, and a NaN has no rank *)
let test_acc_threshold_refuses () =
  let raises label msg cmp values =
    Alcotest.check_raises label (Invalid_argument msg) (fun () ->
        ignore (Acc.choose_threshold ~cmp ~target:1 (fbig values)))
  in
  let only = "Acc: arithmetic predicates only support <, <=, >, >=" in
  raises "=" only Pred.Eq [| 1.0; 2.0 |];
  raises "<>" only Pred.Neq [||];
  raises "NaN" "Acc: NaN in arithmetic expression" Pred.Gt [| 1.0; Float.nan |];
  Alcotest.(check int64) "a mixed-sign zero run is +0.0" (bits 0.0)
    (bits (Acc.choose_threshold ~cmp:Pred.Le ~target:2 (fbig [| -0.0; 0.0; 1.0 |])))

(* --- production elements (§4.2) --------------------------------------- *)

let el_schema =
  Schema.make
    [
      {
        Schema.tname = "e";
        pk = "e_pk";
        nonkeys =
          [
            { Schema.cname = "ei"; domain_size = 5; kind = Schema.Kint };
            { Schema.cname = "es"; domain_size = 5; kind = Schema.Kstring };
            { Schema.cname = "ef"; domain_size = 5; kind = Schema.Kfloat };
          ];
        fks = [];
        row_count = 30;
      };
    ]

let prop_production_elements_match_reference =
  QCheck.Test.make ~name:"production elements = boxed-scan reference" ~count:500
    QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = Random.State.int st 30 in
      let pick a = a.(Random.State.int st (Array.length a)) in
      let strs = [| "a"; "ab"; "b"; "ba"; "c"; "" |] in
      let value () =
        match Random.State.int st 5 with
        | 0 -> Value.Null
        | 1 -> Value.Int (Random.State.int st 5)
        | 2 -> Value.Float (float_of_int (Random.State.int st 5))
        | _ -> Value.Str (pick strs)
      in
      let nulls () =
        let b = Col.Bitset.create n in
        for i = 0 to n - 1 do
          if Random.State.int st 5 = 0 then Col.Bitset.set b i
        done;
        b
      in
      let db = Db.create el_schema in
      Db.put_cols db "e"
        [
          ("e_pk", Col.of_ints (Array.init n Fun.id));
          ("ei", Col.of_ints ~nulls:(nulls ()) (Array.init n (fun _ -> Random.State.int st 5)));
          ("es", Col.of_strings ~nulls:(nulls ()) (Array.init n (fun _ -> pick strs)));
          ( "ef",
            Col.of_floats ~nulls:(nulls ())
              (Array.init n (fun _ -> float_of_int (Random.State.int st 5))) );
        ];
      let pattern () = Value.Str (pick [| "a%"; "%b"; "_"; "%"; "c"; "b%a" |]) in
      (* six queries, each selecting [e] on one IN or LIKE literal over its
         own parameter *)
      let lits, bindings =
        List.split
          (List.init 6 (fun i ->
               let p = Printf.sprintf "p%d" i in
               let col = pick [| "ei"; "es"; "ef" |] in
               let neg = Random.State.bool st in
               if Random.State.bool st then
                 ( Pred.In { col; neg; arg = Pred.Param p },
                   ( p,
                     if Random.State.bool st then
                       Pred.Env.Vlist (List.init (Random.State.int st 4) (fun _ -> value ()))
                     else Pred.Env.Scalar (value ()) ) )
               else
                 ( Pred.Like { col; neg; arg = Pred.Param p },
                   (p, Pred.Env.Scalar (pattern ())) )))
      in
      let env = Pred.Env.of_list bindings in
      let w =
        Workload.make el_schema
          (List.mapi
             (fun i lit ->
               {
                 Workload.q_name = Printf.sprintf "q%d" i;
                 q_plan = Plan.Select (Pred.Lit lit, Plan.Table "e");
               })
             lits)
      in
      let ex = Extract.run w ~ref_db:db ~prod_env:env in
      ex.Extract.diags = []
      && List.for_all2
           (fun lit (p, _) ->
             List.assoc_opt p ex.Extract.ir.Ir.param_elements
             = Some (Elements_reference.elements_fn el_schema db env lit))
           lits bindings)

(* --- Rewrite (§3) ----------------------------------------------------------- *)

let join left right =
  Plan.Join { jt = Plan.Inner; pk_table = "s"; fk_table = "t"; fk_col = "t_fk"; left; right }

let test_rewrite_pushes_conjuncts () =
  let plan = Plan.Select (Parser.pred "s1 < $a and t1 > $b", join (Plan.Table "s") (Plan.Table "t")) in
  let r = Rewrite.push_down schema plan in
  Alcotest.(check bool) "pushed down" true (Rewrite.is_pushed_down r.Rewrite.rw_plan);
  Alcotest.(check int) "no aux" 0 (List.length r.Rewrite.rw_aux)

let test_rewrite_or_across_makes_aux () =
  let plan = Plan.Select (Parser.pred "s1 < $a or t1 > $b", join (Plan.Table "s") (Plan.Table "t")) in
  let r = Rewrite.push_down schema plan in
  Alcotest.(check int) "one aux complement" 1 (List.length r.Rewrite.rw_aux);
  (* the aux joins the complements: sigma(s1>=a) x sigma(t1<=b) *)
  match r.Rewrite.rw_aux with
  | [ Plan.Join { left = Plan.Select (pl, _); right = Plan.Select (pr, _); _ } ] ->
      Alcotest.(check bool) "left negated" true
        (String.length (Pred.to_string pl) > 0 && Pred.columns pl = [ "s1" ]);
      Alcotest.(check bool) "right negated" true (Pred.columns pr = [ "t1" ])
  | _ -> Alcotest.fail "unexpected aux shape"

let test_rewrite_nested_or_marginals () =
  (* pushable conjunct + mixed OR: the negated literal on the filtered side
     must be recorded as a marginal *)
  let plan =
    Plan.Select
      ( Parser.pred "(s1 < $a or t1 > $b) and t2 = $c",
        join (Plan.Table "s") (Plan.Table "t") )
  in
  let r = Rewrite.push_down schema plan in
  Alcotest.(check int) "aux" 1 (List.length r.Rewrite.rw_aux);
  Alcotest.(check bool) "marginal recorded for t side" true
    (List.exists (fun (t, _) -> t = "t") r.Rewrite.rw_marginals)

let test_rewrite_two_mixed_clauses_unsupported () =
  let plan =
    Plan.Select
      ( Parser.pred "(s1 < $a or t1 > $b) and (s1 > $c or t2 < $d)",
        join (Plan.Table "s") (Plan.Table "t") )
  in
  Alcotest.(check bool) "unsupported" true
    (try ignore (Rewrite.push_down schema plan); false
     with Rewrite.Unsupported _ -> true)

(* --- Extract ---------------------------------------------------------------- *)

let test_child_view_classification () =
  (match Extract.child_view_of ~table:"s" (Plan.Table "s") with
  | Ir.Cv_full "s" -> ()
  | _ -> Alcotest.fail "full");
  (match Extract.child_view_of ~table:"t" (Plan.Select (Parser.pred "t1 > 1", Plan.Table "t")) with
  | Ir.Cv_select _ -> ()
  | _ -> Alcotest.fail "select");
  match Extract.child_view_of ~table:"t" (join (Plan.Table "s") (Plan.Table "t")) with
  | Ir.Cv_subplan _ -> ()
  | _ -> Alcotest.fail "subplan"

let mini_db () =
  let ints l = Array.of_list (List.map (fun x -> Value.Int x) l) in
  let db = Db.create schema in
  Db.put db "s" [ ("s_pk", ints [ 1; 2; 3; 4 ]); ("s1", ints [ 10; 20; 30; 40 ]) ];
  Db.put db "t"
    [
      ("t_pk", ints [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
      ("t_fk", ints [ 1; 2; 2; 3; 3; 3; 4; 4 ]);
      ("t1", ints [ 1; 2; 3; 4; 4; 4; 5; 3 ]);
      ("t2", ints [ 1; 2; 2; 2; 3; 4; 1; 3 ]);
      ("tt", Array.of_list (List.map (fun s -> Value.Str s) [ "a"; "b"; "c"; "a"; "b"; "c"; "a"; "b" ]));
    ];
  db

let test_extract_trivial_jcc_dropped () =
  (* full-table left view: the jcc is implied and must be dropped *)
  let w =
    Workload.make schema
      [ { Workload.q_name = "q"; q_plan = join (Plan.Table "s") (Plan.Select (Parser.pred "t1 > $p", Plan.Table "t")) } ]
  in
  let env = Pred.Env.add_scalar "p" (Value.Int 2) Pred.Env.empty in
  let ex = Extract.run w ~ref_db:(mini_db ()) ~prod_env:env in
  Alcotest.(check int) "no join constraints" 0 (List.length ex.Extract.ir.Ir.joins)

let test_extract_semi_yields_jdc () =
  let plan =
    Plan.Join
      {
        jt = Plan.Left_semi;
        pk_table = "s";
        fk_table = "t";
        fk_col = "t_fk";
        left = Plan.Select (Parser.pred "s1 < $p", Plan.Table "s");
        right = Plan.Table "t";
      }
  in
  let w = Workload.make schema [ { Workload.q_name = "q"; q_plan = plan } ] in
  let env = Pred.Env.add_scalar "p" (Value.Int 30) Pred.Env.empty in
  let ex = Extract.run w ~ref_db:(mini_db ()) ~prod_env:env in
  match ex.Extract.ir.Ir.joins with
  | [ jc ] ->
      Alcotest.(check (option int)) "jdc = matched distinct" (Some 2) jc.Ir.jc_jdc;
      Alcotest.(check (option int)) "no jcc for semi" None jc.Ir.jc_jcc
  | l -> Alcotest.failf "expected 1 join constraint, got %d" (List.length l)

let test_extract_pcc_on_direct_join () =
  let plan =
    Plan.Project
      { cols = [ "t_fk" ];
        input = join (Plan.Select (Parser.pred "s1 < $p", Plan.Table "s")) (Plan.Table "t") }
  in
  let w = Workload.make schema [ { Workload.q_name = "q"; q_plan = plan } ] in
  let env = Pred.Env.add_scalar "p" (Value.Int 30) Pred.Env.empty in
  let ex = Extract.run w ~ref_db:(mini_db ()) ~prod_env:env in
  Alcotest.(check bool) "some constraint has a jdc" true
    (List.exists (fun jc -> jc.Ir.jc_jdc <> None) ex.Extract.ir.Ir.joins)

let test_extract_range_conjunction_split () =
  let plan = Plan.Select (Parser.pred "t1 >= $a and t1 <= $b", Plan.Table "t") in
  let w = Workload.make schema [ { Workload.q_name = "q"; q_plan = plan } ] in
  let env =
    Pred.Env.add_scalar "a" (Value.Int 2)
      (Pred.Env.add_scalar "b" (Value.Int 4) Pred.Env.empty)
  in
  let ex = Extract.run w ~ref_db:(mini_db ()) ~prod_env:env in
  (* the BETWEEN splits into two marginal SCCs *)
  Alcotest.(check int) "two marginal sccs" 2 (List.length ex.Extract.ir.Ir.sccs);
  List.iter
    (fun (s : Ir.scc) ->
      Alcotest.(check bool) "marked as range split" true
        (String.length s.Ir.scc_source >= 6))
    ex.Extract.ir.Ir.sccs

(* Every AQT is labelled from the query's ORIGINAL plan.  Extraction reuses
   the rewritten plan's analysis when the rewriter left the plan unchanged,
   and analyses the original again when it did not (tpch_q19, whose OR
   across the join is split into auxiliary complements); either way the
   labels must equal a fresh analysis of the original plan. *)
let test_extract_aqts_per_plan_analysis () =
  let check_workload name (w, ref_db, prod_env) =
    let ex = Extract.run w ~ref_db ~prod_env in
    Alcotest.(check int) (name ^ ": no diagnostics") 0 (List.length ex.Extract.diags);
    List.iter
      (fun (q : Workload.query) ->
        let aqt =
          List.find (fun (a : Mirage_relalg.Aqt.t) -> a.Mirage_relalg.Aqt.name = q.Workload.q_name)
            ex.Extract.aqts
        in
        let expected = (Exec.analyze ref_db ~env:prod_env q.Workload.q_plan).Exec.cards in
        Alcotest.(check (array (option int)))
          (q.Workload.q_name ^ " cards")
          (Array.map Option.some expected) aqt.Mirage_relalg.Aqt.cards)
      w.Workload.w_queries;
    List.filter_map
      (fun (qn, rw_plan, _) ->
        if rw_plan = (Workload.query w qn).Workload.q_plan then None else Some qn)
      ex.Extract.rewritten
  in
  List.iter
    (fun seed ->
      let changed =
        List.concat
          [
            check_workload "ssb" (Mirage_workloads.Ssb.make ~sf:0.5 ~seed);
            check_workload "tpch" (Mirage_workloads.Tpch.make ~sf:0.1 ~seed);
            check_workload "tpcds" (Mirage_workloads.Tpcds.make ~sf:0.1 ~seed);
          ]
      in
      Alcotest.(check (list string)) "plans the rewriter changed" [ "tpch_q19" ] changed)
    [ 7; 23 ]

(* --- Keygen membership ------------------------------------------------------ *)

(* The CS oracle: membership as the hash-set path computes it — collect the
   result's PK values into a table, probe it with every base-table row.
   [Keygen.membership] must agree with it on every subplan. *)
let oracle_membership ~db ~env ~table plan =
  let n = Db.row_count db table in
  let rel = Exec.run db ~env plan in
  let pk_col = (Schema.table (Db.schema db) table).Schema.pk in
  let set = Hashtbl.create 16 in
  Array.iter
    (function Value.Int v -> Hashtbl.replace set v () | _ -> ())
    (Mirage_engine.Rel.column_values rel pk_col);
  let b = Col.Bitset.create n in
  let col = Db.col db table pk_col in
  for i = 0 to n - 1 do
    match Col.get col i with
    | Value.Int v -> if Hashtbl.mem set v then Col.Bitset.set b i
    | _ -> ()
  done;
  b

let bits b = List.init (Col.Bitset.length b) (Col.Bitset.get b)

let subplan_membership ~db ~env ~table plan =
  Keygen.membership ~db ~env ~table (Ir.Cv_subplan { cv_plan = plan; cv_table = table })

(* the subplan result's PK view and whether it still points at the stored
   column, i.e. whether membership can read rows straight from its
   selection vector *)
let pk_view ~db ~env ~table plan =
  let rel = Exec.run db ~env plan in
  let pk_col = (Schema.table (Db.schema db) table).Schema.pk in
  let v = Mirage_engine.Rel.view rel (Mirage_engine.Rel.col_index rel pk_col) in
  (v, v.Mirage_engine.Rel.vcol == Db.col db table pk_col)

let test_membership_forms () =
  let db = mini_db () in
  let env = Pred.Env.add_scalar "p" (Value.Int 2) Pred.Env.empty in
  let full = Keygen.membership ~db ~env ~table:"t" (Ir.Cv_full "t") in
  Alcotest.(check int) "full covers all" 8 (Col.Bitset.count full);
  let sel =
    Keygen.membership ~db ~env ~table:"t"
      (Ir.Cv_select { cv_table = "t"; cv_pred = Parser.pred "t1 > $p" })
  in
  Alcotest.(check int) "select filters" 6 (Col.Bitset.count sel);
  let sub =
    Keygen.membership ~db ~env ~table:"t"
      (Ir.Cv_subplan { cv_plan = join (Plan.Table "s") (Plan.Table "t"); cv_table = "t" })
  in
  Alcotest.(check int) "subplan pks" 8 (Col.Bitset.count sub);
  (* a full outer join over a shuffled PK column: the PK view stays the
     stored column, [vsel] carries -1 padding, and the bits match the
     hash-set oracle *)
  Db.replace_col db "t" "t_pk" (Col.of_ints [| 8; 3; 5; 1; 7; 2; 6; 4 |]);
  let plan =
    Plan.Join
      {
        jt = Plan.Full_outer;
        pk_table = "s";
        fk_table = "t";
        fk_col = "t_fk";
        left = Plan.Select (Parser.pred "s1 >= 10", Plan.Table "s");
        right = Plan.Select (Parser.pred "t1 > 2", Plan.Table "t");
      }
  in
  let v, is_base = pk_view ~db ~env ~table:"t" plan in
  Alcotest.(check bool) "PK view is the stored column" true is_base;
  Alcotest.(check bool) "outer join pads t with -1" true
    (Array.mem (-1) v.Mirage_engine.Rel.vsel);
  let got = subplan_membership ~db ~env ~table:"t" plan in
  Alcotest.(check int) "rows with t1 > 2" 6 (Col.Bitset.count got);
  Alcotest.(check (list bool)) "= oracle"
    (bits (oracle_membership ~db ~env ~table:"t" plan))
    (bits got)

(* a ← b ← c, and c → a as well: nested joins in both directions *)
let chain_schema =
  let int c = { Schema.cname = c; domain_size = 5; kind = Schema.Kint } in
  Schema.make
    [
      { Schema.tname = "a"; pk = "a_pk"; nonkeys = [ int "a1" ]; fks = []; row_count = 8 };
      {
        Schema.tname = "b";
        pk = "b_pk";
        nonkeys = [ int "b1" ];
        fks = [ { Schema.fk_col = "b_a"; references = "a" } ];
        row_count = 8;
      };
      {
        Schema.tname = "c";
        pk = "c_pk";
        nonkeys = [ int "c1" ];
        fks =
          [
            { Schema.fk_col = "c_b"; references = "b" };
            { Schema.fk_col = "c_a"; references = "a" };
          ];
        row_count = 8;
      };
    ]

let pick rng l = List.nth l (Mirage_util.Rng.int rng (List.length l))

(* random small instance: unique PKs in shuffled order (some rows NULL),
   FKs that hit, dangle or are NULL, nullable non-keys *)
let random_chain_db rng =
  let module R = Mirage_util.Rng in
  let db = Db.create chain_schema in
  let pks = Hashtbl.create 4 in
  List.iter
    (fun (t : Schema.table) ->
      let n = if R.int rng 8 = 0 then 0 else 1 + R.int rng 10 in
      let ids = Array.init n (fun i -> (3 * i) + 1 + R.int rng 3) in
      R.shuffle rng ids;
      let nulls =
        if R.int rng 4 > 0 then None
        else begin
          let b = Col.Bitset.create n in
          Array.iteri (fun i _ -> if R.int rng 5 = 0 then Col.Bitset.set b i) ids;
          Some b
        end
      in
      let is_null i = match nulls with Some b -> Col.Bitset.get b i | None -> false in
      Hashtbl.replace pks t.Schema.tname
        (List.filteri (fun i _ -> not (is_null i)) (Array.to_list ids));
      let pk_col = Col.of_ints ?nulls ids in
      let small () = if R.int rng 6 = 0 then Value.Null else Value.Int (R.int rng 5) in
      let nonkeys =
        List.map
          (fun (c : Schema.column) -> (c.Schema.cname, Col.of_values (Array.init n (fun _ -> small ()))))
          t.Schema.nonkeys
      in
      let fks =
        List.map
          (fun (f : Schema.fk) ->
            let targets = Hashtbl.find pks f.Schema.references in
            let fk () =
              match R.int rng 6 with
              | 0 -> Value.Null
              | 1 -> Value.Int 999
              | _ when targets = [] -> Value.Null
              | _ -> Value.Int (pick rng targets)
            in
            (f.Schema.fk_col, Col.of_values (Array.init n (fun _ -> fk ()))))
          t.Schema.fks
      in
      Db.put_cols db t.Schema.tname (((t.Schema.pk, pk_col) :: nonkeys) @ fks))
    (Schema.tables chain_schema);
  db

(* a random plan whose output keeps every column of [t]: selections over
   [t]'s non-key, joins up to a referenced table (join types that keep the
   FK side) and down to a referencing one (join types that keep the PK
   side) — all eight join types, outer ones padding [t]'s rows with -1 *)
let rec random_plan rng t depth =
  let module R = Mirage_util.Rng in
  let tbl = Schema.table chain_schema t in
  let pred () =
    let col = (List.hd tbl.Schema.nonkeys).Schema.cname in
    let cmp = pick rng Pred.[ Eq; Neq; Lt; Le; Gt; Ge ] in
    Pred.Lit (Pred.Cmp { col; cmp; arg = Pred.Const (Value.Int (R.int rng 5)) })
  in
  let leaf () = if R.int rng 3 > 0 then Plan.Table t else Plan.Select (pred (), Plan.Table t) in
  let children =
    List.concat_map
      (fun (c : Schema.table) ->
        List.filter_map
          (fun (f : Schema.fk) ->
            if f.Schema.references = t then Some (c.Schema.tname, f.Schema.fk_col)
            else None)
          c.Schema.fks)
      (Schema.tables chain_schema)
  in
  let moves =
    [ `Leaf; `Select ]
    @ (if tbl.Schema.fks <> [] then [ `Up; `Up ] else [])
    @ if children <> [] then [ `Down; `Down ] else []
  in
  match if depth = 0 then `Leaf else pick rng moves with
  | `Leaf -> leaf ()
  | `Select -> Plan.Select (pred (), random_plan rng t (depth - 1))
  | `Up ->
      let f = pick rng tbl.Schema.fks in
      Plan.Join
        {
          jt = pick rng Plan.[ Inner; Left_outer; Right_outer; Full_outer; Right_semi; Right_anti ];
          pk_table = f.Schema.references;
          fk_table = t;
          fk_col = f.Schema.fk_col;
          left = random_plan rng f.Schema.references (depth - 1);
          right = random_plan rng t (depth - 1);
        }
  | `Down ->
      let c, fk_col = pick rng children in
      Plan.Join
        {
          jt = pick rng Plan.[ Inner; Left_outer; Right_outer; Full_outer; Left_semi; Left_anti ];
          pk_table = t;
          fk_table = c;
          fk_col;
          left = random_plan rng t (depth - 1);
          right = random_plan rng c (depth - 1);
        }

let prop_membership_matches_oracle =
  QCheck.Test.make ~name:"membership = hash-set oracle on random subplans" ~count:1000
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Mirage_util.Rng.create seed in
      let db = random_chain_db rng in
      let table = pick rng [ "a"; "b"; "c" ] in
      let plan = random_plan rng table (1 + Mirage_util.Rng.int rng 4) in
      let env = Pred.Env.empty in
      let got = bits (subplan_membership ~db ~env ~table plan) in
      let want = bits (oracle_membership ~db ~env ~table plan) in
      if got <> want then
        QCheck.Test.fail_reportf "table %s, plan %a" table Plan.pp plan;
      true)

let test_membership_project_fallback () =
  let db = mini_db () in
  let env = Pred.Env.empty in
  let plan =
    Plan.Project
      {
        cols = [ "t_pk" ];
        input = Plan.Select (Parser.pred "t1 > 2", join (Plan.Table "s") (Plan.Table "t"));
      }
  in
  Alcotest.(check bool) "projection rebuilds the PK column" false
    (snd (pk_view ~db ~env ~table:"t" plan));
  let got = subplan_membership ~db ~env ~table:"t" plan in
  Alcotest.(check int) "rows with t1 > 2" 6 (Col.Bitset.count got);
  Alcotest.(check (list bool)) "= oracle"
    (bits (oracle_membership ~db ~env ~table:"t" plan))
    (bits got)

(* --- SQL export --------------------------------------------------------------- *)

let test_sql_ddl () =
  let sql = Mirage_core.Sql_export.ddl schema in
  Alcotest.(check bool) "has pk" true
    (String.length sql > 0
    && Str_ext.contains sql "s_pk BIGINT PRIMARY KEY"
    && Str_ext.contains sql "t_fk BIGINT REFERENCES s")

let test_sql_query_shapes () =
  let env =
    Pred.Env.of_list
      [
        ("p", Pred.Env.Scalar (Value.Int 3));
        ("l", Pred.Env.Vlist []);
      ]
  in
  let check plan needle =
    match Mirage_core.Sql_export.query_sql plan ~schema ~env with
    | Ok sql ->
        Alcotest.(check bool) (needle ^ " in " ^ sql) true (Str_ext.contains sql needle)
    | Error m -> Alcotest.failf "sql failed: %s" m
  in
  check (Plan.Select (Parser.pred "t1 < $p", Plan.Table "t")) "WHERE t1 < 3";
  check
    (Plan.Join
       { jt = Plan.Left_semi; pk_table = "s"; fk_table = "t"; fk_col = "t_fk";
         left = Plan.Table "s"; right = Plan.Table "t" })
    "EXISTS";
  check
    (Plan.Join
       { jt = Plan.Left_anti; pk_table = "s"; fk_table = "t"; fk_col = "t_fk";
         left = Plan.Table "s"; right = Plan.Table "t" })
    "NOT EXISTS";
  check
    (Plan.Aggregate
       { group_by = [ "t1" ]; aggs = [ (Plan.Sum, "t2") ]; input = Plan.Table "t" })
    "GROUP BY t1";
  (* empty IN list must not produce invalid SQL *)
  check (Plan.Select (Parser.pred "t1 in $l", Plan.Table "t")) "WHERE FALSE";
  match
    Mirage_core.Sql_export.query_sql
      (Plan.Select (Parser.pred "t1 < $nope", Plan.Table "t"))
      ~schema ~env
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbound parameter accepted"

(* subquery aliases restart at q1 in every call: the text of a query does
   not depend on what else the process rendered before it *)
let test_sql_aliases_per_query () =
  let plan =
    Plan.Join
      { jt = Plan.Inner; pk_table = "s"; fk_table = "t"; fk_col = "t_fk";
        left = Plan.Select (Parser.pred "s1 < 3", Plan.Table "s");
        right = Plan.Select (Parser.pred "t1 > 1", Plan.Table "t") }
  in
  let render () =
    match Mirage_core.Sql_export.query_sql plan ~schema ~env:Pred.Env.empty with
    | Ok sql -> sql
    | Error m -> Alcotest.failf "sql failed: %s" m
  in
  let first = render () in
  Alcotest.(check string) "same plan, same text" first (render ());
  Alcotest.(check bool) ("aliases start at q1 in " ^ first) true
    (Str_ext.contains first ") q1 JOIN (" && Str_ext.contains first ") q2 ON"
    && not (Str_ext.contains first "q3"))

(* --- Keygen on the paper's running example (Figs. 8-10) -------------------- *)

let test_keygen_paper_example () =
  (* S = {1..4}, T rows 1..8; two join constraints like V5 and V8 of Fig. 7:
     an equi join between filtered views (jcc 3, jdc 2 via PCC) and a
     left-outer join with the arithmetic view *)
  let db = mini_db () in
  let env =
    Pred.Env.of_list
      [
        ("p1", Pred.Env.Scalar (Value.Int 30));
        ("p2", Pred.Env.Scalar (Value.Int 2));
      ]
  in
  let edge = { Ir.e_pk_table = "s"; e_fk_table = "t"; e_fk_col = "t_fk" } in
  let constraints =
    [
      {
        Ir.jc_edge = edge;
        jc_left = Ir.Cv_select { cv_table = "s"; cv_pred = Parser.pred "s1 < $p1" };
        jc_right = Ir.Cv_select { cv_table = "t"; cv_pred = Parser.pred "t1 > $p2" };
        jc_jcc = Some 3;
        jc_jdc = Some 2;
        jc_source = "v5";
      };
      {
        Ir.jc_edge = edge;
        jc_left = Ir.Cv_full "s";
        jc_right = Ir.Cv_select { cv_table = "t"; cv_pred = Parser.pred "t1 >= 4" };
        jc_jcc = Some 4;
        jc_jdc = Some 3;
        jc_source = "v8";
      };
    ]
  in
  let times = Keygen.fresh_times () in
  let polls = ref 0 in
  match
    Keygen.populate_edge ~interrupt:(fun () -> incr polls)
      ~rng:(Mirage_util.Rng.create 5) ~db ~env ~edge ~constraints
      ~batch_size:1000 ~cp_max_nodes:100_000 ~times ()
  with
  | Error f -> Alcotest.fail (Diag.to_string f.Keygen.kf_diag)
  | Ok (fk_vec, notices) ->
      (* one batch, a phase-1 and a phase-2 solve: the budget poll runs at
         the batch and before each solve searches *)
      Alcotest.(check int) "phase 1 and phase 2" 2 times.Keygen.cp_solves;
      Alcotest.(check bool)
        (Printf.sprintf "%d polls reach both solves" !polls)
        true
        (!polls >= 1 + times.Keygen.cp_solves);
      let fk = Col.Ivec.to_array fk_vec in
      (* the per-edge CP summary is Info severity; resize notices are not *)
      let resizes =
        List.filter (fun d -> d.Mirage_core.Diag.d_severity <> Mirage_core.Diag.Info) notices
      in
      Alcotest.(check int) "no resize notices" 0 (List.length resizes);
      (* verify both constraints on the populated column *)
      let t1 = Db.column db "t" "t1" in
      let s1 = Db.column db "s" "s1" in
      let in_vl1 pk = (match s1.(pk - 1) with Value.Int v -> v < 30 | _ -> false) in
      let matched1 = ref [] in
      Array.iteri
        (fun i pk ->
          match t1.(i) with
          | Value.Int t1v when t1v > 2 && in_vl1 pk ->
              matched1 := pk :: !matched1
          | _ -> ())
        fk;
      Alcotest.(check int) "v5 jcc" 3 (List.length !matched1);
      Alcotest.(check int) "v5 jdc" 2 (List.length (List.sort_uniq compare !matched1));
      let matched2 = ref [] in
      Array.iteri
        (fun i pk ->
          match t1.(i) with
          | Value.Int t1v when t1v >= 4 -> matched2 := pk :: !matched2
          | _ -> ())
        fk;
      Alcotest.(check int) "v8 jcc" 4 (List.length !matched2);
      Alcotest.(check int) "v8 jdc" 3 (List.length (List.sort_uniq compare !matched2))

(* --- randomized end-to-end fuzz --------------------------------------------- *)

let prop_random_applications_regenerate =
  (* random production databases + random query mixes over the S/T schema:
     generation must not crash and must reproduce the constraints almost
     exactly (the only slack is ACC ties on tiny tables) *)
  QCheck.Test.make ~name:"random applications regenerate with tiny error" ~count:25
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Mirage_util.Rng.create seed in
      let n_s = 4 + Mirage_util.Rng.int rng 12 in
      let n_t = 20 + Mirage_util.Rng.int rng 60 in
      let fuzz_schema =
        Schema.make
          [
            {
              Schema.tname = "s";
              pk = "s_pk";
              nonkeys = [ { Schema.cname = "s1"; domain_size = 4; kind = Schema.Kint } ];
              fks = [];
              row_count = n_s;
            };
            {
              Schema.tname = "t";
              pk = "t_pk";
              nonkeys =
                [
                  { Schema.cname = "t1"; domain_size = 5; kind = Schema.Kint };
                  { Schema.cname = "t2"; domain_size = 4; kind = Schema.Kint };
                ];
              fks = [ { Schema.fk_col = "t_fk"; references = "s" } ];
              row_count = n_t;
            };
          ]
      in
      let db = Db.create fuzz_schema in
      let ints f = Array.init n_t (fun i -> Value.Int (f i)) in
      Db.put db "s"
        [
          ("s_pk", Array.init n_s (fun i -> Value.Int (i + 1)));
          ("s1", Array.init n_s (fun _ -> Value.Int (Mirage_util.Rng.int_in rng 1 40)));
        ];
      Db.put db "t"
        [
          ("t_pk", ints (fun i -> i + 1));
          ("t_fk", ints (fun _ -> Mirage_util.Rng.int_in rng 1 n_s));
          ("t1", ints (fun _ -> Mirage_util.Rng.int_in rng 1 5));
          ("t2", ints (fun _ -> Mirage_util.Rng.int_in rng 1 4));
        ];
      let jt =
        match Mirage_util.Rng.int rng 4 with
        | 0 -> Plan.Inner
        | 1 -> Plan.Left_outer
        | 2 -> Plan.Left_semi
        | _ -> Plan.Left_anti
      in
      let queries =
        [
          { Workload.q_name = "f1";
            q_plan =
              Plan.Join
                { jt; pk_table = "s"; fk_table = "t"; fk_col = "t_fk";
                  left = Plan.Select (Parser.pred "s1 < $f_a", Plan.Table "s");
                  right = Plan.Select (Parser.pred "t1 > $f_b", Plan.Table "t") } };
          { Workload.q_name = "f2";
            q_plan = Plan.Select (Parser.pred "t1 <= $f_c or t2 = $f_d", Plan.Table "t") };
        ]
      in
      let workload = Workload.make fuzz_schema queries in
      let prod_env =
        Pred.Env.of_list
          [
            ("f_a", Pred.Env.Scalar (Value.Int (Mirage_util.Rng.int_in rng 5 40)));
            ("f_b", Pred.Env.Scalar (Value.Int (Mirage_util.Rng.int_in rng 1 4)));
            ("f_c", Pred.Env.Scalar (Value.Int (Mirage_util.Rng.int_in rng 1 4)));
            ("f_d", Pred.Env.Scalar (Value.Int (Mirage_util.Rng.int_in rng 1 4)));
          ]
      in
      match Mirage_core.Driver.generate workload ~ref_db:db ~prod_env with
      | Error _ -> false
      | Ok r ->
          List.for_all
            (fun (e : Mirage_core.Error.query_error) -> e.Mirage_core.Error.qe_relative < 0.05)
            (Mirage_core.Driver.measure_errors r))

(* the T-partition build as it was before the counting sort: a [Hashtbl]
   of cons lists, reversed and sorted by value *)
let partitions_reference vec lo hi =
  let t_parts = Hashtbl.create 16 in
  for i = lo to hi do
    let v = Col.Ivec.unsafe_get vec i in
    let cur = try Hashtbl.find t_parts v with Not_found -> [] in
    Hashtbl.replace t_parts v (i :: cur)
  done;
  Hashtbl.fold (fun v rows acc -> (v, Array.of_list (List.rev rows)) :: acc) t_parts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> Array.of_list

let prop_partitions_match_reference =
  QCheck.Test.make ~name:"T partitions = hashtable reference on random status vectors"
    ~count:500 QCheck.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = Random.State.int st 300 in
      let big () = Random.State.bits st lor (Random.State.bits st lsl 30) in
      let value =
        match Random.State.int st 4 with
        | 0 ->
            (* one value *)
            let v = big () in
            fun _ -> v
        | 1 -> (* all distinct, below 2^60 *) fun i -> (big () land lnot 1023) lor i
        | 2 ->
            let pool = Array.init (1 + Random.State.int st 40) (fun _ -> big ()) in
            fun _ -> pool.(Random.State.int st (Array.length pool))
        | _ -> fun _ -> Random.State.int st 8
      in
      let vec = Col.Ivec.init n value in
      let lo = Random.State.int st (n + 1) in
      let hi =
        if Random.State.int st 5 = 0 then lo - 1 (* an empty range *)
        else lo - 1 + Random.State.int st (n - lo + 1)
      in
      Keygen.partition_rows vec lo hi = partitions_reference vec lo hi)

let () =
  Alcotest.run "core"
    [
      ( "decouple",
        [
          Alcotest.test_case "single literal" `Quick test_decouple_single_literal;
          Alcotest.test_case "arith to acc" `Quick test_decouple_arith_to_acc;
          Alcotest.test_case "paper Fig5 V9" `Quick test_decouple_fig5_v9;
          Alcotest.test_case "paper Fig5 V10 De Morgan" `Quick test_decouple_fig5_v10_demorgan;
          Alcotest.test_case "key column skipped" `Quick test_decouple_key_column_skipped;
          Alcotest.test_case "conflicting counts" `Quick test_decouple_conflicting_param_counts;
          Alcotest.test_case "sentinels" `Quick test_sentinels;
          Alcotest.test_case "double-bind guard" `Quick test_decouple_double_bind_guard;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "Example 4.6" `Quick test_cdf_example_46;
          Alcotest.test_case "equal counts share value" `Quick test_cdf_equal_counts_share_value;
          Alcotest.test_case "string order" `Quick test_cdf_string_rendering_order;
          Alcotest.test_case "infeasible inputs" `Quick test_cdf_infeasible_inputs;
          Alcotest.test_case "default layout" `Quick test_cdf_default_layout;
          QCheck_alcotest.to_alcotest prop_cdf_satisfies_random_anchor_sets;
          QCheck_alcotest.to_alcotest prop_cdf_matches_scan_reference;
          Alcotest.test_case "LIKE items scale linearly" `Quick
            test_cdf_like_items_scale_linearly;
        ] );
      ( "nonkey",
        [
          Alcotest.test_case "multisets" `Quick test_nonkey_preserves_multisets;
          Alcotest.test_case "bound rows" `Quick test_nonkey_bound_rows;
        ] );
      ( "acc",
        [
          Alcotest.test_case "exact thresholds" `Quick test_acc_threshold_exact;
          Alcotest.test_case "extremes" `Quick test_acc_threshold_extremes;
          QCheck_alcotest.to_alcotest prop_acc_threshold_best_effort;
          QCheck_alcotest.to_alcotest prop_acc_threshold_matches_reference;
          QCheck_alcotest.to_alcotest prop_acc_threshold_large_matches_reference;
          Alcotest.test_case "repair reaches a tie-heavy target" `Quick
            test_acc_repair_reaches_target;
          Alcotest.test_case "repair keeps the frozen prefix and multisets" `Quick
            test_acc_repair_frozen_prefix;
          Alcotest.test_case "NULL, dictionary and zero-divisor rows raise" `Quick
            test_acc_invalid_rows;
          Alcotest.test_case "an unsampled NULL is never read" `Quick
            test_acc_unsampled_null;
          Alcotest.test_case "=, <> and NaN raise; mixed zeros give +0.0" `Quick
            test_acc_threshold_refuses;
        ] );
      ( "elements",
        [ QCheck_alcotest.to_alcotest prop_production_elements_match_reference ] );
      ( "rewrite",
        [
          Alcotest.test_case "pushes conjuncts" `Quick test_rewrite_pushes_conjuncts;
          Alcotest.test_case "or-across aux" `Quick test_rewrite_or_across_makes_aux;
          Alcotest.test_case "nested marginals" `Quick test_rewrite_nested_or_marginals;
          Alcotest.test_case "two mixed unsupported" `Quick test_rewrite_two_mixed_clauses_unsupported;
        ] );
      ( "extract",
        [
          Alcotest.test_case "child view classification" `Quick test_child_view_classification;
          Alcotest.test_case "trivial jcc dropped" `Quick test_extract_trivial_jcc_dropped;
          Alcotest.test_case "semi yields jdc" `Quick test_extract_semi_yields_jdc;
          Alcotest.test_case "pcc on direct join" `Quick test_extract_pcc_on_direct_join;
          Alcotest.test_case "range conjunction split" `Quick test_extract_range_conjunction_split;
          Alcotest.test_case "extraction AQTs = per-plan analysis" `Quick
            test_extract_aqts_per_plan_analysis;
        ] );
      ( "keygen",
        [
          Alcotest.test_case "membership forms" `Quick test_membership_forms;
          QCheck_alcotest.to_alcotest prop_membership_matches_oracle;
          Alcotest.test_case "membership: Project-rooted subplan takes the hash fallback"
            `Quick test_membership_project_fallback;
          Alcotest.test_case "paper Figs 8-10 example" `Quick test_keygen_paper_example;
          QCheck_alcotest.to_alcotest prop_partitions_match_reference;
        ] );
      ( "sql-export",
        [
          Alcotest.test_case "ddl" `Quick test_sql_ddl;
          Alcotest.test_case "query shapes" `Quick test_sql_query_shapes;
          Alcotest.test_case "query aliases restart per call" `Quick
            test_sql_aliases_per_query;
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_random_applications_regenerate ] );
    ]
