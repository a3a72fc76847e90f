module Workload = Mirage_core.Workload
module Plan = Mirage_relalg.Plan
module Db = Mirage_engine.Db
module Features = Mirage_workloads.Features
module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Col = Mirage_engine.Col

let test_ssb_shape () =
  let w, db, _ = Mirage_workloads.Ssb.make ~sf:0.5 ~seed:1 in
  Alcotest.(check int) "13 queries" 13 (List.length w.Workload.w_queries);
  Alcotest.(check int) "5 tables" 5 (List.length (Schema.tables w.Workload.w_schema));
  Alcotest.(check bool) "lineorder populated" true (Db.row_count db "lineorder" > 0)

let test_tpch_shape () =
  let w, db, _ = Mirage_workloads.Tpch.make ~sf:0.05 ~seed:1 in
  Alcotest.(check int) "22 queries" 22 (List.length w.Workload.w_queries);
  Alcotest.(check int) "8 tables" 8 (List.length (Schema.tables w.Workload.w_schema));
  Alcotest.(check int) "region fixed" 5 (Db.row_count db "region");
  Alcotest.(check int) "nation fixed" 25 (Db.row_count db "nation")

let test_tpcds_shape () =
  let w, _, _ = Mirage_workloads.Tpcds.make ~sf:0.05 ~seed:1 in
  Alcotest.(check int) "100 queries" 100 (List.length w.Workload.w_queries);
  Alcotest.(check int) "9 tables" 9 (List.length (Schema.tables w.Workload.w_schema))

let test_tpch_feature_coverage () =
  (* the paper's Table 1 columns must all be exercised by the 22 templates *)
  let w, _, _ = Mirage_workloads.Tpch.make ~sf:0.05 ~seed:1 in
  let schema = w.Workload.w_schema in
  let features =
    List.map (fun (q : Workload.query) -> Features.of_plan schema q.Workload.q_plan)
      w.Workload.w_queries
  in
  let any f = List.exists f features in
  Alcotest.(check bool) "arith" true (any (fun x -> x.Features.f_arith));
  Alcotest.(check bool) "like" true (any (fun x -> x.Features.f_like));
  Alcotest.(check bool) "in" true (any (fun x -> x.Features.f_in_pred));
  Alcotest.(check bool) "outer" true (any (fun x -> x.Features.f_outer_join));
  Alcotest.(check bool) "semi" true (any (fun x -> x.Features.f_semi_join));
  Alcotest.(check bool) "anti" true (any (fun x -> x.Features.f_anti_join));
  Alcotest.(check bool) "or across" true (any (fun x -> x.Features.f_or_across_join));
  Alcotest.(check bool) "fk projection" true (any (fun x -> x.Features.f_fk_projection))

let test_feature_detection_units () =
  let w, _, _ = Mirage_workloads.Tpch.make ~sf:0.05 ~seed:1 in
  let schema = w.Workload.w_schema in
  let feat name =
    Features.of_plan schema (Workload.query w name).Workload.q_plan
  in
  Alcotest.(check bool) "q1 plain" true
    (feat "tpch_q1" = { Features.none with Features.f_string_range = false });
  Alcotest.(check bool) "q13 outer+like" true
    (let f = feat "tpch_q13" in f.Features.f_outer_join && f.Features.f_like);
  Alcotest.(check bool) "q19 or-across" true (feat "tpch_q19").Features.f_or_across_join;
  Alcotest.(check bool) "q16 fk projection" true (feat "tpch_q16").Features.f_fk_projection

let test_refgen_determinism () =
  let _, a, _ = Mirage_workloads.Tpch.make ~sf:0.05 ~seed:42 in
  let _, b, _ = Mirage_workloads.Tpch.make ~sf:0.05 ~seed:42 in
  Alcotest.(check string) "same seed same data" (Db.to_csv a "supplier") (Db.to_csv b "supplier")

let test_refgen_perm_string () =
  let _, db, _ = Mirage_workloads.Tpch.make ~sf:0.05 ~seed:1 in
  (* nation names are a permutation: every row distinct *)
  Alcotest.(check int) "25 distinct names" 25 (Db.distinct_count db "nation" "n_name")

let test_refgen_fk_validity () =
  let w, db, _ = Mirage_workloads.Ssb.make ~sf:0.25 ~seed:3 in
  let schema = w.Workload.w_schema in
  List.iter
    (fun (tbl : Schema.table) ->
      List.iter
        (fun (f : Schema.fk) ->
          let fks = Db.column db tbl.Schema.tname f.Schema.fk_col in
          let target = Db.row_count db f.Schema.references in
          Array.iter
            (fun v ->
              match v with
              | Value.Int x ->
                  Alcotest.(check bool) "fk in range" true (x >= 1 && x <= target)
              | _ -> Alcotest.fail "non-int fk")
            fks)
        tbl.Schema.fks)
    (Schema.tables schema)

(* The typed builder draws the same values as the boxed one and installs
   the columns [Col.of_values] inferred from them: same constructor, pool
   order, codes, data and null bitmap, column by column. *)
let same_nulls a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      Col.Bitset.length a = Col.Bitset.length b
      && List.for_all (fun i -> Col.Bitset.get a i = Col.Bitset.get b i)
           (List.init (Col.Bitset.length a) Fun.id)
  | _ -> false

let same_repr a b =
  let big_eq x y =
    Bigarray.Array1.dim x = Bigarray.Array1.dim y
    && List.for_all (fun i -> compare x.{i} y.{i} = 0)
         (List.init (Bigarray.Array1.dim x) Fun.id)
  in
  match (a, b) with
  | Col.Ints a, Col.Ints b -> big_eq a.data b.data && same_nulls a.nulls b.nulls
  | Col.Floats a, Col.Floats b -> big_eq a.data b.data && same_nulls a.nulls b.nulls
  | Col.Dict a, Col.Dict b ->
      a.pool = b.pool && big_eq a.codes b.codes && same_nulls a.nulls b.nulls
  | _ -> false

let test_refgen_typed_equals_boxed () =
  let check name make specs =
    List.iter
      (fun seed ->
        let w, typed, _ = make ~seed in
        let schema = w.Workload.w_schema in
        let boxed = Refgen_reference.build ~seed schema ~specs in
        List.iter
          (fun (tbl : Schema.table) ->
            let t = tbl.Schema.tname in
            Alcotest.(check int) (t ^ " rows") (Db.row_count boxed t) (Db.row_count typed t);
            List.iter
              (fun c ->
                if not (same_repr (Db.col boxed t c) (Db.col typed t c)) then
                  Alcotest.failf "%s seed %d: %s.%s differs from the boxed build" name seed t c)
              (Schema.column_names tbl))
          (Schema.tables schema))
      [ 1; 7; 23; 42 ]
  in
  check "ssb" (Mirage_workloads.Ssb.make ~sf:0.5) Mirage_workloads.Ssb.specs;
  check "tpch" (Mirage_workloads.Tpch.make ~sf:0.1) Mirage_workloads.Tpch.specs;
  check "tpcds" (Mirage_workloads.Tpcds.make ~sf:0.1) Mirage_workloads.Tpcds.specs

let test_sf_scaling () =
  let _, small, _ = Mirage_workloads.Ssb.make ~sf:0.5 ~seed:1 in
  let _, big, _ = Mirage_workloads.Ssb.make ~sf:1.0 ~seed:1 in
  Alcotest.(check bool) "scales" true
    (Db.row_count big "lineorder" = 2 * Db.row_count small "lineorder")

let test_take_prefix () =
  let w, _, _ = Mirage_workloads.Tpch.make ~sf:0.05 ~seed:1 in
  Alcotest.(check int) "take 5" 5 (List.length (Workload.take w 5).Workload.w_queries)

let () =
  Alcotest.run "workloads"
    [
      ( "shape",
        [
          Alcotest.test_case "ssb" `Quick test_ssb_shape;
          Alcotest.test_case "tpch" `Quick test_tpch_shape;
          Alcotest.test_case "tpcds" `Quick test_tpcds_shape;
          Alcotest.test_case "take prefix" `Quick test_take_prefix;
        ] );
      ( "features",
        [
          Alcotest.test_case "tpch coverage" `Quick test_tpch_feature_coverage;
          Alcotest.test_case "unit detection" `Quick test_feature_detection_units;
        ] );
      ( "refgen",
        [
          Alcotest.test_case "deterministic" `Quick test_refgen_determinism;
          Alcotest.test_case "perm strings" `Quick test_refgen_perm_string;
          Alcotest.test_case "fk validity" `Quick test_refgen_fk_validity;
          Alcotest.test_case "sf scaling" `Quick test_sf_scaling;
          Alcotest.test_case "typed refgen = boxed reference" `Quick
            test_refgen_typed_equals_boxed;
        ] );
    ]
