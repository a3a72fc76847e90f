(* End-to-end pipeline test on the paper's running example (Fig. 1):
   tables S(s_pk, s1) and T(t_pk, t_fk -> S, t1, t2), queries Q1-Q4. *)

module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Schema = Mirage_sql.Schema
module Parser = Mirage_sql.Parser
module Plan = Mirage_relalg.Plan
module Db = Mirage_engine.Db
module Workload = Mirage_core.Workload
module Driver = Mirage_core.Driver
module Diag = Mirage_core.Diag
module Error = Mirage_core.Error

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
          ];
        fks = [ { Schema.fk_col = "t_fk"; references = "s" } ];
        row_count = 8;
      };
    ]

(* Production database (Example 2.4 shape). *)
let ref_db () =
  let db = Db.create schema in
  let ints l = Array.of_list (List.map (fun x -> Value.Int x) l) in
  Db.put db "s" [ ("s_pk", ints [ 1; 2; 3; 4 ]); ("s1", ints [ 10; 20; 30; 40 ]) ];
  Db.put db "t"
    [
      ("t_pk", ints [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
      ("t_fk", ints [ 1; 2; 2; 3; 3; 3; 4; 4 ]);
      ("t1", ints [ 1; 2; 3; 4; 4; 4; 5; 3 ]);
      ("t2", ints [ 1; 2; 2; 2; 3; 4; 1; 3 ]);
    ];
  db

let prod_env =
  Pred.Env.of_list
    [
      ("p1", Pred.Env.Scalar (Value.Int 30));
      ("p2", Pred.Env.Scalar (Value.Int 2));
      ("p3", Pred.Env.Scalar (Value.Float 0.0));
      ("p4", Pred.Env.Scalar (Value.Int 1));
      ("p5", Pred.Env.Scalar (Value.Int 4));
      ("p6", Pred.Env.Scalar (Value.Float 2.0));
      ("p7", Pred.Env.Scalar (Value.Int 4));
      ("p8", Pred.Env.Scalar (Value.Int 2));
    ]

let q1 =
  (* Π_tfk( σ_{s1<p1}(S) ⋈ σ_{t1>p2}(T) ) *)
  Plan.Project
    {
      cols = [ "t_fk" ];
      input =
        Plan.Join
          {
            jt = Plan.Inner;
            pk_table = "s";
            fk_table = "t";
            fk_col = "t_fk";
            left = Plan.Select (Parser.pred "s1 < $p1", Plan.Table "s");
            right = Plan.Select (Parser.pred "t1 > $p2", Plan.Table "t");
          };
    }

let q2 =
  (* S ⟕ σ_{t1-t2>p3}(T) *)
  Plan.Join
    {
      jt = Plan.Left_outer;
      pk_table = "s";
      fk_table = "t";
      fk_col = "t_fk";
      left = Plan.Table "s";
      right = Plan.Select (Parser.pred "t1 - t2 > $p3", Plan.Table "t");
    }

let q3 = Plan.Select (Parser.pred "(t1 <= $p4 or t2 = $p5) and t1 - t2 < $p6", Plan.Table "t")

let q4 = Plan.Select (Parser.pred "t1 <> $p7 or t2 <> $p8", Plan.Table "t")

let workload =
  Workload.make schema
    [
      { Workload.q_name = "q1"; q_plan = q1 };
      { Workload.q_name = "q2"; q_plan = q2 };
      { Workload.q_name = "q3"; q_plan = q3 };
      { Workload.q_name = "q4"; q_plan = q4 };
    ]

let config = { Driver.default_config with batch_size = 1000 }

let run_pipeline () =
  match Driver.generate ~config workload ~ref_db:(ref_db ()) ~prod_env with
  | Ok r -> r
  | Error d ->
      Alcotest.failf "generation failed: %s" (Mirage_core.Diag.to_string d)

let test_generation_succeeds () =
  let r = run_pipeline () in
  Alcotest.(check int) "|S|" 4 (Db.row_count r.Driver.r_db "s");
  Alcotest.(check int) "|T|" 8 (Db.row_count r.Driver.r_db "t")

let test_zero_errors () =
  let r = run_pipeline () in
  let errors = Driver.measure_errors r in
  List.iter
    (fun (e : Error.query_error) ->
      (* q2 carries an arithmetic predicate over an 8-row table: the result
         multiset may not admit an exact threshold (tie effect), so it is
         allowed a small deviation; everything else must be exact. *)
      let bound = if e.Error.qe_name = "q2" then 0.15 else 0.0001 in
      if e.Error.qe_relative > bound then
        Alcotest.failf "%s relative error %.4f > %.4f (expected %s, got %s)"
          e.Error.qe_name e.Error.qe_relative bound
          (String.concat "," (List.map string_of_int e.Error.qe_expected))
          (String.concat "," (List.map string_of_int e.Error.qe_actual)))
    errors

let test_domain_sizes_preserved () =
  let r = run_pipeline () in
  Alcotest.(check int) "|T|_t1" 5 (Db.distinct_count r.Driver.r_db "t" "t1");
  Alcotest.(check int) "|T|_t2" 4 (Db.distinct_count r.Driver.r_db "t" "t2");
  Alcotest.(check int) "|S|_s1" 4 (Db.distinct_count r.Driver.r_db "s" "s1")

let test_warnings_only_resizes () =
  (* the only acceptable diagnostics are §6 bounded-error resize notices
     (keygen warnings) and the per-edge CP counters (infos); anything from
     validation, extraction, decoupling, CDF, non-key generation or the
     driver fails *)
  let r = run_pipeline () in
  List.iter
    (fun (d : Diag.t) ->
      match (d.Diag.d_stage, d.Diag.d_severity) with
      | Diag.Keygen, Diag.Warning | Diag.Cp, Diag.Info -> ()
      | _ -> Alcotest.failf "unexpected diagnostic: %s" (Diag.to_string d))
    r.Driver.r_diags

(* --- full workloads end-to-end -------------------------------------------- *)

let gen_workload make ~sf ~batch =
  let workload, ref_db, prod_env = make ~sf ~seed:7 in
  let config = { Driver.default_config with Driver.batch_size = batch } in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Ok r -> r
  | Error d ->
      Alcotest.failf "generation failed: %s" (Mirage_core.Diag.to_string d)

let max_err r =
  List.fold_left
    (fun acc (e : Error.query_error) -> max acc e.Error.qe_relative)
    0.0 (Driver.measure_errors r)

let test_ssb_end_to_end () =
  let r = gen_workload Mirage_workloads.Ssb.make ~sf:0.5 ~batch:1_000_000 in
  Alcotest.(check (float 1e-9)) "all 13 queries exact" 0.0 (max_err r)

let test_tpch_end_to_end () =
  let r = gen_workload Mirage_workloads.Tpch.make ~sf:0.1 ~batch:1_000_000 in
  Alcotest.(check bool)
    (Printf.sprintf "all 22 queries near-exact (worst %.5f)" (max_err r))
    true
    (max_err r < 0.005)

let test_determinism () =
  let a = gen_workload Mirage_workloads.Ssb.make ~sf:0.25 ~batch:1_000_000 in
  let b = gen_workload Mirage_workloads.Ssb.make ~sf:0.25 ~batch:1_000_000 in
  Alcotest.(check string) "identical synthetic lineorder"
    (Db.to_csv a.Driver.r_db "lineorder")
    (Db.to_csv b.Driver.r_db "lineorder");
  Alcotest.(check bool) "identical parameters" true
    (Pred.Env.bindings a.Driver.r_env = Pred.Env.bindings b.Driver.r_env)

let test_batching_consistency () =
  (* small batches introduce only the paper's bounded deviations *)
  let big = gen_workload Mirage_workloads.Ssb.make ~sf:0.5 ~batch:1_000_000 in
  let small = gen_workload Mirage_workloads.Ssb.make ~sf:0.5 ~batch:500 in
  Alcotest.(check (float 1e-9)) "single batch exact" 0.0 (max_err big);
  Alcotest.(check bool)
    (Printf.sprintf "batched within bound (worst %.5f)" (max_err small))
    true
    (max_err small < 0.02)

let test_row_and_domain_cardinalities () =
  let workload, ref_db, prod_env = Mirage_workloads.Tpch.make ~sf:0.1 ~seed:7 in
  match Driver.generate workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok r ->
      List.iter
        (fun (tbl : Schema.table) ->
          Alcotest.(check int)
            (tbl.Schema.tname ^ " row count")
            (Db.row_count ref_db tbl.Schema.tname)
            (Db.row_count r.Driver.r_db tbl.Schema.tname);
          List.iter
            (fun (c : Schema.column) ->
              Alcotest.(check int)
                (tbl.Schema.tname ^ "." ^ c.Schema.cname ^ " domain")
                (Db.distinct_count ref_db tbl.Schema.tname c.Schema.cname)
                (Db.distinct_count r.Driver.r_db tbl.Schema.tname c.Schema.cname))
            tbl.Schema.nonkeys)
        (Schema.tables workload.Workload.w_schema)

let test_fixed_point () =
  (* extracting constraints from the synthetic database with the synthetic
     parameters reproduces the production annotations: D' is a fixed point
     of the workload parser *)
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.5 ~seed:7 in
  match Driver.generate workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok r ->
      let ex_prod = Mirage_core.Extract.run workload ~ref_db ~prod_env in
      let ex_synth =
        Mirage_core.Extract.run workload ~ref_db:r.Driver.r_db ~prod_env:r.Driver.r_env
      in
      List.iter2
        (fun (a : Mirage_relalg.Aqt.t) (b : Mirage_relalg.Aqt.t) ->
          Alcotest.(check (array (option int)))
            ("annotations of " ^ a.Mirage_relalg.Aqt.name)
            a.Mirage_relalg.Aqt.cards b.Mirage_relalg.Aqt.cards)
        ex_prod.Mirage_core.Extract.aqts ex_synth.Mirage_core.Extract.aqts

let test_fk_referential_integrity () =
  let r = gen_workload Mirage_workloads.Tpch.make ~sf:0.1 ~batch:1_000_000 in
  let db = r.Driver.r_db in
  let schema = Db.schema db in
  List.iter
    (fun (tbl : Schema.table) ->
      List.iter
        (fun (f : Schema.fk) ->
          let target = Db.row_count db f.Schema.references in
          Array.iter
            (fun v ->
              match v with
              | Value.Int x ->
                  if x < 1 || x > target then
                    Alcotest.failf "dangling fk %s.%s = %d" tbl.Schema.tname
                      f.Schema.fk_col x
              | _ -> Alcotest.failf "null fk in %s.%s" tbl.Schema.tname f.Schema.fk_col)
            (Db.column db tbl.Schema.tname f.Schema.fk_col))
        tbl.Schema.fks)
    (Schema.tables schema)

let test_scale_out_exactness () =
  (* tiling multiplies every annotated cardinality by the copy count *)
  let r = gen_workload Mirage_workloads.Ssb.make ~sf:0.25 ~batch:1_000_000 in
  let copies = 3 in
  let tiled = Mirage_core.Scale_out.tile_db ~db:r.Driver.r_db ~copies in
  let workload, _, _ = Mirage_workloads.Ssb.make ~sf:0.25 ~seed:7 in
  List.iter
    (fun (q : Workload.query) ->
      let base = Mirage_engine.Exec.analyze r.Driver.r_db ~env:r.Driver.r_env q.Workload.q_plan in
      let big = Mirage_engine.Exec.analyze tiled ~env:r.Driver.r_env q.Workload.q_plan in
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "%s view %d scales" q.Workload.q_name i)
            (copies * c) big.Mirage_engine.Exec.cards.(i))
        base.Mirage_engine.Exec.cards)
    workload.Workload.w_queries

let test_scale_out_csv () =
  let r = gen_workload Mirage_workloads.Ssb.make ~sf:0.25 ~batch:1_000_000 in
  let dir = Filename.temp_file "mirage" "" in
  Sys.remove dir;
  ignore (Shards.export ~db:r.Driver.r_db ~copies:2 ~dir ~run_id:"tiles" ());
  (* an unbounded chunk writes each table as one shard *)
  let ic = open_in (Filename.concat dir "lineorder.csv.0") in
  let lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "header + 2 tiles"
    (1 + (2 * Db.row_count r.Driver.r_db "lineorder"))
    !lines

let test_bundle_roundtrip_generation () =
  (* the bundle mode — generation without the production database — must
     produce exactly the same database as direct generation *)
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.5 ~seed:7 in
  let ex = Mirage_core.Extract.run workload ~ref_db ~prod_env in
  let bundle = Mirage_core.Bundle.of_extraction workload ex ~prod_env in
  let reloaded =
    match Mirage_core.Bundle.of_string (Mirage_core.Bundle.to_string bundle) with
    | Ok b -> b
    | Error m -> Alcotest.failf "bundle parse: %s" m
  in
  let direct =
    match Driver.generate workload ~ref_db ~prod_env with
    | Ok r -> r
    | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  in
  let from_bundle =
    match Driver.generate_from_bundle reloaded with
    | Ok r -> r
    | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  in
  List.iter
    (fun tname ->
      Alcotest.(check string) (tname ^ " identical")
        (Db.to_csv direct.Driver.r_db tname)
        (Db.to_csv from_bundle.Driver.r_db tname))
    [ "lineorder"; "customer"; "part" ];
  (* replaying the original AQTs against the bundle-generated database must
     reproduce the production annotations exactly *)
  let errs =
    Mirage_core.Error.measure ~aqts:ex.Mirage_core.Extract.aqts
      ~db:from_bundle.Driver.r_db ~env:from_bundle.Driver.r_env
  in
  List.iter
    (fun (e : Error.query_error) ->
      Alcotest.(check (float 1e-9)) (e.Error.qe_name ^ " exact") 0.0 e.Error.qe_relative)
    errs

let test_bundle_rejects_garbage () =
  (match Mirage_core.Bundle.of_string "(not-a-bundle)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match Mirage_core.Bundle.of_string "(mirage-bundle 1)\n(nonsense)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown line"

let () =
  Alcotest.run "integration"
    [
      ( "paper-example",
        [
          Alcotest.test_case "generation succeeds" `Quick test_generation_succeeds;
          Alcotest.test_case "all queries zero error" `Quick test_zero_errors;
          Alcotest.test_case "domain sizes preserved" `Quick test_domain_sizes_preserved;
          Alcotest.test_case "warnings only resizes" `Quick test_warnings_only_resizes;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "ssb exact end-to-end" `Quick test_ssb_end_to_end;
          Alcotest.test_case "tpch near-exact end-to-end" `Slow test_tpch_end_to_end;
          Alcotest.test_case "deterministic generation" `Quick test_determinism;
          Alcotest.test_case "batching stays within bounds" `Quick test_batching_consistency;
          Alcotest.test_case "row and domain cardinalities" `Slow test_row_and_domain_cardinalities;
          Alcotest.test_case "workload-parser fixed point" `Quick test_fixed_point;
          Alcotest.test_case "fk referential integrity" `Slow test_fk_referential_integrity;
        ] );
      ( "bundle",
        [
          Alcotest.test_case "round trip equals direct generation" `Quick
            test_bundle_roundtrip_generation;
          Alcotest.test_case "rejects garbage" `Quick test_bundle_rejects_garbage;
        ] );
      ( "scale-out",
        [
          Alcotest.test_case "cardinalities scale exactly" `Quick test_scale_out_exactness;
          Alcotest.test_case "csv tiles" `Quick test_scale_out_csv;
        ] );
    ]
