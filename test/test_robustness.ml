(* Fault-injection tests: a broken annotation, a broken bundle or a starved
   CP solver must degrade generation, never abort it without a diagnosis. *)

module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan
module Db = Mirage_engine.Db
module Ir = Mirage_core.Ir
module Diag = Mirage_core.Diag
module Workload = Mirage_core.Workload
module Bundle = Mirage_core.Bundle
module Driver = Mirage_core.Driver
module Error = Mirage_core.Error

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- fixture: the S/T running example as a hand-built bundle ---------------- *)

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

let join_plan left =
  Plan.Join
    {
      jt = Plan.Inner;
      pk_table = "s";
      fk_table = "t";
      fk_col = "t_fk";
      left;
      right = Plan.Table "t";
    }

let sel_s = Plan.Select (Mirage_sql.Parser.pred "s1 <= $p1", Plan.Table "s")

let workload =
  Workload.make schema
    [
      { Workload.q_name = "q1"; q_plan = join_plan sel_s };
      { Workload.q_name = "q2"; q_plan = join_plan (Plan.Table "s") };
    ]

let edge = { Ir.e_pk_table = "s"; e_fk_table = "t"; e_fk_col = "t_fk" }

(* joins over a strict-subset left view: |σ(s1≤$p1)(S)| is pinned to 2 by
   an SCC, so conflicting jcc annotations cannot be normalised away *)
let join ~source ~jcc =
  {
    Ir.jc_edge = edge;
    jc_left = Ir.Cv_select { cv_table = "s"; cv_pred = Mirage_sql.Parser.pred "s1 <= $p1" };
    jc_right = Ir.Cv_full "t";
    jc_jcc = Some jcc;
    jc_jdc = None;
    jc_source = source;
  }

let sel_scc =
  {
    Ir.scc_table = "s";
    scc_pred = Mirage_sql.Parser.pred "s1 <= $p1";
    scc_rows = 2;
    scc_source = "q1#s0";
  }

let ir ?(table_cards = [ ("s", 4); ("t", 8) ]) joins =
  {
    Ir.sccs = [ sel_scc ];
    joins;
    table_cards;
    column_cards = [ (("t", "t1"), 5); (("t", "t2"), 4); (("s", "s1"), 4) ];
    param_elements = [];
  }

let bundle ?table_cards joins =
  {
    Bundle.b_workload = workload;
    b_ir = ir ?table_cards joins;
    b_env =
      Mirage_sql.Pred.Env.of_list
        [ ("p1", Mirage_sql.Pred.Env.Scalar (Value.Int 2)) ];
    b_unsupported = [];
  }

let feasible = join ~source:"q1#j0" ~jcc:8

(* q2 pins the same subset-view join to two further, mutually inconsistent
   counts: nothing to resize, provably infeasible *)
let contradictory = [ join ~source:"q2#j0" ~jcc:3; join ~source:"q2#j1" ~jcc:2 ]

(* --- degraded mode ----------------------------------------------------------- *)

let test_quarantine_contradictory () =
  match Driver.generate_from_bundle (bundle (feasible :: contradictory)) with
  | Error d ->
      Alcotest.failf "expected degraded Ok, got Error: %s" (Diag.to_string d)
  | Ok r ->
      (* the infeasible query is quarantined and named *)
      let verdict q =
        List.find (fun (v : Diag.verdict) -> v.Diag.v_query = q) r.Driver.r_verdicts
      in
      (match (verdict "q2").Diag.v_status with
      | Diag.Quarantined -> ()
      | other ->
          Alcotest.failf "q2 verdict: expected Quarantined, got %s"
            (Diag.status_name other));
      (match (verdict "q1").Diag.v_status with
      | Diag.Exact -> ()
      | other ->
          Alcotest.failf "q1 verdict: expected Exact, got %s"
            (Diag.status_name other));
      Alcotest.(check bool) "quarantine diagnosed by name" true
        (List.exists
           (fun (d : Diag.t) ->
             d.Diag.d_severity = Diag.Error && Diag.base_query d = Some "q2")
           r.Driver.r_diags);
      (* the surviving constraints are honoured exactly *)
      Alcotest.(check int) "|S|" 4 (Db.row_count r.Driver.r_db "s");
      Alcotest.(check int) "|T|" 8 (Db.row_count r.Driver.r_db "t");
      let fk = Db.column r.Driver.r_db "t" "t_fk" in
      let keys =
        Array.to_list fk
        |> List.filter_map (function Value.Int k -> Some k | _ -> None)
      in
      Alcotest.(check int) "no null fks" 8 (List.length keys);
      (* q1's jcc=8: every T row must reference an S row inside the
         σ(s1≤p1) view, whose cardinality the SCC pins to 2 *)
      let s1 = Db.column r.Driver.r_db "s" "s1" in
      let p1 =
        match Mirage_sql.Pred.Env.find "p1" r.Driver.r_env with
        | Some (Mirage_sql.Pred.Env.Scalar (Value.Int v)) -> v
        | _ -> Alcotest.fail "p1 not instantiated"
      in
      List.iter
        (fun k ->
          Alcotest.(check bool) "fk in range" true (k >= 1 && k <= 4);
          match s1.(k - 1) with
          | Value.Int v ->
              Alcotest.(check bool) "fk lands in the selected view" true (v <= p1)
          | _ -> Alcotest.fail "non-int s1")
        keys

(* a raising [on_attempt_abort] hook must not replace the keygen failure it
   runs under: the quarantine retry still happens, and the hook's error
   comes back as a typed warning *)
let test_abort_hook_failure () =
  let config =
    { Driver.default_config with
      on_attempt_abort = Some (fun () -> failwith "hook down") }
  in
  match Driver.generate_from_bundle ~config (bundle (feasible :: contradictory)) with
  | Error d ->
      Alcotest.failf "expected degraded Ok, got Error: %s" (Diag.to_string d)
  | Ok r ->
      Alcotest.(check bool) "q2 still quarantined" true
        (List.exists
           (fun (v : Diag.verdict) ->
             v.Diag.v_query = "q2" && v.Diag.v_status = Diag.Quarantined)
           r.Driver.r_verdicts);
      Alcotest.(check bool) "hook failure reported as a warning" true
        (List.exists
           (fun (d : Diag.t) ->
             d.Diag.d_severity = Diag.Warning
             && d.Diag.d_message = "attempt-abort hook failed: Failure(\"hook down\")")
           r.Driver.r_diags)

(* a raising [on_table_ready] hook is best-effort: generation succeeds with
   the same database and verdicts, and the hook's error comes back as a
   warning naming the table *)
let test_export_hook_failure () =
  let b = bundle (feasible :: contradictory) in
  let run on_table_ready =
    let config = { Driver.default_config with domains = 2; on_table_ready } in
    match Driver.generate_from_bundle ~config b with
    | Error d -> Alcotest.failf "expected Ok, got Error: %s" (Diag.to_string d)
    | Ok r -> r
  in
  let plain = run None in
  let hooked =
    run (Some (fun _ tname -> if tname = "t" then failwith "export down"))
  in
  List.iter
    (fun (t, c) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s.%s unchanged" t c)
        true
        (Db.column plain.Driver.r_db t c = Db.column hooked.Driver.r_db t c))
    [ ("s", "s_pk"); ("s", "s1"); ("t", "t_pk"); ("t", "t1"); ("t", "t2");
      ("t", "t_fk") ];
  Alcotest.(check (list string)) "same verdicts"
    (List.map
       (fun (v : Diag.verdict) ->
         v.Diag.v_query ^ " " ^ Diag.status_name v.Diag.v_status)
       plain.Driver.r_verdicts)
    (List.map
       (fun (v : Diag.verdict) ->
         v.Diag.v_query ^ " " ^ Diag.status_name v.Diag.v_status)
       hooked.Driver.r_verdicts);
  Alcotest.(check bool) "hook failure reported as a warning on t" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.d_severity = Diag.Warning
         && d.Diag.d_stage = Diag.Driver
         && d.Diag.d_table = Some "t"
         && d.Diag.d_message = "export hook failed: Failure(\"export down\")")
       hooked.Driver.r_diags)

let test_all_queries_infeasible () =
  (* both queries carry self-contradictory annotations: the quarantine must
     widen until nothing is left, and the result is still Ok *)
  let b =
    bundle
      [
        join ~source:"q1#j0" ~jcc:8;
        join ~source:"q1#j1" ~jcc:7;
        join ~source:"q2#j0" ~jcc:3;
        join ~source:"q2#j1" ~jcc:2;
      ]
  in
  match Driver.generate_from_bundle b with
  | Error d -> Alcotest.failf "expected Ok, got Error: %s" (Diag.to_string d)
  | Ok r ->
      Alcotest.(check int) "two verdicts" 2 (List.length r.Driver.r_verdicts);
      List.iter
        (fun (v : Diag.verdict) ->
          Alcotest.(check bool)
            (v.Diag.v_query ^ " quarantined")
            true
            (v.Diag.v_status = Diag.Quarantined))
        r.Driver.r_verdicts;
      Alcotest.(check int) "|T| still generated" 8
        (Db.row_count r.Driver.r_db "t")

(* --- bundle validation ------------------------------------------------------- *)

let has_error diags =
  List.exists (fun (d : Diag.t) -> d.Diag.d_severity = Diag.Error) diags

let test_dangling_fk () =
  let dangling =
    {
      feasible with
      Ir.jc_edge = { Ir.e_pk_table = "s"; e_fk_table = "t"; e_fk_col = "t_bogus" };
      jc_source = "q1#j0";
    }
  in
  let b = bundle [ dangling ] in
  Alcotest.(check bool) "validate flags dangling fk" true
    (has_error (Bundle.validate b));
  match Driver.generate_from_bundle b with
  | Error d ->
      Alcotest.(check bool) "names the missing fk" true
        (contains d.Diag.d_message "t_bogus")
  | Ok _ -> Alcotest.fail "dangling fk accepted"

let test_zero_row_referenced_table () =
  let b = bundle ~table_cards:[ ("s", 0); ("t", 8) ] [ feasible ] in
  Alcotest.(check bool) "validate flags zero-row referenced table" true
    (has_error (Bundle.validate b));
  match Driver.generate_from_bundle b with
  | Error d ->
      Alcotest.(check bool) "blames the referenced table" true
        (d.Diag.d_table = Some "s")
  | Ok _ -> Alcotest.fail "zero-row referenced table accepted"

let test_selection_exceeds_table () =
  let scc =
    {
      Ir.scc_table = "t";
      scc_pred = Mirage_sql.Parser.pred "t1 > 2";
      scc_rows = 99;
      scc_source = "q1#s0";
    }
  in
  let b =
    { (bundle [ feasible ]) with Bundle.b_ir = { (ir [ feasible ]) with Ir.sccs = [ scc ] } }
  in
  Alcotest.(check bool) "validate flags |sigma(T)| > |T|" true
    (has_error (Bundle.validate b))

let test_valid_bundle_clean () =
  Alcotest.(check int) "no diagnostics on a sane bundle" 0
    (List.length (Bundle.validate (bundle [ feasible ])))

(* --- bundle parsing ---------------------------------------------------------- *)

let test_malformed_int () =
  match Bundle.of_string "(mirage-bundle 1)\n(rows t abc)\n" with
  | Error m ->
      Alcotest.(check bool) "mentions the bad integer" true
        (contains m "abc")
  | Ok _ -> Alcotest.fail "accepted a non-integer row count"

let test_truncated_bundle () =
  let whole = Bundle.to_string (bundle [ feasible ]) in
  let cut = String.sub whole 0 (String.length whole - 5) in
  match Bundle.of_string cut with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a truncated bundle"

(* --- starved CP solver ------------------------------------------------------- *)

let test_tiny_node_budget () =
  let config = { Driver.default_config with Driver.cp_max_nodes = 2 } in
  match Driver.generate_from_bundle ~config (bundle [ feasible ]) with
  | Error d ->
      Alcotest.failf "tiny budget must degrade, not fail: %s" (Diag.to_string d)
  | Ok r ->
      Alcotest.(check int) "|T| generated" 8 (Db.row_count r.Driver.r_db "t");
      List.iter
        (fun (v : Diag.verdict) ->
          Alcotest.(check bool) "no Unsupported verdict" true
            (v.Diag.v_status <> Diag.Unsupported))
        r.Driver.r_verdicts

(* --- multi-seed smoke -------------------------------------------------------- *)

let test_multi_seed_smoke () =
  List.iter
    (fun seed ->
      let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.5 ~seed in
      match Driver.generate ~config:{ Driver.default_config with seed } workload ~ref_db ~prod_env with
      | Error d ->
          Alcotest.failf "seed %d failed: %s" seed (Diag.to_string d)
      | Ok r ->
          let worst =
            List.fold_left
              (fun a (e : Error.query_error) -> max a e.Error.qe_relative)
              0.0 (Driver.measure_errors r)
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d within bound (worst %.5f)" seed worst)
            true (worst < 0.02))
    [ 1; 2; 3 ]

(* Workload.make raises Workload.validate's first error *)
let test_make_duplicate_query () =
  let q = { Workload.q_name = "q1"; q_plan = join_plan (Plan.Table "s") } in
  match Workload.make schema [ q; q ] with
  | _ -> Alcotest.fail "a duplicate query name was accepted"
  | exception Invalid_argument m ->
      Alcotest.(check bool) "names the duplicate" true
        (contains m "duplicate query name q1")

(* a batch or chunk below one row is a Validate error, not a crash, from
   generate and generate_from_bundle alike, found before the production
   database is read: one the extraction would reject changes nothing *)
let test_nonpositive_sizes () =
  let ssb, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.05 ~seed:7 in
  let empty = Db.create ssb.Workload.w_schema in
  List.iter
    (fun (label, config) ->
      List.iter
        (fun (entry, result) ->
          match result () with
          | Error d ->
              Alcotest.(check string)
                (Printf.sprintf "%s, %s: stage" label entry)
                "validate" (Diag.stage_name d.Diag.d_stage)
          | Ok _ -> Alcotest.failf "%s, %s: generation succeeded" label entry)
        [
          ( "generate_from_bundle",
            fun () -> Driver.generate_from_bundle ~config (bundle [ feasible ]) );
          ("generate", fun () -> Driver.generate ~config ssb ~ref_db ~prod_env);
          ( "generate on an empty database",
            fun () -> Driver.generate ~config ssb ~ref_db:empty ~prod_env );
        ])
    [
      ("batch 0", { Driver.default_config with Driver.batch_size = 0 });
      ("batch -5", { Driver.default_config with Driver.batch_size = -5 });
      ("chunk 0", { Driver.default_config with Driver.chunk_rows = Some 0 });
    ]

(* an arithmetic predicate compares with <, <=, > or >=; a plan built in
   code with = is refused as the parser refuses it *)
let test_arith_equality_rejected () =
  let pred =
    Mirage_sql.Pred.(
      Lit (Arith_cmp { expr = Asub (Acol "t1", Acol "t2"); cmp = Eq; arg = Param "p9" }))
  in
  let w =
    {
      workload with
      Workload.w_queries =
        workload.Workload.w_queries
        @ [ { Workload.q_name = "q3"; q_plan = Plan.Select (pred, Plan.Table "t") } ];
    }
  in
  match List.filter (fun d -> d.Diag.d_severity = Diag.Error) (Workload.validate w) with
  | [ d ] ->
      Alcotest.(check string) "stage" "validate" (Diag.stage_name d.Diag.d_stage);
      Alcotest.(check (option string)) "query" (Some "q3") d.Diag.d_query
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)

let () =
  Alcotest.run "robustness"
    [
      ( "degraded-mode",
        [
          Alcotest.test_case "contradictory annotation quarantined" `Quick
            test_quarantine_contradictory;
          Alcotest.test_case "all queries infeasible" `Quick
            test_all_queries_infeasible;
          Alcotest.test_case "failing attempt-abort hook is a warning" `Quick
            test_abort_hook_failure;
          Alcotest.test_case "failing export hook is a warning" `Quick
            test_export_hook_failure;
          Alcotest.test_case "tiny cp node budget" `Quick test_tiny_node_budget;
        ] );
      ( "bundle-validation",
        [
          Alcotest.test_case "dangling fk" `Quick test_dangling_fk;
          Alcotest.test_case "zero-row referenced table" `Quick
            test_zero_row_referenced_table;
          Alcotest.test_case "selection exceeds table" `Quick
            test_selection_exceeds_table;
          Alcotest.test_case "sane bundle is clean" `Quick test_valid_bundle_clean;
          Alcotest.test_case "malformed integer" `Quick test_malformed_int;
          Alcotest.test_case "truncated bundle" `Quick test_truncated_bundle;
          Alcotest.test_case "Workload.make raises on a duplicate query name"
            `Quick test_make_duplicate_query;
          Alcotest.test_case "non-positive batch or chunk is a Validate error"
            `Quick test_nonpositive_sizes;
          Alcotest.test_case "arithmetic = is a Validate error" `Quick
            test_arith_equality_rejected;
        ] );
      ( "multi-seed",
        [ Alcotest.test_case "three-seed ssb smoke" `Quick test_multi_seed_smoke ] );
    ]
