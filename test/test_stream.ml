(* Streamed fact-table generation (Driver.config.chunk_rows): the
   chunk-at-a-time pipeline must produce byte-identical databases and
   parameters to the monolithic path — across workloads, domain counts and
   chunk sizes (including a non-dividing one), and through a
   kill-and-resume export mid-fact-table. *)

module Driver = Mirage_core.Driver
module Chunk_plan = Mirage_core.Chunk_plan
module Scale_out = Mirage_core.Scale_out
module Sink = Mirage_engine.Sink
module Db = Mirage_engine.Db
module Par = Mirage_par.Par
module Schema = Mirage_sql.Schema

let generate ?chunk_rows ?(domains = 1) make ~sf =
  let workload, ref_db, prod_env = make ~sf ~seed:7 in
  let config =
    { Driver.default_config with
      seed = 42; batch_size = 1_000_000; domains; chunk_rows }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok r -> r

let largest_table db =
  List.fold_left (fun m t -> max m (Db.row_count db t)) 1 (Shards.table_names db)

(* --- unit: chunk plans ----------------------------------------------------- *)

let test_chunk_plan_ranges () =
  Alcotest.(check (list (pair int int)))
    "ragged tail" [ (0, 3); (3, 3); (6, 3); (9, 1) ]
    (Array.to_list (Chunk_plan.ranges ~rows:10 ~chunk_rows:3));
  Alcotest.(check (list (pair int int)))
    "single chunk when rows <= chunk" [ (0, 10) ]
    (Array.to_list (Chunk_plan.ranges ~rows:10 ~chunk_rows:37));
  Alcotest.(check (list (pair int int)))
    "empty table" []
    (Array.to_list (Chunk_plan.ranges ~rows:0 ~chunk_rows:4));
  Alcotest.check_raises "chunk_rows 0 rejected"
    (Invalid_argument "Chunk_plan: chunk_rows must be >= 1") (fun () ->
      ignore (Chunk_plan.ranges ~rows:10 ~chunk_rows:0))

(* the ranges tile [0, rows) contiguously, each row exactly once *)
let check_covers ~rows ~chunk_rows =
  let next_lo = ref 0 in
  Array.iter
    (fun (lo, len) ->
      Alcotest.(check int) "contiguous" !next_lo lo;
      Alcotest.(check bool) "non-empty, at most chunk_rows" true
        (len >= 1 && len <= chunk_rows);
      next_lo := lo + len)
    (Chunk_plan.ranges ~rows ~chunk_rows);
  Alcotest.(check int)
    (Printf.sprintf "rows=%d chunk_rows=%d: covers every row exactly once" rows
       chunk_rows)
    rows !next_lo

let test_chunk_plan_covers () =
  Alcotest.(check int) "chunk count" 4
    (Array.length (Chunk_plan.ranges ~rows:100 ~chunk_rows:33));
  check_covers ~rows:100 ~chunk_rows:33

(* an unbounded chunk (the CLI's default export) is one range; the ceiling
   must not wrap at max_int *)
let test_chunk_plan_max_int () =
  List.iter
    (fun rows ->
      Alcotest.(check int)
        (Printf.sprintf "rows=%d: one chunk" rows)
        1
        (Array.length (Chunk_plan.ranges ~rows ~chunk_rows:max_int));
      check_covers ~rows ~chunk_rows:max_int)
    [ 1; 120; max_int ];
  Alcotest.(check int) "empty table" 0
    (Array.length (Chunk_plan.ranges ~rows:0 ~chunk_rows:max_int));
  check_covers ~rows:max_int ~chunk_rows:(max_int / 2)

(* --- streamed = monolithic byte identity ----------------------------------- *)

let check_identity ~label mono r =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s streamed = monolithic" label t)
        true
        (String.equal
           (Reference.csv ~db:mono.Driver.r_db ~copies:1 t)
           (Reference.csv ~db:r.Driver.r_db ~copies:1 t)))
    (Shards.table_names mono.Driver.r_db);
  Alcotest.(check bool)
    (label ^ ": parameters identical")
    true
    (Mirage_sql.Pred.Env.bindings mono.Driver.r_env
    = Mirage_sql.Pred.Env.bindings r.Driver.r_env)

let test_stream_identity make ~sf () =
  let mono = generate make ~sf in
  let largest = largest_table mono.Driver.r_db in
  (* a power-of-two-ish size and a non-dividing prime, so the last chunk of
     every fact table is ragged in at least one configuration *)
  List.iter
    (fun chunk_rows ->
      List.iter
        (fun domains ->
          let r = generate ~chunk_rows ~domains make ~sf in
          check_identity
            ~label:(Printf.sprintf "chunk=%d domains=%d" chunk_rows domains)
            mono r)
        [ 1; 2; 4 ])
    [ max 2 (largest / 4); 37 ]

(* --- kill-and-resume export of a streamed database ------------------------- *)

let test_stream_crash_resume () =
  let mono = generate Mirage_workloads.Ssb.make ~sf:0.05 in
  let r = generate ~chunk_rows:37 Mirage_workloads.Ssb.make ~sf:0.05 in
  let db = r.Driver.r_db in
  let dir_c = Shards.fresh_dir "mirage_stream_cc" in
  (* several shards per fact table, crash after two commits: the kill lands
     mid-fact-table, and the resumed run must complete byte-identically.
     At a third of the largest table, the fact tables ([rows > chunk_rows])
     take the per-window streaming branch and the dimensions the cached
     whole-table template, so both paths mix. *)
  let chunk_rows = max 1 (largest_table db / 3) in
  let run_id = "stream-resume" in
  let crashed =
    Par.with_pool ~domains:2 (fun pool ->
        let backend =
          Sink.faulty
            { Sink.no_faults with Sink.crash_after_shards = Some 2 }
            Sink.os_backend
        in
        match
          Shards.export ~pool ~backend ~db ~copies:1 ~chunk_rows ~dir:dir_c
            ~run_id ()
        with
        | _ -> false
        | exception Sink.Injected_crash _ -> true)
  in
  Alcotest.(check bool) "run 1 crashed" true crashed;
  Par.with_pool ~domains:2 (fun pool ->
      let rep =
        Shards.export ~pool ~resume:true ~db ~copies:1 ~chunk_rows ~dir:dir_c
          ~run_id ()
      in
      Alcotest.(check int) "committed prefix resumed" 2 rep.Scale_out.cr_resumed);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: resumed streamed export = monolithic" t)
        true
        (String.equal
           (Reference.csv ~db:mono.Driver.r_db ~copies:1 t)
           (Shards.concat dir_c t)))
    (Shards.table_names db);
  Shards.rm_rf dir_c

let () =
  Alcotest.run "stream"
    [
      ( "plans",
        [
          Alcotest.test_case "chunk ranges" `Quick test_chunk_plan_ranges;
          Alcotest.test_case "plan covers table" `Quick test_chunk_plan_covers;
          Alcotest.test_case "unbounded chunk covers every row once" `Quick
            test_chunk_plan_max_int;
        ] );
      ( "identity",
        [
          Alcotest.test_case
            "ssb streamed = monolithic, chunks x domains 1/2/4" `Slow
            (test_stream_identity Mirage_workloads.Ssb.make ~sf:0.05);
          Alcotest.test_case
            "tpch streamed = monolithic, chunks x domains 1/2/4" `Slow
            (test_stream_identity Mirage_workloads.Tpch.make ~sf:0.05);
          Alcotest.test_case "streamed db kill+resume export identity" `Slow
            test_stream_crash_resume;
        ] );
    ]
