module Sink = Mirage_engine.Sink
module Scale_out = Mirage_core.Scale_out
module Budget = Mirage_util.Budget

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Sink.mkdir_p base;
  base

let has_tmp dir =
  Array.exists (fun f -> Filename.check_suffix f ".tmp") (Sys.readdir dir)

(* fault-injection / resume scenarios: each returns true on pass and prints
   one line, feeding the same overall failure counter as the seed sweep *)
let sink_scenarios failures =
  let scenario name ok =
    if ok then Printf.printf "sink %s: ok\n%!" name
    else begin
      incr failures;
      Printf.printf "sink %s: FAILED\n%!" name
    end
  in
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.1 ~seed:1 in
  let config =
    { Mirage_core.Driver.default_config with batch_size = 1_000_000; seed = 1 }
  in
  match Mirage_core.Driver.generate ~config workload ~ref_db ~prod_env with
  | Error d ->
      incr failures;
      Printf.printf "sink setup FAILED: %s\n%!" (Mirage_core.Diag.to_string d)
  | Ok r ->
      let db = r.Mirage_core.Driver.r_db in
      let tables =
        List.map
          (fun (t : Mirage_sql.Schema.table) -> t.Mirage_sql.Schema.tname)
          (Mirage_sql.Schema.tables (Mirage_engine.Db.schema db))
      in
      let largest =
        List.fold_left (fun m t -> max m (Mirage_engine.Db.row_count db t)) 1 tables
      in
      let chunk_rows = max 1 (largest / 3) in
      (* the whole-table baseline comes from the in-memory tiled database,
         rendered independently of the shard writer under test *)
      let tiled = Scale_out.tile_db ~db ~copies:2 in
      let export ?backend ?resume ~run_id dir =
        Scale_out.finish_csv_export ~db
          (Scale_out.open_csv_export ?backend ?resume ~copies:2 ~chunk_rows
             ~dir ~run_id ())
      in
      let concat_shards dir t =
        let rec go k acc =
          let p = Filename.concat dir (Printf.sprintf "%s.csv.%d" t k) in
          if Sys.file_exists p then go (k + 1) (acc ^ read_file p) else acc
        in
        go 0 ""
      in
      let identical dir =
        List.for_all
          (fun t ->
            String.equal (Mirage_engine.Db.to_csv tiled t) (concat_shards dir t))
          tables
      in
      (* crash after 2 committed shards, then resume to completion *)
      let dir = fresh_dir "rob_crash" in
      let crashed =
        let backend =
          Sink.faulty
            { Sink.no_faults with crash_after_shards = Some 2 }
            Sink.os_backend
        in
        match export ~backend ~run_id:"rob" dir with
        | _ -> false
        | exception Sink.Injected_crash _ -> true
      in
      let rep = export ~resume:true ~run_id:"rob" dir in
      scenario "crash+resume byte-identity"
        (crashed
        && rep.Scale_out.cr_resumed = 2
        && (not (has_tmp dir))
        && identical dir);
      rm_rf dir;
      (* injected ENOSPC: typed Io_failure, committed prefix intact, no
         orphaned temp files *)
      let dir = fresh_dir "rob_enospc" in
      let enospc =
        let backend =
          Sink.faulty
            { Sink.no_faults with enospc_after_bytes = Some 4096 }
            Sink.os_backend
        in
        match export ~backend ~run_id:"rob-e" dir with
        | _ -> false
        | exception Sink.Io_failure _ -> not (has_tmp dir)
      in
      scenario "enospc typed failure, no orphans" enospc;
      rm_rf dir;
      (* expired wall-clock budget: typed Diag at the budget stage, exit 3 *)
      let budget_config =
        { config with
          Mirage_core.Driver.budget =
            { Budget.no_limits with Budget.deadline_s = Some 0.0 } }
      in
      let deadline =
        match
          Mirage_core.Driver.generate ~config:budget_config workload ~ref_db
            ~prod_env
        with
        | Ok _ -> false
        | Error d -> Mirage_core.Diag.exit_code d = 3
      in
      scenario "deadline budget yields exit 3" deadline

let () =
  let worst = ref 0.0 and failures = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (name, make, sf) ->
          let workload, ref_db, prod_env = make ~sf ~seed in
          match
            Mirage_core.Driver.generate
              ~config:{ Mirage_core.Driver.default_config with batch_size = 1_000_000; seed }
              workload ~ref_db ~prod_env
          with
          | Error d ->
              incr failures;
              Printf.printf "%s seed=%d FAILED: %s\n%!" name seed
                (Mirage_core.Diag.to_string d)
          | Ok r ->
              let errs = Mirage_core.Driver.measure_errors r in
              let w =
                List.fold_left
                  (fun a (e : Mirage_core.Error.query_error) ->
                    max a e.Mirage_core.Error.qe_relative)
                  0.0 errs
              in
              worst := max !worst w;
              let exact =
                List.length
                  (List.filter
                     (fun (e : Mirage_core.Error.query_error) ->
                       e.Mirage_core.Error.qe_relative = 0.0)
                     errs)
              in
              Printf.printf "%s seed=%d: %d/%d exact, worst %.5f\n%!" name seed exact
                (List.length errs) w)
        [
          ("ssb", Mirage_workloads.Ssb.make, 0.5);
          ("tpch", Mirage_workloads.Tpch.make, 0.1);
          ("tpcds", Mirage_workloads.Tpcds.make, 0.1);
        ])
    [ 1; 2; 3; 11; 99 ];
  sink_scenarios failures;
  Printf.printf "overall: %d failures, worst error %.5f\n" !failures !worst
