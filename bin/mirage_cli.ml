(* mirage — query-aware database generation from the command line.

   Subcommands:
     generate     regenerate a benchmark application and export CSVs
     compare      run the baseline generators on the same workload
     extract      write a constraint bundle from the production side
     from-bundle  generate and export from a saved constraint bundle
     verify-dir   check exported CSVs against a constraint bundle
     explain      show how one query's constraints are derived
     table1       print the operator-supportability matrix
     parse        parse a predicate and print it back *)

open Cmdliner

module Driver = Mirage_core.Driver
module Diag = Mirage_core.Diag
module Error = Mirage_core.Error
module Db = Mirage_engine.Db
module Schema = Mirage_sql.Schema
module Budget = Mirage_util.Budget
module Sink = Mirage_engine.Sink
module Scale_out = Mirage_core.Scale_out
module Par = Mirage_par.Par

(* exports ride the same resident domain pool generation used (Par.get hands
   out one long-lived pool per width for the whole process) — CSV shards
   render in parallel, at no extra spawn cost *)
let export_pool () = Par.get ()

(* process exit codes: each subcommand's man page lists the ones it can
   return, then cmdliner's own 124 (command-line error) and 125 (uncaught
   exception).  Its 123 is never returned: every subcommand evaluates to
   its exit code. *)
let exits codes =
  List.map (fun (code, doc) -> Cmd.Exit.info code ~doc) codes
  @ List.filter
      (fun i -> Cmd.Exit.info_code i >= Cmd.Exit.cli_error)
      Cmd.Exit.defaults

let exit_exact = (0, "generation succeeded with every query exact.")

let exit_degraded =
  ( 1,
    "degraded result: at least one query was generated with adjusted, \
     quarantined or unsupported constraints (see the per-query feasibility \
     report)." )

let exit_budget =
  ( 3,
    "resource budget exceeded: heap watermark or wall-clock deadline \
     (--budget-mb / --budget-seconds)." )

let exit_export_io =
  ( 4,
    "I/O failure while exporting (disk full, permissions, a surplus shard \
     that cannot be removed).  Committed shards and MANIFEST.json are \
     intact; rerun with --resume." )

(* uniform classification: a budget breach or sink failure anywhere in a
   subcommand maps to its documented exit code *)
let guarded f =
  try f () with
  | Sink.Io_failure m ->
      Fmt.epr "mirage: I/O failure: %s@." m;
      4
  | Budget.Exceeded r ->
      Fmt.epr "mirage: %s@." (Budget.describe r);
      3
  (* filesystem errors from paths the sink never touches (schema.sql,
     parameters.txt, bundle files) surface as Sys_error — same exit code as
     the sink's typed failures *)
  | Sys_error m ->
      Fmt.epr "mirage: I/O failure: %s@." m;
      4
  | Failure m ->
      Fmt.epr "mirage: %s@." m;
      2

let make_workload name sf seed =
  match name with
  | "ssb" -> Mirage_workloads.Ssb.make ~sf ~seed
  | "tpch" -> Mirage_workloads.Tpch.make ~sf ~seed
  | "tpcds" -> Mirage_workloads.Tpcds.make ~sf ~seed
  | other -> failwith (Printf.sprintf "unknown workload %s (ssb|tpch|tpcds)" other)

let workload_arg =
  let doc = "Workload to regenerate: ssb, tpch or tpcds." in
  Arg.(value & opt string "tpch" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let sf_arg =
  let doc = "Scale factor (1.0 = the laptop-scale base size)." in
  Arg.(value & opt float 0.2 & info [ "sf"; "scale" ] ~docv:"SF" ~doc)

let seed_arg =
  let doc = "Deterministic seed for both the production data and generation." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc)

(* a row or copy count: anything below 1 is a command-line error (124) *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let batch_arg =
  let doc = "Generation batch size in rows (the paper's default is 7M)." in
  Arg.(value & opt positive 1_000_000 & info [ "batch" ] ~docv:"ROWS" ~doc)

let out_arg =
  let doc =
    "Directory to write the synthetic CSV shards (<table>.csv.<k>), their      MANIFEST.json and the parameter file into."
  in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR" ~doc)

let copies_arg =
  let doc =
    "Tile the generated database this many times when exporting (every      cardinality constraint scales exactly by the same factor).  The      database is generated and held once, as one tile, but peak memory      still grows with $(docv): from-bundle on TPC-H sf 4 peaked 94 MB      higher at 4 copies than at 1."
  in
  Arg.(value & opt positive 1 & info [ "copies" ] ~docv:"K" ~doc)

let budget_mb_arg =
  let doc =
    "Abort with exit code 3 once the OCaml major heap exceeds $(docv) MB      (polled at stage boundaries, every keygen batch and every 64 CP search      nodes).  Only the OCaml heap is polled: off-heap column payloads and      the process RSS are not counted."
  in
  Arg.(value & opt (some int) None & info [ "budget-mb" ] ~docv:"MB" ~doc)

let budget_seconds_arg =
  let doc = "Abort with exit code 3 after $(docv) seconds of wall-clock time." in
  Arg.(value & opt (some float) None & info [ "budget-seconds" ] ~docv:"S" ~doc)

let limits_of mb secs = { Budget.max_heap_mb = mb; deadline_s = secs }

let chunk_rows_arg =
  let doc =
    "Stream generation and export in chunks of at most $(docv) rows: row      scans proceed chunk-at-a-time with budget polls between chunks      (byte-identical to one chunk per table), and tables are      exported at most $(docv) rows per shard file <table>.csv.<k>, so a      killed export loses at most one shard of work.  Without it every table      is generated whole and exported as the single shard <table>.csv.0.      Either way each shard is written to a temp file, atomically renamed      into place and recorded in MANIFEST.json, and concatenating a table's      shards in index order gives its whole CSV."
  in
  Arg.(value & opt (some positive) None & info [ "chunk-rows" ] ~docv:"ROWS" ~doc)

let big_dir_arg =
  let doc =
    "Back off-heap column buffers of 1 MiB or more with unlinked temp files      under $(docv) (created if missing) instead of anonymous memory, letting      the OS page cold columns out to that filesystem."
  in
  Arg.(value & opt (some string) None & info [ "big-dir" ] ~docv:"DIR" ~doc)

(* the spill directory for this process, created if missing *)
let apply_big_dir big_dir =
  match big_dir with
  | Some d ->
      Sink.mkdir_p d;
      Mirage_engine.Col.set_big_dir (Some d)
  | None -> ()

let resume_arg =
  let doc =
    "Resume an export: shards recorded in the output directory's      MANIFEST.json under the same run parameters (including --chunk-rows      and --compress) are skipped without rendering, and the completed      output is byte-identical to an uninterrupted run."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let compress_arg =
  let doc =
    "Gzip every shard as it streams out (<table>.csv.<k>.gz, pure-OCaml      DEFLATE): concatenating a table's shards in manifest order yields a      valid multi-member gzip file whose decompression is the uncompressed      CSV, byte for byte."
  in
  Arg.(value & flag & info [ "compress" ] ~doc)

(* exit 0 only when every query kept its exact guarantees *)
let verdict_code r =
  if
    List.exists
      (fun (v : Diag.verdict) -> v.Diag.v_status <> Diag.Exact)
      r.Driver.r_verdicts
  then 1
  else 0

let report_fatal d =
  Fmt.epr "mirage: generation failed: %s@." (Diag.to_string d);
  Diag.exit_code d

let report_diagnostics r =
  List.iter
    (fun (d : Diag.t) ->
      if d.Diag.d_severity <> Diag.Info then Fmt.pr "note: %a@." Diag.pp d)
    r.Driver.r_diags;
  let degraded =
    List.filter
      (fun (v : Diag.verdict) -> v.Diag.v_status <> Diag.Exact)
      r.Driver.r_verdicts
  in
  if degraded <> [] then begin
    Fmt.pr "per-query feasibility:@.";
    List.iter (fun v -> Fmt.pr "  %a@." Diag.pp_verdict v) r.Driver.r_verdicts
  end

let report_errors r =
  let errs = Driver.measure_errors r in
  Fmt.pr "%-14s %s@." "query" "relative error";
  List.iter
    (fun (e : Error.query_error) ->
      Fmt.pr "%-14s %.5f%s@." e.Error.qe_name e.Error.qe_relative
        (if e.Error.qe_relative = 0.0 then "  (exact)" else ""))
    errs;
  let exact =
    List.length
      (List.filter (fun (e : Error.query_error) -> e.Error.qe_relative = 0.0) errs)
  in
  Fmt.pr "%d/%d exact; mean %.5f@." exact (List.length errs)
    (List.fold_left (fun a (e : Error.query_error) -> a +. e.Error.qe_relative) 0.0 errs
    /. float_of_int (max 1 (List.length errs)))

let base_config batch limits =
  { Driver.default_config with Driver.batch_size = batch; budget = limits }

(* the production side, shared by [extract] and [generate]: the workload's
   constraint bundle and its AQTs, the ground truth [generate] measures
   errors against.  The reference database and parameters stay in here, so
   nothing reaches them once it returns. *)
let production name sf seed =
  let workload, ref_db, prod_env = make_workload name sf seed in
  let ex = Mirage_core.Extract.run workload ~ref_db ~prod_env in
  ( Mirage_core.Bundle.of_extraction workload ex ~prod_env,
    ex.Mirage_core.Extract.aqts )

let write_parameters r dir =
  let oc = open_out (Filename.concat dir "parameters.txt") in
  List.iter
    (fun (p, b) ->
      Printf.fprintf oc "%s = %s\n" p (Mirage_sql.Pred.Env.binding_to_string b))
    (Mirage_sql.Pred.Env.bindings r.Driver.r_env);
  close_out oc;
  Fmt.pr "wrote %s@." (Filename.concat dir "parameters.txt")

(* The one generate-and-export pipeline behind [generate] and [from-bundle]:
   generation from a loaded bundle.  With [-o DIR] the crash-safe shard
   export opens before generation, each table's shards stream out the
   moment its last FK edge commits, and the finish pass renders whatever
   the hook missed and seals MANIFEST.json.
   Without [--chunk-rows] the export chunk is unbounded, so each table is
   one shard, <table>.csv.0.  parameters.txt follows, and the SQL export
   when asked.  The export's deadline runs from the start of generation,
   which it overlaps.  [run_key] names the run's inputs; the run ids append
   every other parameter that changes the output bytes (compression changes
   shard names and contents, the domain count does not). *)
let generate_and_export ~what ~run_key ~config ~out ~copies ~chunk ~compress
    ~resume ~sql ~report b =
  let token = Budget.start config.Driver.budget in
  let interrupt () = Budget.check token in
  let chunk_rows = Option.value chunk ~default:max_int in
  let live =
    Option.map
      (fun dir ->
        let run_id =
          Printf.sprintf "%s-copies%d-chunk%d%s" run_key copies chunk_rows
            (if compress then "-gz" else "")
        in
        ( dir,
          Scale_out.open_csv_export ~pool:(export_pool ()) ~resume ~compress
            ~interrupt ~copies ~chunk_rows ~dir ~run_id () ))
      out
  in
  let config =
    { config with
      Driver.chunk_rows = chunk;
      on_table_ready =
        Option.map (fun (_, h) db tname -> Scale_out.export_table h ~db tname) live;
      on_attempt_abort =
        Option.map (fun (_, h) () -> Scale_out.abort_csv_export h) live }
  in
  match Driver.generate_from_bundle ~config b with
  | Error d -> report_fatal d
  | Ok r ->
      let db = r.Driver.r_db in
      Fmt.pr "generated %s in %.2fs@." what r.Driver.r_timings.Driver.t_total;
      report_diagnostics r;
      Option.iter
        (fun (dir, h) ->
          let rep = Scale_out.finish_csv_export h ~db in
          Fmt.pr "wrote %d shards to %s (%d resumed, %d bytes this run)@."
            rep.Scale_out.cr_shards dir rep.Scale_out.cr_resumed
            rep.Scale_out.cr_bytes;
          (* per-table totals come from the committed manifest, so they
             cover resumed shards too — the full export, not this run *)
          List.iter
            (fun (tname, (raw, disk)) ->
              let rows = copies * Db.row_count db tname in
              if compress then
                Fmt.pr "  %-12s %d rows, %d bytes raw, %d gzipped@." tname rows
                  raw disk
              else Fmt.pr "  %-12s %d rows, %d bytes@." tname rows raw)
            rep.Scale_out.cr_tables;
          write_parameters r dir;
          if sql then begin
            let run_id = Printf.sprintf "%s-sql-chunk%d" run_key chunk_rows in
            let shards, resumed_n =
              Mirage_core.Sql_export.export_chunked ~resume ~interrupt ~db
                ~workload:b.Mirage_core.Bundle.b_workload ~env:r.Driver.r_env
                ~dir ~chunk_rows ~run_id ()
            in
            Fmt.pr
              "wrote schema.sql, queries.sql and %d data.sql shards (%d \
               resumed)@."
              shards resumed_n
          end)
        live;
      report r;
      verdict_code r

let generate_cmd =
  let sql_arg =
    Arg.(value & flag & info [ "sql" ]
           ~doc:"Also write schema.sql, queries.sql and the INSERT shards data.sql.<k> \
                 (checkpointed in MANIFEST.sql.json, so $(b,--resume) skips finished \
                 ones) into the output directory.  Without $(b,--chunk-rows) all rows \
                 go to data.sql.0; with it, each table is cut into shards of its own.  \
                 It writes one copy of the database, so $(b,--copies) above 1 is \
                 rejected (exit 2) before anything is generated or written.")
  in
  let run name sf seed batch out copies sql chunk resume compress bmb bsecs
      big_dir =
    guarded @@ fun () ->
    if sql && copies > 1 then
      failwith
        (Printf.sprintf
           "--sql writes one copy of the database and cannot be combined \
            with --copies %d"
           copies);
    apply_big_dir big_dir;
    let b, aqts = production name sf seed in
    (* the bundle crosses its text format, as between extract and
       from-bundle *)
    let b =
      Mirage_core.Bundle.(of_string (to_string b)) |> Result.fold ~ok:Fun.id ~error:failwith
    in
    generate_and_export
      ~what:(Printf.sprintf "%s (sf %.2f)" name sf)
      ~run_key:(Printf.sprintf "%s-sf%g-seed%d" name sf seed)
      ~config:{ (base_config batch (limits_of bmb bsecs)) with Driver.seed }
      ~out ~copies ~chunk ~compress ~resume ~sql
      ~report:(fun r -> report_errors { r with Driver.r_aqts = aqts })
      b
  in
  let doc = "Regenerate a benchmark application and export the synthetic database." in
  let exits =
    exits
      [
        exit_exact;
        exit_degraded;
        ( 2,
          "infeasible workload, generation failure, unknown workload, or \
           --sql with --copies above 1." );
        exit_budget;
        exit_export_io;
      ]
  in
  Cmd.v (Cmd.info "generate" ~doc ~exits)
    Term.(
      const run $ workload_arg $ sf_arg $ seed_arg $ batch_arg $ out_arg
      $ copies_arg $ sql_arg $ chunk_rows_arg $ resume_arg $ compress_arg
      $ budget_mb_arg $ budget_seconds_arg $ big_dir_arg)

let compare_cmd =
  let run name sf seed =
    guarded @@ fun () ->
    let workload, ref_db, prod_env = make_workload name sf seed in
    let aqts =
      (Mirage_core.Extract.run workload ~ref_db ~prod_env).Mirage_core.Extract.aqts
    in
    List.iter
      (fun (bname, gen) ->
        let b : Mirage_baselines.Types.result = gen workload ~ref_db ~prod_env ~seed in
        let errs =
          Error.measure ~aqts ~db:b.Mirage_baselines.Types.b_db
            ~env:b.Mirage_baselines.Types.b_env
        in
        let scored =
          List.map
            (fun (e : Error.query_error) ->
              if List.mem e.Error.qe_name b.Mirage_baselines.Types.b_unsupported then 1.0
              else e.Error.qe_relative)
            errs
        in
        Fmt.pr "%-12s supported %d/%d, mean error %.5f, %.2fs@." bname
          (List.length b.Mirage_baselines.Types.b_supported)
          (List.length workload.Mirage_core.Workload.w_queries)
          (List.fold_left ( +. ) 0.0 scored /. float_of_int (List.length scored))
          b.Mirage_baselines.Types.b_seconds)
      [
        ("touchstone", Mirage_baselines.Touchstone.generate);
        ("hydra", Mirage_baselines.Hydra.generate);
      ];
    0
  in
  let doc = "Run the baseline generators on the same workload." in
  let exits =
    exits [ (0, "the baselines ran."); (2, "unknown workload.") ]
  in
  Cmd.v (Cmd.info "compare" ~doc ~exits)
    Term.(const run $ workload_arg $ sf_arg $ seed_arg)

let extract_cmd =
  let bundle_arg =
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Bundle file to write.")
  in
  let run name sf seed out =
    guarded @@ fun () ->
    let b, _ = production name sf seed in
    Mirage_core.Bundle.save b ~path:out;
    Fmt.pr "wrote constraint bundle %s (%d queries, %d selection and %d join constraints)@."
      out
      (List.length b.Mirage_core.Bundle.b_workload.Mirage_core.Workload.w_queries)
      (List.length b.Mirage_core.Bundle.b_ir.Mirage_core.Ir.sccs)
      (List.length b.Mirage_core.Bundle.b_ir.Mirage_core.Ir.joins);
    0
  in
  let doc =
    "Extract a constraint bundle from the production side (schema, templates,      cardinality constraints, parameter values) — the only artifact generation      needs."
  in
  let exits =
    exits
      [
        (0, "the bundle was written.");
        (2, "unknown workload.");
        (4, "the bundle file cannot be written.");
      ]
  in
  Cmd.v (Cmd.info "extract" ~doc ~exits)
    Term.(const run $ workload_arg $ sf_arg $ seed_arg $ bundle_arg)

let from_bundle_cmd =
  let bundle_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BUNDLE")
  in
  let run path batch out copies chunk bmb bsecs big_dir =
    guarded @@ fun () ->
    apply_big_dir big_dir;
    match Mirage_core.Bundle.load ~path with
    | Error m ->
        Fmt.epr "cannot load bundle: %s@." m;
        2
    | Ok b ->
        (* generation from a bundle draws with the default seed, so the
           bundle's bytes name the run's inputs *)
        generate_and_export ~what:"from bundle"
          ~run_key:("bundle-" ^ Digest.to_hex (Digest.file path))
          ~config:(base_config batch (limits_of bmb bsecs))
          ~out ~copies ~chunk ~compress:false ~resume:false ~sql:false
          ~report:ignore b
  in
  let doc = "Generate a synthetic database from a saved constraint bundle (no production data needed)." in
  let exits =
    exits
      [
        exit_exact;
        exit_degraded;
        ( 2,
          "the bundle cannot be parsed or fails validation, or generation \
           failed." );
        exit_budget;
        ( 4,
          "the bundle cannot be read, or an I/O failure while exporting (disk \
           full, permissions, a surplus shard that cannot be removed).  \
           Committed shards and MANIFEST.json are intact." );
      ]
  in
  Cmd.v (Cmd.info "from-bundle" ~doc ~exits)
    Term.(
      const run $ bundle_arg $ batch_arg $ out_arg $ copies_arg $ chunk_rows_arg
      $ budget_mb_arg $ budget_seconds_arg $ big_dir_arg)

(* one table's CSV in [dir]: a single <table>.csv (a DBMS re-export), or
   the export's shards <table>.csv.0, .1, ... concatenated in index order
   (not glob order, which sorts .10 before .2).  Both at once is an error:
   generate never removes an older <table>.csv, so either could be stale. *)
let read_table_csv dir tname =
  let path suffix = Filename.concat dir (tname ^ ".csv" ^ suffix) in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let rec shards k acc =
    let p = path ("." ^ string_of_int k) in
    if k > 0 && not (Sys.file_exists p) then String.concat "" (List.rev acc)
    else shards (k + 1) (read p :: acc)
  in
  let shard0 = List.find_opt Sys.file_exists [ path ".0"; path ".0.gz" ] in
  match (Sys.file_exists (path ""), shard0) with
  | true, Some s ->
      failwith
        (Printf.sprintf
           "both %s and %s exist; remove the stale one before verifying"
           (path "") s)
  | true, None -> read (path "")
  | false, Some s when Filename.check_suffix s ".gz" ->
      failwith
        (Printf.sprintf
           "%s is gzip-compressed and verify-dir has no inflater yet; \
            decompress the shards first"
           s)
  | false, _ -> shards 0 []

(* parameters.txt, as [write_parameters] prints it: one 'name = value' line
   per parameter, the value as Pred.Env.binding_to_string spells it, which
   Parser.binding reads back.  Every parameter that a selection constraint
   of [ir] reads must be bound, to a single value where the constraint
   compares with one.  A line that breaks any of this fails (exit 2) naming
   the file, the line and the parameter. *)
let read_parameters path (ir : Mirage_core.Ir.t) =
  let module Pred = Mirage_sql.Pred in
  let fail_line lnum fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "%s:%d: %s" path lnum m)) fmt
  in
  let fail_at lnum name fmt =
    Printf.ksprintf (fun m -> fail_line lnum "parameter %s: %s" name m) fmt
  in
  let env, line_of, _ =
    List.fold_left
      (fun (env, line_of, lnum) line ->
        match String.index_opt line '=' with
        | None when String.trim line = "" -> (env, line_of, lnum + 1)
        | None -> fail_line lnum "expected 'name = value', got %S" line
        | Some eq ->
            let name = String.trim (String.sub line 0 eq) in
            let v = String.sub line (eq + 1) (String.length line - eq - 1) in
            if name = "" then fail_line lnum "no name before '='";
            let b =
              try Mirage_sql.Parser.binding v
              with Mirage_sql.Parser.Parse_error m ->
                fail_at lnum name "%s in %S" m (String.trim v)
            in
            (Pred.Env.add name b env, (name, lnum) :: line_of, lnum + 1))
      (Pred.Env.empty, [], 1)
      (String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all))
  in
  let rec scalar_params = function
    | Pred.Lit
        ( Pred.Cmp { arg = Pred.Param p; _ }
        | Pred.Like { arg = Pred.Param p; _ }
        | Pred.Arith_cmp { arg = Pred.Param p; _ } ) ->
        [ p ]
    | Pred.Lit _ | Pred.True | Pred.False -> []
    | Pred.And ps | Pred.Or ps -> List.concat_map scalar_params ps
    | Pred.Not p -> scalar_params p
  in
  List.iter
    (fun (s : Mirage_core.Ir.scc) ->
      let src = s.Mirage_core.Ir.scc_source in
      List.iter
        (fun p ->
          if Pred.Env.find p env = None then
            failwith (Printf.sprintf "%s: parameter %s, read by %s, is not bound" path p src))
        (Pred.params s.Mirage_core.Ir.scc_pred);
      List.iter
        (fun p ->
          match Pred.Env.find p env with
          | Some (Pred.Env.Vlist _) ->
              fail_at (List.assoc p line_of) p "a list, but %s compares it with one value" src
          | Some (Pred.Env.Scalar _) | None -> ())
        (scalar_params s.Mirage_core.Ir.scc_pred))
    ir.Mirage_core.Ir.sccs;
  env

let verify_dir_cmd =
  let bundle_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BUNDLE")
  in
  let dir_arg =
    Arg.(required & opt (some string) None & info [ "d"; "dir" ] ~docv:"DIR"
           ~doc:"Directory to verify: the <table>.csv.<k> shards generate \
                 writes, or one <table>.csv per table (e.g. after loading and \
                 re-exporting from a DBMS).  A table with both is an error \
                 (exit 2), and so are gzip-compressed shards, which are not \
                 read yet.")
  in
  let params_arg =
    Arg.(required & opt (some string) None & info [ "p"; "params" ] ~docv:"FILE"
           ~doc:"parameters.txt written by generate (one 'name = value' per line).")
  in
  let run bundle dir params =
    guarded @@ fun () ->
    match Mirage_core.Bundle.load ~path:bundle with
    | Error m ->
        Fmt.epr "cannot load bundle: %s@." m;
        2
    | Ok b ->
        let schema = b.Mirage_core.Bundle.b_workload.Mirage_core.Workload.w_schema in
        let db = Db.create schema in
        List.iter
          (fun (tbl : Schema.table) ->
            Db.load_csv db tbl.Schema.tname (read_table_csv dir tbl.Schema.tname))
          (Schema.tables schema);
        let env = read_parameters params b.Mirage_core.Bundle.b_ir in
        (* check every constraint in the bundle against the loaded data *)
        let ir = b.Mirage_core.Bundle.b_ir in
        let bad = ref 0 and total = ref 0 in
        List.iter
          (fun (s : Mirage_core.Ir.scc) ->
            incr total;
            let actual =
              Mirage_engine.Exec.count_select db ~env ~table:s.Mirage_core.Ir.scc_table
                s.Mirage_core.Ir.scc_pred
            in
            if actual <> s.Mirage_core.Ir.scc_rows then begin
              incr bad;
              Fmt.pr "MISMATCH %s: |σ(%s)| = %d, expected %d@."
                s.Mirage_core.Ir.scc_source s.Mirage_core.Ir.scc_table actual
                s.Mirage_core.Ir.scc_rows
            end)
          ir.Mirage_core.Ir.sccs;
        Fmt.pr "%d/%d selection constraints hold on the loaded data@." (!total - !bad)
          !total;
        if !bad > 0 then 1 else 0
  in
  let doc = "Verify exported CSVs against a constraint bundle (selection constraints)." in
  let exits =
    exits
      [
        (0, "every selection constraint holds on the loaded data.");
        ( 1,
          "at least one selection constraint does not hold (MISMATCH \
           lines)." );
        ( 2,
          "the bundle or parameter file cannot be parsed, or a table has both \
           a <table>.csv and shards, or gzip-compressed shards." );
        (4, "a bundle, CSV or parameter file cannot be read.");
      ]
  in
  Cmd.v (Cmd.info "verify-dir" ~doc ~exits)
    Term.(const run $ bundle_arg $ dir_arg $ params_arg)

let explain_cmd =
  let query_arg =
    Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"NAME"
           ~doc:"Query to explain (e.g. tpch_q19).")
  in
  let run name sf seed qname =
    guarded @@ fun () ->
    let workload, ref_db, prod_env = make_workload name sf seed in
    let q =
      try Mirage_core.Workload.query workload qname
      with Invalid_argument _ ->
        failwith (Printf.sprintf "unknown query %s in workload %s" qname name)
    in
    Fmt.pr "=== original plan ===@.%a@." Mirage_relalg.Plan.pp
      q.Mirage_core.Workload.q_plan;
    let rw = Mirage_core.Rewrite.push_down workload.Mirage_core.Workload.w_schema
               q.Mirage_core.Workload.q_plan in
    Fmt.pr "=== rewritten (selections pushed down) ===@.%a@." Mirage_relalg.Plan.pp
      rw.Mirage_core.Rewrite.rw_plan;
    List.iter
      (fun aux -> Fmt.pr "=== auxiliary complement plan (Example 3.1) ===@.%a@."
          Mirage_relalg.Plan.pp aux)
      rw.Mirage_core.Rewrite.rw_aux;
    List.iter
      (fun (t, p) ->
        Fmt.pr "marginal constraint fetched from production: |σ[%a](%s)|@."
          Mirage_sql.Pred.pp p t)
      rw.Mirage_core.Rewrite.rw_marginals;
    (* constraints for just this query *)
    let single = { workload with Mirage_core.Workload.w_queries = [ q ] } in
    let ex = Mirage_core.Extract.run single ~ref_db ~prod_env in
    let ir = ex.Mirage_core.Extract.ir in
    Fmt.pr "=== extracted constraints ===@.%a@." Mirage_core.Ir.pp ir;
    let dom t c =
      match List.assoc_opt (t, c) ir.Mirage_core.Ir.column_cards with
      | Some d -> max 1 d
      | None -> 1
    in
    let table_rows t = List.assoc t ir.Mirage_core.Ir.table_cards in
    let dec =
      Mirage_core.Decouple.run workload.Mirage_core.Workload.w_schema ~dom ~table_rows
        ~param_key:(fun p -> Mirage_sql.Pred.Env.find_scalar p prod_env)
        ir.Mirage_core.Ir.sccs
    in
    Fmt.pr "=== decoupled (§4.1) ===@.";
    List.iter
      (fun (u : Mirage_core.Ir.ucc) ->
        Fmt.pr "ucc  %s.%s: |σ[%a]| = %d@." u.Mirage_core.Ir.ucc_table
          u.Mirage_core.Ir.ucc_col Mirage_sql.Pred.pp
          (Mirage_sql.Pred.Lit u.Mirage_core.Ir.ucc_lit)
          u.Mirage_core.Ir.ucc_rows)
      dec.Mirage_core.Decouple.uccs;
    List.iter
      (fun (a : Mirage_core.Ir.acc) ->
        Fmt.pr "acc  %s: %d rows via $%s@." a.Mirage_core.Ir.acc_table
          a.Mirage_core.Ir.acc_rows a.Mirage_core.Ir.acc_param)
      dec.Mirage_core.Decouple.accs;
    List.iter
      (fun (b : Mirage_core.Ir.bound_rows) ->
        Fmt.pr "bind %s: %d rows share {%s}@." b.Mirage_core.Ir.br_table
          b.Mirage_core.Ir.br_rows
          (String.concat ", "
             (List.map (fun (c, p) -> c ^ "=$" ^ p) b.Mirage_core.Ir.br_cells)))
      dec.Mirage_core.Decouple.bound;
    List.iter
      (fun (param, binding) ->
        Fmt.pr "eliminated: $%s := %s%s@." param
          (Mirage_sql.Pred.Env.binding_to_string binding)
          (match binding with
          | Mirage_sql.Pred.Env.Scalar _ -> " (boundary value)"
          | Mirage_sql.Pred.Env.Vlist _ -> ""))
      (Mirage_sql.Pred.Env.bindings dec.Mirage_core.Decouple.fixed_env);
    0
  in
  let doc = "Show how a query's constraints are derived: rewriting, extraction, decoupling." in
  let exits =
    exits [ (0, "the query was explained."); (2, "unknown workload or query.") ]
  in
  Cmd.v (Cmd.info "explain" ~doc ~exits)
    Term.(const run $ workload_arg $ sf_arg $ seed_arg $ query_arg)

let table1_cmd =
  let run () =
    Fmt.pr "%a" Mirage_baselines.Capability.pp (Mirage_baselines.Capability.table ());
    0
  in
  let doc = "Print the operator-supportability matrix (Table 1)." in
  Cmd.v
    (Cmd.info "table1" ~doc ~exits:(exits [ (0, "the matrix was printed.") ]))
    Term.(const run $ const ())

let parse_cmd =
  let pred_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PREDICATE")
  in
  let run s =
    match Mirage_sql.Parser.pred_opt s with
    | Ok p ->
        Fmt.pr "parsed: %a@.parameters: %s@." Mirage_sql.Pred.pp p
          (String.concat ", " (Mirage_sql.Pred.params p));
        0
    | Error msg ->
        Fmt.epr "parse error: %s@." msg;
        2
  in
  let doc = "Parse a predicate of the template language and print it back." in
  let exits =
    exits [ (0, "the predicate parsed."); (2, "the predicate does not parse.") ]
  in
  Cmd.v (Cmd.info "parse" ~doc ~exits) Term.(const run $ pred_arg)

let () =
  let doc = "query-aware database generation (Mirage, ICDE 2024)" in
  let exits =
    exits
      [
        (0, "success; for generation, every query exact.");
        ( 1,
          "degraded generation result, or verify-dir found a selection \
           constraint that does not hold." );
        (2, "infeasible workload, generation failure or invalid input.");
        exit_budget;
        (4, "I/O failure (committed shards and MANIFEST.json stay intact).");
      ]
  in
  let info = Cmd.info "mirage" ~version:"1.0.0" ~doc ~exits in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd; compare_cmd; extract_cmd; from_bundle_cmd;
            verify_dir_cmd; explain_cmd; table1_cmd; parse_cmd;
          ]))
