(* One workload, end to end: set up a constraint bundle the way the
   production side would (generate the production DB, extract, save and load
   the bundle), then time bundle-to-disk generation the way the CLI's
   [generate -o DIR --chunk-rows C] overlapped live export does it:
   [Scale_out.open_csv_export], [Driver.generate_from_bundle] with
   [on_table_ready] wired to [Scale_out.export_table], and
   [Scale_out.finish_csv_export] sealing MANIFEST.json. *)

module Driver = Mirage_core.Driver
module Bundle = Mirage_core.Bundle
module Extract = Mirage_core.Extract
module Error = Mirage_core.Error
module Diag = Mirage_core.Diag
module Scale_out = Mirage_core.Scale_out
module Sink = Mirage_engine.Sink
module Par = Mirage_par.Par

let now = Unix.gettimeofday

type workload = {
  name : string;
  why : string;
  family : string;
  make :
    sf:float ->
    seed:int ->
    Mirage_core.Workload.t * Mirage_engine.Db.t * Mirage_sql.Pred.Env.t;
  sf : float;
  copies : int;
  compress : bool;
  chunk_rows : int;
  drop : string list;
      (** queries left out: their verdict is Exact on some seeds and
          Degraded on others, so they would make the correctness gate a
          property of the seed instead of the code *)
  pinned_seed : int option;
      (** a seed used in place of [--seed], for a workload whose cost varies
          with the seed far more than any bound could absorb *)
  smoke_sf : float;
      (** scale factor of the smoke run, which also divides [copies] and
          [chunk_rows] by 64 *)
}

let batch_size = 1_000_000

(* Each workload puts most of its wall time in a different layer, so a change
   to one layer moves one workload and leaves the others as the control. *)
let workloads =
  [
    {
      name = "ssb-keygen";
      why =
        "SSB sf 64: foreign-key population without CP work, where keygen status vectors (CS) take most of the run";
      family = "ssb";
      make = Mirage_workloads.Ssb.make;
      sf = 64.0;
      copies = 1;
      compress = false;
      chunk_rows = 100_000;
      drop = [];
      pinned_seed = None;
      smoke_sf = 1.0;
    };
    {
      name = "tpch-nonkey";
      why =
        "TPC-H sf 4 without q20: the non-key layer, where CDF construction, ACC search and non-key generation take most of the run";
      family = "tpch";
      make = Mirage_workloads.Tpch.make;
      sf = 4.0;
      copies = 1;
      compress = false;
      chunk_rows = 100_000;
      drop = [ "tpch_q20" ];
      pinned_seed = None;
      smoke_sf = 0.0625;
    };
    {
      name = "tpcds-cp";
      why =
        "TPC-DS sf 2, seed pinned to 7: the CP layer, where CP solving takes most of the run; it also has the largest peak RSS";
      family = "tpcds";
      make = Mirage_workloads.Tpcds.make;
      sf = 2.0;
      copies = 1;
      compress = false;
      chunk_rows = 100_000;
      drop = [];
      (* the CP layer's cost is mostly the LP relaxation behind each solve,
         and its pivot count follows the data: over seeds 1-10 one run took
         0.85 to 4.2 s with the same model sizes *)
      pinned_seed = Some 7;
      smoke_sf = 0.09375;
    };
    {
      name = "tile-gz";
      why =
        "TPC-H sf 0.5 without q20, tiled 12 times with gzip and 20k-row shards: the export layer, where render, gzip and sink take most of the run";
      family = "tpch";
      make = Mirage_workloads.Tpch.make;
      sf = 0.5;
      copies = 12;
      compress = true;
      chunk_rows = 20_000;
      drop = [ "tpch_q20" ];
      pinned_seed = None;
      smoke_sf = 0.5;
    };
  ]

(* The smoke run: chunks and copies 64 times smaller, so every chunked code
   path still runs, and a scale factor per workload that keeps its gate
   exact at seed 7.  That is 1/64 of the data for ssb-keygen and
   tpch-nonkey; 3/64 for tpcds-cp, whose pinned instance loses exactness at
   smaller scales and whose CP time does not shrink with the data anyway;
   and one of tile-gz's 12 copies. *)
let smoke w =
  { w with sf = w.smoke_sf; copies = max 1 (w.copies / 64); chunk_rows = max 1 (w.chunk_rows / 64) }

let args_json w ~domains =
  Json.Obj
    [
      ("family", Json.Str w.family);
      ( "pinned_seed",
        match w.pinned_seed with Some s -> Json.Num (float_of_int s) | None -> Json.Null );
      ("sf", Json.Num w.sf);
      ("copies", Json.Num (float_of_int w.copies));
      ("compress", Json.Bool w.compress);
      ("chunk_rows", Json.Num (float_of_int w.chunk_rows));
      ("batch_size", Json.Num (float_of_int batch_size));
      ("domains", Json.Num (float_of_int domains));
      ("schedule", Json.Str "overlap");
    ]

(* --- host probes ---------------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let status_field key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

(* CPUs this process may run on, from the affinity list ("0-1,4") *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some l ->
      List.fold_left
        (fun acc r ->
          match String.split_on_char '-' (String.trim r) with
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | [ a ] when a <> "" -> acc + 1
          | _ -> acc)
        0 (String.split_on_char ',' l)

(* VmHWM in MB; [reset_peak] makes it measure only what follows *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
  | None -> nan

let reset_peak () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- files ---------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

type shard = { sh_name : string; sh_bytes : int; sh_crc : int }

(* the sink's manifest, read as plain JSON *)
let read_manifest dir =
  let j = Json.read_file (Sink.manifest_path ~dir) in
  let shards =
    List.map
      (fun s ->
        {
          sh_name = Json.to_str (Json.member "name" s);
          sh_bytes = int_of_float (Json.to_num (Json.member "bytes" s));
          sh_crc = int_of_string ("0x" ^ Json.to_str (Json.member "crc32" s));
        })
      (Json.to_list (Json.member "shards" j))
  in
  (Json.member "complete" j = Json.Bool true, shards)

(* read a shard back and check it against its manifest entry *)
let check_shard dir s =
  match open_in_bin (Filename.concat dir s.sh_name) with
  | exception Sys_error m -> Some m
  | ic ->
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let buf = Bytes.create 65536 in
      let rec go crc size =
        match input ic buf 0 (Bytes.length buf) with
        | 0 -> (crc, size)
        | n -> go (Sink.crc32 ~crc buf ~pos:0 ~len:n) (size + n)
      in
      let crc, size = go 0 0 in
      if size <> s.sh_bytes then
        Some (Printf.sprintf "%s: %d bytes on disk, manifest says %d" s.sh_name size s.sh_bytes)
      else if crc <> s.sh_crc then
        Some (Printf.sprintf "%s: crc32 %08x on disk, manifest says %08x" s.sh_name crc s.sh_crc)
      else None)

(* --- set-up ---------------------------------------------------------------- *)

let seed_of w seed = Option.value w.pinned_seed ~default:seed
let bundle_path w ~work = Filename.concat work (w.name ^ ".bundle")
let prepared_path w ~work = Filename.concat work (w.name ^ ".setup")

(* What the set-up process hands the measuring one, next to the bundle file:
   the gate's ground truth, one metrics sample per set-up, and the set-ups'
   trace spans. *)
type prepared = {
  aqts : Mirage_relalg.Aqt.t list;
  n_queries : int;
  setup_runs : (string * float) list list;
  spans : Trace.span list;
}

(* One set-up: generate the production DB, extract, save the bundle and load
   it back.  Returns the extraction's AQTs, the query count and the set-up's
   metrics. *)
let setup w ~seed ~path =
  Trace.span ~cat:"setup" "setup" @@ fun () ->
  let t0 = now () in
  let workload, ref_db, prod_env =
    Trace.span ~cat:"setup" "refgen" (fun () -> w.make ~sf:w.sf ~seed)
  in
  let workload =
    { workload with
      Mirage_core.Workload.w_queries =
        List.filter
          (fun q -> not (List.mem q.Mirage_core.Workload.q_name w.drop))
          workload.Mirage_core.Workload.w_queries }
  in
  let t1 = now () in
  let ex = Trace.span ~cat:"setup" "extract" (fun () -> Extract.run workload ~ref_db ~prod_env) in
  let t2 = now () in
  Trace.span ~cat:"setup" "bundle" (fun () ->
      Bundle.save (Bundle.of_extraction workload ex ~prod_env) ~path;
      match Bundle.load ~path with Ok _ -> () | Error m -> failwith ("bundle reload: " ^ m));
  let t3 = now () in
  ( ex.Extract.aqts,
    List.length workload.Mirage_core.Workload.w_queries,
    [
      ("setup_s", t3 -. t0);
      ("setup.refgen_s", t1 -. t0);
      ("setup.extract_s", t2 -. t1);
      ("setup.bundle_s", t3 -. t2);
    ] )

(* [setups] set-ups, meant for a process of their own: OCaml 5.1 never
   returns heap to the OS, so a process that had held the production DB would
   carry its heap into every timed run's peak RSS.  The last set-up's bundle
   stays at [bundle_path] for [take_prepared]. *)
let prepare w ~seed ~setups ~trace ~work =
  Atomic.set Trace.enabled trace;
  let ss = List.init setups (fun _ -> setup w ~seed:(seed_of w seed) ~path:(bundle_path w ~work)) in
  Atomic.set Trace.enabled false;
  let aqts, n_queries, _ = List.nth ss (setups - 1) in
  let p = { aqts; n_queries; setup_runs = List.map (fun (_, _, m) -> m) ss; spans = !Trace.spans } in
  let oc = open_out_bin (prepared_path w ~work) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Marshal.to_channel oc p [])

(* reads what [prepare] left in [work], and removes it *)
let take_prepared w ~work =
  let ic = open_in_bin (prepared_path w ~work) in
  let (p : prepared) = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic) in
  let bundle = Bundle.load ~path:(bundle_path w ~work) in
  rm_rf (prepared_path w ~work);
  rm_rf (bundle_path w ~work);
  match bundle with Ok b -> (b, p) | Error m -> failwith ("bundle load: " ^ m)

(* --- one run ---------------------------------------------------------------- *)

type run = {
  metrics : (string * float) list;
  manifest : shard list;
  result : Driver.result;
}

type ctx = { pool : Par.pool; domains : int; seed : int; out : string }

let ns_add cell dt = ignore (Atomic.fetch_and_add cell (int_of_float (dt *. 1e9)))
let ns_get cell = float_of_int (Atomic.get cell) /. 1e9

(* Everything before [t0] is untimed: removing the previous output, a
   compaction and the VmHWM reset.  A run fails if generation returns
   [Error], raises, or leaves any query non-Exact. *)
let timed_run ctx w bundle ~traced =
  rm_rf ctx.out;
  Gc.compact ();
  reset_peak ();
  Atomic.set Trace.enabled traced;
  let sink = Trace.sink_stats () in
  let backend = if traced then Trace.timed_backend sink Sink.os_backend else Sink.os_backend in
  let live_ns = Atomic.make 0 and live_tables = Atomic.make 0 in
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_now () in
  let t0 = now () in
  let h =
    Scale_out.open_csv_export ~pool:ctx.pool ~backend ~compress:w.compress ~copies:w.copies
      ~chunk_rows:w.chunk_rows ~dir:ctx.out
      ~run_id:(Printf.sprintf "%s-seed%d" w.name ctx.seed)
      ()
  in
  let t_open = now () in
  let on_table_ready db tname =
    let a = now () in
    Scale_out.export_table h ~db tname;
    let b = now () in
    ns_add live_ns (b -. a);
    Atomic.incr live_tables;
    Trace.record ~cat:"export" ("export_table " ^ tname) ~ts:a ~dur:(b -. a)
  in
  let config =
    {
      Driver.default_config with
      Driver.seed = ctx.seed;
      batch_size;
      domains = ctx.domains;
      chunk_rows = Some w.chunk_rows;
      schedule = `Overlap;
      on_table_ready = Some on_table_ready;
      on_attempt_abort = Some (fun () -> Scale_out.abort_csv_export h);
    }
  in
  let outcome = Trace.span ~cat:"driver" "generate" (fun () -> Driver.generate_from_bundle ~config bundle) in
  let t_gen = now () in
  match outcome with
  | Error d -> Error ("generation failed: " ^ Diag.to_string d)
  | Ok r -> (
      let rep = Trace.span ~cat:"export" "finish" (fun () -> Scale_out.finish_csv_export h ~db:r.Driver.r_db) in
      let t1 = now () in
      let cpu = cpu_now () -. cpu0 in
      let peak = peak_rss_mb () in
      let gc1 = Gc.quick_stat () in
      if traced then Trace.record_sink_summary sink ~ts:t0;
      Atomic.set Trace.enabled false;
      match
        List.filter (fun (v : Diag.verdict) -> v.Diag.v_status <> Diag.Exact) r.Driver.r_verdicts
      with
      | _ :: _ as vs ->
          Error
            (String.concat "; "
               (List.map
                  (fun (v : Diag.verdict) ->
                    Printf.sprintf "query %s is %s" v.Diag.v_query (Diag.status_name v.Diag.v_status))
                  vs))
      | [] ->
          let wall = t1 -. t0 in
          let tm = r.Driver.r_timings in
          let raw, disk =
            List.fold_left
              (fun (r, d) (_, (r', d')) -> (r + r', d + d'))
              (0, 0) rep.Scale_out.cr_tables
          in
          let mb b = float_of_int b /. 1e6 in
          let fi = float_of_int in
          let stages =
            Driver.(tm.t_decouple +. tm.t_cdf +. tm.t_gd +. tm.t_acc +. tm.t_cs +. tm.t_cp +. tm.t_pf)
          in
          let metrics =
            [
              ("wall_s", wall);
              ("raw_mb_per_s", mb raw /. wall);
              ("cpu_s", cpu);
              ("peak_rss_mb", peak);
              ("driver.decouple_s", tm.Driver.t_decouple);
              ("driver.cdf_s", tm.Driver.t_cdf);
              ("driver.gd_s", tm.Driver.t_gd);
              (* ACC alone reads exactly 0 on workloads without arithmetic
                 predicates; the whole non-key layer never does *)
              ("driver.nonkey_s", Driver.(tm.t_cdf +. tm.t_gd +. tm.t_acc));
              ("driver.unattributed_s", t_gen -. t_open -. stages);
              ("keygen.cs_s", tm.Driver.t_cs);
              ("keygen.pf_s", tm.Driver.t_pf);
              ("keygen.batch_alloc_mb", mb tm.Driver.batch_alloc_bytes);
              ("cp.solve_s", tm.Driver.t_cp);
              ("cp.solves", fi tm.Driver.cp_solves);
              ("cp.nodes", fi tm.Driver.cp_nodes);
              ("cp.props", fi tm.Driver.cp_props);
              ("cp.restarts", fi tm.Driver.cp_restarts);
              ("cp.cache_hits", fi tm.Driver.cp_cache_hits);
              ( "cp.cache_hit_ratio",
                fi tm.Driver.cp_cache_hits /. fi (max 1 tm.Driver.cp_solves) );
              ("export.live_s", ns_get live_ns);
              ("export.live_tables", fi (Atomic.get live_tables));
              ("export.finish_s", t1 -. t_gen);
              ("export.shards", fi rep.Scale_out.cr_shards);
              ("export.raw_mb", mb raw);
              ("export.disk_mb", mb disk);
              ("export.gz_ratio", fi disk /. fi (max 1 raw));
              ("sink.open_s", Trace.op_seconds sink 0);
              ("sink.write_s", Trace.op_seconds sink 1);
              ("sink.write_calls", Trace.op_calls sink 1);
              ("sink.write_mb", mb (Atomic.get sink.Trace.write_bytes));
              ("sink.close_s", Trace.op_seconds sink 2);
              ("sink.rename_s", Trace.op_seconds sink 3);
              ("sink.renames", Trace.op_calls sink 3);
              ("par.utilization", cpu /. (wall *. fi ctx.domains));
              ("gc.minor_collections", fi (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
              ("gc.major_collections", fi (gc1.Gc.major_collections - gc0.Gc.major_collections));
            ]
          in
          match read_manifest ctx.out with
          | false, _ -> Error "MANIFEST.json is not marked complete"
          | true, manifest -> Ok { metrics; manifest; result = r })

let run_once ctx w bundle ~traced =
  match timed_run ctx w bundle ~traced with
  | v ->
      Atomic.set Trace.enabled false;
      v
  | exception e ->
      Atomic.set Trace.enabled false;
      Error ("run raised " ^ Printexc.to_string e)

(* --- correctness gate ------------------------------------------------------- *)

(* Replay every AQT from the extraction on the generated DB, then read every
   shard back against the manifest.  [run] already has every verdict Exact,
   so a query counts as exact when its relative error is 0.  Returns the
   exact fraction, the timing metrics and every problem found. *)
let gate ctx (p : prepared) (run : run) =
  let r = run.result in
  let t0 = now () in
  let errs =
    Trace.span ~cat:"verify" "replay" (fun () ->
        Error.measure ~aqts:p.aqts ~db:r.Driver.r_db ~env:r.Driver.r_env)
  in
  let t1 = now () in
  let exact, inexact = List.partition (fun (e : Error.query_error) -> e.Error.qe_relative = 0.0) errs in
  let replay_problems =
    List.map
      (fun (e : Error.query_error) ->
        Printf.sprintf "query %s: relative error %g" e.Error.qe_name e.Error.qe_relative)
      inexact
  in
  let readback_problems =
    Trace.span ~cat:"verify" "readback" (fun () -> List.filter_map (check_shard ctx.out) run.manifest)
  in
  let t2 = now () in
  let exact_frac = float_of_int (List.length exact) /. float_of_int (max 1 p.n_queries) in
  let missing =
    if List.length errs = p.n_queries then []
    else [ Printf.sprintf "%d of %d queries replayed" (List.length errs) p.n_queries ]
  in
  ( exact_frac,
    [ ("verify.replay_s", t1 -. t0); ("verify.readback_s", t2 -. t1) ],
    missing @ replay_problems @ readback_problems )

(* --- one workload ----------------------------------------------------------- *)

type outcome = {
  w : workload;
  attempted : int;
  failed : int;
  exact_frac : float;
  problems : string list;  (** every correctness failure, for the report *)
  end_to_end : (Metrics.metric * Metrics.summary) list;
  per_layer : (Metrics.metric * Metrics.summary) list;
}

let median xs = (Metrics.summarize xs).Metrics.median

let summaries catalogue runs =
  List.filter_map
    (fun (mt : Metrics.metric) ->
      match List.filter_map (List.assoc_opt mt.Metrics.name) runs with
      | [] -> None
      | vs -> Some (mt, Metrics.summarize vs))
    catalogue

(* a workload whose set-up process failed: one failed attempt, no metrics *)
let failed_setup w problem =
  { w; attempted = 1; failed = 1; exact_frac = 0.0; problems = [ problem ]; end_to_end = []; per_layer = [] }

(* After [prepare]'s set-ups (their median is setup_s): one untimed warm-up
   that the correctness gate checks, then timed runs back to back until both
   [runs] runs and [seconds] seconds are done.  With [trace], timed runs
   alternate untraced and traced: end-to-end metrics come from the untraced
   ones, per-layer metrics from the traced ones, and their ratio is the
   tracing overhead.  [smoke] reuses the warm-up as the single timed run. *)
let bench ctx w bundle (p : prepared) ~runs ~seconds ~trace ~smoke =
  if trace then Trace.spans := p.spans @ !Trace.spans;
  let problems = ref [] in
  let complain p = problems := p :: !problems in
  (* only the warm-up's manifest and metrics outlive the match: its DB is
     garbage before the first timed run *)
  let reference, warm_metrics, exact_frac, verify_metrics =
    match run_once ctx w bundle ~traced:trace with
    | Error e ->
        complain ("warm-up: " ^ e);
        (None, None, 0.0, [])
    | Ok run ->
        Atomic.set Trace.enabled trace;
        let exact_frac, vm, ps = gate ctx p run in
        Atomic.set Trace.enabled false;
        List.iter complain ps;
        (Some run.manifest, Some run.metrics, exact_frac, vm)
  in
  let plain = ref [] and traced = ref [] and attempted = ref 0 and failed = ref 0 in
  let record ~is_traced = function
    | Error e ->
        incr failed;
        complain e
    | Ok (run : run) ->
        if Some run.manifest <> reference then begin
          incr failed;
          complain "manifest CRC list differs from the warm-up's"
        end
        else if is_traced then traced := run.metrics :: !traced
        else plain := run.metrics :: !plain
  in
  (match warm_metrics with
   | None ->
       (* no reference to check timed runs against: the warm-up is the one
          failed attempt *)
       incr attempted;
       incr failed
   | Some m when smoke ->
       incr attempted;
       plain := [ m ];
       traced := [ m ]
   | Some _ ->
       let t_start = now () and n_plain = ref 0 and n_traced = ref 0 in
       let enough () =
         !n_plain >= runs && ((not trace) || !n_traced >= runs) && now () -. t_start >= seconds
       in
       while not (enough ()) do
         let is_traced = trace && !attempted mod 2 = 1 in
         incr attempted;
         incr (if is_traced then n_traced else n_plain);
         record ~is_traced (run_once ctx w bundle ~traced:is_traced)
       done);
  rm_rf ctx.out;
  let overhead =
    match (!plain, !traced) with
    | [], _ | _, [] -> []
    | p, t ->
        let wall runs = median (List.filter_map (List.assoc_opt "wall_s") runs) in
        [ ("trace.overhead_frac", (wall t /. wall p) -. 1.0) ]
  in
  {
    w;
    attempted = !attempted;
    failed = !failed;
    exact_frac;
    problems = List.rev !problems;
    end_to_end = summaries Metrics.end_to_end (p.setup_runs @ !plain);
    per_layer = summaries Metrics.per_layer (p.setup_runs @ [ verify_metrics; overhead ] @ !traced);
  }

let correct o = o.problems = [] && o.failed = 0 && o.exact_frac = 1.0
