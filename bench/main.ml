(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8).  Run `main.exe <experiment>` with one of
   table1 fig11a fig11b fig11c fig12 fig13 fig14 fig15 fig16 ablate
   scaleout speedup sched replay micro cpsolve emit chunked outofcore,
   or no argument for the full suite.  EXPERIMENTS.md records the shapes
   the paper reports next to what this harness prints. *)

module Driver = Mirage_core.Driver
module Error = Mirage_core.Error
module Extract = Mirage_core.Extract
module Workload = Mirage_core.Workload
module Types = Mirage_baselines.Types
module Par = Mirage_par.Par

let pf = Printf.printf

let header title =
  pf "\n====================================================================\n";
  pf "%s\n" title;
  pf "====================================================================\n%!"

(* --- machine-readable trajectory ----------------------------------------- *)

(* Every experiment that measures generation appends an entry here; the
   accumulated trajectory is written to BENCH_mirage.json (override the path
   with BENCH_JSON) when the process exits, so CI can archive one artifact
   per run and the perf history stays diffable from this PR onward. *)
module Bench_json = struct
  type entry = {
    experiment : string;
    workload : string;
    label : string;
    domains : int;
    (* physical cores of the host (schema v2): the speedup gate only
       enforces scaling thresholds the machine can physically express *)
    cores : int;
    seconds : float;
    rows_per_s : float;
    peak_mb : float;
    (* memory trajectory: heap high-water attributable to THIS entry (see
       [record] — top_heap_words is a process-lifetime mark, so an entry
       that didn't move it reports the current heap instead of inheriting
       an earlier experiment's peak) and the working-set bytes per generated
       row.  dev/bench_gate.exe gates on >2x bytes_per_row regressions. *)
    peak_heap_words : int;
    bytes_per_row : float;
    speedup_vs_1 : float;
    (* output trajectory (this PR onward): CSV bytes written per wall-second
       by the emit experiment; 0 for experiments that don't export.
       dev/bench_gate.exe gates on >2x emit rows/s regressions. *)
    mb_per_s : float;
    (* CP-kernel trajectory (this PR onward): search nodes, propagator
       executions, the naive-sweep reference propagation count (cpsolve
       only) and cross-partition cache hits *)
    cp_nodes : int;
    cp_props : int;
    cp_naive_props : int;
    cp_cache_hits : int;
    (* streamed-generation trajectory (schema v3): the chunk-plan row count
       the entry generated or exported with (0 = monolithic) and the
       driver-reported generation peak working set in MB (0 for entries
       that never ran generation).  dev/bench_gate.exe gates gen-64x peak
       against gen-16x on these entries. *)
    chunk_rows : int;
    gen_peak_mb : float;
    (* scheduler trajectory (schema v4): per-stage generation seconds and
       pool utilization t_cpu / (t_total - t_extract) — the effective
       parallelism of the run.  All 0 for entries that never ran
       generation.  dev/bench_gate.exe gates the overlap schedule's
       wall-time win on the sched entries. *)
    t_cdf : float;
    t_gd : float;
    t_cp : float;
    t_pf : float;
    utilization : float;
  }

  let entries : entry list ref = ref []

  (* [Gc.top_heap_words] is a process-lifetime high-water mark that never
     resets, so a naive read makes every entry after the hungriest
     experiment inherit its peak.  Track the mark between entries: when this
     entry raised it, the new mark is this entry's peak; when it didn't,
     the best per-entry bound available is the live heap right now. *)
  let last_top = ref 0

  let record ~experiment ~workload ~label ~domains ~seconds ~rows_per_s ~peak_mb
      ?(bytes_per_row = 0.0) ?(speedup_vs_1 = 1.0) ?(mb_per_s = 0.0)
      ?(cp_nodes = 0) ?(cp_props = 0) ?(cp_naive_props = 0)
      ?(cp_cache_hits = 0) ?(chunk_rows = 0) ?(gen_peak_mb = 0.0) ?gen () =
    (* [~gen:r] fills the per-stage fields from a generation result *)
    let t_cdf, t_gd, t_cp, t_pf, utilization =
      match gen with
      | None -> (0.0, 0.0, 0.0, 0.0, 0.0)
      | Some (r : Driver.result) ->
          let t = r.Driver.r_timings in
          let g = t.Driver.t_total -. t.Driver.t_extract in
          ( t.Driver.t_cdf, t.Driver.t_gd, t.Driver.t_cp, t.Driver.t_pf,
            if g > 0.0 then t.Driver.t_cpu /. g else 0.0 )
    in
    let st = Gc.quick_stat () in
    let peak_heap_words =
      if st.Gc.top_heap_words > !last_top then st.Gc.top_heap_words
      else st.Gc.heap_words
    in
    last_top := st.Gc.top_heap_words;
    let cores = Domain.recommended_domain_count () in
    entries :=
      { experiment; workload; label; domains; cores; seconds; rows_per_s;
        peak_mb; peak_heap_words; bytes_per_row; speedup_vs_1; mb_per_s;
        cp_nodes; cp_props; cp_naive_props; cp_cache_hits; chunk_rows;
        gen_peak_mb; t_cdf; t_gd; t_cp; t_pf; utilization }
      :: !entries

  let path () =
    match Sys.getenv_opt "BENCH_JSON" with
    | Some p -> p
    | None -> "BENCH_mirage.json"

  let json_float f = if Float.is_finite f then Printf.sprintf "%.6f" f else "null"

  let json_string s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b

  let write () =
    match List.rev !entries with
    | [] -> ()
    | es ->
        let oc = open_out (path ()) in
        output_string oc "{\n  \"schema_version\": 4,\n  \"entries\": [\n";
        List.iteri
          (fun i e ->
            if i > 0 then output_string oc ",\n";
            output_string oc
              (Printf.sprintf
                 "    {\"experiment\": %s, \"workload\": %s, \"label\": %s, \
                  \"domains\": %d, \"cores\": %d, \"seconds\": %s, \
                  \"rows_per_s\": %s, \
                  \"peak_mb\": %s, \"peak_heap_words\": %d, \
                  \"bytes_per_row\": %s, \"speedup_vs_1\": %s, \
                  \"mb_per_s\": %s, \"cp_nodes\": %d, \"cp_props\": %d, \
                  \"cp_naive_props\": %d, \"cp_cache_hits\": %d, \
                  \"chunk_rows\": %d, \"gen_peak_mb\": %s, \
                  \"t_cdf\": %s, \"t_gd\": %s, \"t_cp\": %s, \"t_pf\": %s, \
                  \"utilization\": %s}"
                 (json_string e.experiment) (json_string e.workload)
                 (json_string e.label) e.domains e.cores (json_float e.seconds)
                 (json_float e.rows_per_s) (json_float e.peak_mb)
                 e.peak_heap_words (json_float e.bytes_per_row)
                 (json_float e.speedup_vs_1) (json_float e.mb_per_s)
                 e.cp_nodes e.cp_props e.cp_naive_props e.cp_cache_hits
                 e.chunk_rows (json_float e.gen_peak_mb) (json_float e.t_cdf)
                 (json_float e.t_gd) (json_float e.t_cp) (json_float e.t_pf)
                 (json_float e.utilization)))
          es;
        output_string oc "\n  ]\n}\n";
        close_out oc;
        pf "\n[bench] wrote %d entries to %s\n%!" (List.length es) (path ())

  let () = at_exit write
end

(* --- shared runners ------------------------------------------------------ *)

type wl = { wl_name : string; wl_sf : float; wl_groups : int option }

let workloads =
  [
    { wl_name = "ssb"; wl_sf = 1.0; wl_groups = None };
    { wl_name = "tpch"; wl_sf = 0.2; wl_groups = None };
    { wl_name = "tpcds"; wl_sf = 0.2; wl_groups = Some 5 };
  ]

(* MIRAGE_BENCH_SF scales every workload down (or up) uniformly — the CI
   smoke job runs the same experiments at a tiny fraction of the paper's
   scale *)
let bench_sf_scale =
  match Sys.getenv_opt "MIRAGE_BENCH_SF" with
  | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 1.0)
  | None -> 1.0

(* [~scale:false] bypasses MIRAGE_BENCH_SF: the speedup experiment sets its
   own absolute scale (big enough for parallel work to be meaningful) and
   must not be shrunk back into spawn-overhead noise by the CI smoke knob *)
let make_workload ?sf_override ?(scale = true) wl =
  let sf = match sf_override with Some s -> s | None -> wl.wl_sf in
  let sf = if scale then sf *. bench_sf_scale else sf in
  match wl.wl_name with
  | "ssb" -> Mirage_workloads.Ssb.make ~sf ~seed:7
  | "tpch" -> Mirage_workloads.Tpch.make ~sf ~seed:7
  | "tpcds" -> Mirage_workloads.Tpcds.make ~sf ~seed:7
  | other -> invalid_arg ("unknown workload " ^ other)

let bench_config = { Driver.default_config with batch_size = 1_000_000 }

let run_mirage ?(config = bench_config) workload ref_db prod_env =
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Ok r -> r
  | Error d -> failwith ("mirage generation failed: " ^ Mirage_core.Diag.to_string d)

(* generation seconds as the paper counts them: total minus extraction *)
let gen_seconds (r : Driver.result) =
  r.Driver.r_timings.Driver.t_total -. r.Driver.r_timings.Driver.t_extract

let peak_mb (r : Driver.result) =
  float_of_int r.Driver.r_peak_bytes /. 1_048_576.0

let db_rows db =
  List.fold_left
    (fun acc (tbl : Mirage_sql.Schema.table) ->
      acc + Mirage_engine.Db.row_count db tbl.Mirage_sql.Schema.tname)
    0
    (Mirage_sql.Schema.tables (Mirage_engine.Db.schema db))

(* generation working-set bytes per generated row — the acceptance metric
   the memory gate tracks *)
let bytes_per_row (r : Driver.result) =
  float_of_int r.Driver.r_peak_bytes
  /. float_of_int (max 1 (db_rows r.Driver.r_db))

(* uniform output-throughput metric: MB/s is always the exact CSV export
   size of the produced database (Scale_out.csv_bytes — what an emit of the
   run's output would write) over the measured seconds.  Experiments that
   never touch disk report it too, so fig13/fig14/speedup/replay entries are
   directly comparable with emit/chunked instead of recording 0.0. *)
let csv_mb ?(copies = 1) db =
  float_of_int (Mirage_core.Scale_out.csv_bytes ~db ~copies ()) /. 1_048_576.0

let csv_mb_per_s db seconds =
  if seconds > 0.0 then csv_mb db /. seconds else 0.0

(* resident bytes of a set of live values: majors + compacts, then counts
   live words.  Used to price the generated database itself. *)
let live_bytes_now () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* the fig15/fig16 sweeps step the query count through the same quartiles *)
let quarter_steps total =
  List.sort_uniq compare
    [ max 1 (total / 4); max 1 (total / 2); max 1 (3 * total / 4); total ]

(* per-workload sweep runner: prints the workload banner row, then the body *)
let foreach_workload ?(wls = workloads) f = List.iter f wls

let score_baseline (r : Types.result) aqts =
  let errs = Error.measure ~aqts ~db:r.Types.b_db ~env:r.Types.b_env in
  List.map
    (fun (e : Error.query_error) ->
      if List.mem e.Error.qe_name r.Types.b_unsupported then
        { e with Error.qe_relative = 1.0 }
      else e)
    errs

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* --- Table 1 ------------------------------------------------------------- *)

let table1 () =
  header
    "Table 1: operator supportability (TPC-H counts measured on this repo's \
     templates; QAGen/MyBenchmark/DCGen are literature rows)";
  Fmt.pr "%a@." Mirage_baselines.Capability.pp (Mirage_baselines.Capability.table ())

(* --- Fig. 11: relative errors per query ---------------------------------- *)

let fig11 wl =
  header
    (Printf.sprintf
       "Fig. 11 (%s): per-query relative error; 1.0000 = unsupported.  Paper \
        shape: Mirage ~0 everywhere; Touchstone small errors where supported; \
        Hydra small errors with unsupported spikes."
       wl.wl_name);
  let workload, ref_db, prod_env = make_workload wl in
  let r = run_mirage workload ref_db prod_env in
  let mirage_errs = Driver.measure_errors r in
  let aqts = r.Driver.r_extraction.Extract.aqts in
  (* the two baseline generators are independent of each other — fan out on
     the resident pool *)
  let ts, hy =
    let pool = Par.get ~domains:2 () in
    Par.both pool
      (fun () ->
        Mirage_baselines.Touchstone.generate workload ~ref_db ~prod_env ~seed:11)
      (fun () ->
        Mirage_baselines.Hydra.generate workload ~ref_db ~prod_env ~seed:11)
  in
  let ts_errs = score_baseline ts aqts and hy_errs = score_baseline hy aqts in
  let err_of l name =
    match List.find_opt (fun (e : Error.query_error) -> e.Error.qe_name = name) l with
    | Some e -> e.Error.qe_relative
    | None -> 1.0
  in
  let names =
    List.map (fun (q : Workload.query) -> q.Workload.q_name) workload.Workload.w_queries
  in
  (match wl.wl_groups with
  | None ->
      pf "%-14s %10s %12s %10s\n" "query" "mirage" "touchstone" "hydra";
      List.iter
        (fun n ->
          pf "%-14s %10.5f %12.5f %10.5f\n" n (err_of mirage_errs n) (err_of ts_errs n)
            (err_of hy_errs n))
        names
  | Some g ->
      pf "%-8s %10s %12s %10s   (mean of %d queries per group)\n" "group" "mirage"
        "touchstone" "hydra" g;
      let arr = Array.of_list names in
      let ngroups = (Array.length arr + g - 1) / g in
      for gi = 0 to ngroups - 1 do
        let members =
          Array.to_list (Array.sub arr (gi * g) (min g (Array.length arr - (gi * g))))
        in
        pf "%-8d %10.5f %12.5f %10.5f\n" (gi + 1)
          (mean (List.map (err_of mirage_errs) members))
          (mean (List.map (err_of ts_errs) members))
          (mean (List.map (err_of hy_errs) members))
      done);
  pf "mean relative error: mirage=%.5f touchstone=%.5f hydra=%.5f\n%!"
    (mean (List.map (fun (e : Error.query_error) -> e.Error.qe_relative) mirage_errs))
    (mean (List.map (fun (e : Error.query_error) -> e.Error.qe_relative) ts_errs))
    (mean (List.map (fun (e : Error.query_error) -> e.Error.qe_relative) hy_errs))

(* --- Fig. 12: query latency fidelity ------------------------------------- *)

let fig12 () =
  header
    "Fig. 12: query latency, production vs Mirage-simulated database (same \
     engine).  Paper shape: mean deviation < 6% per workload.";
  List.iter
    (fun wl ->
      let workload, ref_db, prod_env = make_workload wl in
      let r = run_mirage workload ref_db prod_env in
      let lats =
        Error.latencies ~aqts:r.Driver.r_extraction.Extract.aqts ~ref_db ~prod_env
          ~synth_db:r.Driver.r_db ~synth_env:r.Driver.r_env ~repeat:5
      in
      let devs =
        List.map
          (fun (l : Error.latency) ->
            if l.Error.lat_ref > 0.0 then
              abs_float (l.Error.lat_synth -. l.Error.lat_ref) /. l.Error.lat_ref
            else 0.0)
          lats
      in
      pf "\n%s (mean |latency deviation| = %.2f%%)\n" wl.wl_name (100.0 *. mean devs);
      if wl.wl_name = "tpch" then begin
        pf "%-14s %12s %12s %10s\n" "query" "ref(ms)" "synth(ms)" "dev%";
        List.iter
          (fun (l : Error.latency) ->
            pf "%-14s %12.3f %12.3f %9.1f%%\n" l.Error.lat_name
              (1000.0 *. l.Error.lat_ref)
              (1000.0 *. l.Error.lat_synth)
              (if l.Error.lat_ref > 0.0 then
                 100.0 *. (l.Error.lat_synth -. l.Error.lat_ref) /. l.Error.lat_ref
               else 0.0))
          lats
      end;
      pf "%!")
    workloads

(* --- Fig. 13: generation time vs scale factor ---------------------------- *)

let fig13 () =
  header
    "Fig. 13: generation time vs scale (paper: SF 200..1000; here the row \
     scale is swept proportionally).  Paper shape: all tools linear in SF; \
     Hydra fastest but supports the fewest queries; Mirage ~ Touchstone.";
  let sweep = [ 0.25; 0.5; 0.75; 1.0 ] in
  foreach_workload (fun wl ->
      pf "\n%s (base sf %.2f scaled by the factors below)\n" wl.wl_name wl.wl_sf;
      pf "%-8s %12s %14s %12s\n%!" "scale" "mirage(s)" "touchstone(s)" "hydra(s)";
      List.iter
        (fun factor ->
          let sf = wl.wl_sf *. factor in
          let workload, ref_db, prod_env = make_workload ~sf_override:sf wl in
          let r = run_mirage workload ref_db prod_env in
          let m_time = gen_seconds r in
          let ts, hy =
            let pool = Par.get ~domains:2 () in
            Par.both pool
              (fun () ->
                Mirage_baselines.Touchstone.generate workload ~ref_db ~prod_env
                  ~seed:11)
              (fun () ->
                Mirage_baselines.Hydra.generate workload ~ref_db ~prod_env
                  ~seed:11)
          in
          Bench_json.record ~experiment:"fig13" ~workload:wl.wl_name
            ~label:(Printf.sprintf "scale=%.2f" factor)
            ~domains:r.Driver.r_timings.Driver.domains_used ~seconds:m_time
            ~rows_per_s:(float_of_int (db_rows r.Driver.r_db) /. m_time)
            ~peak_mb:(peak_mb r) ~bytes_per_row:(bytes_per_row r)
            ~mb_per_s:(csv_mb_per_s r.Driver.r_db m_time)
            ~gen_peak_mb:(peak_mb r) ~gen:r ();
          pf "%-8.2f %12.3f %14.3f %12.3f\n%!" factor m_time ts.Types.b_seconds
            hy.Types.b_seconds)
        sweep)

(* --- Fig. 14: batch size vs generation efficiency & memory --------------- *)

let fig14 () =
  header
    "Fig. 14: batch size vs per-stage generation time and memory.  Paper \
     shape: GD/CS/PF stable; CP time falls as batches grow (fewer CP \
     solves); memory grows with batch size.";
  foreach_workload (fun wl ->
      let workload, ref_db, prod_env = make_workload wl in
      (* one solve cache across the whole batch sweep: population systems
         recur between batch sizes (same workload, same seed), so the sweep
         exercises the cross-run cache path the daemon will rely on.
         Outcomes are replay-identical, so only CP time changes. *)
      let cache = Mirage_core.Solve_cache.create () in
      pf "\n%s\n%-10s %8s %8s %8s %8s %8s %10s %10s %12s\n%!" wl.wl_name "batch"
        "gd(s)" "cs(s)" "cp(s)" "pf(s)" "total" "cp-solves" "cache-hits"
        "batch-ws(MB)";
      (* warm-up: the first measured batch size otherwise pays the cold CDF
         work, solve cache and pool spawn for the whole sweep — batch=1000
         reported ~3x lower rows/s than a warm repeat.  One unrecorded run
         at the smallest batch fills the shared cache and the resident pool
         so every measured entry sees identical warm state. *)
      ignore
        (run_mirage
           ~config:
             { bench_config with Driver.batch_size = 1_000; cache = Some cache }
           workload ref_db prod_env);
      List.iter
        (fun batch ->
          let config =
            { bench_config with Driver.batch_size = batch; cache = Some cache }
          in
          let r = run_mirage ~config workload ref_db prod_env in
          let t = r.Driver.r_timings in
          Bench_json.record ~experiment:"fig14" ~workload:wl.wl_name
            ~label:(Printf.sprintf "batch=%d" batch)
            ~domains:t.Driver.domains_used ~seconds:(gen_seconds r)
            ~rows_per_s:(float_of_int (db_rows r.Driver.r_db) /. gen_seconds r)
            ~peak_mb:(peak_mb r) ~bytes_per_row:(bytes_per_row r)
            ~mb_per_s:(csv_mb_per_s r.Driver.r_db (gen_seconds r))
            ~cp_nodes:t.Driver.cp_nodes ~cp_props:t.Driver.cp_props
            ~cp_cache_hits:t.Driver.cp_cache_hits ~gen_peak_mb:(peak_mb r)
            ~gen:r ();
          pf "%-10d %8.3f %8.3f %8.3f %8.3f %8.3f %10d %10d %12.2f\n%!" batch
            t.Driver.t_gd t.Driver.t_cs t.Driver.t_cp t.Driver.t_pf
            (gen_seconds r) t.Driver.cp_solves t.Driver.cp_cache_hits
            (float_of_int t.Driver.batch_alloc_bytes /. 1_048_576.0))
        [ 1_000; 2_000; 4_000; 7_000; 10_000; 1_000_000 ];
      let h = Mirage_core.Solve_cache.hits cache
      and m = Mirage_core.Solve_cache.misses cache in
      pf "%s solve cache across the sweep: %d hits / %d solves (%.0f%%)\n%!"
        wl.wl_name h (h + m)
        (100.0 *. float_of_int h /. float_of_int (max 1 (h + m))))

(* --- Fig. 15: number of queries vs generation efficiency ----------------- *)

let fig15 () =
  header
    "Fig. 15: generation time and memory as queries are added stepwise.  \
     Paper shape: GD/PF stable; CS stable; CP grows with constraint count \
     (faster for TPC-H, which has JDCs); memory stable.";
  foreach_workload (fun wl ->
      let workload, ref_db, prod_env = make_workload wl in
      let steps = quarter_steps (List.length workload.Workload.w_queries) in
      pf "\n%s\n%-9s %8s %8s %8s %8s %8s %10s\n%!" wl.wl_name "queries" "gd(s)"
        "cs(s)" "cp(s)" "pf(s)" "total" "peak(MB)";
      List.iter
        (fun n ->
          let sub = Workload.take workload n in
          let r = run_mirage sub ref_db prod_env in
          let t = r.Driver.r_timings in
          pf "%-9d %8.3f %8.3f %8.3f %8.3f %8.3f %10.1f\n%!" n t.Driver.t_gd
            t.Driver.t_cs t.Driver.t_cp t.Driver.t_pf (gen_seconds r)
            (peak_mb r))
        steps)

(* --- Fig. 16: portraying non-key distributions --------------------------- *)

let fig16 () =
  header
    "Fig. 16: time to portray non-key distributions (decoupling + CDF \
     construction) and ACC sampling/instantiation, as queries are added.  \
     Paper shape: CDF portraying <= 20ms per column; ACC solving within 2s; \
     memory conservative.";
  foreach_workload (fun wl ->
      let workload, ref_db, prod_env = make_workload wl in
      let steps = quarter_steps (List.length workload.Workload.w_queries) in
      pf "\n%s\n%-9s %12s %10s %10s %10s\n%!" wl.wl_name "queries" "decouple(s)"
        "cdf(s)" "acc(s)" "peak(MB)";
      List.iter
        (fun n ->
          let sub = Workload.take workload n in
          let r = run_mirage sub ref_db prod_env in
          let t = r.Driver.r_timings in
          pf "%-9d %12.4f %10.4f %10.4f %10.1f\n%!" n t.Driver.t_decouple
            t.Driver.t_cdf t.Driver.t_acc (peak_mb r))
        steps)

(* --- Scale-out: linear generation of enormous databases ------------------- *)

let scaleout () =
  header
    "Scale-out (the paper's terabyte-generation claim): tiling a generated \
     database to CSV.  Expected shape: throughput (rows/s) flat in the copy \
     count, memory flat (one window of tiles resident).";
  let wl = List.nth workloads 0 in
  let workload, ref_db, prod_env = make_workload wl in
  let r = run_mirage workload ref_db prod_env in
  let base_rows =
    List.fold_left
      (fun acc (_, n) -> acc + n)
      0
      (Mirage_core.Scale_out.scaled_rows r.Driver.r_db ~copies:1)
  in
  let pool = Par.get () in
  pf "%-8s %12s %10s %14s %10s\n%!" "copies" "rows" "write(s)" "rows/s"
    "peak(MB)";
  List.iter
    (fun copies ->
      let dir = Filename.temp_file "mirage_scale" "" in
      Sys.remove dir;
      let dt, bytes =
        Mirage_util.Mem.measure (fun () ->
            let t0 = Unix.gettimeofday () in
            Mirage_core.Scale_out.to_csv_dir ~pool ~db:r.Driver.r_db ~copies
              ~dir ();
            Unix.gettimeofday () -. t0)
      in
      let rows_per_s = float_of_int (copies * base_rows) /. dt in
      let mb = float_of_int bytes /. 1_048_576.0 in
      Bench_json.record ~experiment:"scaleout" ~workload:wl.wl_name
        ~label:(Printf.sprintf "copies=%d" copies)
        ~domains:(Par.size pool) ~seconds:dt ~rows_per_s ~peak_mb:mb
        ~bytes_per_row:(float_of_int bytes /. float_of_int (copies * base_rows))
        ~mb_per_s:(csv_mb ~copies r.Driver.r_db /. dt) ();
      pf "%-8d %12d %10.3f %14.0f %10.1f\n%!" copies (copies * base_rows) dt
        rows_per_s mb;
      (* clean up *)
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    [ 1; 4; 16; 64 ]

(* --- Emit: templated tile splicing vs per-cell re-rendering ---------------- *)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let emit () =
  header
    "Emit: CSV scale-out throughput, the templated splicer (render each base \
     row once, memcpy fragments + itoa shifted keys per tile) vs the per-cell \
     reference renderer.  Same output bytes.  Expected shape: templated \
     rows/s a multiple of naive, the gap widening with the copy count; MB/s \
     approaching memory-copy bound.";
  let domain_counts = List.sort_uniq compare [ 1; Par.default_domains () ] in
  List.iter
    (fun wl ->
      let workload, ref_db, prod_env = make_workload wl in
      let r = run_mirage workload ref_db prod_env in
      let db = r.Driver.r_db in
      let base_rows =
        List.fold_left
          (fun acc (_, n) -> acc + n)
          0
          (Mirage_core.Scale_out.scaled_rows db ~copies:1)
      in
      pf "\n%s\n%-8s %8s %12s %10s %10s %12s %10s %10s %10s\n%!" wl.wl_name
        "copies" "domains" "rows" "naive(s)" "tmpl(s)" "tmpl-rows/s" "MB/s"
        "speedup" "peak(MB)";
      List.iter
        (fun domains ->
          let pool = Par.get ~domains () in
          List.iter
            (fun copies ->
              let run name writer =
                let dir = Filename.temp_file "mirage_emit" "" in
                Sys.remove dir;
                let (dt, bytes), peak =
                  Mirage_util.Mem.measure (fun () ->
                      let t0 = Unix.gettimeofday () in
                      writer ~pool ~db ~copies ~dir ();
                      (Unix.gettimeofday () -. t0, dir_bytes dir))
                in
                Array.iter
                  (fun f -> Sys.remove (Filename.concat dir f))
                  (Sys.readdir dir);
                Sys.rmdir dir;
                let rows_per_s = float_of_int (copies * base_rows) /. dt in
                let mb_per_s = float_of_int bytes /. 1_048_576.0 /. dt in
                Bench_json.record ~experiment:"emit" ~workload:wl.wl_name
                  ~label:(Printf.sprintf "copies=%d,domains=%d,%s" copies
                            domains name)
                  ~domains:(Par.size pool) ~seconds:dt ~rows_per_s
                  ~peak_mb:(float_of_int peak /. 1_048_576.0) ~mb_per_s ();
                (dt, rows_per_s, mb_per_s, peak)
              in
              let naive_dt, _, _, _ =
                run "naive" (fun ~pool ->
                    Mirage_core.Scale_out.Reference.to_csv_dir ~pool)
              in
              let tmpl_dt, tmpl_rps, tmpl_mbs, peak =
                run "templated" (fun ~pool ->
                    Mirage_core.Scale_out.to_csv_dir ~pool)
              in
              pf "%-8d %8d %12d %10.3f %10.3f %12.0f %10.1f %9.2fx %10.1f\n%!"
                copies domains (copies * base_rows) naive_dt tmpl_dt tmpl_rps
                tmpl_mbs (naive_dt /. tmpl_dt)
                (float_of_int peak /. 1_048_576.0))
            [ 1; 16; 64 ])
        domain_counts)
    [ List.nth workloads 0; List.nth workloads 1 ]

(* --- Chunked: crash-safe sink export --------------------------------------- *)

let chunked () =
  header
    "Chunked: crash-safe chunked CSV export (sink shards + atomic renames + \
     manifest checkpoint per shard) vs the monolithic writer, same database, \
     same bytes.  Output is asserted byte-identical.  Expected shape: \
     throughput within noise of monolithic; peak memory bounded by the tile \
     window, flat in the chunk size.";
  let wl = List.nth workloads 0 in
  let workload, ref_db, prod_env = make_workload wl in
  let r = run_mirage workload ref_db prod_env in
  let db = r.Driver.r_db in
  let copies = 8 in
  let base_rows =
    List.fold_left
      (fun acc (_, n) -> acc + n)
      0
      (Mirage_core.Scale_out.scaled_rows db ~copies:1)
  in
  let tables =
    List.map
      (fun (t : Mirage_sql.Schema.table) -> t.Mirage_sql.Schema.tname)
      (Mirage_sql.Schema.tables (Mirage_engine.Db.schema db))
  in
  let largest =
    List.fold_left (fun m t -> max m (Mirage_engine.Db.row_count db t)) 1 tables
  in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let rm_dir dir =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  let temp_dir () =
    let d = Filename.temp_file "mirage_chunk" "" in
    Sys.remove d;
    d
  in
  let pool = Par.get () in
  let mono = temp_dir () in
  Mirage_core.Scale_out.to_csv_dir ~pool ~db ~copies ~dir:mono ();
  let out_mb = csv_mb ~copies db in
  pf "%-12s %8s %10s %12s %10s %10s %10s\n%!" "chunk-rows" "shards" "write(s)"
    "rows/s" "MB/s" "peak(MB)" "identical";
  List.iter
    (fun chunk_rows ->
      let dir = temp_dir () in
      let (dt, rep), peak =
        Mirage_util.Mem.measure (fun () ->
            let t0 = Unix.gettimeofday () in
            let rep =
              Mirage_core.Scale_out.to_csv_chunked ~pool ~db ~copies
                ~chunk_rows ~dir
                ~run_id:(Printf.sprintf "bench-chunk%d" chunk_rows)
                ()
            in
            (Unix.gettimeofday () -. t0, rep))
      in
      (* the whole point of the chunked path: same bytes as the monolithic
         writer, so the bench hard-fails on any divergence *)
      let identical =
        List.for_all
          (fun t ->
            let rec cat k acc =
              let p = Filename.concat dir (Printf.sprintf "%s.csv.%d" t k) in
              if Sys.file_exists p then cat (k + 1) (acc ^ read_file p) else acc
            in
            String.equal (read_file (Filename.concat mono (t ^ ".csv"))) (cat 0 ""))
          tables
      in
      if not identical then
        failwith
          (Printf.sprintf "chunked: output diverged at chunk_rows=%d" chunk_rows);
      let rows_per_s = float_of_int (copies * base_rows) /. dt in
      Bench_json.record ~experiment:"chunked" ~workload:wl.wl_name
        ~label:(Printf.sprintf "chunk=%d" chunk_rows)
        ~domains:(Par.size pool) ~seconds:dt ~rows_per_s
        ~peak_mb:(float_of_int peak /. 1_048_576.0)
        ~mb_per_s:(out_mb /. dt) ~chunk_rows ();
      pf "%-12d %8d %10.3f %12.0f %10.1f %10.1f %10s\n%!" chunk_rows
        rep.Mirage_core.Scale_out.cr_shards dt rows_per_s (out_mb /. dt)
        (float_of_int peak /. 1_048_576.0)
        (if identical then "yes" else "NO");
      rm_dir dir)
    [ max 1 (largest / 4); largest; largest * copies ];
  rm_dir mono

(* --- Out-of-core: big columns + domain-owned compressed emit --------------- *)

let outofcore () =
  header
    "Out-of-core: TPC-H generated at 1x and 16x the bench SF with a fixed \
     absolute big-column threshold (sized from the 1x reference database, so \
     table-sized storage spills to Bigarray memory off the OCaml heap in \
     both runs) and a fixed absolute batch size, under a hard 256 MB heap \
     budget — the run aborts rather than quietly paging.  A 64x run then \
     generates STREAMED (a chunk plan fixed up front; every row scan \
     proceeds chunk-at-a-time) under the same budget.  Expected shape: \
     peak(MB) flat (16x <= 1.2x of 1x and 64x <= 1.2x of 16x, both gated) \
     while rows grow 64x; streamed output is asserted byte-identical to the \
     monolithic path at the common 1x SF.  The 16x database is then \
     exported gzip-compressed through the chunked writer at domains 1 and \
     4: shards render and compress in parallel, one per domain, so \
     domains=4 MB/s >= 1.5x domains=1 is gated on hosts with >= 4 cores; \
     the compressed bytes must be identical at both widths.";
  let wl = List.nth workloads 1 (* tpch *) in
  let cores = Domain.recommended_domain_count () in
  let base_sf = wl.wl_sf *. bench_sf_scale in
  (* fixed absolute spill threshold across both scales: half the 1x run's
     largest table, floored against degenerate tiny-CI sizes — the 1x run
     already keeps its big tables off-heap, so the 16x run grows the mmap
     side, not the heap *)
  let saved_thr = Mirage_engine.Col.big_rows () in
  (* a fixed-heap deployment pays GC time to keep the heap near the live
     set: default space_overhead (120) lets the major heap balloon to ~2x
     live between stage samples, which would measure allocation churn (16x
     more transient work at 16x SF) instead of the working set this
     experiment is about.  40 keeps heap tracking live within ~1.4x. *)
  let saved_gc = Gc.get () in
  let budget =
    { Mirage_util.Budget.no_limits with Mirage_util.Budget.max_heap_mb = Some 256 }
  in
  (* the batch is the one deliberately heap-resident structure in keygen
     (partition cons-lists, the per-batch value buffer): fix it at an
     absolute size well under the 16x row count, so "batch-bounded" does not
     quietly mean "table-sized" as SF grows *)
  let config = { bench_config with Driver.budget; batch_size = 65_536 } in
  let gen ?(config = config) label sf =
    Gc.compact ();
    let workload, ref_db, prod_env = make_workload ~sf_override:sf ~scale:false wl in
    let r = run_mirage ~config workload ref_db prod_env in
    let secs = gen_seconds r in
    let rows = db_rows r.Driver.r_db in
    Bench_json.record ~experiment:"outofcore" ~workload:wl.wl_name ~label
      ~domains:1 ~seconds:secs
      ~rows_per_s:(float_of_int rows /. secs)
      ~peak_mb:(peak_mb r) ~bytes_per_row:(bytes_per_row r)
      ~mb_per_s:(csv_mb_per_s r.Driver.r_db secs)
      ~chunk_rows:(Option.value ~default:0 config.Driver.chunk_rows)
      ~gen_peak_mb:(peak_mb r) ~gen:r ();
    pf "%-10s %8.3f %10d %10.3f %10.1f %12.1f\n%!" label sf rows secs
      (peak_mb r) (bytes_per_row r);
    r
  in
  Fun.protect
    ~finally:(fun () ->
      Mirage_engine.Col.set_big_rows saved_thr;
      Gc.set saved_gc)
    (fun () ->
      Gc.set { saved_gc with Gc.space_overhead = 40 };
      (* size the threshold from the 1x reference database (generated row
         counts match it), then generate both scales under the same one *)
      let _, ref_db1, _ = make_workload ~sf_override:base_sf ~scale:false wl in
      let largest1 =
        List.fold_left
          (fun m (t : Mirage_sql.Schema.table) ->
            max m (Mirage_engine.Db.row_count ref_db1 t.Mirage_sql.Schema.tname))
          1
          (Mirage_sql.Schema.tables (Mirage_engine.Db.schema ref_db1))
      in
      Mirage_engine.Col.set_big_rows (max 1024 (largest1 / 2));
      pf "big-column threshold: %d rows; heap budget 256 MB; host cores %d\n"
        (Mirage_engine.Col.big_rows ()) cores;
      pf "%-10s %8s %10s %10s %10s %12s\n%!" "run" "sf" "rows" "gen(s)"
        "peak(MB)" "heap(B/row)";
      let r1 = gen "gen-1x" base_sf in
      let r16 = gen "gen-16x" (base_sf *. 16.0) in
      (* 64x generates streamed: a chunk plan several chunks deep for the
         fact tables at this scale, so the O(chunk + dimensions) heap
         contract — not just the off-heap spill — is what the gate's
         peak64 <= 1.2x peak16 bar measures *)
      let stream_chunk = max 1024 (largest1 * 8) in
      let streamed_config = { config with Driver.chunk_rows = Some stream_chunk } in
      ignore (gen ~config:streamed_config "gen-64x" (base_sf *. 64.0));
      (* --- compressed emit at domains 1 and 4 ----------------------------- *)
      let db = r16.Driver.r_db in
      let copies = 8 in
      let out_mb = csv_mb ~copies db in
      let largest =
        List.fold_left
          (fun m (t : Mirage_sql.Schema.table) ->
            max m (Mirage_engine.Db.row_count db t.Mirage_sql.Schema.tname))
          1
          (Mirage_sql.Schema.tables (Mirage_engine.Db.schema db))
      in
      (* several shards per table, so the domains have shards to claim *)
      let chunk_rows = max 1 (largest / 2) in
      let temp_dir () =
        let d = Filename.temp_file "mirage_outofcore" "" in
        Sys.remove d;
        d
      in
      let read_file path =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let rm_dir dir =
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      in
      let cat_dir dir =
        (* concatenate every shard in directory-name order per table — the
           manifest order, since shard k sorts before k+1 *)
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> f <> "MANIFEST.json")
        |> List.sort compare
        |> List.map (fun f -> read_file (Filename.concat dir f))
        |> String.concat ""
      in
      (* streamed-vs-monolithic byte identity at the common 1x SF: the same
         workload regenerated under a chunk plan (a non-dividing chunk size,
         so the last chunk is ragged) must export the same CSV bytes *)
      let r1s =
        gen
          ~config:
            { config with Driver.chunk_rows = Some (max 1 (largest1 / 3)) }
          "gen-1x-stream" base_sf
      in
      let dir_a = temp_dir () and dir_b = temp_dir () in
      let id_pool = Par.get () in
      Mirage_core.Scale_out.to_csv_dir ~pool:id_pool ~db:r1.Driver.r_db
        ~copies:1 ~dir:dir_a ();
      Mirage_core.Scale_out.to_csv_dir ~pool:id_pool ~db:r1s.Driver.r_db
        ~copies:1 ~dir:dir_b ();
      let identical =
        List.for_all
          (fun (t : Mirage_sql.Schema.table) ->
            let f = t.Mirage_sql.Schema.tname ^ ".csv" in
            String.equal
              (read_file (Filename.concat dir_a f))
              (read_file (Filename.concat dir_b f)))
          (Mirage_sql.Schema.tables (Mirage_engine.Db.schema r1.Driver.r_db))
      in
      rm_dir dir_a;
      rm_dir dir_b;
      if not identical then
        failwith "outofcore: streamed generation diverged from monolithic at 1x";
      pf "streamed generation byte-identical to monolithic at 1x: yes\n%!";
      pf "\ncompressed emit of the 16x database (copies=%d, %.1f raw MB):\n"
        copies out_mb;
      pf "%8s %10s %10s %10s\n%!" "domains" "write(s)" "MB/s" "identical";
      let reference = ref "" in
      List.iter
        (fun domains ->
          let dir = temp_dir () in
          let t0 = Unix.gettimeofday () in
          let (_ : Mirage_core.Scale_out.chunk_report) =
            Mirage_core.Scale_out.to_csv_chunked ~pool:(Par.get ~domains ())
              ~compress:true ~db ~copies ~chunk_rows ~dir
              ~run_id:(Printf.sprintf "outofcore-gz-d%d" domains)
              ()
          in
          let dt = Unix.gettimeofday () -. t0 in
          let bytes = cat_dir dir in
          rm_dir dir;
          if !reference = "" then reference := bytes;
          (* every domain count must produce the same compressed bytes —
             shard layout and encoder are deterministic *)
          if not (String.equal bytes !reference) then
            failwith
              (Printf.sprintf
                 "outofcore: compressed output diverged at domains=%d" domains);
          Bench_json.record ~experiment:"outofcore" ~workload:wl.wl_name
            ~label:(Printf.sprintf "emit-gz-d%d" domains) ~domains
            ~seconds:dt ~rows_per_s:0.0 ~peak_mb:0.0
            ~mb_per_s:(out_mb /. dt) ~chunk_rows ();
          pf "%8d %10.3f %10.1f %10s\n%!" domains dt (out_mb /. dt) "yes")
        [ 1; 4 ])

(* --- Ablation: contribution of each design choice ------------------------- *)

let ablate () =
  header
    "Ablation: each row disables one design choice (DESIGN.md) and reports \
     accuracy and key-generation cost on TPC-H (sf 0.2) and TPC-DS (sf 0.2).";
  let variants =
    [
      ("all-on", bench_config);
      ("no-acc-repair", { bench_config with Driver.acc_repair = false });
      ("no-lp-guide", { bench_config with Driver.lp_guide = false; cp_max_nodes = 30_000 });
      ("no-jdc-sparsify", { bench_config with Driver.sparsify = false });
      ("no-capacity-repair", { bench_config with Driver.capacity_repair = false });
      ("no-guided-placement", { bench_config with Driver.guided_placement = false });
    ]
  in
  List.iter
    (fun wl ->
      let workload, ref_db, prod_env = make_workload wl in
      pf "\n%s\n%-22s %8s %10s %10s %12s %10s\n%!" wl.wl_name "variant" "exact"
        "mean-err" "worst" "cp-nodes" "gen(s)";
      List.iter
        (fun (name, config) ->
          match Driver.generate ~config workload ~ref_db ~prod_env with
          | Error d ->
              pf "%-22s failed: %s\n%!" name (Mirage_core.Diag.to_string d)
          | Ok r ->
              let errs = Driver.measure_errors r in
              let rels =
                List.map
                  (fun (e : Error.query_error) -> e.Error.qe_relative)
                  errs
              in
              let exact = List.length (List.filter (fun e -> e = 0.0) rels) in
              pf "%-22s %5d/%-2d %10.5f %10.5f %12d %10.3f\n%!" name exact
                (List.length rels) (mean rels)
                (List.fold_left max 0.0 rels)
                r.Driver.r_timings.Driver.cp_nodes (gen_seconds r))
        variants)
    [ List.nth workloads 1; List.nth workloads 2 ]

(* --- Speedup: domain-parallel generation --------------------------------- *)

(* digest of the full database content (typed columns, so representation
   differences would show too): the speedup sweep hard-fails if any domain
   count produces different bytes *)
let db_digest db =
  let b = Buffer.create 256 in
  List.iter
    (fun (tbl : Mirage_sql.Schema.table) ->
      let t = tbl.Mirage_sql.Schema.tname in
      List.iter
        (fun c ->
          Buffer.add_string b
            (Digest.string (Marshal.to_string (Mirage_engine.Db.col db t c) [])))
        (Mirage_sql.Schema.column_names tbl))
    (Mirage_sql.Schema.tables (Mirage_engine.Db.schema db));
  Digest.to_hex (Digest.string (Buffer.contents b))

let speedup () =
  header
    "Speedup: end-to-end generation with a growing domain pool.  The \
     database is bit-identical for every domain count (asserted); only \
     wall-clock changes.  Workloads run at a scaled-up SF where parallel \
     work dominates dispatch (the stock bench workloads finish in \
     milliseconds, which only measures region overhead); a warm-up run \
     fills the shared CP solve cache and the resident pools so every \
     measured run sees identical warm state.  Expected shape: gen(s) \
     shrinks towards cpu(s)/domains as domains grow (flat on a single-core \
     machine — the gate in dev/bench_gate only enforces scaling the host \
     can physically express).";
  let cores = Domain.recommended_domain_count () in
  (* MIRAGE_SPEEDUP_SF scales the speedup experiment only — independent of
     MIRAGE_BENCH_SF, so the CI smoke knob cannot shrink these runs back
     into dispatch-overhead noise *)
  let sp_scale =
    match Sys.getenv_opt "MIRAGE_SPEEDUP_SF" with
    | Some s -> (
        match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 1.0)
    | None -> 1.0
  in
  (* per-workload absolute multipliers over the stock bench SF, sized so a
     domains=1 run takes O(1-10 s): enough work for scaling to be
     measurable, small enough for CI.  (tpcds generation is cheap once the
     shared solve cache is warm and batching is wide, so it needs as much
     scaling as the row-bound workloads.) *)
  let mults = [ ("ssb", 64.0); ("tpch", 16.0); ("tpcds", 32.0) ] in
  pf "host cores: %d (speedup sf scale %.2f)\n%!" cores sp_scale;
  foreach_workload (fun wl ->
      let sf = wl.wl_sf *. List.assoc wl.wl_name mults *. sp_scale in
      let workload, ref_db, prod_env =
        make_workload ~sf_override:sf ~scale:false wl
      in
      (* one CP solve cache shared across the warm-up and every measured
         domain count: replay-identical, and it removes the cold-cache
         asymmetry that would otherwise flatter whichever run went first *)
      let cache = Mirage_core.Solve_cache.create () in
      let config d =
        { bench_config with Driver.domains = d; cache = Some cache }
      in
      ignore (run_mirage ~config:(config 1) workload ref_db prod_env);
      pf "\n%s (sf %.2f)\n%-8s %10s %10s %10s %10s %10s\n%!" wl.wl_name sf
        "domains" "gen(s)" "cpu(s)" "speedup" "peak(MB)" "identical";
      let base = ref nan and digest1 = ref "" in
      List.iter
        (fun d ->
          (* start every width from a compacted heap: Driver's peak counter
             reads total heap words, so without this each run inherits the
             previous width's heap growth and the peak ratios the gate
             checks (d2 <= 1.3x d1) would compare process history, not
             per-run working sets *)
          Gc.compact ();
          let r = run_mirage ~config:(config d) workload ref_db prod_env in
          let t = r.Driver.r_timings in
          let secs = gen_seconds r in
          let dg = db_digest r.Driver.r_db in
          if Float.is_nan !base then begin
            base := secs;
            digest1 := dg
          end;
          if dg <> !digest1 then
            failwith
              (Printf.sprintf
                 "speedup: %s output diverged at domains=%d (digest %s vs %s)"
                 wl.wl_name d dg !digest1);
          let sp = !base /. secs in
          Bench_json.record ~experiment:"speedup" ~workload:wl.wl_name
            ~label:(Printf.sprintf "domains=%d" d)
            ~domains:t.Driver.domains_used ~seconds:secs
            ~rows_per_s:(float_of_int (db_rows r.Driver.r_db) /. secs)
            ~peak_mb:(peak_mb r) ~bytes_per_row:(bytes_per_row r)
            ~speedup_vs_1:sp ~mb_per_s:(csv_mb_per_s r.Driver.r_db secs)
            ~cp_cache_hits:t.Driver.cp_cache_hits ~gen_peak_mb:(peak_mb r)
            ~gen:r ();
          pf "%-8d %10.3f %10.3f %10.2f %10.1f %10s\n%!" d secs t.Driver.t_cpu
            sp (peak_mb r)
            (if dg = !digest1 then "yes" else "NO"))
        [ 1; 2; 4 ];
      let h = Mirage_core.Solve_cache.hits cache
      and m = Mirage_core.Solve_cache.misses cache in
      pf "%s solve cache across runs: %d hits / %d solves (%.0f%%)\n%!"
        wl.wl_name h (h + m)
        (100.0 *. float_of_int h /. float_of_int (max 1 (h + m))))

(* --- Sched: barrier vs overlapped pipeline scheduling ---------------------- *)

let sched () =
  header
    "Sched: end-to-end generation under the barrier schedule (the legacy \
     one-FK-edge-at-a-time walk) vs the dependency-aware overlap schedule \
     (independent edges concurrent, CP solve-ahead inside each constrained \
     edge) on a 4-domain pool, at the speedup experiment's scaled-up SF \
     with the same warm shared state.  The database is bit-identical \
     between schedules (asserted).  Expected shape: overlap >= 1.25x wall \
     time on multi-core hosts with peak memory within 1.3x of barrier; \
     ~1.0x on a single-core host, where the domains time-share (the gate \
     in dev/bench_gate skips hosts with < 4 cores).";
  let cores = Domain.recommended_domain_count () in
  let sp_scale =
    match Sys.getenv_opt "MIRAGE_SPEEDUP_SF" with
    | Some s -> (
        match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 1.0)
    | None -> 1.0
  in
  let mults = [ ("ssb", 64.0); ("tpch", 16.0); ("tpcds", 32.0) ] in
  pf "host cores: %d (speedup sf scale %.2f)\n%!" cores sp_scale;
  foreach_workload (fun wl ->
      let sf = wl.wl_sf *. List.assoc wl.wl_name mults *. sp_scale in
      let workload, ref_db, prod_env =
        make_workload ~sf_override:sf ~scale:false wl
      in
      (* one CP solve cache shared across the warm-up and both schedules:
         replay-identical, and it removes the cold-cache asymmetry that
         would otherwise flatter whichever schedule went second *)
      let cache = Mirage_core.Solve_cache.create () in
      let config schedule =
        { bench_config with Driver.domains = 4; schedule; cache = Some cache }
      in
      ignore (run_mirage ~config:(config `Barrier) workload ref_db prod_env);
      pf "\n%s (sf %.2f, domains=4)\n%-10s %10s %10s %8s %10s %10s\n%!"
        wl.wl_name sf "schedule" "gen(s)" "cpu(s)" "util" "peak(MB)"
        "identical";
      let base = ref nan and digest_b = ref "" in
      List.iter
        (fun (label, schedule) ->
          (* compacted heap per run, as in speedup: the peak counter must
             price this run's working set, not process history *)
          Gc.compact ();
          let r = run_mirage ~config:(config schedule) workload ref_db prod_env in
          let t = r.Driver.r_timings in
          let secs = gen_seconds r in
          let dg = db_digest r.Driver.r_db in
          if Float.is_nan !base then begin
            base := secs;
            digest_b := dg
          end;
          if dg <> !digest_b then
            failwith
              (Printf.sprintf
                 "sched: %s output diverged under %s (digest %s vs %s)"
                 wl.wl_name label dg !digest_b);
          let sp = !base /. secs in
          Bench_json.record ~experiment:"sched" ~workload:wl.wl_name ~label
            ~domains:t.Driver.domains_used ~seconds:secs
            ~rows_per_s:(float_of_int (db_rows r.Driver.r_db) /. secs)
            ~peak_mb:(peak_mb r) ~bytes_per_row:(bytes_per_row r)
            ~speedup_vs_1:sp ~mb_per_s:(csv_mb_per_s r.Driver.r_db secs)
            ~cp_cache_hits:t.Driver.cp_cache_hits ~gen_peak_mb:(peak_mb r)
            ~gen:r ();
          pf "%-10s %10.3f %10.3f %8.2f %10.1f %10s\n%!" label secs
            t.Driver.t_cpu
            (if secs > 0.0 then t.Driver.t_cpu /. secs else 0.0)
            (peak_mb r)
            (if dg = !digest_b then "yes" else "NO"))
        [ ("barrier", `Barrier); ("overlap", `Overlap) ])

(* --- Replay: verification throughput and resident database size ----------- *)

let replay () =
  header
    "Replay: full-workload replay (every query re-executed on the generated \
     database for the zero-error cardinality checks) and the resident size \
     of the database itself.  rows/s counts generated rows covered per \
     wall-second of replay; db(B/row) is live heap delta per generated row \
     after a compaction.";
  pf "%-8s %10s %12s %14s %12s %12s\n%!" "workload" "queries" "replay(s)"
    "rows/s" "db(B/row)" "exact";
  foreach_workload (fun wl ->
      let workload, ref_db, prod_env = make_workload wl in
      let live0 = live_bytes_now () in
      let r = run_mirage workload ref_db prod_env in
      let rows = db_rows r.Driver.r_db in
      let live1 = live_bytes_now () in
      (* keep the generation inputs live across both measurements, so the
         delta prices only what generation retained (db + env + extraction) *)
      ignore (Sys.opaque_identity (workload, ref_db, prod_env));
      let db_bytes_per_row =
        float_of_int (live1 - live0) /. float_of_int (max 1 rows)
      in
      let aqts = r.Driver.r_extraction.Extract.aqts in
      (* warm caches, then time the replay loop the error measurement runs *)
      let warm = Error.measure ~aqts ~db:r.Driver.r_db ~env:r.Driver.r_env in
      let exact =
        List.length
          (List.filter
             (fun (e : Error.query_error) -> e.Error.qe_relative = 0.0)
             warm)
      in
      let repeat = 5 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to repeat do
        ignore (Error.measure ~aqts ~db:r.Driver.r_db ~env:r.Driver.r_env)
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int repeat in
      let rows_per_s = float_of_int rows /. dt in
      Bench_json.record ~experiment:"replay" ~workload:wl.wl_name
        ~label:"all-queries" ~domains:1 ~seconds:dt ~rows_per_s
        ~peak_mb:(peak_mb r) ~bytes_per_row:db_bytes_per_row
        ~mb_per_s:(csv_mb_per_s r.Driver.r_db dt) ~gen_peak_mb:(peak_mb r)
        ~gen:r ();
      pf "%-8s %10d %12.4f %14.0f %12.1f %9d/%d\n%!" wl.wl_name
        (List.length aqts) dt rows_per_s db_bytes_per_row exact
        (List.length warm))

(* --- CP kernel: event-driven vs naive-fixpoint propagation ---------------- *)

(* Reference implementation of the pre-kernel solver: full constraint sweep
   to fixpoint at every DFS node, domain arrays copied per branch.  Kept
   verbatim (minus the LP guide) so the propagation-count comparison below
   measures exactly what the watch-list kernel eliminated.  A "propagation"
   is one execution of one constraint's propagator — one sweep visit here,
   one work-queue pop in the kernel. *)
module Naive_ref = struct
  type constr =
    | Linear of { terms : (int * int) list; eq : bool; rhs : int }
    | Ge of int * int
    | Imply_pos of int * int
  [@@warning "-37"]
  (* Ge / Imply_pos match the solver's constraint forms but the
     transportation systems below only post equalities *)

  exception Fail

  let props = ref 0

  let propagate constrs lo hi =
    let changed = ref true in
    let tighten_lo v x =
      if x > lo.(v) then begin
        lo.(v) <- x;
        if lo.(v) > hi.(v) then raise Fail;
        changed := true
      end
    in
    let tighten_hi v x =
      if x < hi.(v) then begin
        hi.(v) <- x;
        if lo.(v) > hi.(v) then raise Fail;
        changed := true
      end
    in
    let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
    let cdiv a b = if a >= 0 then (a + b - 1) / b else -((-a) / b) in
    let prop_linear terms eq rhs =
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
      if !sum_lo > rhs then raise Fail;
      if eq && !sum_hi < rhs then raise Fail;
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
        terms
    in
    while !changed do
      changed := false;
      List.iter
        (fun c ->
          incr props;
          match c with
          | Linear { terms; eq; rhs } -> prop_linear terms eq rhs
          | Ge (x, y) ->
              tighten_lo x lo.(y);
              tighten_hi y hi.(x)
          | Imply_pos (x, y) ->
              if hi.(y) = 0 then tighten_hi x 0;
              if lo.(x) > 0 then tighten_lo y 1)
        constrs
    done

  type outcome = Sat of int array | Unsat | Unknown

  (* outcome, nodes explored, props accumulated *)
  let solve ~max_nodes constrs lo0 hi0 =
    props := 0;
    let n = Array.length lo0 in
    let nodes = ref 0 in
    let exception Found of int array in
    let exception Out_of_nodes in
    let rec search lo hi =
      incr nodes;
      if !nodes > max_nodes then raise Out_of_nodes;
      propagate constrs lo hi;
      let best = ref (-1) and best_width = ref 0 in
      for v = 0 to n - 1 do
        let w = hi.(v) - lo.(v) in
        if w > !best_width then begin
          best := v;
          best_width := w
        end
      done;
      if !best = -1 then raise (Found (Array.copy lo))
      else begin
        let v = !best in
        let g = lo.(v) in
        let try_range l h =
          if l <= h then begin
            try
              let lo' = Array.copy lo and hi' = Array.copy hi in
              lo'.(v) <- l;
              hi'.(v) <- h;
              search lo' hi'
            with Fail -> ()
          end
        in
        let last_range l h =
          if l <= h then begin
            let lo' = Array.copy lo and hi' = Array.copy hi in
            lo'.(v) <- l;
            hi'.(v) <- h;
            search lo' hi'
          end
          else raise Fail
        in
        try_range g g;
        last_range (g + 1) hi.(v)
      end
    in
    match search (Array.copy lo0) (Array.copy hi0) with
    | () -> (Unsat, !nodes, !props)
    | exception Fail -> (Unsat, !nodes, !props)
    | exception Out_of_nodes -> (Unknown, !nodes, !props)
    | exception Found a -> (Sat a, !nodes, !props)
end

(* A transportation-like system of the key-generator shape, built from a
   known feasible point: [nj] cover equalities (one per T-partition column),
   [ni] row sums and [groups] overlapping prefix group sums. *)
let make_cp_system ~ni ~nj ~groups =
  let rng = Mirage_util.Rng.create (ni + (31 * nj) + (977 * groups)) in
  (* sparse feasible point with small values: keeps the zero-first DFS from
     thrashing, so the sweep measures propagation cost, not search blowup *)
  let point =
    Array.init (ni * nj) (fun _ ->
        if Mirage_util.Rng.int rng 3 = 0 then 1 + Mirage_util.Rng.int rng 3
        else 0)
  in
  (* domains wide enough that any one variable can absorb a whole column
     residual — search walks straight to the point's column sums while the
     capacity rows and group budgets below still fire on every change *)
  let col_sum j =
    let s = ref 0 in
    for i = 0 to ni - 1 do
      s := !s + point.((i * nj) + j)
    done;
    !s
  in
  let hi = ref 1 in
  for j = 0 to nj - 1 do
    if col_sum j + 1 > !hi then hi := col_sum j + 1
  done;
  let hi = !hi in
  let m = Mirage_cp.Cp.create () in
  let xs = Array.init (ni * nj) (fun _ -> Mirage_cp.Cp.var m ~lo:0 ~hi) in
  let naive = ref [] in
  let post_eq terms rhs =
    Mirage_cp.Cp.linear_eq m (List.map (fun (a, q) -> (a, xs.(q))) terms) rhs;
    naive := Naive_ref.Linear { terms; eq = true; rhs } :: !naive
  in
  let post_le terms rhs =
    Mirage_cp.Cp.linear_le m (List.map (fun (a, q) -> (a, xs.(q))) terms) rhs;
    naive := Naive_ref.Linear { terms; eq = false; rhs } :: !naive
  in
  let sum_of terms = List.fold_left (fun acc (_, q) -> acc + point.(q)) 0 terms in
  (* cover equalities: one per T-partition column (Eq. 3's exact row shares) *)
  for j = 0 to nj - 1 do
    let terms = List.init ni (fun i -> (1, (i * nj) + j)) in
    post_eq terms (sum_of terms)
  done;
  (* pool-capacity rows: each S-partition supplies at most its pool.  Slack
     covers the worst case of one full column residual landing in the row, so
     the rows prune hi bounds without ever blocking the straight-line walk. *)
  for i = 0 to ni - 1 do
    let terms = List.init nj (fun j -> (1, (i * nj) + j)) in
    post_le terms (sum_of terms + (nj * hi))
  done;
  (* JCC/JDC-style group budgets over disjoint contiguous blocks of the
     flattened partition grid *)
  let block = max 2 (ni * nj / max 1 groups) in
  for g = 0 to groups - 1 do
    let start = g * block in
    if start + block <= ni * nj then begin
      let terms = List.init block (fun q -> (1, start + q)) in
      post_le terms (sum_of terms + (block * hi))
    end
  done;
  let lo0 = Array.make (ni * nj) 0 and hi0 = Array.make (ni * nj) hi in
  (m, List.rev !naive, lo0, hi0)

let cpsolve () =
  header
    "CP kernel: event-driven watch-list propagation vs the naive full-sweep \
     fixpoint, on key-generator-shaped systems built from feasible points \
     (LP guide off in both — pure propagation + DFS).  Expected shape: \
     identical node counts (same search tree), propagations lower by the \
     constraint count's order, ratio growing with system size.";
  let sweep =
    [ (2, 4, 2); (4, 8, 4); (6, 12, 8); (8, 16, 12); (10, 24, 16) ]
  in
  pf "%-18s %6s %8s %10s %12s %12s %8s %12s %10s %10s\n%!" "system" "vars"
    "constrs" "nodes" "props" "naive-props" "ratio" "nodes/s" "time(us)"
    "naive(us)";
  List.iter
    (fun (ni, nj, groups) ->
      let m, naive_constrs, lo0, hi0 = make_cp_system ~ni ~nj ~groups in
      let max_nodes = 1_000_000 in
      let t0 = Unix.gettimeofday () in
      let outcome, st = Mirage_cp.Cp.solve ~max_nodes ~lp_guide:false m in
      let dt = Unix.gettimeofday () -. t0 in
      let tn0 = Unix.gettimeofday () in
      let naive_sol, naive_nodes, naive_props =
        Naive_ref.solve ~max_nodes naive_constrs lo0 hi0
      in
      let dtn = Unix.gettimeofday () -. tn0 in
      (match (outcome, naive_sol) with
      | Mirage_cp.Cp.Sat _, Naive_ref.Sat _ -> ()
      | o, no ->
          let show = function
            | Mirage_cp.Cp.Sat _ -> "Sat"
            | Unsat -> "Unsat"
            | Unknown -> "Unknown"
          and show_n = function
            | Naive_ref.Sat _ -> "Sat"
            | Unsat -> "Unsat"
            | Unknown -> "Unknown"
          in
          failwith
            (Printf.sprintf
               "cpsolve: kernel %s (%d nodes, %d restarts) vs naive %s (%d nodes)"
               (show o) st.Mirage_cp.Cp.st_nodes st.Mirage_cp.Cp.st_restarts
               (show_n no) naive_nodes));
      if st.Mirage_cp.Cp.st_restarts = 0 && st.Mirage_cp.Cp.st_nodes <> naive_nodes
      then
        failwith
          (Printf.sprintf "cpsolve: search trees diverged (%d vs %d nodes)"
             st.Mirage_cp.Cp.st_nodes naive_nodes);
      let label = Printf.sprintf "ni=%d,nj=%d,groups=%d" ni nj groups in
      let nvars = ni * nj and nconstrs = ni + nj + groups in
      let nodes_per_s = float_of_int st.Mirage_cp.Cp.st_nodes /. dt in
      Bench_json.record ~experiment:"cpsolve" ~workload:"synthetic" ~label
        ~domains:1 ~seconds:dt ~rows_per_s:nodes_per_s ~peak_mb:0.0
        ~cp_nodes:st.Mirage_cp.Cp.st_nodes ~cp_props:st.Mirage_cp.Cp.st_props
        ~cp_naive_props:naive_props ();
      pf "%-18s %6d %8d %10d %12d %12d %7.1fx %12.0f %10.0f %10.0f\n%!" label
        nvars nconstrs st.Mirage_cp.Cp.st_nodes st.Mirage_cp.Cp.st_props
        naive_props
        (float_of_int naive_props /. float_of_int (max 1 st.Mirage_cp.Cp.st_props))
        nodes_per_s (dt *. 1e6) (dtn *. 1e6))
    sweep

(* --- Bechamel micro-benchmarks ------------------------------------------- *)

(* A sparse LP shaped like the relaxation Cp.lp_guess builds for a key
   generator model over [k] structural variables: all-ones cover
   equalities, group sums [<= rhs] with a slack, [x - y - s = 0] rows and
   the bound rows [x + s = hi] and [x - s' = lo], with right-hand sides taken
   from a hidden integer point so the LP is feasible.  At k = 400 it has
   about 1 000 columns. *)
let lp_guess_shaped ~k =
  let rng = Mirage_util.Rng.create k in
  let x0 = Array.init k (fun _ -> Mirage_util.Rng.int rng 40) in
  let rows = ref [] and n = ref k in
  let add ?slack terms rhs =
    let terms =
      match slack with
      | None -> terms
      | Some coef ->
          incr n;
          (!n - 1, coef) :: terms
    in
    rows := (Array.of_list terms, float_of_int rhs) :: !rows
  in
  let ones vs = List.map (fun v -> (v, 1.0)) vs in
  let sum vs = List.fold_left (fun acc v -> acc + x0.(v)) 0 vs in
  let cover = 25 in
  for g = 0 to (k / cover) - 1 do
    let vs = List.init cover (fun i -> (g * cover) + i) in
    add (ones vs) (sum vs)
  done;
  for _ = 1 to k / 7 do
    let vs = List.sort_uniq compare (List.init 10 (fun _ -> Mirage_util.Rng.int rng k)) in
    add ~slack:1.0 (ones vs) (sum vs + Mirage_util.Rng.int rng 5)
  done;
  for _ = 1 to k / 10 do
    let x = Mirage_util.Rng.int rng k and y = Mirage_util.Rng.int rng k in
    if x <> y then begin
      let x, y = if x0.(x) >= x0.(y) then (x, y) else (y, x) in
      add ~slack:(-1.0) [ (x, 1.0); (y, -1.0) ] 0
    end
  done;
  for v = 0 to k - 1 do
    add ~slack:1.0 [ (v, 1.0) ] (x0.(v) + Mirage_util.Rng.int rng 3);
    if v mod 4 = 0 && x0.(v) > 0 then add ~slack:(-1.0) [ (v, 1.0) ] (x0.(v) - 1)
  done;
  let a, b = List.split (List.rev !rows) in
  let c = Array.init !n (fun v -> if v < k && v mod 3 = 0 then 1.0 else 0.0) in
  (Array.of_list a, Array.of_list b, c)

let micro () =
  header "Bechamel micro-benchmarks of the core primitives";
  let open Bechamel in
  let workload, ref_db, prod_env = make_workload (List.nth workloads 1) in
  let extraction = Extract.run workload ~ref_db ~prod_env in
  let ir = extraction.Extract.ir in
  let schema = workload.Workload.w_schema in
  let dom t c =
    match List.assoc_opt (t, c) ir.Mirage_core.Ir.column_cards with
    | Some d -> max 1 d
    | None -> 1
  in
  let table_rows t = List.assoc t ir.Mirage_core.Ir.table_cards in
  let test_decouple =
    Test.make ~name:"decouple-tpch-sccs"
      (Staged.stage (fun () ->
           ignore
             (Mirage_core.Decouple.run schema ~dom ~table_rows
                ir.Mirage_core.Ir.sccs)))
  in
  let capacities = Array.init 64 (fun i -> 100 + (17 * i mod 220)) in
  let sizes = Array.init 120 (fun i -> 1 + (i * 13 mod 97)) in
  let test_binpack =
    Test.make ~name:"binpack-best-fit-decreasing"
      (Staged.stage (fun () ->
           ignore (Mirage_binpack.Binpack.best_fit_decreasing ~capacities ~sizes)))
  in
  let test_cp =
    Test.make ~name:"cp-solve-transportation"
      (Staged.stage (fun () ->
           let m = Mirage_cp.Cp.create () in
           let xs =
             Array.init 12 (fun i ->
                 Mirage_cp.Cp.var m ~name:(string_of_int i) ~lo:0 ~hi:500)
           in
           Mirage_cp.Cp.linear_eq m (List.init 6 (fun i -> (1, xs.(i)))) 700;
           Mirage_cp.Cp.linear_eq m (List.init 6 (fun i -> (1, xs.(i + 6)))) 900;
           Mirage_cp.Cp.linear_eq m [ (1, xs.(0)); (1, xs.(6)) ] 320;
           Mirage_cp.Cp.linear_le m [ (1, xs.(1)); (1, xs.(7)) ] 260;
           ignore (Mirage_cp.Cp.solve m)))
  in
  let test_lp =
    let a, b, c = lp_guess_shaped ~k:400 in
    Test.make
      ~name:(Printf.sprintf "lp-guess-%dx%d" (Array.length a) (Array.length c))
      (Staged.stage (fun () -> ignore (Mirage_lp.Lp.solve ~a ~b ~c ())))
  in
  let test_join =
    Test.make ~name:"engine-join-tpch-q3"
      (Staged.stage (fun () ->
           let q = Workload.query workload "tpch_q3" in
           ignore (Mirage_engine.Exec.run ref_db ~env:prod_env q.Workload.q_plan)))
  in
  let test_like =
    Test.make ~name:"like-matcher"
      (Staged.stage (fun () ->
           ignore
             (Mirage_sql.Like.matches ~pattern:"%spec%requ%"
                "the special recurring requests")))
  in
  let tests =
    Test.make_grouped ~name:"mirage"
      [ test_decouple; test_binpack; test_cp; test_lp; test_join; test_like ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      instance raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> pf "%-36s %14.1f ns/run\n" name est
      | _ -> pf "%-36s (no estimate)\n" name)
    results;
  pf "%!"

(* --- entry point ---------------------------------------------------------- *)

let experiments =
  [
    ("table1", table1);
    ("fig11a", fun () -> fig11 (List.nth workloads 0));
    ("fig11b", fun () -> fig11 (List.nth workloads 1));
    ("fig11c", fun () -> fig11 (List.nth workloads 2));
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("ablate", ablate);
    ("scaleout", scaleout);
    ("speedup", speedup);
    ("sched", sched);
    ("replay", replay);
    ("micro", micro);
    ("cpsolve", cpsolve);
    ("emit", emit);
    ("chunked", chunked);
    ("outofcore", outofcore);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> f ()
          | None ->
              pf "unknown experiment %s; available: %s\n" n
                (String.concat " " (List.map fst experiments)))
        names
