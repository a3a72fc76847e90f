(* mirage-e2e: bundle-to-disk generation benchmark.

     main.exe run [--workload W]... [--seed N] [--seconds S]
                  [--trace 0|1] [--trace-file FILE] [--work DIR]
                  [--out FILE] [--smoke] [--spec BENCHMARK.json]
     main.exe compare [--spec BENCHMARK.json] A.json B.json
     main.exe setup --workload W [--seed N] [--trace 0|1] [--work DIR] [--smoke]

   [run] prints every metric with its unit, writes a result file, and ends
   its standard output with one JSON line
   {"correct", "attempted", "failed", "metrics"}; it exits 1 on any
   correctness failure.  [compare] judges two result files against the
   bounds in BENCHMARK.json and exits 1 on a regression.  [setup] is the
   child process in which [run] sets a workload up. *)

open Cmdliner

(* the resident pool width every workload runs on; clamped to the host *)
let domains_wanted = 2

(* set-ups per workload, and the fewest timed runs; setup_s is the set-ups'
   median *)
let setups = 3
let runs = 5

let fingerprint ~seed ~domains =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Runner.nproc ())));
      ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ( "cgroup_cpu_max",
        Json.Str
          (match Runner.read_lines "/sys/fs/cgroup/cpu.max" with l :: _ -> l | [] -> "absent") );
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("build_profile", Json.Str Build_profile.profile);
      ("seed", Json.Num (float_of_int seed));
      ("domains", Json.Num (float_of_int domains));
    ]

let print_outcome (o : Runner.outcome) =
  let w = o.Runner.w in
  Printf.printf "\n== %s: %s sf %g, copies %d%s, chunk_rows %d\n   %s\n" w.Runner.name
    w.Runner.family w.Runner.sf w.Runner.copies
    (if w.Runner.compress then ", gzip" else "")
    w.Runner.chunk_rows w.Runner.why;
  Printf.printf "   %-24s %-6s %12s %12s %12s %12s %12s %3s\n" "metric" "unit" "median" "p25" "p75"
    "min" "max" "n";
  let row ((mt : Metrics.metric), (s : Metrics.summary)) =
    Printf.printf "   %-24s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %3d\n" mt.Metrics.name
      mt.Metrics.unit_ s.Metrics.median s.Metrics.p25 s.Metrics.p75 s.Metrics.min s.Metrics.max
      s.Metrics.n
  in
  List.iter row o.Runner.end_to_end;
  Printf.printf "   %-24s %-6s %12.6g\n" "exact_frac" "ratio" o.Runner.exact_frac;
  Printf.printf "   %-24s %-6s %12.6g   (%d of %d runs)\n" "failed_frac" "ratio"
    (float_of_int o.Runner.failed /. float_of_int (max 1 o.Runner.attempted))
    o.Runner.failed o.Runner.attempted;
  if o.Runner.per_layer <> [] then begin
    Printf.printf "   -- per layer\n";
    List.iter row o.Runner.per_layer
  end;
  List.iter (fun p -> Printf.printf "   FAILED: %s\n" p) o.Runner.problems;
  flush stdout

let outcome_json ~domains (o : Runner.outcome) =
  let section xs = Json.Obj (List.map (fun (mt, s) -> (mt.Metrics.name, Metrics.summary_json mt s)) xs) in
  Json.Obj
    [
      ("name", Json.Str o.Runner.w.Runner.name);
      ("why", Json.Str o.Runner.w.Runner.why);
      ("args", Runner.args_json o.Runner.w ~domains);
      ("correct", Json.Bool (Runner.correct o));
      ("attempted", Json.Num (float_of_int o.Runner.attempted));
      ("failed", Json.Num (float_of_int o.Runner.failed));
      ("exact_frac", Json.Num o.Runner.exact_frac);
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) o.Runner.problems));
      ("end_to_end", section o.Runner.end_to_end);
      ("per_layer", section o.Runner.per_layer);
    ]

(* the one-line summary, from the result file's workload objects: with one
   workload, metrics go by their plain names; with several, each name is
   prefixed by its workload *)
let summary_line ~trace workloads =
  let single = List.length workloads = 1 in
  let metrics =
    List.concat_map
      (fun w ->
        List.map
          (fun (m, s) ->
            ( (if single then m else Json.to_str (Json.member "name" w) ^ "." ^ m),
              Json.Obj [ ("value", Json.member "median" s); ("unit", Json.member "unit" s) ] ))
          (Json.to_assoc (Json.member (if trace then "per_layer" else "end_to_end") w)))
      workloads
  in
  let sum k = Json.Num (List.fold_left (fun a w -> a +. Json.to_num (Json.member k w)) 0.0 workloads) in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all (fun w -> Json.member "correct" w = Json.Bool true) workloads));
         ("attempted", sum "attempted");
         ("failed", sum "failed");
         ("metrics", Json.Obj metrics);
       ])

(* runs this executable with [args] and waits for it to end *)
let spawn args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  snd (Unix.waitpid [] (Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr))

let exit_problem what = function
  | Unix.WEXITED c -> Printf.sprintf "%s exited with code %d" what c
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "%s killed by signal %d" what n

let find_workload n =
  match List.find_opt (fun w -> w.Runner.name = n) Runner.workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "benchmark: unknown workload %s\n" n;
      exit 2

(* Several workloads run one child process each: OCaml 5.1 never returns
   heap to the OS, so in one process a workload's peak RSS would include
   the heap an earlier workload left mapped. *)
let run_child (w : Runner.workload) ~args ~work =
  let out = Filename.concat work (w.Runner.name ^ ".json") in
  Runner.rm_rf out;
  let status =
    spawn
      ([ "run"; "--workload"; w.Runner.name; "--out"; out; "--trace-file";
         Filename.concat work (w.Runner.name ^ ".trace.json") ]
      @ args)
  in
  let crashed why =
    Json.Obj
      [
        ("name", Json.Str w.Runner.name);
        ("correct", Json.Bool false);
        ("attempted", Json.Num 1.0);
        ("failed", Json.Num 1.0);
        ("problems", Json.Arr [ Json.Str why ]);
        ("end_to_end", Json.Obj []);
        ("per_layer", Json.Obj []);
      ]
  in
  match status with
  | Unix.WEXITED (0 | 1) -> (
      match Json.to_list (Json.member "workloads" (Json.read_file out)) with
      | [ r ] -> r
      | _ | (exception (Json.Parse_error _ | Sys_error _)) -> crashed "no result from child")
  | status -> crashed (exit_problem "child" status)

(* the [setup] command: one workload's set-ups, left in [work] for [run] *)
let setup_one name seed trace work smoke =
  let w = find_workload name in
  let w = if smoke then Runner.smoke w else w in
  Runner.prepare w ~seed ~setups:(if smoke then 1 else setups) ~trace:(trace <> 0) ~work;
  0

let run names seed seconds trace trace_file work out smoke spec =
  let spec_problems =
    match spec with None -> [] | Some path -> Metrics.check_spec (Json.read_file path)
  in
  List.iter (fun p -> Printf.eprintf "benchmark: spec mismatch: %s\n" p) spec_problems;
  let selected = if names = [] then Runner.workloads else List.map find_workload names in
  let traced = trace <> 0 in
  let domains = max 1 (min domains_wanted (Runner.nproc ())) in
  Mirage_util.Fsutil.mkdir_p ~fail:(fun m -> Failure m) work;
  let host = fingerprint ~seed ~domains in
  Printf.printf "mirage-e2e: %s\n%!" (Json.to_string host);
  let trace_file = Option.value trace_file ~default:(Filename.concat work "trace.json") in
  let workloads =
    match selected with
    | [ w ] ->
        (* the set-ups run in a child process, so this one never maps the
           production DB's heap and peak RSS prices generation alone *)
        let status =
          spawn
            ([ "setup"; "--workload"; w.Runner.name; "--seed"; string_of_int seed; "--trace";
               string_of_int trace; "--work"; work ]
            @ if smoke then [ "--smoke" ] else [])
        in
        let w = if smoke then Runner.smoke w else w in
        let o =
          match status with
          | Unix.WEXITED 0 ->
              let bundle, prepared = Runner.take_prepared w ~work in
              let ctx =
                {
                  Runner.pool = Mirage_par.Par.get ~domains ();
                  domains;
                  seed = Runner.seed_of w seed;
                  out = Filename.concat work ("out-" ^ w.Runner.name);
                }
              in
              Runner.bench ctx w bundle prepared ~runs ~seconds ~trace:traced ~smoke
          | status -> Runner.failed_setup w (exit_problem "set-up process" status)
        in
        print_outcome o;
        if traced then Trace.write_chrome trace_file ~process:w.Runner.name;
        [ outcome_json ~domains o ]
    | ws ->
        let args =
          [ "--seed"; string_of_int seed; "--seconds"; string_of_float seconds; "--trace";
            string_of_int trace; "--work"; work ]
          @ if smoke then [ "--smoke" ] else []
        in
        let results = List.map (fun w -> run_child w ~args ~work) ws in
        if traced then
          Trace.merge trace_file
            (List.map (fun w -> Filename.concat work (w.Runner.name ^ ".trace.json")) ws);
        results
  in
  let out = match out with Some f -> f | None -> Filename.concat work "result.json" in
  Json.write_file out
    (Json.Obj
       [
         ("benchmark", Json.Str "mirage-e2e");
         ("host", host);
         ("trace", Json.Bool traced);
         ("smoke", Json.Bool smoke);
         ("workloads", Json.Arr workloads);
       ]);
  Printf.printf "\nwrote %s\n" out;
  if traced then Printf.printf "wrote %s\n" trace_file;
  print_endline (summary_line ~trace:traced workloads);
  if spec_problems = [] && List.for_all (fun w -> Json.member "correct" w = Json.Bool true) workloads
  then 0
  else 1

(* --- compare ------------------------------------------------------------------ *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* A median that worsens beyond the bound regresses; one that improves by
   more than A's own spread improves.  When either side's spread is wider
   than the bound, the two sets cannot tell a regression from noise. *)
let judge ~better ~bound (a : Metrics.summary) (b : Metrics.summary) =
  let spread (s : Metrics.summary) = (s.Metrics.p75 -. s.Metrics.p25) /. Float.abs s.Metrics.median in
  let change = (b.Metrics.median -. a.Metrics.median) /. Float.abs a.Metrics.median in
  let worse = match better with Metrics.Lower -> change | Metrics.Higher -> -.change in
  let verdict =
    if spread a > bound || spread b > bound then Unresolved
    else if worse > bound then Regressed
    else if -.worse > spread a then Improved
    else Unchanged
  in
  (change, verdict)

let compare_files spec_path a_path b_path =
  let spec = Json.read_file spec_path in
  let bounds =
    List.map
      (fun j -> (Json.to_str (Json.member "name" j), Json.to_num (Json.member "bound" j)))
      (Json.to_list (Json.member "end_to_end" spec))
  in
  let workloads path =
    List.map
      (fun w -> (Json.to_str (Json.member "name" w), w))
      (Json.to_list (Json.member "workloads" (Json.read_file path)))
  in
  let a = workloads a_path and b = workloads b_path in
  Printf.printf "A = %s\nB = %s\n" a_path b_path;
  Printf.printf "%-12s %-13s %-5s %11s %9s %11s %9s %8s  %s\n" "workload" "metric" "unit" "A median"
    "A IQR" "B median" "B IQR" "change" "verdict";
  let regressed = ref false in
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name b with
      | None -> Printf.printf "%-12s missing from B\n" name
      | Some wb ->
          if Json.member "correct" wb <> Json.Bool true then begin
            regressed := true;
            Printf.printf "%-12s %-13s %s\n" name "correct" "regressed (B failed its correctness gate)"
          end;
          List.iter
            (fun (mt : Metrics.metric) ->
              let get w = Json.member mt.Metrics.name (Json.member "end_to_end" w) in
              match (get wa, get wb, List.assoc_opt mt.Metrics.name bounds) with
              | (Json.Obj _ as ja), (Json.Obj _ as jb), Some bound ->
                  let sa = Metrics.summary_of_json ja and sb = Metrics.summary_of_json jb in
                  let change, v = judge ~better:mt.Metrics.better ~bound sa sb in
                  if v = Regressed then regressed := true;
                  Printf.printf "%-12s %-13s %-5s %11.5g %9.3g %11.5g %9.3g %+7.1f%%  %s (bound %g%%)\n"
                    name mt.Metrics.name mt.Metrics.unit_ sa.Metrics.median
                    (sa.Metrics.p75 -. sa.Metrics.p25) sb.Metrics.median
                    (sb.Metrics.p75 -. sb.Metrics.p25) (100.0 *. change) (verdict_name v)
                    (100.0 *. bound)
              | _ -> Printf.printf "%-12s %-13s missing\n" name mt.Metrics.name)
            Metrics.end_to_end)
    a;
  if !regressed then 1 else 0

(* --- command line ------------------------------------------------------------ *)

let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")

let trace_arg =
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1"
         ~doc:"1 alternates untraced and traced runs and reports the per-layer metrics.")

let work_arg =
  Arg.(value & opt string "_benchmark" & info [ "work" ] ~docv:"DIR"
         ~doc:"Directory for bundles, generated output and results.")

let smoke_arg =
  Arg.(value & flag & info [ "smoke" ] ~doc:"Every workload at 1/64 scale, one run, no warm-up.")

let run_cmd =
  let names =
    Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME"
           ~doc:"Workload to run (repeatable; default: all four).")
  in
  let seconds =
    Arg.(value & opt float 0.0 & info [ "seconds" ] ~docv:"S"
           ~doc:"Minimum seconds of timed runs per workload.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE"
           ~doc:"Chrome trace-event output (default: WORK/trace.json).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Result file (default: WORK/result.json).")
  in
  let spec =
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE"
           ~doc:"Check the metric catalogue against this BENCHMARK.json.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run the benchmark.")
    Term.(const run $ names $ seed_arg $ seconds $ trace_arg $ trace_file $ work_arg $ out
          $ smoke_arg $ spec)

let setup_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to set up.")
  in
  Cmd.v
    (Cmd.info "setup" ~doc:"Run one workload's set-ups and leave the bundle in WORK; $(b,run) calls this.")
    Term.(const setup_one $ workload $ seed_arg $ trace_arg $ work_arg $ smoke_arg)

let compare_cmd =
  let spec =
    Arg.(value & opt string "BENCHMARK.json" & info [ "spec" ] ~docv:"FILE" ~doc:"Bounds file.")
  in
  let file n = Arg.(required & pos n (some string) None & info [] ~docv:(if n = 0 then "A" else "B")) in
  Cmd.v (Cmd.info "compare" ~doc:"Compare two result files against the bounds.")
    Term.(const compare_files $ spec $ file 0 $ file 1)

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "mirage-e2e" ~doc:"Bundle-to-disk generation benchmark.") [ run_cmd; setup_cmd; compare_cmd ]))
