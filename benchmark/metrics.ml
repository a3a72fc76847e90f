(* The metric catalogue and the statistics every metric is reported with.
   Names, units and directions here must match BENCHMARK.json; the smoke run
   checks that they do. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* what a user of the extract -> from-bundle deployment waits for and pays *)
let end_to_end =
  [
    m "wall_s" "s" Lower;
    m "raw_mb_per_s" "MB/s" Higher;
    m "cpu_s" "s" Lower;
    m "peak_rss_mb" "MB" Lower;
    m "setup_s" "s" Lower;
  ]

(* one group per layer, measured from the benchmark around the layer's
   public entry points; README.md says which end-to-end metric each moves *)
let per_layer =
  [
    m "setup.refgen_s" "s" Lower;
    m "setup.extract_s" "s" Lower;
    m "setup.bundle_s" "s" Lower;
    m "driver.decouple_s" "s" Lower;
    m "driver.cdf_s" "s" Lower;
    m "driver.gd_s" "s" Lower;
    m "driver.nonkey_s" "s" Lower;
    m "driver.unattributed_s" "s" Lower;
    m "keygen.cs_s" "s" Lower;
    m "keygen.pf_s" "s" Lower;
    m "keygen.batch_alloc_mb" "MB" Lower;
    m "cp.solve_s" "s" Lower;
    m "cp.solves" "count" Lower;
    m "cp.nodes" "count" Lower;
    m "cp.props" "count" Lower;
    m "cp.restarts" "count" Lower;
    m "cp.cache_hits" "count" Higher;
    m "cp.cache_hit_ratio" "ratio" Higher;
    m "export.live_s" "s" Lower;
    m "export.live_tables" "count" Higher;
    m "export.finish_s" "s" Lower;
    m "export.shards" "count" Lower;
    m "export.raw_mb" "MB" Lower;
    m "export.disk_mb" "MB" Lower;
    m "export.gz_ratio" "ratio" Lower;
    m "sink.open_s" "s" Lower;
    m "sink.write_s" "s" Lower;
    m "sink.write_calls" "count" Lower;
    m "sink.write_mb" "MB" Lower;
    m "sink.close_s" "s" Lower;
    m "sink.rename_s" "s" Lower;
    m "sink.renames" "count" Lower;
    m "par.utilization" "ratio" Higher;
    m "gc.minor_collections" "count" Lower;
    m "gc.major_collections" "count" Lower;
    m "verify.replay_s" "s" Lower;
    m "verify.readback_s" "s" Lower;
    m "trace.overhead_frac" "ratio" Lower;
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"

type summary = {
  median : float;
  p25 : float;
  p75 : float;
  min : float;
  max : float;
  n : int;
}

let summarize values =
  let a = Array.of_list values in
  let q = Mirage_util.Stats.percentile a in
  {
    median = q 0.5;
    p25 = q 0.25;
    p75 = q 0.75;
    min = q 0.0;
    max = q 1.0;
    n = Array.length a;
  }

let summary_json (mt : metric) s =
  Json.Obj
    [
      ("unit", Json.Str mt.unit_);
      ("better", Json.Str (better_name mt.better));
      ("median", Json.Num s.median);
      ("p25", Json.Num s.p25);
      ("p75", Json.Num s.p75);
      ("min", Json.Num s.min);
      ("max", Json.Num s.max);
      ("n", Json.Num (float_of_int s.n));
    ]

let summary_of_json j =
  let f k = Json.to_num (Json.member k j) in
  {
    median = f "median";
    p25 = f "p25";
    p75 = f "p75";
    min = f "min";
    max = f "max";
    n = int_of_float (f "n");
  }

(* The catalogue must agree with BENCHMARK.json: same names, units and
   directions, in both sections.  Returns one line per disagreement. *)
let check_spec spec =
  let section key ours =
    let theirs =
      List.map
        (fun j ->
          ( Json.to_str (Json.member "name" j),
            (Json.to_str (Json.member "unit" j), Json.to_str (Json.member "better" j)) ))
        (Json.to_list (Json.member key spec))
    in
    List.filter_map
      (fun mt ->
        match List.assoc_opt mt.name theirs with
        | None -> Some (Printf.sprintf "%s: %s missing from BENCHMARK.json" key mt.name)
        | Some (u, b) when u <> mt.unit_ || b <> better_name mt.better ->
            Some (Printf.sprintf "%s: %s is %s/%s in BENCHMARK.json, %s/%s here" key
                    mt.name u b mt.unit_ (better_name mt.better))
        | Some _ -> None)
      ours
    @ List.filter_map
        (fun (name, _) ->
          if List.exists (fun mt -> mt.name = name) ours then None
          else Some (Printf.sprintf "%s: %s is not produced by the benchmark" key name))
        theirs
  in
  section "end_to_end" end_to_end @ section "per_layer" per_layer
