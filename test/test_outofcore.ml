(* Out-of-core heap bound.  TPC-H sf 3.2 is generated on one domain in
   4096-row chunks.  The OCaml major heap's high-water mark
   ([Gc.quick_stat]'s [top_heap_words]) must stay within 1.5x of the
   24.9 MB this case measured when the bound was set (the same in every
   run).

   What the bound catches, measured one process per run as live heap words
   sampled at the driver's stage boundaries (MB):
     4096-row chunks                           16.5
     one chunk per table                       16.6
     heap-resident columns (older builds)      47.3 chunked, 77.7 whole
   The high-water mark reads above the live words (24.9 against 17.0 MB
   for the chunked run), and the 37.4 MB bound stays below what
   heap-resident columns left live, so it fails if column payloads come
   back onto the OCaml heap.  The chunk size does not move it: it sets only
   the row-scan step, and at this scale the reference database, not the
   chunk, dominates the heap.

   This is its own executable because the high-water mark covers the whole
   process, so earlier cases in the same process would raise it. *)

module Driver = Mirage_core.Driver

let measured_mb = 24.9
let bound_mb = 1.5 *. measured_mb

let test_streamed_peak () =
  (* keep the heap near the live set, so the peak prices the working set
     rather than allocation churn between samples *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 40 };
  let workload, ref_db, prod_env = Mirage_workloads.Tpch.make ~sf:3.2 ~seed:7 in
  let config =
    { Driver.default_config with
      seed = 42;
      domains = 1;
      batch_size = 65_536;
      chunk_rows = Some 4096 }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok _ ->
      let words = (Gc.quick_stat ()).Gc.top_heap_words in
      let peak_mb = float_of_int (words * (Sys.word_size / 8)) /. 1_048_576.0 in
      Printf.printf "peak %.1f MB (bound %.1f MB)\n%!" peak_mb bound_mb;
      if peak_mb > bound_mb then
        Alcotest.failf "peak heap %.1f MB exceeds %.1f MB" peak_mb bound_mb

let () =
  Alcotest.run "outofcore"
    [
      ( "heap",
        [
          Alcotest.test_case "tpch sf 3.2 streamed peak heap" `Slow
            test_streamed_peak;
        ] );
    ]
