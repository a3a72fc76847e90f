(* Full TPC-H application simulation — the paper's headline result: all 22
   queries regenerated with a near-zero error bound.

   Run with:  dune exec examples/tpch_sim.exe [scale]   (default scale 0.2) *)

module Driver = Mirage_core.Driver
module Diag = Mirage_core.Diag
module Error = Mirage_core.Error

let () =
  let sf = try float_of_string Sys.argv.(1) with _ -> 0.2 in
  Printf.printf "building the TPC-H production environment at scale %.2f...\n%!" sf;
  let workload, ref_db, prod_env = Mirage_workloads.Tpch.make ~sf ~seed:7 in
  let t0 = Unix.gettimeofday () in
  match Driver.generate workload ~ref_db ~prod_env with
  | Error d ->
      prerr_endline ("generation failed: " ^ Mirage_core.Diag.to_string d)
  | Ok r ->
      let t = r.Driver.r_timings in
      (* t_total is generation alone: extraction and the bundle are the rest *)
      Printf.printf
        "generated in %.2fs (parse %.2fs, non-keys %.3fs, keys: status %.3fs + CP \
         %.3fs + populate %.3fs)\n"
        t.Driver.t_total
        (Unix.gettimeofday () -. t0 -. t.Driver.t_total)
        (t.Driver.t_decouple +. t.Driver.t_cdf +. t.Driver.t_gd +. t.Driver.t_acc)
        t.Driver.t_cs t.Driver.t_cp t.Driver.t_pf;
      List.iter
        (fun (d : Diag.t) ->
          if d.Diag.d_severity <> Diag.Info then
            Printf.printf "note: %s\n" (Diag.to_string d))
        r.Driver.r_diags;
      let errs = Driver.measure_errors r in
      Printf.printf "%-12s %s\n" "query" "relative error";
      List.iter
        (fun (e : Error.query_error) ->
          Printf.printf "%-12s %.5f%s\n" e.Error.qe_name e.Error.qe_relative
            (if e.Error.qe_relative = 0.0 then "  (exact)" else ""))
        errs;
      let exact =
        List.length (List.filter (fun (e : Error.query_error) -> e.Error.qe_relative = 0.0) errs)
      in
      Printf.printf "\n%d/22 queries reproduced exactly; worst case %.4f\n" exact
        (List.fold_left
           (fun acc (e : Error.query_error) -> max acc e.Error.qe_relative)
           0.0 errs)
