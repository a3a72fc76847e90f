(* The deployment workflow (§1 of the paper):

     production side                      development side
     ───────────────                      ────────────────
     workload parser reads the real      loads the bundle (never sees a
     database and writes a *constraint    production row), regenerates the
     bundle* — schema, templates,         environment, and exports SQL for
     cardinalities, parameter values      any DBMS

   Run with:  dune exec examples/bundle_workflow.exe *)

module Driver = Mirage_core.Driver
module Bundle = Mirage_core.Bundle
module Extract = Mirage_core.Extract

let () =
  (* ---- production side ---- *)
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.5 ~seed:7 in
  let extraction = Extract.run workload ~ref_db ~prod_env in
  let bundle = Bundle.of_extraction workload extraction ~prod_env in
  let path = Filename.temp_file "ssb" ".bundle" in
  Bundle.save bundle ~path;
  Printf.printf "production side wrote %s (%d bytes) — no rows inside\n" path
    (let ic = open_in path in
     let n = in_channel_length ic in
     close_in ic;
     n);

  (* ---- development side: only the bundle file crosses the boundary ---- *)
  match Bundle.load ~path with
  | Error m -> prerr_endline ("bad bundle: " ^ m)
  | Ok loaded -> (
      match Driver.generate_from_bundle loaded with
      | Error d ->
          prerr_endline ("generation failed: " ^ Mirage_core.Diag.to_string d)
      | Ok r ->
          Printf.printf "development side regenerated the environment in %.3fs\n"
            r.Driver.r_timings.Driver.t_total;
          (* verify against the production annotations (possible here only
             because this example owns both sides) *)
          let errs =
            Mirage_core.Error.measure ~aqts:extraction.Extract.aqts ~db:r.Driver.r_db
              ~env:r.Driver.r_env
          in
          List.iter
            (fun (e : Mirage_core.Error.query_error) ->
              Printf.printf "  %-10s relative error %.5f\n" e.Mirage_core.Error.qe_name
                e.Mirage_core.Error.qe_relative)
            errs;
          (* export for a real DBMS *)
          let dir = Filename.temp_file "ssb_sql" "" in
          Sys.remove dir;
          ignore
            (Mirage_core.Sql_export.export_chunked ~db:r.Driver.r_db
               ~workload:loaded.Bundle.b_workload ~env:r.Driver.r_env ~dir
               ~chunk_rows:max_int ~run_id:"ssb" ());
          Printf.printf
            "wrote %s/{schema,queries}.sql and %s/data.sql.0 — load into any DBMS\n"
            dir dir)
