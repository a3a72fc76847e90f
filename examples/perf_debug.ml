(* Performance debugging (the paper's second motivating scenario, §1).

   A database team sees a slow query in production but cannot take the data
   out.  They export the execution metrics — plans plus per-operator output
   sizes — and regenerate the data processing environment with Mirage.  The
   regression reproduces on the synthetic database because the operator
   cardinalities (and hence the work each operator does) are preserved.

   Here the "regression" is a selective-looking filter that actually matches
   a huge fraction of lineitem, making the join explode.  We show that the
   replayed latency on the synthetic database tracks production latency.

   Run with:  dune exec examples/perf_debug.exe *)

module Plan = Mirage_relalg.Plan
module Parser = Mirage_sql.Parser
module Db = Mirage_engine.Db
module Exec = Mirage_engine.Exec
module Workload = Mirage_core.Workload
module Driver = Mirage_core.Driver
module Error = Mirage_core.Error

let () =
  (* the production application: TPC-H at a laptop scale *)
  let workload, ref_db, prod_env = Mirage_workloads.Tpch.make ~sf:0.3 ~seed:99 in
  (* the problematic query: Q3-shaped, whose date filters barely filter *)
  let slow_query =
    {
      Workload.q_name = "regressed_q3";
      q_plan =
        Plan.Join
          {
            jt = Plan.Inner;
            pk_table = "orders";
            fk_table = "lineitem";
            fk_col = "l_orderkey";
            left =
              Plan.Join
                {
                  jt = Plan.Inner;
                  pk_table = "customer";
                  fk_table = "orders";
                  fk_col = "o_custkey";
                  left = Plan.Table "customer";
                  right =
                    Plan.Select (Parser.pred "o_orderdate < $pd_d", Plan.Table "orders");
                };
            right = Plan.Select (Parser.pred "l_shipdate > $pd_d2", Plan.Table "lineitem");
          };
    }
  in
  let workload =
    Workload.make workload.Workload.w_schema
      (workload.Workload.w_queries @ [ slow_query ])
  in
  let prod_env =
    Mirage_sql.Pred.Env.add_scalar "pd_d" (Mirage_sql.Value.Int 2300)
      (Mirage_sql.Pred.Env.add_scalar "pd_d2" (Mirage_sql.Value.Int 100) prod_env)
  in
  print_endline "extracting execution metrics from production and regenerating...";
  match Driver.generate workload ~ref_db ~prod_env with
  | Error d ->
      prerr_endline ("generation failed: " ^ Mirage_core.Diag.to_string d)
  | Ok r ->
      let aqts = r.Driver.r_aqts in
      let lats =
        Error.latencies ~aqts ~ref_db ~prod_env ~synth_db:r.Driver.r_db
          ~synth_env:r.Driver.r_env ~repeat:3
      in
      Printf.printf "%-16s %12s %12s\n" "query" "prod(ms)" "synthetic(ms)";
      let interesting = [ "tpch_q1"; "tpch_q3"; "tpch_q6"; "regressed_q3" ] in
      List.iter
        (fun (l : Error.latency) ->
          if List.mem l.Error.lat_name interesting then
            Printf.printf "%-16s %12.2f %12.2f\n" l.Error.lat_name
              (1000.0 *. l.Error.lat_ref)
              (1000.0 *. l.Error.lat_synth))
        lats;
      let reg = List.find (fun (l : Error.latency) -> l.Error.lat_name = "regressed_q3") lats in
      let q6 = List.find (fun (l : Error.latency) -> l.Error.lat_name = "tpch_q6") lats in
      Printf.printf
        "\nthe regression reproduces without production data: regressed_q3 runs %.1fx \
         slower than the cheap tpch_q6 in production, and %.1fx slower on the \
         regenerated environment — the expensive query stays expensive, so the \
         developers can debug it offline.\n"
        (reg.Error.lat_ref /. q6.Error.lat_ref)
        (reg.Error.lat_synth /. q6.Error.lat_synth);
      let errs = Driver.measure_errors r in
      let reg_err =
        List.find (fun (e : Error.query_error) -> e.Error.qe_name = "regressed_q3") errs
      in
      Printf.printf "regressed_q3 cardinality error on the synthetic database: %.5f\n"
        reg_err.Error.qe_relative
