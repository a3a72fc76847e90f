(* Quickstart: regenerate a two-table application from its cardinality
   constraints.

   We play both roles: first we build a tiny "production" database (which a
   real deployment would never expose), then we hand Mirage only what a DBA
   could legally export — the schema, the annotated query templates and the
   production parameter values — and let it produce a synthetic database
   plus new parameters that reproduce every operator cardinality.

   Run with:  dune exec examples/quickstart.exe *)

module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Parser = Mirage_sql.Parser
module Plan = Mirage_relalg.Plan
module Db = Mirage_engine.Db
module Workload = Mirage_core.Workload
module Driver = Mirage_core.Driver
module Error = Mirage_core.Error

(* 1. the schema: customers and their orders *)
let schema =
  Schema.make
    [
      {
        Schema.tname = "customer";
        pk = "c_id";
        nonkeys =
          [
            { Schema.cname = "c_segment"; domain_size = 5; kind = Schema.Kstring };
            { Schema.cname = "c_balance"; domain_size = 500; kind = Schema.Kint };
          ];
        fks = [];
        row_count = 1_000;
      };
      {
        Schema.tname = "orders";
        pk = "o_id";
        nonkeys =
          [
            { Schema.cname = "o_date"; domain_size = 365; kind = Schema.Kint };
            { Schema.cname = "o_amount"; domain_size = 1_000; kind = Schema.Kint };
          ];
        fks = [ { Schema.fk_col = "o_cust"; references = "customer" } ];
        row_count = 8_000;
      };
    ]

(* 2. the query templates, annotated with parameters ($name) *)
let q_recent_big_spenders =
  (* customers of a segment joined with their recent large orders *)
  Plan.Join
    {
      jt = Plan.Inner;
      pk_table = "customer";
      fk_table = "orders";
      fk_col = "o_cust";
      left = Plan.Select (Parser.pred "c_segment = $seg", Plan.Table "customer");
      right =
        Plan.Select (Parser.pred "o_date > $since and o_amount >= $min", Plan.Table "orders");
    }

let q_dormant_customers =
  (* anti join: customers with a balance but no orders at all *)
  Plan.Join
    {
      jt = Plan.Left_anti;
      pk_table = "customer";
      fk_table = "orders";
      fk_col = "o_cust";
      left = Plan.Select (Parser.pred "c_balance > $bal", Plan.Table "customer");
      right = Plan.Table "orders";
    }

let workload =
  Workload.make schema
    [
      { Workload.q_name = "recent_big_spenders"; q_plan = q_recent_big_spenders };
      { Workload.q_name = "dormant_customers"; q_plan = q_dormant_customers };
    ]

(* 3. a stand-in production database (normally this is the real system) *)
let production () =
  Mirage_workloads.Refgen.build ~seed:123 schema
    ~specs:
      [
        ( "customer",
          [
            ("c_segment", Mirage_workloads.Refgen.Cat_string ("SEG", 5));
            ("c_balance", Mirage_workloads.Refgen.Skewed_int (500, 1.4));
          ] );
        ( "orders",
          [
            ("o_date", Mirage_workloads.Refgen.Date_int 365);
            ("o_amount", Mirage_workloads.Refgen.Skewed_int (1_000, 1.2));
          ] );
      ]

let prod_env =
  Pred.Env.of_list
    [
      ("seg", Pred.Env.Scalar (Value.Str "SEG#00002"));
      ("since", Pred.Env.Scalar (Value.Int 300));
      ("min", Pred.Env.Scalar (Value.Int 250));
      ("bal", Pred.Env.Scalar (Value.Int 400));
    ]

let () =
  let ref_db = production () in
  Printf.printf "production: %d customers, %d orders\n"
    (Db.row_count ref_db "customer") (Db.row_count ref_db "orders");
  match Driver.generate workload ~ref_db ~prod_env with
  | Error d ->
      prerr_endline ("generation failed: " ^ Mirage_core.Diag.to_string d)
  | Ok r ->
      Printf.printf "generated synthetic database in %.3fs\n"
        r.Driver.r_timings.Driver.t_total;
      (* the instantiated workload W' *)
      print_endline "instantiated parameters:";
      List.iter
        (fun (p, b) -> Printf.printf "  $%s = %s\n" p (Pred.Env.binding_to_string b))
        (Pred.Env.bindings r.Driver.r_env);
      (* replay: every annotated cardinality must be reproduced *)
      print_endline "replaying the workload on the synthetic database:";
      List.iter
        (fun (e : Error.query_error) ->
          Printf.printf "  %-22s relative error = %.5f  (views: %s vs %s)\n"
            e.Error.qe_name e.Error.qe_relative
            (String.concat "," (List.map string_of_int e.Error.qe_expected))
            (String.concat "," (List.map string_of_int e.Error.qe_actual)))
        (Driver.measure_errors r);
      (* export a sample of the synthetic data *)
      let csv = Db.to_csv r.Driver.r_db "customer" in
      let preview = String.split_on_char '\n' csv |> List.filteri (fun i _ -> i < 5) in
      print_endline "synthetic customer sample:";
      List.iter (fun l -> Printf.printf "  %s\n" l) preview
