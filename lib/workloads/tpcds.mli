(** TPC-DS-style snowstorm workload: 3 fact tables (store / catalog / web
    sales) over 6 dimensions, and 100 distinct queries generated from 20
    parameterised families (5 instances each — the grouping granularity the
    paper uses in Fig. 11c).  Eleven families carry disjunctive predicates
    (55 queries), which is what separates the baselines' support levels on
    this workload; all joins are equi joins, so the key generator sees only
    JCC constraints (as the paper notes for TPC-DS in Fig. 15).

    See DESIGN.md for why this stands in for the official 100-query set. *)

val make :
  sf:float ->
  seed:int ->
  Mirage_core.Workload.t * Mirage_engine.Db.t * Mirage_sql.Pred.Env.t

(**/**)

(* Tested by test_workloads "typed refgen = boxed reference". *)
val specs : (string * (string * Refgen.col_spec) list) list
(** The production database's column specs per table, as passed to
    {!Refgen.build}. *)
