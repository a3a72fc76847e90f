(** Star Schema Benchmark (SSB): 5 tables, 13 queries in 4 flights
    (O'Neil et al.), authored as annotated-query-template plans.

    Base scale ([sf = 1.0]) is laptop-sized: 6 000 lineorder rows; [sf]
    scales the facts and the large dimensions linearly. *)

val make :
  sf:float ->
  seed:int ->
  Mirage_core.Workload.t * Mirage_engine.Db.t * Mirage_sql.Pred.Env.t
(** Returns the workload (schema + 13 query plans), a freshly generated
    production database, and the production parameter values. *)

(**/**)

(* Tested by test_workloads "typed refgen = boxed reference". *)
val specs : (string * (string * Refgen.col_spec) list) list
(** The production database's column specs per table, as passed to
    {!Refgen.build}. *)
