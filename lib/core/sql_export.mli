(** Export the instantiated workload as standard SQL.

    The paper replays the instantiated workload on PostgreSQL; this module
    writes what a DBMS needs beside the CSV shards to do the same: DDL for
    the schema and the instantiated query templates rendered as SQL (PK–FK
    joins as INNER/LEFT JOIN, semi joins as EXISTS, anti joins as NOT
    EXISTS, FK projections as SELECT DISTINCT, aggregates as GROUP BY). *)

val write :
  dir:string -> workload:Workload.t -> env:Mirage_sql.Pred.Env.t -> unit
(** Writes [schema.sql] ({!ddl} of the workload's schema) and [queries.sql]
    ({!query_sql} of every query, each headed by a [-- name] comment, or
    that comment and the error for a query that cannot be rendered) into
    the existing directory [dir].
    @raise Sys_error on I/O errors. *)

(**/**)

(* Tested by test_core "ddl". *)
val ddl : Mirage_sql.Schema.t -> string
(** CREATE TABLE statements with primary/foreign keys. *)

(* Tested by test_core "query shapes" and "query aliases restart per call". *)
val query_sql :
  Mirage_relalg.Plan.t ->
  schema:Mirage_sql.Schema.t ->
  env:Mirage_sql.Pred.Env.t ->
  (string, string) result
(** The plan rendered as a SELECT statement with the environment's parameter
    values inlined, each spelt by {!Mirage_sql.Value.to_string}.  Subquery
    aliases are numbered [q1], [q2], ... afresh in each call, so the text
    depends on the plan alone.  Errors on unbound parameters. *)
