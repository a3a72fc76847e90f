(** Export the synthetic environment as standard SQL.

    The paper replays the instantiated workload on PostgreSQL; this module
    produces the artifacts to do the same with any DBMS: DDL for the schema,
    CSV-backed COPY/INSERT data, and the instantiated query templates
    rendered as SQL (PK–FK joins as INNER/LEFT JOIN, semi joins as EXISTS,
    anti joins as NOT EXISTS, FK projections as SELECT DISTINCT, aggregates
    as GROUP BY). *)

val export_chunked :
  ?backend:Mirage_engine.Sink.backend ->
  ?resume:bool ->
  ?interrupt:(unit -> unit) ->
  db:Mirage_engine.Db.t ->
  workload:Workload.t ->
  env:Mirage_sql.Pred.Env.t ->
  dir:string ->
  chunk_rows:int ->
  run_id:string ->
  unit ->
  int * int
(** Writes [schema.sql] ({!ddl}), [queries.sql] ({!query_sql} of every
    query) and the INSERT stream of every table ({!inserts}, in schema
    order) into [dir], creating it if needed.  The INSERT stream is emitted
    as shards [data.sql.0], [data.sql.1], … through a
    {!Mirage_engine.Sink} run — temp file + atomic rename + manifest
    checkpoint per shard.  With [chunk_rows = max_int] (unbounded) the
    whole stream is the one shard [data.sql.0]; otherwise each table is cut
    into shards of its own of at most [chunk_rows] rows (rounded down to
    whole 500-row INSERT batches, so no shard splits a statement).  The
    checkpoint is [MANIFEST.sql.json], so the CSV shard export's
    [MANIFEST.json] in the same directory keeps its entries.
    Concatenating the shards in index order gives the same bytes whatever
    [chunk_rows] is.  With [~resume:true] and a matching [run_id],
    committed shards are skipped without rendering.  Returns
    [(shards, resumed)].
    @raise Mirage_engine.Sink.Io_failure on I/O errors. *)

(**/**)

(* Tested by test_core "ddl". *)
val ddl : Mirage_sql.Schema.t -> string
(** CREATE TABLE statements with primary/foreign keys. *)

(* Tested by test_core "insert escaping". *)
val inserts : Mirage_engine.Db.t -> table:string -> string
(** Multi-row INSERT statements for one table (batches of 500 rows),
    rendered on the shared kernel ({!Mirage_engine.Render}): digits written
    in place, string pools SQL-escaped once per distinct entry, floats in
    the unified round-trip format. *)

(* Tested by test_core "query shapes" and "query aliases restart per call". *)
val query_sql :
  Mirage_relalg.Plan.t ->
  schema:Mirage_sql.Schema.t ->
  env:Mirage_sql.Pred.Env.t ->
  (string, string) result
(** The plan rendered as a SELECT statement with the environment's parameter
    values inlined.  Subquery aliases are numbered [q1], [q2], ... afresh
    in each call, so the text depends on the plan alone.  Errors on
    unbound parameters. *)
