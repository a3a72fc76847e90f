(** Linear scale-out of a generated database (the paper's terabyte-generation
    claim, §8.1.2).

    A generated database [D'] is {e tiled}: copy [t] shifts every primary key
    and foreign key by [t·|R|], keeping each tile self-contained.  Every
    selection cardinality, join cardinality and join-distinct count scales
    exactly by the number of copies, so an instantiated workload whose
    constraints are multiplied by [copies] replays exactly on the tiled
    database; non-key domain sizes stay at the base size (value multisets are
    repeated).

    The live shard export below is the one CSV writer: each table goes to
    disk as shard files of whole tiles, so writing needs memory
    proportional to one shard window per domain regardless of the target
    size.  An unbounded chunk ([chunk_rows = max_int]) writes one shard per
    table, [<table>.csv.0].

    {2 Templated rendering}

    Because tiles differ only at key cells, the writer renders each base
    row {e once} into a line template: fixed byte fragments (non-key cells,
    separators, newlines — pre-escaped) with a splice point per non-null key
    cell.  Emitting tile [t] alternates fragment memcpys with in-place
    {!Mirage_engine.Render.Buf.itoa} of the shifted keys, so per-tile cost is
    O(bytes + rows·key_cols) with zero per-cell allocation, instead of
    re-rendering O(rows·cols) cells through [string_of_int].  Templates are
    immutable and shared read-only by the export's domains.  The tests hold
    the output byte-identical to a per-cell reference renderer for every
    domain count, copy count and chunk size. *)

type chunk_report = {
  cr_shards : int;  (** shard files the export comprises, across tables *)
  cr_resumed : int;  (** shards skipped because the manifest had them *)
  cr_bytes : int;  (** bytes written by this process (excludes resumed) *)
  cr_tables : (string * (int * int)) list;
      (** per table in schema order: (raw CSV bytes, bytes on disk) summed
          over the manifest's committed shards — identical numbers unless
          compression is on *)
}

(** {2 Live (per-table) export}

    The driver's [on_table_ready] hook ({!Driver.config}) exports a
    table the moment its last FK edge commits, while later edges still
    generate.  These four calls are the CSV writer: an open /
    export-table / finish protocol with an abort hook for dead generation
    attempts.  Exporting a finished database is [open_csv_export] followed
    by [finish_csv_export], which exports every table in schema order. *)

type live_export
(** An open export run accepting tables one at a time. *)

val open_csv_export :
  ?pool:Mirage_par.Par.pool ->
  ?backend:Mirage_engine.Sink.backend ->
  ?resume:bool ->
  ?compress:bool ->
  ?interrupt:(unit -> unit) ->
  copies:int ->
  chunk_rows:int ->
  dir:string ->
  run_id:string ->
  unit ->
  live_export
(** Open the sink (creating [dir] and missing parents, loading the manifest
    under [~resume]) before generation starts.  The shard layout is
    computed lazily at the first {!export_table} call — row counts are
    final once key generation starts.

    Each table is emitted as shard files [<table>.csv.0], [<table>.csv.1],
    … of at most [chunk_rows] rows' worth of tiles each (at least one tile
    per shard; [chunk_rows = max_int] gives one shard per table), through a
    {!Mirage_engine.Sink} run — temp file + atomic rename + manifest
    checkpoint per shard.  Shard 0 carries the CSV header, so concatenating
    a table's shards in index order gives the whole table's CSV: [copies]
    tiles, cells in the shared render-kernel policy (RFC-4180 quoting only
    where required, round-trip floats
    {!Mirage_engine.Render.float_repr}).

    With [~compress:true] every shard is a gzip member named
    [<table>.csv.<k>.gz] ({!Mirage_engine.Gz}); concatenating a table's
    shards yields a valid multi-member gzip file whose decompression is the
    uncompressed CSV, and the manifest records both raw and compressed
    sizes.

    With [~resume:true] and a matching [run_id], shards recorded in
    [dir/MANIFEST.json] are skipped without rendering, and the remaining
    shards come out byte-identical to an uninterrupted run (rendering is
    deterministic per shard).  [run_id] must encode everything that changes
    the bytes (seed, scale, chunk size, compression).  [interrupt] is
    polled before every shard and every tile window.

    Shards are the unit of parallelism: each domain of [pool] claims whole
    shards and renders, compresses and writes each through its own
    {!Mirage_engine.Sink.write_shard}, so shard files, names and the
    manifest are identical for every domain count.  A failure (I/O error,
    [interrupt] raising) stops further claims; only committed,
    size-verified shards stay in the manifest and no temp file is left.

    Tables larger than [chunk_rows] rows never materialize a whole-table
    template: their shards are single tiles (the layout guarantees it), and
    each tile streams through per-chunk templates built over
    {!Chunk_plan.ranges} row windows — resident bytes stay O(chunk) per
    domain while the concatenated output is unchanged.
    @raise Mirage_engine.Sink.Io_failure if [dir] cannot be created.
    @raise Invalid_argument if [copies < 1] or [chunk_rows < 1]. *)

val export_table : live_export -> db:Mirage_engine.Db.t -> string -> unit
(** Render and commit every shard of one table (skipping shards the
    manifest already has).  The pending shards are spread over the export
    pool, one shard per domain at a time, each domain with its own render
    buffer and gzip encoder.  Idempotent — a table already exported (or
    currently exporting) is skipped — and safe to call concurrently from
    pool tasks: each call owns its buffers and template; shared bookkeeping
    is mutex-protected.  The table's columns must be final
    when called (the driver's [on_table_ready] guarantees it).  On an
    exception the claim is released so a later call (the finish pass)
    retries the table.
    @raise Mirage_engine.Sink.Io_failure on I/O errors. *)

val abort_csv_export : live_export -> unit
(** Retract every shard committed by this generation attempt — delete the
    files, drop their manifest entries ({!Mirage_engine.Sink.forget}) and
    forget all table claims — because the attempt died and the retry will
    generate different bytes.  Shards {e resumed} from a previous run are
    kept: they already hold the final deterministic output.  Wired to the
    driver's [on_attempt_abort]. *)

val finish_csv_export :
  live_export -> db:Mirage_engine.Db.t -> chunk_report
(** Export whatever tables were never claimed (or were released by a
    failure), remove surplus shards from earlier runs with different chunk
    counts, mark the manifest complete and return the report.  After this
    the concatenation contract of {!open_csv_export} holds verbatim.
    @raise Mirage_engine.Sink.Io_failure on I/O errors (no temp files left
    behind), a surplus shard that cannot be removed included; the manifest
    is then not marked complete. *)

val tile_db : db:Mirage_engine.Db.t -> copies:int -> Mirage_engine.Db.t
(** In-memory tiled database (for verification and tests; memory grows with
    [copies], unlike the shard export). *)
