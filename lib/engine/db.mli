(** In-memory columnar database instances.

    Used for (a) the "production" reference databases the workload parser
    extracts constraints from, and (b) the synthetic databases the generators
    emit, so that instantiated workloads can be replayed and compared.

    Tables are stored as typed {!Col.t} columns (off-heap int/float
    vectors, dictionary-encoded strings); the [Value.t]-based
    {!put}/{!column} pair converts on the way in/out. *)

type t

val create : Mirage_sql.Schema.t -> t
(** Empty database over a schema. *)

val schema : t -> Mirage_sql.Schema.t

val put_cols : t -> string -> (string * Col.t) list -> unit
(** [put_cols db tname cols] installs the full contents of table [tname] as
    typed columns.  Every declared column (pk, non-keys, fks) must be present
    with equal lengths; the actual length becomes the table's row count (it
    may differ from the schema's target [row_count]).
    @raise Invalid_argument on missing columns or ragged lengths. *)

val put :
  t -> string -> (string * Mirage_sql.Value.t array) list -> unit
(** [Value.t] wrapper over {!put_cols}: each value array is converted
    with {!Col.of_values}.
    @raise Invalid_argument on an array that mixes value kinds. *)

val row_count : t -> string -> int
(** Rows actually stored (0 if table not yet populated). *)

val col : t -> string -> string -> Col.t
(** The stored typed column itself (not a copy); in-place mutation of its
    arrays is visible to all readers — the ACC repair pass relies on this.
    @raise Invalid_argument if the table or column is unknown/unpopulated. *)

val column : t -> string -> string -> Mirage_sql.Value.t array
(** [Value.t] accessor: a freshly allocated copy of
    {!col}.  Mutating the result does NOT affect the stored table.
    @raise Invalid_argument if the table or column is unknown/unpopulated. *)

val distinct_count : t -> string -> string -> int
(** Number of distinct values in a stored column (NULL counts as a value). *)

val to_csv : t -> string -> string
(** Render a table as CSV (header + rows) in one string: the reference
    that the tests, [dev/robustness] and the quickstart example compare the
    exporters' concatenated shards with.  The CLI exports through
    {!Mirage_core.Scale_out}, not through this. *)

val load_csv : t -> string -> string -> unit
(** [load_csv db tname csv] parses a CSV produced by {!to_csv} (or by the
    scale-out exporter) and installs it as [tname]'s contents.  Cell syntax
    follows the declared column kinds; empty cells become NULL.
    @raise Invalid_argument on header mismatch or unparseable cells. *)

(**/**)

(* Tested by test_core "membership forms". *)
val replace_col : t -> string -> string -> Col.t -> unit
(** Swap in a new version of one existing column (same length).
    @raise Invalid_argument if unknown or ragged. *)
