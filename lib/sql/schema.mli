(** Database schemas (§2.1).

    Every table has a single integer primary-key column, zero or more
    non-key columns (each with a target domain size [|R|_A]) and zero or more
    foreign keys, each referencing another table's primary key.  [row_count]
    is the table cardinality constraint [|R|]. *)

type kind = Kint | Kfloat | Kstring
(** Declared value kind of a non-key column; the generators work in the
    normalised integer cardinality space regardless, but reference databases
    and the engine respect the declared kind. *)

type column = { cname : string; domain_size : int; kind : kind }

type fk = { fk_col : string; references : string }

type table = {
  tname : string;
  pk : string;
  nonkeys : column list;
  fks : fk list;
  row_count : int;
}

type t

val make : table list -> t
(** Validates: unique table names, unique column names within a table, FK
    references resolve, positive row counts and domain sizes.
    @raise Invalid_argument on violation. *)

val tables : t -> table list
val table : t -> string -> table
val table_opt : t -> string -> table option
val mem : t -> string -> bool

val nonkey : table -> string -> column
val is_pk : table -> string -> bool
val is_fk : table -> string -> bool
val fk : table -> string -> fk

val column_names : table -> string list
(** pk, then non-keys, then fks — the canonical physical order. *)

val referencing_edges : t -> (string * string) list
(** [(referenced, referencing)] pairs — the FK dependency edges used for the
    topological population order (§5.3). *)

(**/**)

(* Tested by test_sql "scaling". *)
val scale : t -> float -> t
(** [scale t f] multiplies every row count (and key-correlated domain sizes
    are left alone) by [f], for scale-factor sweeps. *)
