(** Reference ("production") database generation.

    Stands in for the official dbgen/dsdgen tools (see DESIGN.md): fills each
    schema with plausibly distributed data — uniform and skewed numerics,
    date-like day numbers, categorical strings, and word-salad comment
    columns that LIKE patterns can hit — so the workload parser has a
    production database to extract constraints from. *)

type col_spec =
  | Uniform_int of int  (** values uniform over [\[1, dom\]] *)
  | Skewed_int of int * float  (** power-law over [\[1, dom\]]; exponent > 1 skews low *)
  | Date_int of int  (** day numbers [\[1, days\]], uniform *)
  | Cat_string of string * int  (** ["<prefix>#%05d"] over [\[1, dom\]] *)
  | Perm_string of string  (** one distinct ["<prefix>#%05d"] per row (row [i] gets value [i+1]) *)
  | Words_string of string array * int  (** [n] words sampled from the lexicon *)

val build :
  seed:int ->
  Mirage_sql.Schema.t ->
  specs:(string * (string * col_spec) list) list ->
  Mirage_engine.Db.t
(** [build ~seed schema ~specs] populates every table at its schema
    [row_count].  Non-key columns use their spec ([Uniform_int] over the
    declared domain when unspecified); FKs reference uniform-random PKs of
    the referenced table; PKs are [1..n].  Columns are built typed, as
    the representation {!Mirage_engine.Col.of_values} infers from the same
    values: [Ints] for keys and numeric specs, and for string specs a
    dictionary whose pool is in order of first occurrence. *)

val comment_lexicon : string array
(** Words used by comment-like columns ("special", "requests", …). *)
