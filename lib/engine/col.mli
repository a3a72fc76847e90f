(** Typed columnar storage.

    A column is an off-heap int vector (keys and [Kint] data), an off-heap
    float vector ([Kfloat]), or a dictionary-encoded string column
    (off-heap int codes into a shared pool of distinct strings), each with
    an optional null bitmap.  These three are the only representations: a
    [Value.t] array handed in through {!of_values} (and so {!Db.put}) must
    hold values of one kind.

    Every numeric payload, null bitmap and work vector is a [Bigarray]: the
    bytes live in malloc'd or file-backed (mmap) memory the GC neither
    scans nor copies, so enormous PK pools and fact columns do not inflate
    the heap's high-water mark.  There is one representation per kind, so
    each engine fast path is written once, against the [Bigarray] payload.

    The representation is exposed so the engine and the exporters can
    pattern-match for vectorized evaluation and zero-copy rendering; the
    [Value.t] accessors below ({!get}, {!to_values}) serve generic paths. *)

module Bitset : sig
  type t

  val create : int -> t
  (** All-clear bitset of the given length.  The bits live off-heap, with
      the same backing policy as column payloads, so table-sized null
      bitmaps and membership vectors don't count against the heap. *)

  val set : t -> int -> unit
  val clear : t -> int -> unit
  val get : t -> int -> bool
  val length : t -> int
  val count : t -> int
  (** Number of set bits. *)

  val count_range : t -> int -> int -> int
  (** [count_range b lo hi]: number of set bits at positions [lo] to
      [hi - 1]; [0] when [hi <= lo].  Counts whole bytes at a time.
      Requires [0 <= lo] and [hi <= length b]. *)
end

type int_big = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type float_big = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val set_big_dir : string option -> unit
(** Override the spill directory (the CLI's [--big-dir] flag).  Read per
    allocation, so it applies to every subsequently built payload. *)

val alloc_int_big : int -> int_big
(** Off-heap int vector, zero-filled.  Under 1 MiB it is malloc'd.  From
    1 MiB it is mapped ([Unix.map_file]): from an unlinked temp file under
    {!big_dir} when that is set, else privately from [/dev/zero].  Mapped
    pages do not pace the GC's major slices the way malloc'd Bigarray bytes
    do.  A mapping that fails (say, a directory that cannot be written)
    falls back to the next option. *)

val alloc_float_big : int -> float_big
(** Off-heap float vector, zero-filled; same backing policy. *)

type t =
  | Ints of { data : int_big; nulls : Bitset.t option }
  | Floats of { data : float_big; nulls : Bitset.t option }
  | Dict of { codes : int_big; pool : string array; nulls : Bitset.t option }
      (** [pool] holds distinct strings; [codes.{i}] indexes [pool].  Rows
          flagged null carry an arbitrary (ignored) code. *)

type col = t
(** Alias for referring to the column type inside submodule signatures. *)

(** Mutable off-heap int vector: FK fill buffers, PK pools and work
    arrays.  {!Ivec.to_col} converts zero-copy.  Writes to disjoint indices
    are safe from multiple domains (the storage is flat and unboxed). *)
module Ivec : sig
  type t = int_big

  val make : int -> int -> t
  (** [make n v]: length [n], every slot [v]. *)

  val init : int -> (int -> int) -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val unsafe_get : t -> int -> int
  val unsafe_set : t -> int -> int -> unit

  val to_col : ?nulls:Bitset.t -> t -> col
  (** Zero-copy: the column aliases the vector's storage. *)

  (**/**)

  (* Tested by test_columnar "dict encoding: distinct pool, faithful decode"
     and test_core "paper Figs 8-10 example". *)
  val to_array : t -> int array
  (** Heap copy. *)
end

val length : t -> int
val is_null : t -> int -> bool

val get : t -> int -> Mirage_sql.Value.t
(** Row [i] as a [Value.t]; [Null] for rows flagged in the null bitmap. *)

val float_at : t -> int -> float option
(** [Value.to_float] semantics on the typed representation: numeric rows
    yield their float value, nulls and strings yield [None]. *)

val of_ints : ?nulls:Bitset.t -> int array -> t
(** Copies the array off-heap. *)

val of_floats : ?nulls:Bitset.t -> float array -> t
(** Copies the array off-heap. *)

val init_ints : ?nulls:Bitset.t -> int -> (int -> int) -> t
val init_floats : ?nulls:Bitset.t -> int -> (int -> float) -> t

val of_strings : ?nulls:Bitset.t -> string array -> t
(** Dictionary-encodes: pool in order of first occurrence. *)

val dict : ?nulls:Bitset.t -> codes:int_big -> pool:string array -> unit -> t
(** Unchecked constructor; the caller guarantees distinct pool entries and
    in-range codes (the CDF renderer does). *)

val const_null : int -> t
(** A column of [n] NULLs. *)

val of_values : Mirage_sql.Value.t array -> t
(** Kind inference: homogeneous non-null values choose the typed
    representation ([Int]s, [Float]s or dictionary-encoded [Str]s, with a
    null bitmap when NULLs are present); an all-NULL array becomes
    {!const_null}.  Raises [Invalid_argument] on an array that mixes
    kinds (say [Int] with [Float] or [Str]). *)

val to_values : t -> Mirage_sql.Value.t array
(** Freshly allocated [Value.t] copy. *)

val equal : t -> t -> bool
(** Logical (value-level) equality, independent of representation. *)

val add_csv_cell : Buffer.t -> t -> int -> unit
(** Append row [i] in {!Db.to_csv} cell syntax: NULL renders as the empty
    string, ints via [string_of_int], floats via {!Render.float_repr}
    (round-trip, shared with every exporter), strings RFC-4180 quoted when
    — and only when — they contain a comma, quote, CR or LF
    ({!Render.csv_escape}). *)

(**/**)

(* Tested by test_sink "spill directory: same bytes, no files left, missing dir
   falls back". *)
val big_dir : unit -> string option
(** Spill directory for file-backed payloads.  Seeded from the
    [MIRAGE_BIG_DIR] environment variable at startup; [None] means
    anonymous memory. *)
