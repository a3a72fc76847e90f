(** Zero-allocation output kernel.

    The exporter's hot loop, CSV tiling ({!Mirage_core.Scale_out}), writes
    digits and pre-escaped fragments straight into a growable [Bytes]
    buffer.  Nothing in the per-cell paths allocates: integers are written
    digit-by-digit ({!Buf.itoa}), floats hit an in-place fast path for
    integral values ({!Buf.ftoa}), and strings are escaped {e once per
    distinct pool entry} ({!csv_pool}) rather than once per row.

    {2 Formatting policy}

    One float format serves every exporter: {!float_repr} prints the
    shortest decimal that parses back to the identical [float] (round-trip
    semantics) — ["1"], ["0.5"], ["1e+22"], ["nan"], ["inf"].  Integral
    values print as bare digits (no OCaml-style trailing ['.']), matching
    the [%.17g] images of the earlier renderers; for every value
    whose previous renderer image already round-trips — in particular every
    value in the committed goldens — the output is byte-identical to the
    pre-kernel renderers.

    CSV cells follow RFC 4180: a cell containing a comma, a double quote,
    CR or LF is wrapped in double quotes with embedded quotes doubled; all
    other cells (the committed goldens contain only these) are emitted
    verbatim. *)

module Buf : sig
  type t
  (** A growable byte buffer.  Like [Buffer.t] but with direct digit
      writers and sub-[Bytes] splicing; contents are reused across tiles
      via {!clear} without shrinking the allocation. *)

  val create : int -> t
  (** [create n] makes an empty buffer with [n] bytes pre-allocated. *)

  val clear : t -> unit
  (** Forget the contents, keep the storage. *)

  val length : t -> int

  val to_bytes : t -> Bytes.t
  (** Fresh [Bytes] copy of the contents (used to freeze a template). *)

  val add_char : t -> char -> unit
  val add_string : t -> string -> unit

  val add_subbytes : t -> Bytes.t -> pos:int -> len:int -> unit
  (** Splice [len] bytes of [src] starting at [pos] — a [memcpy], the
      fragment emitter of the template engine. *)

  val itoa : t -> int -> unit
  (** Append the decimal digits of an int, exactly as [string_of_int]
      would, without allocating an intermediate string. *)

  val ftoa : t -> float -> unit
  (** Append {!float_repr}'s image of a float.  Integral values within
      [2{^53}] are written digit-by-digit with a trailing ['.'] without
      allocating; other values fall back to a (cold) formatting call. *)

  val unsafe_bytes : t -> Bytes.t
  (** The underlying storage, without copying; only the first {!length}
      bytes are meaningful, and any mutating call invalidates the view.
      For zero-copy hand-off to byte sinks. *)
end

val float_repr : float -> string
(** The unified float format (see the formatting policy above): shortest
    round-trip decimal, valid-float-lexem form.  [float_of_string
    (float_repr f)] is [f] for every non-NaN [f], and NaN maps to ["nan"]. *)

val csv_escape : string -> string
(** RFC 4180 cell image: the input itself (physically — no copy) when no
    quoting is needed, otherwise a quoted copy with double quotes
    doubled. *)

val csv_pool : string array -> string array
(** [csv_escape] applied once per pool entry — dictionary columns escape
    each distinct string once, not once per row. *)
