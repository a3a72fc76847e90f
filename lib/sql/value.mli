(** Typed SQL values.

    Dates are represented as [Int] day numbers; the generators work in the
    paper's normalised "cardinality space" (integers in [(0, |R|_A]]), so
    [Int] is the workhorse constructor.  [Null] follows SQL semantics for
    predicates: it matches nothing, including [Null = Null]. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

val compare : t -> t -> int
(** Total order used for sorting/indexing.  [Null] sorts first; values of
    different runtime types are ordered by constructor.  For predicate
    evaluation use {!cmp_sql} instead. *)

val cmp_sql : t -> t -> int option
(** SQL comparison: [None] when either side is [Null] or the types are not
    comparable, otherwise [Some c] with [c] as {!Stdlib.compare}.  [Int] and
    [Float] are compared numerically. *)

val hash : t -> int
(** Consistent with {!compare}: [compare a b = 0] implies
    [hash a = hash b]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_float : t -> float option
(** Numeric view of the value, for arithmetic predicates. *)
