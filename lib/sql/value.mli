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
(** The one literal spelling of a value: an [Int] as its digits, a [Float]
    as {!float_digits} with a ['.'] when they have none (so a whole float
    stays a float), a [Str] single-quoted with each quote doubled, as in
    SQL, and [Null] as [NULL].  {!Parser.binding} and the template language
    read the first three back as the same value; no parameter or constant
    is [Null].  The same text is a SQL literal: [parameters.txt],
    [queries.sql] and the bundle's templates all write values this way. *)

val to_string : t -> string
(** {!pp} to a string. *)

val float_digits : float -> string
(** The shortest digits that read back as the float, in fixed notation (no
    exponent): ["0.1234567"], ["459606"], ["0.00000015"].  A whole float
    has no ['.'].  A non-finite float has no such digits: it is spelt as
    [%g] spells it, which no reader here accepts. *)

val to_float : t -> float option
(** Numeric view of the value, for arithmetic predicates. *)
