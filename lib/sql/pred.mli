(** Predicate AST for selection operators (§2.2).

    A predicate is built from {e literals}: unary comparisons
    [col • arg] with [•] in [{=, <>, <, >, <=, >=, (not) in, (not) like}],
    and arithmetic comparisons [g(cols) ◦ arg] with [◦] in [{<, >, <=, >=}].
    Literals are combined with [AND]/[OR]/[NOT].

    Arguments are either constants or named {e parameters} ([$p]); the whole
    point of query-aware generation is to instantiate the parameters.  An
    environment maps parameter names to values (scalars, or value lists for
    [IN]). *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type arith =
  | Acol of string
  | Aconst of float
  | Aadd of arith * arith
  | Asub of arith * arith
  | Amul of arith * arith
  | Adiv of arith * arith

type operand =
  | Param of string
  | Const of Value.t
  | Const_list of Value.t list  (** only meaningful under [In] *)

type literal =
  | Cmp of { col : string; cmp : cmp; arg : operand }
  | In of { col : string; neg : bool; arg : operand }
  | Like of { col : string; neg : bool; arg : operand }
  | Arith_cmp of { expr : arith; cmp : cmp; arg : operand }
      (** [cmp] restricted to [{Lt; Le; Gt; Ge}] by construction in {!Parser}. *)

type t =
  | Lit of literal
  | And of t list
  | Or of t list
  | Not of t
  | True
  | False

(** Parameter environments. *)
module Env : sig
  type binding = Scalar of Value.t | Vlist of Value.t list
  type nonrec t

  val empty : t
  val add : string -> binding -> t -> t
  val add_scalar : string -> Value.t -> t -> t
  val of_list : (string * binding) list -> t
  val find : string -> t -> binding option
  val bindings : t -> (string * binding) list
end

val eval : env:Env.t -> (string -> Value.t) -> t -> bool
(** [eval ~env lookup p] evaluates [p] on a row exposed as [lookup col].
    Unbound parameters raise [Invalid_argument]; comparisons involving [Null]
    are false (two-valued SQL-on-rows semantics, matching Table 3's use of
    NULL as an always-empty boundary). *)

val resolve_scalar : env:Env.t -> operand -> Value.t
(** The scalar an operand denotes under [env].
    @raise Invalid_argument on unbound parameters, list-bound parameters, or
    a [Const_list] operand. *)

val resolve_list : env:Env.t -> operand -> Value.t list
(** The value list an operand denotes under [env] (a scalar becomes a
    singleton).  @raise Invalid_argument on unbound parameters. *)

val cmp_holds : cmp -> int -> bool
(** Whether a three-way comparison result (à la [compare]) satisfies the
    comparator.  Exposed so compiled evaluators (the engine's vectorized
    executor) share the exact semantics of {!eval}. *)

val columns : t -> string list
(** Distinct column names mentioned, in first-appearance order. *)

val params : t -> string list
(** Distinct parameter names mentioned, in first-appearance order. *)

val arith_columns : arith -> string list


val cnf : t -> t list list
(** [cnf p] converts [p] to conjunctive normal form as a list of clauses,
    each clause being a list of literal-level predicates ([Lit] or
    [Not (Lit _)]).  [True]/[False] are simplified away ([cnf True = \[\]];
    [cnf False = \[\[\]\]]). *)

val negate_literal : literal -> literal option
(** The literal with its comparator flipped ([<] ↔ [>=], [in] ↔ [not in], …);
    [None] only for unsatisfiable/odd cases (none currently). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(**/**)

val eval_arith : (string -> Value.t) -> arith -> float option
(** The boxed value of an arithmetic expression on one row, [lookup]
    giving each column's cell: [None] on a NULL or non-numeric cell or a
    zero divisor.  {!eval}'s [Arith_cmp] uses it, and it is the reference
    the engine's columnar kernel is checked against in test_engine "kernel
    = Pred.eval_arith per boxed row, bit for bit". *)
