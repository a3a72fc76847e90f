(** Decoupling logical cardinality constraints (§4.1).

    Every SCC whose predicate is a CNF formula is reduced — via the set
    transforming rules [rule₁] (eliminate U-intersectands), [rule₂]
    (eliminate ∅-unionands) and [rule₃] (De Morgan) — to either a single
    UCC/ACC or a conjunction of equality views whose values must be bound
    into the same rows (Theorem 4.4).

    Eliminated sub-predicates have their parameters instantiated to boundary
    values (Table 3, adapted to our engine's semantics: the cardinality space
    is [\[1, dom\]], so e.g. [A > 0] is universal and [A = 0] is empty). *)

type result = {
  uccs : Ir.ucc list;
  accs : Ir.acc list;
  bound : Ir.bound_rows list;
  fixed_env : Mirage_sql.Pred.Env.t;
      (** boundary values for eliminated parameters *)
  skipped : Diag.t list;
      (** SCCs that could not be decoupled, with source and reason *)
}

val run :
  Mirage_sql.Schema.t ->
  dom:(string -> string -> int) ->
  table_rows:(string -> int) ->
  param_key:(string -> Mirage_sql.Value.t option) ->
  Ir.scc list ->
  result
(** [dom table col] is the target domain size [|R|_A]; [table_rows table] the
    target [|R|].  [param_key] maps a parameter to its production value
    ({!Mirage_sql.Pred.Env.find_scalar} over the production parameters); it
    lets the budget accounting recognise constraints that will alias to one
    synthetic value.  Forced (single-literal) SCCs are processed before OR
    clauses so the elimination's kept-literal choice sees the true remaining
    per-column row budget. *)

(**/**)

(* Tested by test_core "sentinels". *)
val universe_sentinel :
  Mirage_sql.Schema.kind -> dom:int -> Mirage_sql.Pred.literal ->
  Mirage_sql.Pred.Env.binding option
(** The parameter value making a literal universal, if any (exposed for
    tests). *)

val empty_sentinel :
  Mirage_sql.Schema.kind -> dom:int -> Mirage_sql.Pred.literal ->
  Mirage_sql.Pred.Env.binding option
