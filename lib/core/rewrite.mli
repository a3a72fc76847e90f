(** Query rewriting (§3): push selection operators below joins so that the
    dependency between key and non-key columns becomes unidirectional.

    Two relational-algebra transformations are applied:
    - a CNF clause whose columns all belong to one side of a join is pushed
      into that side (Example 3.2);
    - a single clause that mixes both sides (an OR across the join, which
      cannot be pushed) is replaced by its complement
      [σ_{¬P_S}(S) ⋈ σ_{¬P_T}(T)], emitted as an auxiliary {e generation-only}
      plan whose join cardinality equals [n₁ − n₂] (Example 3.1).  The
      auxiliary plan's own annotations (the [n₃], [n₄], [n₁ − n₂] of the
      paper) are obtained by the workload parser executing it on the
      production database.

    The rewritten plan is used only during generation; the user's original
    plan and all its constraints remain what is verified (§3). *)

exception Unsupported of string

type result = {
  rw_plan : Mirage_relalg.Plan.t;  (** all selects directly above base tables *)
  rw_aux : Mirage_relalg.Plan.t list;  (** auxiliary complement plans *)
  rw_marginals : (string * Mirage_sql.Pred.t) list;
      (** (table, predicate) marginal selection counts the workload parser
          must fetch from the production database: negated literals whose
          side already carries a selection stay nested in the auxiliary plan
          and need their own instantiating constraint *)
}

val push_down : Mirage_sql.Schema.t -> Mirage_relalg.Plan.t -> result
(** @raise Unsupported for predicates that cannot be decomposed (a literal
    spanning both join sides, or more than one mixed OR clause above one
    join). *)

(**/**)

(* Tested by test_core "pushes conjuncts". *)
val is_pushed_down : Mirage_relalg.Plan.t -> bool
(** True when every select's input is a base table or another select over
    one (the invariant [push_down] establishes). *)
