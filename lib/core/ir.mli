(** Intermediate representation of extracted cardinality constraints.

    The workload parser (§3, Fig. 4) turns annotated query templates into:
    - {e selection cardinality constraints} (SCCs) per base table, which the
      decoupler further reduces to UCCs / ACCs / bound-row groups (§4.1);
    - {e join constraints} per PK–FK edge, in the paper's uniform
      (JCC, JDC) representation with explicit left/right child views (§5.1). *)

module Pred = Mirage_sql.Pred
module Plan = Mirage_relalg.Plan

type scc = {
  scc_table : string;
  scc_pred : Pred.t;
  scc_rows : int;  (** required output size *)
  scc_source : string;  (** query name, for diagnostics *)
}

(** A unary cardinality constraint after decoupling, normalised to the
    cardinality space: the comparator is kept as written, the row count is the
    required output size of [σ_(col cmp $param)(table)]. *)
type ucc = {
  ucc_table : string;
  ucc_col : string;
  ucc_lit : Pred.literal;  (** unary literal owning the parameter *)
  ucc_rows : int;
  ucc_source : string;
}

type acc = {
  acc_table : string;
  acc_expr : Pred.arith;
  acc_cmp : Pred.cmp;
  acc_param : string;
  acc_rows : int;
  acc_source : string;
}

(** [n] rows must carry all the listed (column = instantiated param) values
    simultaneously (Theorem 4.4, second case). *)
type bound_rows = {
  br_table : string;
  br_cells : (string * string) list;  (** (column, parameter) *)
  br_rows : int;
  br_source : string;
}

(** Child view of a join, as seen from one side of a PK–FK edge. *)
type child_view =
  | Cv_full of string  (** the whole base table *)
  | Cv_select of { cv_table : string; cv_pred : Pred.t }
      (** selection output directly over the base table *)
  | Cv_subplan of { cv_plan : Plan.t; cv_table : string }
      (** output of an upstream join; membership = the set of [cv_table]'s
          primary keys appearing in the subplan's output, computed on the
          partially generated database (§5.3) *)

type edge = { e_pk_table : string; e_fk_table : string; e_fk_col : string }

type join_constraint = {
  jc_edge : edge;
  jc_left : child_view;  (** over [e_pk_table] *)
  jc_right : child_view;  (** over [e_fk_table] *)
  jc_jcc : int option;  (** matched pairs, when the join type constrains it *)
  jc_jdc : int option;  (** distinct matched PKs, when constrained *)
  jc_source : string;
}

type t = {
  sccs : scc list;
  joins : join_constraint list;
  table_cards : (string * int) list;  (** |R| per table *)
  column_cards : ((string * string) * int) list;  (** |R|_A per non-key column *)
  param_elements : (string * (Mirage_sql.Value.t * int) list) list;
      (** per in/like parameter: production elements (value, row count) —
          collected by the workload parser so generation needs no further
          access to the production database *)
}

val pp : Format.formatter -> t -> unit
