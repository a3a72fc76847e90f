(** Query plans / query-operator-view trees (§2.2).

    Plans are immutable trees.  The {e preorder index} of a node (root = 0,
    then children left-to-right, recursively) identifies an operator view;
    the annotated query template pairs a plan with a cardinality per preorder
    index.

    Join convention: the {b left} child is always the side carrying the
    referenced table's {b primary key}, the {b right} child the side carrying
    the referencing table's {b foreign key} — matching the paper's
    [V_l]/[V_r] convention.  So [Left_outer] preserves the PK side,
    [Right_semi] keeps matched FK-side rows, etc.

    Column names are required to be globally unique across the schema (true
    of SSB/TPC-H/our TPC-DS-style schema), so plans need no qualifiers. *)

type agg_fn = Count | Sum | Avg | Min | Max

type join_type =
  | Inner
  | Left_outer
  | Right_outer
  | Full_outer
  | Left_semi
  | Right_semi
  | Left_anti
  | Right_anti

type t =
  | Table of string
  | Select of Mirage_sql.Pred.t * t
  | Join of {
      jt : join_type;
      pk_table : string;  (** referenced table whose PK is the join key *)
      fk_table : string;  (** referencing table *)
      fk_col : string;    (** FK column in [fk_table] *)
      left : t;
      right : t;
    }
  | Project of { cols : string list; input : t }
      (** duplicate-eliminating projection *)
  | Aggregate of {
      group_by : string list;
      aggs : (agg_fn * string) list;  (** function and its input column *)
      input : t;
    }
      (** hash aggregation; output cardinality = number of groups.  The
          generators treat it as transparent (like non-key projections, its
          cardinality constraint is not interesting per §2.2); the engine
          evaluates it so replayed latencies include aggregation work. *)

val preorder : t -> t list
(** All subtrees in preorder; [List.nth (preorder p) i] is the view with
    preorder index [i]. *)

val size : t -> int
(** Number of operator views. *)

val tables : t -> string list
(** Base tables mentioned, preorder, with duplicates removed. *)

val params : t -> string list
(** All predicate parameters, first-appearance order. *)

val validate : Mirage_sql.Schema.t -> t -> (unit, string) result
(** Checks tables exist, join FK edges are declared in the schema, the PK
    side/FK side contain the respective tables, and predicate columns resolve
    to columns of tables in scope. *)

val pp : Format.formatter -> t -> unit
(** Multi-line tree rendering. *)

(**/**)

(* Labels the cases of test_relalg "preorder" and test_engine "Table 2 join
   sizes". *)
val node_label : t -> string
(** Short human-readable label of the root operator. *)

(* Tested by test_relalg "joins indexed". *)
val joins : t -> (int * t) list
(** Preorder indices and subtrees of all join nodes. *)
