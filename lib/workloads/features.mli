(** Query feature detection, used to decide which queries each baseline
    generator supports (Table 1's operator-supportability matrix). *)

type t = {
  f_arith : bool;  (** arithmetic predicate over non-key columns *)
  f_logical_or : bool;  (** disjunction anywhere in a predicate *)
  f_or_across_join : bool;  (** OR clause spanning both sides of a join *)
  f_like : bool;
  f_in_pred : bool;
  f_string_range : bool;  (** <, >, ≤, ≥ on a string column *)
  f_outer_join : bool;
  f_semi_join : bool;
  f_anti_join : bool;
  f_fk_projection : bool;  (** duplicate-eliminating projection on an FK *)
}

val of_plan : Mirage_sql.Schema.t -> Mirage_relalg.Plan.t -> t
val pp : Format.formatter -> t -> unit

(**/**)

(* Tested by test_workloads "unit detection". *)
val none : t
(** All flags false. *)
