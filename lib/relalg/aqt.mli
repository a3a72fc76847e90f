(** Annotated query templates (§2.1).

    An AQT is a named plan whose operator views carry output-cardinality
    annotations (indexed by the plan's preorder numbering).  The annotations
    are produced by the workload parser executing the template — with its
    production parameter values — on the production database. *)

type t = {
  name : string;
  plan : Plan.t;
  cards : int option array;  (** [cards.(i)] = labelled output size of view [i] *)
}

val unannotated : name:string -> Plan.t -> t
(** All annotations set to [None]. *)

val annotate : t -> int -> int -> t
(** [annotate aqt i n] returns a copy with view [i] labelled [n]. *)

val annotated_views : t -> (int * Plan.t * int) list
(** [(preorder index, subtree, cardinality)] for every labelled view. *)

(**/**)

(* Tested by test_relalg "annotation" and "out of range". *)
val card : t -> int -> int option
