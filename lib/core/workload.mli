(** A workload: a schema plus named query templates.

    Templates are authored (or parsed) as plans with symbolic parameters; the
    production database assigns them concrete values (the [prod_env]), and
    the workload parser extracts cardinality constraints by executing the
    instantiated templates on the production database. *)

type query = { q_name : string; q_plan : Mirage_relalg.Plan.t }

type t = { w_schema : Mirage_sql.Schema.t; w_queries : query list }

val make : Mirage_sql.Schema.t -> query list -> t
(** Builds a workload that {!validate} finds well-formed.
    @raise Invalid_argument with {!validate}'s first error otherwise. *)

val validate : t -> Diag.t list
(** The checks behind {!make}, non-raising: duplicate query names,
    plan/schema coherence, arithmetic predicates compared with [=] or [<>]
    (only [<], [<=], [>] and [>=] are allowed, as in the parser),
    cross-query parameter sharing.  Empty when the workload is
    well-formed. *)

val query : t -> string -> query
val take : t -> int -> t
(** [take w n] keeps the first [n] queries (for the Fig. 15 scaling sweep). *)

val param_names : t -> string list
(** All parameters across all queries (must be globally unique). *)
