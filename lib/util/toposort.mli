(** Kahn's topological sort over string-named vertices (§5.3 of the paper:
    ordering foreign-key population by table reference dependencies). *)

val sort : vertices:string list -> edges:(string * string) list -> string list
(** [sort ~vertices ~edges] returns the vertices in a topological order where
    every edge [(a, b)] ("a must come before b") is respected.  Ties are
    broken by the order vertices were supplied, so the result is
    deterministic.

    @raise Failure if the graph contains a cycle. *)

(**/**)

val is_topological : vertices:string list -> edges:(string * string) list -> string list -> bool
(** [is_topological ~vertices ~edges order] checks that [order] is a
    permutation of [vertices] respecting every edge: the oracle of
    test_util "respects edges" and "random DAGs sort topologically". *)
