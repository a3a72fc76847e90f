(** Plan evaluation.

    [analyze] evaluates a plan bottom-up and records, for every operator view
    (preorder-indexed), its output cardinality — and for join views the
    paper's uniform join statistics: [jcc] = number of matched row pairs,
    [jdc] = number of distinct PK values occurring in matched pairs
    (§2.2, Table 2).  This is exactly what the workload parser extracts from
    the production database and what error measurement re-extracts from the
    synthetic one. *)

type join_stat = {
  jcc : int;
  jdc : int;
  left_card : int;  (** |V_l| *)
  right_card : int;  (** |V_r| *)
}

type analysis = {
  result : Rel.t;
  cards : int array;  (** output size per preorder view index *)
  join_stats : (int * join_stat) list;  (** per join view index *)
}

val join :
  jt:Mirage_relalg.Plan.join_type ->
  pk_col:string ->
  fk_col:string ->
  Rel.t ->
  Rel.t ->
  Rel.t * join_stat
(** [join ~jt ~pk_col ~fk_col left right]: the PK–FK join [analyze] runs
    for a join view, with its statistics.  Matched pairs come right rows
    ascending and, within one right row, left rows descending; outer and
    anti joins append the unmatched rows ascending after them.  Both key
    columns must be [Col.Ints] (nullable); the right keys probe a flat
    open-addressing index of the left keys.  A NULL key matches nothing.
    @raise Invalid_argument when either key column is not [Col.Ints]. *)

val filter : env:Mirage_sql.Pred.Env.t -> Mirage_sql.Pred.t -> Rel.t -> Rel.t
(** [filter ~env p rel]: the selection view [analyze] runs, keeping the
    rows of [rel] that satisfy [p], in order, with {!Mirage_sql.Pred.eval}'s
    semantics.  Each literal is compiled once, on the first row that
    reaches it, so an unbound parameter or unknown column raises only if a
    row does.  An arithmetic comparison runs the columnar kernel
    ({!Arith}) over windows of {!Arith.block} rows, starting at the first
    row that reaches it, and compares each row's value with the operand
    under [Stdlib.compare] (NaN below every number); a NULL value or a
    non-numeric operand selects nothing. *)

val run : Db.t -> env:Mirage_sql.Pred.Env.t -> Mirage_relalg.Plan.t -> Rel.t
(** Evaluate and return the final relation. *)

val analyze : Db.t -> env:Mirage_sql.Pred.Env.t -> Mirage_relalg.Plan.t -> analysis

val count_select :
  Db.t -> env:Mirage_sql.Pred.Env.t -> table:string -> Mirage_sql.Pred.t -> int
(** [count_select db ~env ~table p] = |σ_p(table)| without materialising. *)

val select_mask :
  Db.t ->
  env:Mirage_sql.Pred.Env.t ->
  table:string ->
  Mirage_sql.Pred.t ->
  Col.Bitset.t
(** Per-row verdict of a predicate over a whole stored table (compiled once;
    used for child-view membership vectors in key generation).  Returned as
    an off-heap bitset, so a table-sized mask costs one bit per row and no
    heap.
    @raise Invalid_argument like {!count_select} on unknown columns, and on
    unbound parameters when at least one row evaluates the literal. *)

val timed_run :
  Db.t -> env:Mirage_sql.Pred.Env.t -> Mirage_relalg.Plan.t -> Rel.t * float
(** Result plus wall-clock seconds (for the Fig. 12 latency experiment). *)
