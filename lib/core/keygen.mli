(** Foreign-key population (§5).

    For one PK–FK edge carrying [m] join constraints: every row of the
    referenced table [S] and the referencing table [T] gets an [m]-bit
    status vector recording its membership of each constraint's left/right
    child view; equal vectors form partitions (§5.2 step 1); per partition
    pair [(S_i, T_j)] the CP variables [x_ij] (FKs populated from [S_i] into
    [T_j]) and [d_ij] (distinct PKs used) satisfy the populating rules
    Eq. 3–5 plus composability / expressibility / coverability; a feasible CP
    point drives deterministic population.

    Generation is batched over [T]'s rows: constraint totals are split
    exactly across batches proportionally to each view's row share (the
    paper's batch strategy, §8), and the per-partition PK allocator is global
    so distinct counts add up across batches.

    The CS membership scans and the per-partition PF fills run on the given
    {!Mirage_par.Par.pool}; PK-slice reservation stays sequential, and each
    PF task draws from an RNG stream indexed by its partition, so the
    populated column is bit-identical for any domain count. *)

type stage_times = {
  mutable t_cs : float;  (** computing status vectors *)
  mutable t_cp : float;  (** solving the constraint program *)
  mutable t_pf : float;  (** populating foreign keys *)
  mutable cp_solves : int;
  mutable cp_nodes : int;
  mutable cp_restarts : int;  (** restart-ladder rungs taken across solves *)
  mutable cp_props : int;  (** propagator executions across solves *)
  mutable batch_alloc_bytes : int;
      (** largest single-batch allocation volume: the per-batch working set *)
}

val fresh_times : unit -> stage_times

val add_times : stage_times -> stage_times -> unit
(** [add_times acc src] folds [src]'s counters into [acc] (times and counts
    add; [batch_alloc_bytes] takes the max).  The overlap scheduler gives
    each concurrent edge task a private record and merges them in
    topological edge order, reproducing the totals the barrier path
    accumulates in its single shared record. *)

type failure = {
  kf_diag : Diag.t;  (** what went wrong, with table/query context *)
  kf_culprits : string list;
      (** conflicting constraint sources (an IIS-style subset, found by a
          deletion filter) when the population system is proved infeasible;
          empty for other failures *)
}

val pk_reader : db:Mirage_engine.Db.t -> Ir.edge -> (int -> int, failure) result
(** The primary key of [edge.e_pk_table] as a reader of row [i], when it is
    a [Col.Ints] column without a NULL row; otherwise the edge's
    "non-integer primary key" failure. *)

val populate_edge :
  ?lp_guide:bool ->
  ?sparsify:bool ->
  ?capacity_repair:bool ->
  ?pool:Mirage_par.Par.pool ->
  ?interrupt:(unit -> unit) ->
  rng:Mirage_util.Rng.t ->
  db:Mirage_engine.Db.t ->
  env:Mirage_sql.Pred.Env.t ->
  edge:Ir.edge ->
  constraints:Ir.join_constraint list ->
  batch_size:int ->
  cp_max_nodes:int ->
  times:stage_times ->
  unit ->
  (Mirage_engine.Col.Ivec.t * Diag.t list, failure) result
(** [interrupt] is checked at every batch boundary and forwarded into the CP
    solver's 64-node cancellation points; whatever it raises (typically
    {!Mirage_util.Budget.Exceeded}) propagates out of the populate call.

    Batches run one after another: each batch's CP solve and FK fill finish
    before the next batch starts, and [batch_alloc_bytes] covers both.

    Returns the FK column for [edge.e_fk_table] as a raw integer-key vector
    ({!Mirage_engine.Col.Ivec} — off-heap, convertible zero-copy via
    [Ivec.to_col]) plus resize/deviation diagnostics (the §6 bounded-error
    adjustments) and a per-edge Info diagnostic with the CP
    solve/node/propagation counters.  On a proved-infeasible population
    system the failure names the conflicting constraint sources so the
    caller can quarantine them.  The synthetic database must already
    contain the non-key columns of both tables and any FK columns that the
    constraints' subplan views join on. *)

val membership :
  db:Mirage_engine.Db.t ->
  env:Mirage_sql.Pred.Env.t ->
  table:string ->
  Ir.child_view ->
  Mirage_engine.Col.Bitset.t
(** Row membership of a child view, one bit per row of [table] (exposed
    for tests).  For a [Cv_subplan] view, row [i] is a member when [table]'s
    primary key at [i] appears in the subplan's result.  The bits come from
    row identity: the result's PK view selects physical rows of the stored
    PK column, and the PK is unique, so the selected rows are the members.
    That needs an integer PK column whose non-NULL values are unique, as
    {!Nonkey.generate} writes; a NULL key is never a member.  When the PK
    view does not point at the stored column (a [Project]- or
    [Aggregate]-rooted subplan), membership falls back to matching PK
    values. *)

(**/**)

(* Tested by test_core "T partitions = hashtable reference on random status
   vectors". *)
val partition_rows : Mirage_engine.Col.Ivec.t -> int -> int -> (int * int array) array
(** [partition_rows vec lo hi] groups rows [lo] to [hi] of a status vector
    by value: one [(value, rows)] pair per distinct value, values ascending
    and each group's rows ascending.  The T partitions of one batch; PF's
    per-partition RNG streams follow this order.  Empty when [hi < lo]. *)
