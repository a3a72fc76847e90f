(** Arithmetic-predicate parameter instantiation (§4.4).

    Given generated non-key data and an ACC [|σ_{g(A…) ◦ p}(R)| = n], the
    result view [g] is computed over a (Hoeffding-sized) sample and [p] is
    chosen as the order statistic that makes the predicate select the scaled
    target count — exact when the sample is the whole table, within the
    paper's δ bound otherwise. *)

val instantiate :
  ?repair:bool ->
  ?frozen_prefix:int ->
  ?interrupt:(unit -> unit) ->
  rng:Mirage_util.Rng.t ->
  db:Mirage_engine.Db.t ->
  sample_size:int ->
  Ir.acc ->
  string * Mirage_sql.Pred.Env.binding
(** Returns the parameter's binding.  The result view is one run of the
    columnar kernel ({!Mirage_engine.Arith}) over the sampled rows.  When
    the whole table is scanned and ties prevent an exact threshold,
    [repair] (default on) swaps values of an involved column between rows
    — preserving every column's value multiset, hence every UCC — until
    the ACC count is exact; rows below [frozen_prefix] (bound-row groups)
    are never touched.  A swap re-evaluates only its two rows.  [interrupt]
    is the cooperative budget poll: called at entry and periodically inside
    the repair swap search.  Repair mutates the stored (off-heap) columns
    in place, and the result view is off-heap too.
    @raise Invalid_argument if the expression references unknown columns,
    if a sampled row holds a NULL or non-numeric cell (any row of a
    dictionary column), or if a sampled row, or a row a repair swap
    rearranges, divides by zero.  Unsampled rows are never read. *)

(**/**)

(* Tested by test_core "exact thresholds", "extremes" and "threshold minimises
   deviation", against test/acc_reference.ml. *)
val choose_threshold :
  cmp:Mirage_sql.Pred.cmp -> target:int -> Mirage_engine.Col.float_big -> float
(** The order-statistic search on a materialised result view (exposed for
    tests): picks the threshold whose selected count is as close as possible
    to [target].  Candidates are the distinct values, visited from the top
    down, then the sentinels [min − 1] and [max + 1]; the first strictly
    better one wins.

    For [Gt], [Ge], [Lt] and [Le] the count is monotone in the candidate,
    so the winner is the run of equal values at the target rank, one of
    its two distinct neighbours, or a sentinel: one selection and linear
    passes find them in O(n), with an O(n)-sized off-heap scratch copy.
    The O(n log n) heap sort and sweep over every run remain for the
    cases where the sort's permutation decides the returned bits or the
    count is not monotone:
    - [Eq] and [Neq];
    - a view holding a NaN;
    - a winning run of zeros holding both [-0.0] and [+0.0].
    Either way the result is bit-identical to the full sweep. *)
