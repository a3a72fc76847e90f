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
(** Returns the parameter's binding.  When the whole table is scanned and
    ties prevent an exact threshold, [repair] (default on) swaps values of
    an involved column between rows — preserving every column's value
    multiset, hence every UCC — until the ACC count is exact; rows below
    [frozen_prefix] (bound-row groups) are never touched.  [interrupt] is
    the cooperative budget poll: called at entry and periodically inside
    the repair swap search.  Repair mutates the stored (off-heap) columns
    in place and its scratch state is the sample itself, so the run's heap
    stays O(sample), not O(rows).
    @raise Invalid_argument if the expression references unknown columns or
    non-numeric data. *)

val choose_threshold :
  cmp:Mirage_sql.Pred.cmp -> target:int -> float array -> float
(** The order-statistic search on a materialised result view (exposed for
    tests): picks the threshold whose selected count is as close as possible
    to [target]. *)
