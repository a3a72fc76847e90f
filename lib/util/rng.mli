(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every stochastic choice in the generator pipeline is driven by one of
    these so that a run is reproducible from a single seed.  The state is
    mutable; [split] forks an independent stream, which lets parallel stages
    (per-column generation, per-batch population) stay deterministic
    regardless of evaluation order. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : ?stream:int -> t -> t
(** [split t] advances [t] and returns an independent stream.

    [split ~stream:i t] instead derives stream [i] as a {e pure} function of
    [t]'s current state and [i], without advancing [t]: shard [i] of a
    parallel region always receives the same generator regardless of how
    many shards exist, their scheduling order, or the domain count — the
    invariant behind deterministic domain-parallel generation.  Distinct
    stream indices give independent streams (one SplitMix64 finaliser apart,
    like successive {!split}s). *)

val copy : t -> t
(** [copy t] returns an independent generator whose next draws equal [t]'s:
    a snapshot of the current state.  Pair with {!skip} to hand a consumer
    its exact stream while the owner jumps past it in O(1). *)

val skip : t -> int -> unit
(** [skip t n] advances [t] as if [n] single-word draws ([int], [float],
    [bool], one {!split}) had been made, in constant time.  SplitMix64
    advances its state by a fixed gamma per draw, so the jump is one
    multiply-add.  Draws that consume several words (none today) would need
    their word count, not their call count. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in [\[0, bound)].  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] returns a uniform integer in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffle_swap : t -> int -> (int -> int -> unit) -> unit
(** [shuffle_swap t n swap] runs the same Fisher–Yates walk as {!shuffle}
    over an abstract sequence of length [n], calling [swap i j] for each
    exchange.  The RNG draw sequence is identical to [shuffle] on an
    [n]-element array, so containers that are not heap arrays (off-heap
    {!Mirage_engine.Col.Ivec} pools) shuffle to the same permutation. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] returns a uniform element of the non-empty array [arr]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] returns [k] distinct integers drawn
    uniformly from [\[0, n)], in random order.  Requires [k <= n]. *)
