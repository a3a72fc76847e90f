(** Fixed-size domain pool with deterministic work splitting.

    The generation pipeline is embarrassingly parallel at several grains —
    per-batch FK population, per-column CDF construction, per-table non-key
    instantiation, per-shard CSV export — and every one of those grains
    is driven through this module so the split is {e deterministic}: a
    parallel region always produces results indexed by shard/chunk/tile
    number, merged sequentially in index order, and any randomness inside a
    shard comes from an RNG stream derived from the shard index
    ({!Mirage_util.Rng.split} with [~stream]).  Output is therefore
    bit-identical for any domain count, including [1].

    A pool of size [n] consists of the calling domain plus [n - 1] spawned
    worker domains that block on a task queue.  The caller always
    participates in its own parallel regions, so nested regions cannot
    deadlock (they degrade to the caller draining the queue itself).

    Pools are built to be {e long-lived}: a region that raises still drains
    fully before the exception re-raises in the caller, leaving the workers
    parked on the queue and the pool usable for the next region.  {!get}
    hands out one resident pool per width for the whole process. *)

type pool

val sequential : pool
(** A shared size-1 pool: every region runs inline on the caller. *)

val get : ?domains:int -> unit -> pool
(** [get ~domains ()] returns the process-global resident pool of that
    width, creating it on first use ([domains - 1] worker domains;
    [domains] is clamped to [\[1, 64\]] and defaults to
    {!default_domains}; width 1 returns {!sequential}).  The pool is shared
    by every caller for the life of the process — generation runs, CLI
    exports and repeated benchmark runs reuse the same worker domains
    instead of re-spawning them — and is joined automatically at process
    exit.  A failed region (exception, budget breach) leaves the pool
    fully usable. *)

val size : pool -> int
(** Total domains participating in a region, including the caller. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [\[1, 8\]] — the default
    width used when a config does not pin one. *)

val run : pool -> int -> (int -> unit) -> unit
(** [run pool n f] executes [f 0 .. f (n-1)], distributing tasks over the
    pool (the caller participates).  Returns when all [n] calls finished.
    The first exception raised by any task is re-raised in the caller after
    the region drains; the remaining tasks still run, so the pool stays
    usable. *)

val iter_chunks :
  pool -> ?chunks:int -> ?grain:int -> int -> (int -> int -> unit) -> unit
(** [iter_chunks pool n f] splits [0 .. n-1] into at most [chunks]
    contiguous ranges (default [4 × size]) and calls [f lo hi] (inclusive)
    for each in parallel.  [grain] (default 1) is the minimum items per
    chunk: a region with fewer than [2 × grain] items runs as a single
    inline chunk, so tiny regions never pay parallel dispatch.  Chunk
    boundaries depend only on [n], [chunks] and [grain], never on the domain
    count, so per-chunk work is deterministic. *)

val init : pool -> ?chunks:int -> ?grain:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]: element order is by index, as sequentially. *)

val map_list : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map]; preserves list order.  Each element is one task, so
    use it for coarse-grained jobs (a column build, a table instantiation). *)

(** Futures on the resident pool.  {!Mirage_core.Driver} runs each table's
    live export ([on_table_ready]) as one, beside the key-generation walk.

    A future wraps one closure queued on the pool.  The pool decides only
    {e when} the closure runs, never what it computes: submitters must hand
    each task everything it draws from (its RNG stream, its row window)
    already sequenced, so execution order cannot leak into results.

    [await] {e helps}: while the future is pending and the queue holds
    tasks, the caller pops and runs them instead of parking.  A graph whose
    only blocking is [await] therefore cannot deadlock — in the degenerate
    case the caller executes every task itself, which is exactly the
    sequential schedule.  On a width-1 pool [submit] runs the closure
    inline, in submission order. *)
module Future : sig
  type 'a t

  val submit : pool -> (unit -> 'a) -> 'a t
  (** [submit pool f] queues [f] and returns its future.  Width-1 pools run
      [f] before returning.  An exception escaping [f] is stored and
      re-raised by every {!await}. *)

  val await : 'a t -> 'a
  (** Blocks until the future completes, running queued pool tasks while it
      waits; returns the result or re-raises the task's exception.  May be
      called from multiple domains and any number of times. *)
end

(**/**)

(* Test hooks, called only from test/. *)

val with_pool : ?domains:int -> (pool -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool of its own and joins its
    domains afterwards, also on exception.  For the tests that want an
    isolated pool: test_par "scale-out bytes", test_sink "mkdir_p
    concurrent creation", test_stream "streamed db kill+resume export
    identity" and others. *)

val map_chunks :
  pool -> ?chunks:int -> ?grain:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with chunked scheduling.  Tested by test_par
    "map_chunks / map_list". *)
