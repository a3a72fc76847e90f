(** End-to-end generation (Fig. 4): workload parser → non-key generator →
    key generator, with per-stage timings for the efficiency experiments. *)

type config = {
  seed : int;
  batch_size : int;  (** rows per generation batch (§8 "Setting") *)
  sample_size : int;  (** ACC sample size (default: Hoeffding for δ=0.1%, α=99.9%) *)
  cp_max_nodes : int;
  domains : int;
      (** width of the domain pool driving the parallel regions (CDF
          fan-out, per-table non-key instantiation, keygen CS/PF, scale-out
          tiles).  Clamped to [\[1, 64\]]; the default is
          [Mirage_par.Par.default_domains ()].  The pool itself is the
          process-global resident one of this width ([Mirage_par.Par.get]):
          repeated runs share its worker domains.  The generated database
          is bit-identical for every value of [domains]. *)
  acc_repair : bool;
      (** arrangement repair for arithmetic predicates: swap involved-column
          values between rows until tie-blocked ACC counts become exact
          (multiset-preserving, so UCCs stay exact); an extension beyond the
          paper's sampling bound — disable to reproduce the paper's exact
          behaviour *)
  lp_guide : bool;  (** ablation: LP-relaxation guidance inside the CP solver *)
  sparsify : bool;  (** ablation: JDC sparsification of the population matrix *)
  capacity_repair : bool;  (** ablation: pool-capacity x-moves before phase 2 *)
  guided_placement : bool;  (** ablation: production-guided CDF bin placement *)
  budget : Mirage_util.Budget.limits;
      (** cooperative resource budget (default {!Mirage_util.Budget.no_limits}):
          [max_heap_mb] and [deadline_s] are polled at stage boundaries,
          every keygen batch and every 64 CP search nodes.  A breach aborts
          generation with a typed [Diag.Budget] error result (process exit
          code 3) — never an uncaught exception, and the domain pool is
          left fully usable for the next run. *)
  chunk_rows : int option;
      (** row-scan step (the CLI's [--chunk-rows]): [Some c] makes every
          row scan — non-key instantiation, unconstrained FK fill, ACC
          repair — proceed [c] rows at a time ({!Chunk_plan.ranges}), with
          budget polls between steps; [None] is one step per table.  Every
          column payload lives off the OCaml heap either way
          ({!Mirage_engine.Col}), so the step bounds interruption latency,
          not memory; the generated bytes are identical for every step,
          domain count and resume point. *)
  schedule : [ `Barrier | `Overlap ];
      (** keygen scheduling.  [`Overlap] (the default) turns stage 6
          into a dependency-aware task DAG: FK edges with no ordering
          constraint between them populate concurrently on the pool, and
          a table whose last edge committed can start exporting
          ([on_table_ready]) while other tables still generate.  Within an
          edge, batches run one after another on both schedules.
          [`Barrier] is the legacy one-edge-at-a-time walk, kept as the
          differential oracle.  Each task's RNG stream is pre-sequenced at
          submission in topological edge order, so both schedules generate
          byte-identical databases for every domain count, chunk size and
          resume point — the schedule trades only wall-clock time. *)
  on_table_ready : (Mirage_engine.Db.t -> string -> unit) option;
      (** overlapped-export hook ([`Overlap] only): invoked as a pool task
          once per table the moment all of its columns are final — after
          its last FK edge commits, or immediately at keygen start for
          tables no edge writes into.  Exceptions are swallowed (the
          caller's finish pass must re-export whatever is missing); the
          callback must be safe to run on a worker domain. *)
  on_attempt_abort : (unit -> unit) option;
      (** invoked when an attempt dies on an infeasible population system
          — before the quarantine retry and before a final error — so a
          live exporter can discard shards written for the dead attempt.
          Not invoked on budget breaches: those abort a deterministic
          prefix of the final output, so already-committed shards remain
          valid for [--resume].  A hook that raises does not replace the
          failure being handled: its exception becomes a [Driver] warning
          in [r_diags] (when a retry succeeds) and generation goes on. *)
}

val default_config : config

type timings = {
  t_extract : float;  (** workload parsing + rewriting (on the production DB) *)
  t_decouple : float;  (** LCC decoupling (§4.1) *)
  t_cdf : float;  (** CDF construction + UCC parameter instantiation (§4.2) *)
  t_gd : float;  (** non-key data generation (§4.3) *)
  t_acc : float;  (** ACC sampling + parameter search (§4.4) *)
  t_cs : float;  (** join status vectors (§5.2) *)
  t_cp : float;  (** CP solving *)
  t_pf : float;  (** FK population *)
  t_total : float;  (** wall-clock, extract included *)
  t_cpu : float;
      (** CPU seconds spent generating (extract excluded), summed across
          every domain — [t_cpu / (t_total − t_extract)] approximates the
          effective parallelism of the run *)
  domains_used : int;  (** domain-pool width the run actually used *)
  cp_solves : int;
  cp_nodes : int;
  cp_restarts : int;  (** CP restart-ladder rungs taken across all solves *)
  cp_props : int;
      (** propagator executions across all CP solves — the event-driven
          kernel's unit of work *)
  cp_cache_hits : int;
      (** always 0: every CP system is solved, none is answered from a
          cache.  Kept for readers that still report it. *)
  batch_alloc_bytes : int;
      (** largest single-batch allocation volume in the key generator — the
          per-batch working set the paper's Fig. 14 trades against CP rounds *)
}

type result = {
  r_db : Mirage_engine.Db.t;  (** the synthetic database D' *)
  r_env : Mirage_sql.Pred.Env.t;  (** instantiated parameters (workload W') *)
  r_extraction : Extract.extraction;
  r_timings : timings;
  r_diags : Diag.t list;
      (** structured diagnostics from every stage, including validation
          warnings and quarantine decisions — the run's one diagnostics
          channel *)
  r_verdicts : Diag.verdict list;
      (** per-query feasibility verdict — Exact, Degraded, Quarantined or
          Unsupported — in workload order *)
}

val generate :
  ?config:config ->
  Workload.t ->
  ref_db:Mirage_engine.Db.t ->
  prod_env:Mirage_sql.Pred.Env.t ->
  (result, Diag.t) Stdlib.result
(** End-to-end generation with degraded mode: an infeasible population
    system quarantines the most implicated query (its constraints are
    removed, diagnosed in [r_diags] and verdicted [Quarantined]) and
    regenerates, so one contradictory annotation no longer aborts the whole
    workload.  [Error d] means generation could not proceed at all. *)

val generate_from_bundle :
  ?config:config -> Bundle.t -> (result, Diag.t) Stdlib.result
(** Generation from a saved constraint bundle — the production-side export —
    without any access to a production database.  The bundle is validated
    up-front ({!Bundle.validate}); the first validation error fails fast.
    [r_extraction.aqts] is empty (there is no ground truth to verify against
    in this mode); the constraints themselves are fully honoured. *)

val measure_errors : result -> Error.query_error list
(** Replays the original templates on the synthetic database. *)
