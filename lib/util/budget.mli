(** Resource budgets and cooperative cancellation.

    Generation at SF ≫ RAM must fail {e predictably}: a run that outgrows
    its heap or overruns its wall-clock allowance should stop at the next
    safe point and surface a typed verdict, not OOM, hang, or wedge a domain
    pool mid-region.  A {!t} token carries the run's {!limits}; every
    long-running loop of the pipeline — CP search nodes, keygen batches,
    export shards and tiles, driver stage boundaries — calls {!check} at its
    cancellation points, and the first breach raises {!Exceeded} with the
    reason.  The exception unwinds through {!Mirage_par.Par} regions exactly
    like any task exception (the region drains, the pool survives), so
    callers convert it to a diagnostic at one place.

    Checks are cheap (a clock read and a [Gc.quick_stat]) and safe to call
    from any domain; once a token trips it stays tripped, so every
    subsequent check re-raises the same reason. *)

type limits = {
  max_heap_mb : int option;
      (** heap watermark: trip when the OCaml major heap exceeds this many
          MiB.  Column payloads are off-heap Bigarrays and are not counted,
          nor is the process RSS. *)
  deadline_s : float option;
      (** wall-clock allowance in seconds, measured from {!start} *)
}

val no_limits : limits

type reason =
  | Deadline of float  (** the allowance that expired, in seconds *)
  | Heap of int  (** the watermark that was crossed, in MiB *)

exception Exceeded of reason

type t
(** A cancellation token: limits plus the clock origin and trip state. *)

val start : limits -> t
(** Arm a token: the deadline countdown begins now. *)

val check : t -> unit
(** Raise [Exceeded reason] if any limit is breached (or the token was
    already tripped); return otherwise.  Call this at every cancellation
    point. *)

val describe : reason -> string
(** One-line operator-facing rendering, e.g.
    ["wall-clock deadline of 30.0s expired"]. *)
