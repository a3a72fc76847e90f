(** Finite-domain constraint-programming solver (the paper uses Google
    OR-Tools [19]; this is our from-scratch substitute, see DESIGN.md).

    Variables range over integer intervals.  Supported constraints:
    - linear equalities / inequalities [Σ aᵢ·xᵢ (= | ≤) c],
    - pairwise order [x ≥ y],
    - positivity implications [x > 0 ⇒ y > 0].

    The solver interleaves bounds-consistency propagation with
    depth-first domain-splitting search ("constraint propagation to prune
    the search space", §5.2).  It is complete: given enough nodes it either
    finds a feasible assignment or proves unsatisfiability.

    The core is an event-driven kernel: the constraint store is compiled to
    flat arrays with per-variable watch lists, propagation drains a work
    queue seeded only by variables whose bounds changed, and backtracking
    undoes a (var, old_lo, old_hi) trail to a saved mark instead of copying
    the domain arrays at every node (see DESIGN.md, "CP kernel"). *)

type t
type var

type outcome =
  | Sat of (var -> int)  (** feasible assignment *)
  | Unsat
  | Unknown  (** node limit exhausted *)

type stats = {
  st_nodes : int;  (** search nodes explored, cumulative across restarts *)
  st_restarts : int;  (** restarts taken by the escalating-budget ladder *)
  st_props : int;
      (** propagator executions (work-queue pops), cumulative across
          restarts — the cost the event-driven kernel minimises *)
}

val create : unit -> t

val var : ?aux:bool -> t -> lo:int -> hi:int -> var
(** New variable with inclusive bounds.  [aux] variables participate in
    LP-only rows but are never branched on by the search.
    @raise Invalid_argument if [lo > hi]. *)

val linear_eq : t -> (int * var) list -> int -> unit
(** [linear_eq t terms c] posts [Σ coeff·var = c]. *)

val linear_le : t -> (int * var) list -> int -> unit
(** [linear_le t terms c] posts [Σ coeff·var ≤ c]. *)

val lp_linear_le : t -> (int * var) list -> int -> unit
(** Like {!linear_le}, but the row is seen only by the internal LP
    relaxation (to shape the branching guide), not by propagation or the
    feasibility check — use for redundant capacity hints. *)

val solve :
  ?max_nodes:int -> ?lp_guide:bool -> ?interrupt:(unit -> unit) -> t ->
  outcome * stats
(** [interrupt] is a cooperative cancellation point, called before the solve
    starts and every 64 search nodes; whatever it raises (typically
    {!Mirage_util.Budget.Exceeded}) aborts the search and propagates to the
    caller — use it to enforce wall-clock deadlines or heap watermarks on
    runaway solves.  It must not raise spuriously: the default does nothing.

    Default node limit 1_000_000 (cumulative across restarts).  [lp_guide]
    (default on) computes an LP relaxation to repair into a fast solution and
    to order branching values; disabling it leaves pure propagation + DFS
    (the ablation baseline).

    When an attempt exhausts its node budget the solver restarts
    deterministically with an escalating budget (starting at [max_nodes / 8],
    doubling per restart) and a perturbed variable/value ordering, until the
    cumulative budget is spent.  An [Unsat] answer is a proof and is returned
    immediately at any budget; [Unknown] means every attempt was node-limited.
    Search statistics are returned alongside every outcome. *)

(**/**)

val set_objective : t -> (int * var) list -> unit
(** Objective (minimised) used only by the internal LP relaxation to pick
    good branching values; the search itself remains pure feasibility. *)

(* Test hooks, called only from test/test_cp.ml. *)

val ge : t -> var -> var -> unit
(** [ge t x y] posts [x ≥ y].  Tested by "ge" and the QCheck kernel
    properties. *)

val imply_pos : t -> var -> var -> unit
(** [imply_pos t x y] posts [x > 0 ⇒ y > 0].  Tested by "imply_pos" and
    "imply contrapositive". *)

val root_fixpoint : t -> (int array * int array) option
(** Bounds-consistency propagation to fixpoint on the initial domains, no
    search: [Some (lo, hi)] with the tightened bounds per variable, or
    [None] when propagation alone proves infeasibility.  For "event kernel
    == naive fixpoint bounds, solve == brute-force verdict". *)

val solution_of_fun : t -> (var -> int) -> int array
(** Materialise a [Sat] assignment as a plain array in variable-creation
    order.  For the QCheck kernel properties. *)
