(** Two-phase tableau simplex over floats with Bland's rule.

    Solves the LP relaxation that guides the CP key generator's branching
    (Cp.lp_guess), the JCC soft fallback of the key generator, and the
    Hydra-style baseline, which casts query-aware generation as
    linear-programming tasks (DCGen [2], Hydra [22]).  Floating point plus
    integer rounding reproduces Hydra's characteristic "slender deviations"
    when LP solutions are merged (§8.1.1).

    Problem form: minimise [c·x] subject to [A·x = b], [x ≥ 0].  [A] is
    given as sparse rows, and each pivot touches only the non-zero columns
    of its pivot row, so a solve costs in proportion to the non-zeros rather
    than to [m × n]. *)

type outcome =
  | Optimal of float array
  | Infeasible
  | Unbounded

val solve :
  a:(int * float) array array ->
  b:float array ->
  c:float array ->
  unit ->
  outcome
(** [solve ~a ~b ~c ()] with [a] the [m] rows of an [m×n] matrix, each the
    [(column, coefficient)] pairs of its entries (absent columns are zero),
    [b] length [m] (made non-negative internally), [c] length [n].  Phase I
    finds a basic feasible solution via artificial variables; Phase II
    optimises [c].  Pivoting and the phase I feasibility test use one
    fixed tolerance, [1e-9].  The inputs are not mutated.
    @raise Invalid_argument if [|b| <> m], or a row lists a column outside
    [\[0, n)] or lists a column twice. *)

val feasible_point :
  n:int -> a:(int * float) array array -> b:float array -> unit ->
  float array option
(** Feasibility-only convenience wrapper (zero objective over [n]
    columns). *)

val round_preserving_sum : float array -> total:int -> int array
(** Largest-remainder rounding of a non-negative vector to integers summing
    to [total] — how the baseline turns LP region weights into row counts. *)
