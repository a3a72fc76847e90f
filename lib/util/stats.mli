(** Small numeric helpers shared by the generators, the error measure
    and the benchmark. *)

val relative_error : expected:int list -> actual:int list -> float
(** The paper's fidelity metric: [sum |Vi - V̂i| / sum Vi] over the operator
    views of one query.  When the denominator is 0 the error is 0 if all
    actuals are 0 too, else 1. *)

val percentile : float array -> float -> float
(** [percentile data p] with [p] in [\[0,1\]]; sorts a copy. *)
