(** Hoeffding-bound sample sizing (§4.4).

    The paper samples [n >= (ln 2 - ln (1 - alpha)) / (2 * delta^2)] rows to
    instantiate an arithmetic-predicate parameter with relative error at most
    [delta] at confidence level [alpha]. *)

val sample_size : delta:float -> alpha:float -> int
(** [sample_size ~delta ~alpha] returns the minimal sample size guaranteeing
    error bound [delta] at confidence [alpha].  Both must be in (0, 1). *)

(**/**)

val error_bound : sample_size:int -> alpha:float -> float
(** [error_bound ~sample_size ~alpha] inverts {!sample_size}: the [delta]
    guaranteed by a given sample size at confidence [alpha].  Checks
    {!sample_size} in test_util "hoeffding inverse". *)
