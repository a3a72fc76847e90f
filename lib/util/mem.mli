(** Coarse memory metering for the efficiency experiments (Figs. 14–16).

    We report the OCaml heap's high-water mark, which is the analogue of the
    paper's "memory required to guarantee the generation". *)

val live_bytes : unit -> int
(** Current live heap bytes (after a minor collection). *)
