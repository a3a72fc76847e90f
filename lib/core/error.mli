(** Simulation-fidelity measurement (§8, Figs. 11 and 12).

    A query's relative error is [Σᵢ | |Vᵢ| − |V̂ᵢ| | / Σᵢ |Vᵢ|] over all its
    operator views, comparing production annotations against the synthetic
    database.  Unsupported queries score 1.0 ("100% error means no
    support"). *)

type query_error = {
  qe_name : string;
  qe_relative : float;
  qe_expected : int list;  (** per-view production cardinalities *)
  qe_actual : int list;  (** per-view synthetic cardinalities *)
  qe_note : string option;
      (** why the query scored 1.0 (the replay exception's message), when it
          could not be measured at all *)
}

val measure :
  aqts:Mirage_relalg.Aqt.t list ->
  db:Mirage_engine.Db.t ->
  env:Mirage_sql.Pred.Env.t ->
  query_error list
(** Replays every AQT's plan on [db] with the instantiated parameters [env]
    and scores it against its annotations.  A query whose replay raises
    (e.g. unbound parameter) scores 1.0, with the exception's message
    recorded in [qe_note]; unexpected exceptions propagate. *)

type latency = { lat_name : string; lat_ref : float; lat_synth : float }

val latencies :
  aqts:Mirage_relalg.Aqt.t list ->
  ref_db:Mirage_engine.Db.t ->
  prod_env:Mirage_sql.Pred.Env.t ->
  synth_db:Mirage_engine.Db.t ->
  synth_env:Mirage_sql.Pred.Env.t ->
  repeat:int ->
  latency list
(** Wall-clock replay times on both databases: one warm-up run, then the
    median of [repeat] timed runs per query. *)
