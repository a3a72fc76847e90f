(** Structured pipeline diagnostics.

    Every stage of the generation pipeline reports problems as typed
    diagnostics instead of bare strings or exceptions: a diagnostic carries
    the stage it originated from, the table and/or query (constraint source)
    it concerns, a severity, a message, and — where we know one — a recovery
    hint for the operator.  [Driver.generate] collects them in [r_diags] and
    per-query feasibility {!verdict}s; an [Error d] result means generation
    could not proceed at all and [d] says why. *)

type stage =
  | Validate  (** up-front workload / bundle validation *)
  | Extract  (** workload parsing + rewriting *)
  | Decouple  (** LCC decoupling (§4.1) *)
  | Cdf  (** per-column CDF construction (§4.2) *)
  | Nonkey  (** non-key data generation (§4.3) *)
  | Acc  (** arithmetic-constraint parameter search (§4.4) *)
  | Keygen  (** FK population (§5) *)
  | Cp  (** the constraint-programming solver *)
  | Bundle  (** bundle (de)serialisation *)
  | Driver  (** pipeline orchestration *)
  | Sink  (** crash-safe chunked export (shard files, manifest) *)
  | Budget  (** resource-budget breach: heap watermark or wall-clock deadline *)

type severity = Info | Warning | Error

type t = {
  d_stage : stage;
  d_severity : severity;
  d_table : string option;  (** table the problem concerns, when known *)
  d_query : string option;
      (** originating constraint source, e.g. ["q18"] or ["q18#pcc"] *)
  d_message : string;
  d_hint : string option;  (** suggested operator action, when we have one *)
}

val error :
  ?table:string -> ?query:string -> ?hint:string -> stage ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val warning :
  ?table:string -> ?query:string -> ?hint:string -> stage ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val info :
  ?table:string -> ?query:string -> ?hint:string -> stage ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val exit_code : t -> int
(** Process exit code a fatal diagnostic maps to (see [mirage_cli --help]):
    [Budget] → 3 (budget / deadline exceeded), [Sink] → 4 (I/O failure),
    any other stage → 2 (infeasible workload / generation failure).  Codes
    0 (success) and 1 (degraded / quarantined verdicts) are decided by the
    caller from the overall result, not from a diagnostic. *)

val base_query : t -> string option
(** The plain query name behind [d_query]: a constraint source such as
    ["q18#pcc"] or ["q18#aux0"] belongs to query ["q18"]. *)

val query_of_source : string -> string
(** ["q18#pcc"] → ["q18"]; a plain name maps to itself. *)

val to_string : t -> string
(** One-line rendering: [stage: severity: [query] [table] message (hint)]. *)

val pp : Format.formatter -> t -> unit

(** {2 Per-query feasibility verdicts}

    Degraded mode (see DESIGN.md, "Failure modes and degraded generation")
    classifies every query of the workload after generation. *)

type status =
  | Exact  (** all of the query's constraints honoured exactly *)
  | Degraded
      (** generated, but at least one constraint was adjusted (resize,
          soft fallback, dropped bound group, …) *)
  | Quarantined
      (** the query's constraints were removed from the system because they
          made it infeasible; the query still runs but its cardinalities
          carry no guarantee *)
  | Unsupported  (** the template could not be analysed at all *)

type verdict = {
  v_query : string;
  v_status : status;
  v_detail : string option;  (** why, for non-[Exact] statuses *)
}

val status_name : status -> string
val pp_verdict : Format.formatter -> verdict -> unit

(**/**)

(* Tested by test_sink "deadline yields typed Diag (exit 3)". *)
val stage_name : stage -> string
