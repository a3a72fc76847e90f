(** The workload parser (§3, Fig. 4): executes the (rewritten) templates on
    the production database and collects every cardinality constraint in
    {!Ir.t} form, plus fully annotated AQTs of the {e original} plans for
    later verification. *)

type extraction = {
  ir : Ir.t;
  aqts : Mirage_relalg.Aqt.t list;
      (** original plans, every view annotated with its production output
          size — the ground truth used to measure simulation error *)
  rewritten :
    (string * Mirage_relalg.Plan.t * Mirage_relalg.Plan.t list) list;
      (** per query: rewritten plan and auxiliary complement plans *)
  diags : Diag.t list;
      (** per-query extraction failures: a template the rewriter cannot push
          down is skipped (reported Unsupported) instead of aborting *)
}

val run :
  Workload.t ->
  ref_db:Mirage_engine.Db.t ->
  prod_env:Mirage_sql.Pred.Env.t ->
  extraction
(** A template that cannot be pushed down or analysed contributes no
    constraints; the failure is recorded in [diags]. *)

val production_elements :
  Mirage_sql.Schema.t ->
  Mirage_engine.Db.t ->
  env:Mirage_sql.Pred.Env.t ->
  Mirage_sql.Pred.literal ->
  (Mirage_sql.Value.t * int) list
(** The production elements of one [IN] or [LIKE] literal (§4.2), read
    from the stored column of the table owning the literal's column: each
    listed [IN] value with its row count under [Value.compare], in list
    order, or each string matching the [LIKE] pattern with its row count,
    sorted.  A parameter operand resolves in [env]; an unbound one, a
    non-string pattern, a column no table owns and any other literal give
    [[]].  The same counter fills {!Ir.t}'s [param_elements]. *)

(**/**)

(* Tested by test_core "child view classification". *)
val child_view_of : table:string -> Mirage_relalg.Plan.t -> Ir.child_view
(** Classify a join child subtree (exposed for tests). *)
