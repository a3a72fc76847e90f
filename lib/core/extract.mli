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
    constraints; the failure is recorded in [diags].  {!Ir.t}'s
    [param_elements] holds the production elements (§4.2) of every [IN] or
    [LIKE] parameter in the final selection constraints, read from the
    stored column of the constraint's table: each listed [IN] value with
    its row count under [Value.compare], in list order, or each string
    matching the [LIKE] pattern with its row count, sorted.  A non-string
    pattern gives [[]]. *)

(**/**)

(* Tested by test_core "child view classification". *)
val child_view_of : table:string -> Mirage_relalg.Plan.t -> Ir.child_view
(** Classify a join child subtree (exposed for tests). *)
