(** Constraint bundles: everything the generation side needs, serialised.

    This is the paper's deployment story (§1): the production side exports
    only execution metrics — schema, query templates, parameter values,
    per-operator cardinalities and the derived constraints — and the
    database developers regenerate the data processing environment offline,
    without ever seeing production rows.

    A bundle contains the schema, the query templates, the extracted
    constraint IR (including the in/like production elements), the
    production parameter values and the queries the extraction rejected,
    in a line-oriented s-expression format. *)

type t = {
  b_workload : Workload.t;
  b_ir : Ir.t;
  b_env : Mirage_sql.Pred.Env.t;
  b_unsupported : Diag.t list;
      (** the extraction's per-query failures ({!Extract.extraction}'s
          [diags]), one [(unsupported QUERY MESSAGE [HINT])] line each: the
          queries generation reports Unsupported *)
}

val of_extraction :
  Workload.t -> Extract.extraction -> prod_env:Mirage_sql.Pred.Env.t -> t

val save : t -> path:string -> unit
val load : path:string -> (t, string) result

val validate : t -> Diag.t list
(** Referential-integrity and sanity checks over a deserialised bundle:
    every schema table has a non-negative cardinality entry, selection
    constraints name known tables and satisfy |σ(T)| ≤ |T|, join
    constraints ride real FK edges of the schema with sane counts, and no
    populated table references a zero-row table.  Includes
    {!Workload.validate} of the embedded workload.  Errors in the returned
    list make generation fail fast ({!Driver.generate_from_bundle}). *)

(**/**)

(* Tested by test_integration "round trip equals direct generation" and
   test_robustness "truncated bundle". *)
val to_string : t -> string

(* Tested by test_integration "rejects garbage" and test_robustness "malformed
   integer". *)
val of_string : string -> (t, string) result
