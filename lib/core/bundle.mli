(** Constraint bundles: everything the generation side needs, serialised.

    This is the paper's deployment story (§1): the production side exports
    only execution metrics — schema, query templates, parameter values,
    per-operator cardinalities and the derived constraints — and the
    database developers regenerate the data processing environment offline,
    without ever seeing production rows.

    A bundle contains the schema, the query templates, the extracted
    constraint IR (including the in/like production elements), the
    production parameter values and the queries the extraction rejected,
    in a line-oriented s-expression format.  Every generation crosses it:
    {!Driver.generate} runs {!of_extraction}, {!to_string} and {!of_string}
    before {!Driver.generate_from_bundle}. *)

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

val to_string : t -> string
(** One s-expression per line after a [(mirage-bundle 1)] header; [param],
    [param-list] and [elements] values write floats as [%h].  The text is
    a fixed point: [to_string] of [of_string s] is [s]. *)

val of_string : string -> (t, string) result
(** Parses {!to_string}'s text; [Error] names the first bad line.  The
    constraints are checked by {!validate}, not here. *)

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
