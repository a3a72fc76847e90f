(** TPC-H: 8 tables and all 22 queries authored as cardinality-relevant
    plan templates — including the operator classes that defeat prior QAGs:
    arithmetic predicates (Q4, Q11, Q12, Q21), LIKE patterns (Q2, Q8, Q9,
    Q13, Q16, Q20), IN lists (Q5, Q7, Q12, Q16, Q19, Q22), left outer join
    (Q13), semi joins (Q4, Q17, Q18, Q20), anti joins (Q21, Q22), an OR
    predicate across a join (Q19) and a projection on a foreign key (Q16).

    Aggregations, ORDER BY and correlated scalar subqueries do not constrain
    operator cardinalities and are modelled by their cardinality-relevant
    skeletons (semi/anti joins and arithmetic filters), mirroring how the
    paper's workload parser reduces execution traces to annotated query
    templates.

    Base scale [sf = 1.0] is 1/100 of the official SF-1 database (60 000
    lineitem rows). *)

val name : string

val make :
  sf:float ->
  seed:int ->
  Mirage_core.Workload.t * Mirage_engine.Db.t * Mirage_sql.Pred.Env.t

val specs : (string * (string * Refgen.col_spec) list) list
(** The production database's column specs per table, as passed to
    {!Refgen.build}. *)
