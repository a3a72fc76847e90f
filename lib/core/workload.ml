module Plan = Mirage_relalg.Plan
module Pred = Mirage_sql.Pred

type query = { q_name : string; q_plan : Plan.t }

type t = { w_schema : Mirage_sql.Schema.t; w_queries : query list }

(* an arithmetic predicate compares with <, <=, > or >= (§2.2): the parser
   refuses = and <> there, and so must a plan built in code *)
let arith_equality plan =
  let rec holds = function
    | Pred.Lit (Pred.Arith_cmp { cmp = Pred.Eq | Pred.Neq; _ }) -> true
    | Pred.Lit _ | Pred.True | Pred.False -> false
    | Pred.Not p -> holds p
    | Pred.And ps | Pred.Or ps -> List.exists holds ps
  in
  List.exists
    (function Plan.Select (p, _) -> holds p | _ -> false)
    (Plan.preorder plan)

(* the checks behind [make], non-raising, for fail-fast validation of
   workloads that arrive pre-constructed (e.g. deserialised from a bundle) *)
let validate t =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun q ->
      if Hashtbl.mem seen q.q_name then
        push
          (Diag.error ~query:q.q_name Diag.Validate "duplicate query name %s"
             q.q_name)
      else Hashtbl.add seen q.q_name ();
      (match Plan.validate t.w_schema q.q_plan with
      | Ok () -> ()
      | Error msg ->
          push
            (Diag.error ~query:q.q_name
               ~hint:"the plan references tables or columns absent from the \
                      schema"
               Diag.Validate "%s" msg));
      if arith_equality q.q_plan then
        push
          (Diag.error ~query:q.q_name
             ~hint:"compare the arithmetic expression with <, <=, > or >="
             Diag.Validate "arithmetic predicates only support <, <=, >, >="))
    t.w_queries;
  let params = Hashtbl.create 64 in
  List.iter
    (fun q ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt params p with
          | Some other when other <> q.q_name ->
              push
                (Diag.error ~query:q.q_name Diag.Validate
                   "parameter %s shared by queries %s and %s" p other q.q_name)
          | _ -> Hashtbl.replace params p q.q_name)
        (Plan.params q.q_plan))
    t.w_queries;
  List.rev !diags

let make w_schema w_queries =
  let t = { w_schema; w_queries } in
  match validate t with
  | d :: _ -> invalid_arg ("Workload.make: " ^ Diag.to_string d)
  | [] -> t

let query t name =
  match List.find_opt (fun q -> q.q_name = name) t.w_queries with
  | Some q -> q
  | None -> invalid_arg (Printf.sprintf "Workload.query: unknown query %s" name)

let take t n =
  { t with w_queries = List.filteri (fun i _ -> i < n) t.w_queries }

let param_names t =
  List.concat_map (fun q -> Plan.params q.q_plan) t.w_queries
