module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Plan = Mirage_relalg.Plan

let ( let* ) = Result.bind

let sql_kind = function
  | Schema.Kint -> "BIGINT"
  | Schema.Kfloat -> "DOUBLE PRECISION"
  | Schema.Kstring -> "VARCHAR(64)"

let ddl schema =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (tbl : Schema.table) ->
      Buffer.add_string buf (Printf.sprintf "CREATE TABLE %s (\n" tbl.Schema.tname);
      let cols =
        (Printf.sprintf "  %s BIGINT PRIMARY KEY" tbl.Schema.pk)
        :: List.map
             (fun (c : Schema.column) ->
               Printf.sprintf "  %s %s" c.Schema.cname (sql_kind c.Schema.kind))
             tbl.Schema.nonkeys
        @ List.map
            (fun (f : Schema.fk) ->
              Printf.sprintf "  %s BIGINT REFERENCES %s" f.Schema.fk_col
                f.Schema.references)
            tbl.Schema.fks
      in
      Buffer.add_string buf (String.concat ",\n" cols);
      Buffer.add_string buf "\n);\n\n")
    (Schema.tables schema);
  Buffer.contents buf

(* --- predicates ------------------------------------------------------------- *)

let cmp_sql = function
  | Pred.Eq -> "="
  | Pred.Neq -> "<>"
  | Pred.Lt -> "<"
  | Pred.Le -> "<="
  | Pred.Gt -> ">"
  | Pred.Ge -> ">="

let rec arith_sql = function
  | Pred.Acol c -> c
  | Pred.Aconst f -> Value.float_digits f
  | Pred.Aadd (a, b) -> Printf.sprintf "(%s + %s)" (arith_sql a) (arith_sql b)
  | Pred.Asub (a, b) -> Printf.sprintf "(%s - %s)" (arith_sql a) (arith_sql b)
  | Pred.Amul (a, b) -> Printf.sprintf "(%s * %s)" (arith_sql a) (arith_sql b)
  | Pred.Adiv (a, b) -> Printf.sprintf "(%s / %s)" (arith_sql a) (arith_sql b)

(* literals in Value's one spelling, which is also SQL's *)
let operand_sql ~env = function
  | Pred.Const v -> Ok (Value.to_string v)
  | Pred.Const_list vs -> Ok (Pred.Env.binding_to_string (Pred.Env.Vlist vs))
  | Pred.Param p -> (
      match Pred.Env.find p env with
      | Some b -> Ok (Pred.Env.binding_to_string b)
      | None -> Error (Printf.sprintf "unbound parameter %s" p))

let rec pred_sql ~env = function
  | Pred.True -> Ok "TRUE"
  | Pred.False -> Ok "FALSE"
  | Pred.Not p ->
      let* s = pred_sql ~env p in
      Ok ("NOT (" ^ s ^ ")")
  | Pred.And ps ->
      let* parts = all ~env ps in
      Ok ("(" ^ String.concat " AND " parts ^ ")")
  | Pred.Or ps ->
      let* parts = all ~env ps in
      Ok ("(" ^ String.concat " OR " parts ^ ")")
  | Pred.Lit (Pred.Cmp { col; cmp; arg }) ->
      let* a = operand_sql ~env arg in
      Ok (Printf.sprintf "%s %s %s" col (cmp_sql cmp) a)
  | Pred.Lit (Pred.In { col; neg; arg }) ->
      let* a = operand_sql ~env arg in
      (* an empty IN list is not valid SQL *)
      if a = "()" then Ok (if neg then "TRUE" else "FALSE")
      else Ok (Printf.sprintf "%s %sIN %s" col (if neg then "NOT " else "") a)
  | Pred.Lit (Pred.Like { col; neg; arg }) ->
      let* a = operand_sql ~env arg in
      Ok (Printf.sprintf "%s %sLIKE %s" col (if neg then "NOT " else "") a)
  | Pred.Lit (Pred.Arith_cmp { expr; cmp; arg }) ->
      let* a = operand_sql ~env arg in
      Ok (Printf.sprintf "%s %s %s" (arith_sql expr) (cmp_sql cmp) a)

and all ~env = function
  | [] -> Ok []
  | p :: rest ->
      let* s = pred_sql ~env p in
      let* others = all ~env rest in
      Ok (s :: others)

(* --- plans ------------------------------------------------------------------- *)

(* renders a plan as something usable in a FROM clause; [fresh] names the
   subquery aliases q1, q2, ... of one rendered query *)
let rec relation_sql ~fresh ~env ~schema plan =
  match plan with
  | Plan.Table t -> Ok t
  | _ ->
      let* s = select_sql ~fresh ~env ~schema plan in
      Ok ("(" ^ s ^ ") " ^ fresh ())

and select_sql ~fresh ~env ~schema plan =
  match plan with
  | Plan.Table t -> Ok ("SELECT * FROM " ^ t)
  | Plan.Select (p, q) ->
      let* rel = relation_sql ~fresh ~env ~schema q in
      let* w = pred_sql ~env p in
      Ok (Printf.sprintf "SELECT * FROM %s WHERE %s" rel w)
  | Plan.Project { cols; input } ->
      let* rel = relation_sql ~fresh ~env ~schema input in
      Ok (Printf.sprintf "SELECT DISTINCT %s FROM %s" (String.concat ", " cols) rel)
  | Plan.Aggregate { group_by; aggs; input } ->
      let* rel = relation_sql ~fresh ~env ~schema input in
      let agg_exprs =
        List.map
          (fun (f, c) ->
            let fn =
              match f with
              | Plan.Count -> "COUNT"
              | Plan.Sum -> "SUM"
              | Plan.Avg -> "AVG"
              | Plan.Min -> "MIN"
              | Plan.Max -> "MAX"
            in
            Printf.sprintf "%s(%s) AS %s_%s" fn c (String.lowercase_ascii fn) c)
          aggs
      in
      let selects = group_by @ agg_exprs in
      if group_by = [] then
        Ok (Printf.sprintf "SELECT %s FROM %s" (String.concat ", " selects) rel)
      else
        Ok
          (Printf.sprintf "SELECT %s FROM %s GROUP BY %s" (String.concat ", " selects)
             rel
             (String.concat ", " group_by))
  | Plan.Join { jt; pk_table; fk_col; left; right; _ } -> (
      let pk_col = (Schema.table schema pk_table).Schema.pk in
      let* l = relation_sql ~fresh ~env ~schema left in
      let* r = relation_sql ~fresh ~env ~schema right in
      match jt with
      | Plan.Inner ->
          Ok (Printf.sprintf "SELECT * FROM %s JOIN %s ON %s = %s" l r pk_col fk_col)
      | Plan.Left_outer ->
          Ok (Printf.sprintf "SELECT * FROM %s LEFT JOIN %s ON %s = %s" l r pk_col fk_col)
      | Plan.Right_outer ->
          Ok (Printf.sprintf "SELECT * FROM %s RIGHT JOIN %s ON %s = %s" l r pk_col fk_col)
      | Plan.Full_outer ->
          Ok
            (Printf.sprintf "SELECT * FROM %s FULL OUTER JOIN %s ON %s = %s" l r pk_col
               fk_col)
      | Plan.Left_semi ->
          let a = fresh () and b = fresh () in
          Ok
            (Printf.sprintf
               "SELECT * FROM (%s) %s WHERE EXISTS (SELECT 1 FROM (%s) %s WHERE %s.%s = %s.%s)"
               (strip_rel l) a (strip_rel r) b b fk_col a pk_col)
      | Plan.Left_anti ->
          let a = fresh () and b = fresh () in
          Ok
            (Printf.sprintf
               "SELECT * FROM (%s) %s WHERE NOT EXISTS (SELECT 1 FROM (%s) %s WHERE %s.%s = %s.%s)"
               (strip_rel l) a (strip_rel r) b b fk_col a pk_col)
      | Plan.Right_semi ->
          let a = fresh () and b = fresh () in
          Ok
            (Printf.sprintf
               "SELECT * FROM (%s) %s WHERE EXISTS (SELECT 1 FROM (%s) %s WHERE %s.%s = %s.%s)"
               (strip_rel r) a (strip_rel l) b b pk_col a fk_col)
      | Plan.Right_anti ->
          let a = fresh () and b = fresh () in
          Ok
            (Printf.sprintf
               "SELECT * FROM (%s) %s WHERE NOT EXISTS (SELECT 1 FROM (%s) %s WHERE %s.%s = %s.%s)"
               (strip_rel r) a (strip_rel l) b b pk_col a fk_col))

(* a relation string is either a bare table name or "(SELECT ...) qN"; for
   EXISTS bodies we want the inner select *)
and strip_rel rel =
  if String.length rel > 0 && rel.[0] = '(' then
    (* drop the surrounding parens and alias *)
    let close = String.rindex rel ')' in
    String.sub rel 1 (close - 1)
  else "SELECT * FROM " ^ rel

let query_sql plan ~schema ~env =
  let n = ref 0 in
  let fresh () =
    incr n;
    Printf.sprintf "q%d" !n
  in
  select_sql ~fresh ~env ~schema plan

let write ~dir ~workload ~env =
  let schema = workload.Workload.w_schema in
  let file name contents =
    Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
        output_string oc contents)
  in
  file "schema.sql" (ddl schema);
  file "queries.sql"
    (String.concat ""
       (List.map
          (fun (q : Workload.query) ->
            match query_sql q.Workload.q_plan ~schema ~env with
            | Ok sql -> Printf.sprintf "-- %s\n%s;\n\n" q.Workload.q_name sql
            | Error m -> Printf.sprintf "-- %s: %s\n\n" q.Workload.q_name m)
          workload.Workload.w_queries))
