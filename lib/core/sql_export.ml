module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Plan = Mirage_relalg.Plan
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Render = Mirage_engine.Render

let ( let* ) = Result.bind

let sql_string = Render.sql_quote

(* floats everywhere in the SQL export share the render kernel's round-trip
   format, the same one the CSV writers use *)
let sql_value = function
  | Value.Null -> "NULL"
  | Value.Int x -> string_of_int x
  | Value.Float x -> Render.float_repr x
  | Value.Str s -> sql_string s

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

let cell_null nulls i =
  match nulls with Some b -> Col.Bitset.get b i | None -> false

(* per-column SQL cell writer on the render kernel: representation resolved
   once per column, digits written in place, dictionary pools escaped once
   per distinct string — never once per row *)
let sql_cell_renderer buf col =
  match col with
  | Col.Ints { data; nulls } ->
      fun i ->
        if cell_null nulls i then Render.Buf.add_string buf "NULL"
        else Render.Buf.itoa buf data.{i}
  | Col.Floats { data; nulls } ->
      fun i ->
        if cell_null nulls i then Render.Buf.add_string buf "NULL"
        else Render.Buf.ftoa buf data.{i}
  | Col.Dict { codes; pool; nulls } ->
      let escaped = Render.sql_pool pool in
      fun i ->
        Render.Buf.add_string buf
          (if cell_null nulls i then "NULL" else escaped.(codes.{i}))

(* appends one table's INSERT batches to [buf].  [lo, hi) restricts to a
   row range for a data.sql shard; statements restart every [batch] rows
   from row 0, so ranges aligned to the batch size concatenate
   byte-identically to the full render *)
let batch = 500

let add_inserts ?(lo = 0) ?hi buf db ~table =
  let tbl = Schema.table (Db.schema db) table in
  let names = Schema.column_names tbl in
  let n = match hi with Some h -> h | None -> Db.row_count db table in
  let renderers =
    Array.of_list
      (List.map (fun c -> sql_cell_renderer buf (Db.col db table c)) names)
  in
  let ncols = Array.length renderers in
  let header = Printf.sprintf "INSERT INTO %s (%s) VALUES\n" table (String.concat ", " names) in
  let i = ref lo in
  while !i < n do
    Render.Buf.add_string buf header;
    let hi = min n (!i + batch) in
    for r = !i to hi - 1 do
      if r > !i then Render.Buf.add_string buf ",\n";
      Render.Buf.add_char buf '(';
      for c = 0 to ncols - 1 do
        if c > 0 then Render.Buf.add_string buf ", ";
        renderers.(c) r
      done;
      Render.Buf.add_char buf ')'
    done;
    Render.Buf.add_string buf ";\n";
    i := hi
  done

let inserts db ~table =
  let buf = Render.Buf.create 4096 in
  add_inserts buf db ~table;
  Render.Buf.contents buf

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
  | Pred.Aconst f -> Render.float_repr f
  | Pred.Aadd (a, b) -> Printf.sprintf "(%s + %s)" (arith_sql a) (arith_sql b)
  | Pred.Asub (a, b) -> Printf.sprintf "(%s - %s)" (arith_sql a) (arith_sql b)
  | Pred.Amul (a, b) -> Printf.sprintf "(%s * %s)" (arith_sql a) (arith_sql b)
  | Pred.Adiv (a, b) -> Printf.sprintf "(%s / %s)" (arith_sql a) (arith_sql b)

let operand_sql ~env = function
  | Pred.Const v -> Ok (sql_value v)
  | Pred.Const_list vs -> Ok ("(" ^ String.concat ", " (List.map sql_value vs) ^ ")")
  | Pred.Param p -> (
      match Pred.Env.find p env with
      | Some (Pred.Env.Scalar v) -> Ok (sql_value v)
      | Some (Pred.Env.Vlist vs) ->
          Ok ("(" ^ String.concat ", " (List.map sql_value vs) ^ ")")
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

module Sink = Mirage_engine.Sink

let export_chunked ?backend ?(resume = false) ?(interrupt = fun () -> ()) ~db
    ~workload ~env ~dir ~chunk_rows ~run_id () =
  if chunk_rows < 1 then
    invalid_arg "Sql_export.export_chunked: chunk_rows must be >= 1";
  let schema = Db.schema db in
  (* the CSV shard export owns MANIFEST.json in the same directory *)
  let sink =
    Sink.create ?backend ~resume ~manifest:"MANIFEST.sql.json" ~dir ~run_id ()
  in
  (* schema.sql and queries.sql are small and idempotent; only the data
     stream goes through the shard checkpoint *)
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "schema.sql" (ddl schema);
  let qbuf = Buffer.create 4096 in
  List.iter
    (fun (q : Workload.query) ->
      match query_sql q.Workload.q_plan ~schema ~env with
      | Ok sql ->
          Buffer.add_string qbuf (Printf.sprintf "-- %s\n%s;\n\n" q.Workload.q_name sql)
      | Error m ->
          Buffer.add_string qbuf (Printf.sprintf "-- %s: %s\n\n" q.Workload.q_name m))
    workload.Workload.w_queries;
  write "queries.sql" (Buffer.contents qbuf);
  (* each shard is a list of (table, lo, hi) row ranges.  Unbounded, every
     table goes to data.sql.0; bounded, each table is cut into shards of
     its own, at the shard row budget rounded down to whole INSERT batches
     so no boundary splits a statement *)
  let tables =
    List.map
      (fun (tbl : Schema.table) -> (tbl.Schema.tname, Db.row_count db tbl.Schema.tname))
      (Schema.tables schema)
  in
  let shards =
    if chunk_rows = max_int then [ List.map (fun (t, n) -> (t, 0, n)) tables ]
    else
      let per = max batch (chunk_rows / batch * batch) in
      List.concat_map
        (fun (t, n) ->
          List.init (max 1 ((n + per - 1) / per)) (fun s ->
              [ (t, s * per, min n ((s + 1) * per)) ]))
        tables
  in
  let buf = Render.Buf.create 65536 in
  let resumed = ref 0 in
  List.iteri
    (fun k ranges ->
      interrupt ();
      let name = Printf.sprintf "data.sql.%d" k in
      if Sink.is_done sink name then incr resumed
      else
        Sink.write_shard sink ~name (fun w ->
            (* one table at a time through the reused buffer *)
            List.iter
              (fun (table, lo, hi) ->
                Render.Buf.clear buf;
                add_inserts ~lo ~hi buf db ~table;
                Sink.put w (Render.Buf.unsafe_bytes buf) ~pos:0
                  ~len:(Render.Buf.length buf))
              ranges))
    shards;
  let k = List.length shards in
  Sink.remove_surplus ~dir (Printf.sprintf "data.sql.%d") k;
  Sink.finish sink;
  (k, !resumed)
