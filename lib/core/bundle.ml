module Sexp = Mirage_util.Sexp
module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Parser = Mirage_sql.Parser
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan

type t = {
  b_workload : Workload.t;
  b_ir : Ir.t;
  b_env : Pred.Env.t;
  b_unsupported : Diag.t list;
}

let ( let* ) = Result.bind

let err fmt = Fmt.kstr (fun s -> Error s) fmt

(* [f] over every element, or the first error *)
let map_all f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let int_atom what a =
  match int_of_string_opt a with
  | Some n -> Ok n
  | None -> err "bad %s %S (expected an integer)" what a

(* --- values ---------------------------------------------------------------- *)

let value_to_sexp = function
  | Value.Null -> Sexp.List [ Sexp.Atom "null" ]
  | Value.Int x -> Sexp.List [ Sexp.Atom "int"; Sexp.Atom (string_of_int x) ]
  | Value.Float x -> Sexp.List [ Sexp.Atom "float"; Sexp.Atom (Printf.sprintf "%h" x) ]
  | Value.Str s -> Sexp.List [ Sexp.Atom "str"; Sexp.Atom s ]

let value_of_sexp = function
  | Sexp.List [ Sexp.Atom "null" ] -> Ok Value.Null
  | Sexp.List [ Sexp.Atom "int"; Sexp.Atom x ] -> (
      match int_of_string_opt x with
      | Some v -> Ok (Value.Int v)
      | None -> err "bad int %s" x)
  | Sexp.List [ Sexp.Atom "float"; Sexp.Atom x ] -> (
      match float_of_string_opt x with
      | Some v -> Ok (Value.Float v)
      | None -> err "bad float %s" x)
  | Sexp.List [ Sexp.Atom "str"; Sexp.Atom s ] -> Ok (Value.Str s)
  | other -> err "bad value %s" (Sexp.to_string other)

(* --- predicates (via the template language's own printer/parser) ----------- *)

let pred_to_sexp p = Sexp.Atom (Pred.to_string p)

let pred_of_sexp s =
  let* str = Sexp.atom s in
  match Parser.pred_opt str with
  | Ok p -> Ok p
  | Error m -> err "bad predicate %S: %s" str m

(* --- plans ------------------------------------------------------------------ *)

let jt_name = function
  | Plan.Inner -> "inner"
  | Plan.Left_outer -> "left-outer"
  | Plan.Right_outer -> "right-outer"
  | Plan.Full_outer -> "full-outer"
  | Plan.Left_semi -> "left-semi"
  | Plan.Right_semi -> "right-semi"
  | Plan.Left_anti -> "left-anti"
  | Plan.Right_anti -> "right-anti"

let jt_of_name = function
  | "inner" -> Ok Plan.Inner
  | "left-outer" -> Ok Plan.Left_outer
  | "right-outer" -> Ok Plan.Right_outer
  | "full-outer" -> Ok Plan.Full_outer
  | "left-semi" -> Ok Plan.Left_semi
  | "right-semi" -> Ok Plan.Right_semi
  | "left-anti" -> Ok Plan.Left_anti
  | "right-anti" -> Ok Plan.Right_anti
  | other -> err "bad join type %s" other

let agg_name = function
  | Plan.Count -> "count"
  | Plan.Sum -> "sum"
  | Plan.Avg -> "avg"
  | Plan.Min -> "min"
  | Plan.Max -> "max"

let agg_of_name = function
  | "count" -> Ok Plan.Count
  | "sum" -> Ok Plan.Sum
  | "avg" -> Ok Plan.Avg
  | "min" -> Ok Plan.Min
  | "max" -> Ok Plan.Max
  | other -> err "bad aggregate %s" other

let rec plan_to_sexp = function
  | Plan.Table t -> Sexp.List [ Sexp.Atom "table"; Sexp.Atom t ]
  | Plan.Select (p, q) ->
      Sexp.List [ Sexp.Atom "select"; pred_to_sexp p; plan_to_sexp q ]
  | Plan.Join { jt; pk_table; fk_table; fk_col; left; right } ->
      Sexp.List
        [
          Sexp.Atom "join"; Sexp.Atom (jt_name jt); Sexp.Atom pk_table;
          Sexp.Atom fk_table; Sexp.Atom fk_col; plan_to_sexp left; plan_to_sexp right;
        ]
  | Plan.Project { cols; input } ->
      Sexp.List
        [
          Sexp.Atom "project";
          Sexp.List (List.map (fun c -> Sexp.Atom c) cols);
          plan_to_sexp input;
        ]
  | Plan.Aggregate { group_by; aggs; input } ->
      Sexp.List
        [
          Sexp.Atom "aggregate";
          Sexp.List (List.map (fun c -> Sexp.Atom c) group_by);
          Sexp.List
            (List.map
               (fun (f, c) -> Sexp.List [ Sexp.Atom (agg_name f); Sexp.Atom c ])
               aggs);
          plan_to_sexp input;
        ]

let rec plan_of_sexp s =
  let* l = Sexp.list s in
  match l with
  | [ Sexp.Atom "table"; Sexp.Atom t ] -> Ok (Plan.Table t)
  | [ Sexp.Atom "select"; p; q ] ->
      let* p = pred_of_sexp p in
      let* q = plan_of_sexp q in
      Ok (Plan.Select (p, q))
  | [ Sexp.Atom "join"; Sexp.Atom jt; Sexp.Atom pk_table; Sexp.Atom fk_table;
      Sexp.Atom fk_col; left; right ] ->
      let* jt = jt_of_name jt in
      let* left = plan_of_sexp left in
      let* right = plan_of_sexp right in
      Ok (Plan.Join { jt; pk_table; fk_table; fk_col; left; right })
  | [ Sexp.Atom "project"; Sexp.List cols; input ] ->
      let* cols = map_all Sexp.atom cols in
      let* input = plan_of_sexp input in
      Ok (Plan.Project { cols; input })
  | [ Sexp.Atom "aggregate"; Sexp.List group; Sexp.List aggs; input ] ->
      let* group_by = map_all Sexp.atom group in
      let* aggs =
        map_all
          (function
            | Sexp.List [ Sexp.Atom f; Sexp.Atom c ] ->
                let* f = agg_of_name f in
                Ok (f, c)
            | other -> err "bad aggregate spec %s" (Sexp.to_string other))
          aggs
      in
      let* input = plan_of_sexp input in
      Ok (Plan.Aggregate { group_by; aggs; input })
  | _ -> err "bad plan %s" (Sexp.to_string s)

(* --- schema ----------------------------------------------------------------- *)

let kind_name = function
  | Schema.Kint -> "int"
  | Schema.Kfloat -> "float"
  | Schema.Kstring -> "string"

let kind_of_name = function
  | "int" -> Ok Schema.Kint
  | "float" -> Ok Schema.Kfloat
  | "string" -> Ok Schema.Kstring
  | other -> err "bad kind %s" other

let table_to_sexp (tbl : Schema.table) =
  Sexp.List
    [
      Sexp.Atom "table"; Sexp.Atom tbl.Schema.tname; Sexp.Atom tbl.Schema.pk;
      Sexp.Atom (string_of_int tbl.Schema.row_count);
      Sexp.List
        (List.map
           (fun (c : Schema.column) ->
             Sexp.List
               [
                 Sexp.Atom c.Schema.cname;
                 Sexp.Atom (string_of_int c.Schema.domain_size);
                 Sexp.Atom (kind_name c.Schema.kind);
               ])
           tbl.Schema.nonkeys);
      Sexp.List
        (List.map
           (fun (f : Schema.fk) ->
             Sexp.List [ Sexp.Atom f.Schema.fk_col; Sexp.Atom f.Schema.references ])
           tbl.Schema.fks);
    ]

let table_of_sexp s =
  let* l = Sexp.list s in
  match l with
  | [ Sexp.Atom "table"; Sexp.Atom tname; Sexp.Atom pk; Sexp.Atom rows;
      Sexp.List nonkeys; Sexp.List fks ] ->
      let* row_count =
        match int_of_string_opt rows with Some r -> Ok r | None -> err "bad rows"
      in
      let* nonkeys =
        map_all
          (function
            | Sexp.List [ Sexp.Atom cname; Sexp.Atom dom; Sexp.Atom kind ] ->
                let* kind = kind_of_name kind in
                let* domain_size =
                  match int_of_string_opt dom with
                  | Some d -> Ok d
                  | None -> err "bad domain"
                in
                Ok { Schema.cname; domain_size; kind }
            | other -> err "bad column %s" (Sexp.to_string other))
          nonkeys
      in
      let* fks =
        map_all
          (function
            | Sexp.List [ Sexp.Atom fk_col; Sexp.Atom references ] ->
                Ok { Schema.fk_col; references }
            | other -> err "bad fk %s" (Sexp.to_string other))
          fks
      in
      Ok { Schema.tname; pk; row_count; nonkeys; fks }
  | _ -> err "bad table %s" (Sexp.to_string s)

(* --- IR ---------------------------------------------------------------------- *)

let cv_to_sexp = function
  | Ir.Cv_full t -> Sexp.List [ Sexp.Atom "full"; Sexp.Atom t ]
  | Ir.Cv_select { cv_table; cv_pred } ->
      Sexp.List [ Sexp.Atom "filtered"; Sexp.Atom cv_table; pred_to_sexp cv_pred ]
  | Ir.Cv_subplan { cv_plan; cv_table } ->
      Sexp.List [ Sexp.Atom "subplan"; Sexp.Atom cv_table; plan_to_sexp cv_plan ]

let cv_of_sexp s =
  let* l = Sexp.list s in
  match l with
  | [ Sexp.Atom "full"; Sexp.Atom t ] -> Ok (Ir.Cv_full t)
  | [ Sexp.Atom "filtered"; Sexp.Atom cv_table; p ] ->
      let* cv_pred = pred_of_sexp p in
      Ok (Ir.Cv_select { cv_table; cv_pred })
  | [ Sexp.Atom "subplan"; Sexp.Atom cv_table; p ] ->
      let* cv_plan = plan_of_sexp p in
      Ok (Ir.Cv_subplan { cv_plan; cv_table })
  | _ -> err "bad child view %s" (Sexp.to_string s)

let opt_int_to_sexp = function
  | None -> Sexp.Atom "-"
  | Some n -> Sexp.Atom (string_of_int n)

let opt_int_of_sexp s =
  let* a = Sexp.atom s in
  if a = "-" then Ok None
  else
    match int_of_string_opt a with
    | Some n -> Ok (Some n)
    | None -> err "bad optional int %s" a

let ir_to_sexps (ir : Ir.t) =
  List.map
    (fun (t, n) ->
      Sexp.List [ Sexp.Atom "rows"; Sexp.Atom t; Sexp.Atom (string_of_int n) ])
    ir.Ir.table_cards
  @ List.map
      (fun ((t, c), n) ->
        Sexp.List
          [ Sexp.Atom "domain"; Sexp.Atom t; Sexp.Atom c; Sexp.Atom (string_of_int n) ])
      ir.Ir.column_cards
  @ List.map
      (fun (s : Ir.scc) ->
        Sexp.List
          [
            Sexp.Atom "scc"; Sexp.Atom s.Ir.scc_table;
            Sexp.Atom (string_of_int s.Ir.scc_rows); Sexp.Atom s.Ir.scc_source;
            pred_to_sexp s.Ir.scc_pred;
          ])
      ir.Ir.sccs
  @ List.map
      (fun (jc : Ir.join_constraint) ->
        Sexp.List
          [
            Sexp.Atom "join"; Sexp.Atom jc.Ir.jc_edge.Ir.e_pk_table;
            Sexp.Atom jc.Ir.jc_edge.Ir.e_fk_table; Sexp.Atom jc.Ir.jc_edge.Ir.e_fk_col;
            opt_int_to_sexp jc.Ir.jc_jcc; opt_int_to_sexp jc.Ir.jc_jdc;
            Sexp.Atom jc.Ir.jc_source; cv_to_sexp jc.Ir.jc_left; cv_to_sexp jc.Ir.jc_right;
          ])
      ir.Ir.joins
  @ List.map
      (fun (p, els) ->
        Sexp.List
          (Sexp.Atom "elements" :: Sexp.Atom p
          :: List.map
               (fun (v, c) ->
                 Sexp.List [ value_to_sexp v; Sexp.Atom (string_of_int c) ])
               els))
      ir.Ir.param_elements

(* --- environment -------------------------------------------------------------- *)

let env_to_sexps env =
  List.map
    (fun (p, b) ->
      match b with
      | Pred.Env.Scalar v -> Sexp.List [ Sexp.Atom "param"; Sexp.Atom p; value_to_sexp v ]
      | Pred.Env.Vlist vs ->
          Sexp.List
            (Sexp.Atom "param-list" :: Sexp.Atom p :: List.map value_to_sexp vs))
    (Pred.Env.bindings env)

(* --- bundle -------------------------------------------------------------------- *)

let of_extraction (w : Workload.t) (ex : Extract.extraction) ~prod_env =
  (* keep only the parameters the workload actually mentions *)
  let params = Workload.param_names w in
  let env =
    List.fold_left
      (fun acc p ->
        match Pred.Env.find p prod_env with
        | Some b -> Pred.Env.add p b acc
        | None -> acc)
      Pred.Env.empty params
  in
  { b_workload = w; b_ir = ex.Extract.ir; b_env = env; b_unsupported = ex.Extract.diags }

(* one extraction failure: the query, the message and the hint, if any *)
let unsupported_to_sexp (d : Diag.t) =
  Sexp.List
    (Sexp.Atom "unsupported"
    :: Sexp.Atom (Option.value d.Diag.d_query ~default:"")
    :: Sexp.Atom d.Diag.d_message
    :: Option.to_list (Option.map (fun h -> Sexp.Atom h) d.Diag.d_hint))

let to_string b =
  let buf = Buffer.create 4096 in
  let line s =
    Buffer.add_string buf (Sexp.to_string s);
    Buffer.add_char buf '\n'
  in
  line (Sexp.List [ Sexp.Atom "mirage-bundle"; Sexp.Atom "1" ]);
  List.iter (fun t -> line (table_to_sexp t))
    (Schema.tables b.b_workload.Workload.w_schema);
  List.iter
    (fun (q : Workload.query) ->
      line
        (Sexp.List
           [ Sexp.Atom "query"; Sexp.Atom q.Workload.q_name; plan_to_sexp q.Workload.q_plan ]))
    b.b_workload.Workload.w_queries;
  List.iter (fun d -> line (unsupported_to_sexp d)) b.b_unsupported;
  List.iter line (ir_to_sexps b.b_ir);
  List.iter line (env_to_sexps b.b_env);
  Buffer.contents buf

let of_string str =
  let* sexps = Sexp.of_string_many str in
  match sexps with
  | Sexp.List [ Sexp.Atom "mirage-bundle"; Sexp.Atom "1" ] :: rest ->
      let tables = ref [] and queries = ref [] in
      let rows = ref [] and domains = ref [] and sccs = ref [] in
      let joins = ref [] and elements = ref [] and env = ref Pred.Env.empty in
      let unsupported = ref [] in
      let* () =
        List.fold_left
          (fun acc s ->
            let* () = acc in
            match s with
            | Sexp.List (Sexp.Atom "table" :: _) ->
                let* t = table_of_sexp s in
                tables := t :: !tables;
                Ok ()
            | Sexp.List [ Sexp.Atom "query"; Sexp.Atom name; plan ] ->
                let* plan = plan_of_sexp plan in
                queries := { Workload.q_name = name; q_plan = plan } :: !queries;
                Ok ()
            | Sexp.List (Sexp.Atom "unsupported" :: Sexp.Atom query :: Sexp.Atom msg :: rest)
              ->
                let* hint =
                  match rest with
                  | [] -> Ok None
                  | [ Sexp.Atom h ] -> Ok (Some h)
                  | _ -> err "bad unsupported line %s" (Sexp.to_string s)
                in
                unsupported :=
                  Diag.error ~query ?hint Diag.Extract "%s" msg :: !unsupported;
                Ok ()
            | Sexp.List [ Sexp.Atom "rows"; Sexp.Atom t; Sexp.Atom n ] ->
                let* n = int_atom "row count" n in
                rows := (t, n) :: !rows;
                Ok ()
            | Sexp.List [ Sexp.Atom "domain"; Sexp.Atom t; Sexp.Atom c; Sexp.Atom n ] ->
                let* n = int_atom "domain size" n in
                domains := ((t, c), n) :: !domains;
                Ok ()
            | Sexp.List [ Sexp.Atom "scc"; Sexp.Atom table; Sexp.Atom n;
                          Sexp.Atom source; pred ] ->
                let* p = pred_of_sexp pred in
                let* n = int_atom "selection cardinality" n in
                sccs :=
                  {
                    Ir.scc_table = table;
                    scc_rows = n;
                    scc_source = source;
                    scc_pred = p;
                  }
                  :: !sccs;
                Ok ()
            | Sexp.List [ Sexp.Atom "join"; Sexp.Atom pk; Sexp.Atom fkt; Sexp.Atom fkc;
                          jcc; jdc; Sexp.Atom source; left; right ] ->
                let* jc_jcc = opt_int_of_sexp jcc in
                let* jc_jdc = opt_int_of_sexp jdc in
                let* jc_left = cv_of_sexp left in
                let* jc_right = cv_of_sexp right in
                joins :=
                  {
                    Ir.jc_edge = { Ir.e_pk_table = pk; e_fk_table = fkt; e_fk_col = fkc };
                    jc_left;
                    jc_right;
                    jc_jcc;
                    jc_jdc;
                    jc_source = source;
                  }
                  :: !joins;
                Ok ()
            | Sexp.List (Sexp.Atom "elements" :: Sexp.Atom p :: els) ->
                let* els =
                  map_all
                    (function
                      | Sexp.List [ v; Sexp.Atom c ] ->
                          let* v = value_of_sexp v in
                          let* c = int_atom "element count" c in
                          Ok (v, c)
                      | other -> err "bad element %s" (Sexp.to_string other))
                    els
                in
                elements := (p, els) :: !elements;
                Ok ()
            | Sexp.List [ Sexp.Atom "param"; Sexp.Atom p; v ] ->
                let* v = value_of_sexp v in
                env := Pred.Env.add p (Pred.Env.Scalar v) !env;
                Ok ()
            | Sexp.List (Sexp.Atom "param-list" :: Sexp.Atom p :: vs) ->
                let* vs = map_all value_of_sexp vs in
                env := Pred.Env.add p (Pred.Env.Vlist vs) !env;
                Ok ()
            | other -> err "unknown bundle line %s" (Sexp.to_string other))
          (Ok ()) rest
      in
      let* schema =
        try Ok (Schema.make (List.rev !tables))
        with Invalid_argument m -> Error m
      in
      let* workload =
        try Ok (Workload.make schema (List.rev !queries))
        with Invalid_argument m -> Error m
      in
      Ok
        {
          b_workload = workload;
          b_ir =
            {
              Ir.sccs = List.rev !sccs;
              joins = List.rev !joins;
              table_cards = List.rev !rows;
              column_cards = List.rev !domains;
              param_elements = List.rev !elements;
            };
          b_env = !env;
          b_unsupported = List.rev !unsupported;
        }
  | _ -> Error "not a mirage bundle (expected header)"

(* --- validation --------------------------------------------------------------- *)

let validate (b : t) : Diag.t list =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let schema = b.b_workload.Workload.w_schema in
  List.iter push (Workload.validate b.b_workload);
  (* every schema table needs a (rows ...) entry, and it must be sane *)
  List.iter
    (fun (tbl : Schema.table) ->
      match List.assoc_opt tbl.Schema.tname b.b_ir.Ir.table_cards with
      | None ->
          push
            (Diag.error ~table:tbl.Schema.tname
               ~hint:"add a (rows ...) entry for every schema table"
               Diag.Bundle "no cardinality entry for table %s" tbl.Schema.tname)
      | Some n when n < 0 ->
          push
            (Diag.error ~table:tbl.Schema.tname Diag.Bundle
               "negative cardinality %d for table %s" n tbl.Schema.tname)
      | Some _ -> ())
    (Schema.tables schema);
  List.iter
    (fun (t, _) ->
      if not (Schema.mem schema t) then
        push
          (Diag.error ~table:t Diag.Bundle
             "cardinality entry for unknown table %s" t))
    b.b_ir.Ir.table_cards;
  let rows_of t =
    match List.assoc_opt t b.b_ir.Ir.table_cards with
    | Some n -> Some n
    | None ->
        Option.map
          (fun (tbl : Schema.table) -> tbl.Schema.row_count)
          (Schema.table_opt schema t)
  in
  (* selection constraints: known table, 0 <= |sigma(T)| <= |T| *)
  List.iter
    (fun (s : Ir.scc) ->
      if not (Schema.mem schema s.Ir.scc_table) then
        push
          (Diag.error ~table:s.Ir.scc_table ~query:s.Ir.scc_source Diag.Bundle
             "selection constraint on unknown table %s" s.Ir.scc_table)
      else if s.Ir.scc_rows < 0 then
        push
          (Diag.error ~table:s.Ir.scc_table ~query:s.Ir.scc_source Diag.Bundle
             "negative selection cardinality %d" s.Ir.scc_rows)
      else
        match rows_of s.Ir.scc_table with
        | Some total when s.Ir.scc_rows > total ->
            push
              (Diag.error ~table:s.Ir.scc_table ~query:s.Ir.scc_source
                 ~hint:
                   "a selection cannot return more rows than its table holds; \
                    fix the annotation or the (rows ...) entry"
                 Diag.Bundle "selection cardinality %d exceeds table size %d"
                 s.Ir.scc_rows total)
        | _ -> ())
    b.b_ir.Ir.sccs;
  (* join constraints: the edge must be a real FK edge of the schema *)
  List.iter
    (fun (jc : Ir.join_constraint) ->
      let e = jc.Ir.jc_edge in
      (match Schema.table_opt schema e.Ir.e_fk_table with
      | None ->
          push
            (Diag.error ~table:e.Ir.e_fk_table ~query:jc.Ir.jc_source
               Diag.Bundle "join constraint on unknown table %s"
               e.Ir.e_fk_table)
      | Some tbl -> (
          match
            List.find_opt
              (fun (f : Schema.fk) -> f.Schema.fk_col = e.Ir.e_fk_col)
              tbl.Schema.fks
          with
          | None ->
              push
                (Diag.error ~table:e.Ir.e_fk_table ~query:jc.Ir.jc_source
                   ~hint:"the bundle references a FK edge the schema lacks"
                   Diag.Bundle "no foreign key %s.%s in the schema"
                   e.Ir.e_fk_table e.Ir.e_fk_col)
          | Some f ->
              if f.Schema.references <> e.Ir.e_pk_table then
                push
                  (Diag.error ~table:e.Ir.e_fk_table ~query:jc.Ir.jc_source
                     Diag.Bundle "foreign key %s.%s references %s, not %s"
                     e.Ir.e_fk_table e.Ir.e_fk_col f.Schema.references
                     e.Ir.e_pk_table)));
      (match (jc.Ir.jc_jcc, jc.Ir.jc_jdc) with
      | Some jcc, _ when jcc < 0 ->
          push
            (Diag.error ~table:e.Ir.e_fk_table ~query:jc.Ir.jc_source
               Diag.Bundle "negative join cardinality %d" jcc)
      | _, Some jdc when jdc < 0 ->
          push
            (Diag.error ~table:e.Ir.e_fk_table ~query:jc.Ir.jc_source
               Diag.Bundle "negative join distinct count %d" jdc)
      | Some jcc, Some jdc when jdc > jcc ->
          push
            (Diag.warning ~table:e.Ir.e_fk_table ~query:jc.Ir.jc_source
               ~hint:"distinct joining rows cannot exceed joining pairs"
               Diag.Bundle "join distinct count %d exceeds join cardinality %d"
               jdc jcc)
      | _ -> ()))
    b.b_ir.Ir.joins;
  (* a referenced table with zero rows starves every FK pointing at it *)
  List.iter
    (fun (referenced, referencing) ->
      match (rows_of referenced, rows_of referencing) with
      | Some 0, Some n when n > 0 ->
          push
            (Diag.error ~table:referenced
               ~hint:
                 "rows in the referencing table need a primary key to point \
                  at; give the referenced table at least one row"
               Diag.Bundle "table %s has zero rows but %s (%d rows) references \
                            it"
               referenced referencing n)
      | _ -> ())
    (Schema.referencing_edges schema);
  List.rev !diags

let save b ~path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string b))

let load ~path = of_string (In_channel.with_open_bin path In_channel.input_all)
