module Pred = Mirage_sql.Pred
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan
module Aqt = Mirage_relalg.Aqt
module Value = Mirage_sql.Value
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Exec = Mirage_engine.Exec

type extraction = {
  ir : Ir.t;
  aqts : Aqt.t list;
  rewritten : (string * Plan.t * Plan.t list) list;
  diags : Diag.t list;
}

let rec child_view_of ~table plan =
  match plan with
  | Plan.Table t when t = table -> Ir.Cv_full t
  | Plan.Select (p, Plan.Table t) when t = table ->
      Ir.Cv_select { cv_table = t; cv_pred = p }
  | Plan.Select (p, (Plan.Select _ as inner)) -> (
      match child_view_of ~table inner with
      | Ir.Cv_select { cv_table; cv_pred } ->
          Ir.Cv_select { cv_table; cv_pred = Pred.And [ p; cv_pred ] }
      | _ -> Ir.Cv_subplan { cv_plan = plan; cv_table = table })
  | _ -> Ir.Cv_subplan { cv_plan = plan; cv_table = table }

(* Which of (jcc, jdc) each join type constrains — Table 2. *)
let constrained_stats jt (stat : Exec.join_stat) =
  match jt with
  | Plan.Inner -> (Some stat.jcc, None)
  | Plan.Left_outer -> (Some stat.jcc, Some stat.jdc)
  | Plan.Right_outer -> (None, None)
  | Plan.Full_outer -> (None, Some stat.jdc)
  | Plan.Left_semi -> (None, Some stat.jdc)
  | Plan.Right_semi -> (Some stat.jcc, None)
  | Plan.Left_anti -> (None, Some stat.jdc)
  | Plan.Right_anti -> (Some stat.jcc, None)

(* Extract SCCs and join constraints from one pushed-down plan annotated by
   [analysis].  [source] tags the constraints for diagnostics. *)
let constraints_of_plan schema ~source plan (analysis : Exec.analysis) =
  let sccs = ref [] and joins = ref [] in
  let counter = ref 0 in
  let jstat idx = List.assoc idx analysis.Exec.join_stats in
  let rec go p =
    let idx = !counter in
    incr counter;
    (match p with
    | Plan.Table _ -> ()
    | Plan.Select (pred, Plan.Table t) ->
        sccs :=
          {
            Ir.scc_table = t;
            scc_pred = pred;
            scc_rows = analysis.Exec.cards.(idx);
            scc_source = source;
          }
          :: !sccs
    | Plan.Select _ -> ()
    | Plan.Join { jt; pk_table; fk_table; fk_col; left; right } ->
        let stat = jstat idx in
        let jcc, jdc = constrained_stats jt stat in
        (* A JCC whose left child view is the whole referenced table is
           trivially satisfied (every foreign key matches some primary key),
           so it carries no information — and dropping it breaks spurious
           dependency cycles between FK columns (e.g. TPC-H Q3 vs Q18). *)
        let jcc =
          match child_view_of ~table:pk_table left with
          | Ir.Cv_full _ -> None
          | Ir.Cv_select _ | Ir.Cv_subplan _ -> jcc
        in
        if jcc <> None || jdc <> None then
          joins :=
            {
              Ir.jc_edge = { e_pk_table = pk_table; e_fk_table = fk_table; e_fk_col = fk_col };
              jc_left = child_view_of ~table:pk_table left;
              jc_right = child_view_of ~table:fk_table right;
              jc_jcc = jcc;
              jc_jdc = jdc;
              jc_source = source;
            }
            :: !joins
    | Plan.Aggregate _ -> ()
    | Plan.Project { cols; input } -> (
        (* PCC on a foreign-key column → JDC (§2.2, Fig. 2). *)
        match cols with
        | [ col ] -> (
            let owner =
              List.find_opt
                (fun tname ->
                  let tbl = Schema.table schema tname in
                  Schema.is_fk tbl col)
                (Plan.tables input)
            in
            match owner with
            | None -> ()
            | Some fk_table -> (
                let tbl = Schema.table schema fk_table in
                let pk_table = (Schema.fk tbl col).Schema.references in
                let edge =
                  { Ir.e_pk_table = pk_table; e_fk_table = fk_table; e_fk_col = col }
                in
                match input with
                | Plan.Join { fk_col; _ } when fk_col = col ->
                    (* direct child join on the same edge: its own JDC *)
                    let stat = jstat (idx + 1) in
                    joins :=
                      {
                        Ir.jc_edge = edge;
                        jc_left = child_view_of ~table:pk_table
                            (match input with
                            | Plan.Join { left; _ } -> left
                            | _ -> assert false);
                        jc_right = child_view_of ~table:fk_table
                            (match input with
                            | Plan.Join { right; _ } -> right
                            | _ -> assert false);
                        jc_jcc = None;
                        jc_jdc = Some stat.Exec.jdc;
                        jc_source = source ^ "#pcc";
                      }
                      :: !joins
                | _ ->
                    (* virtual right-semi join: full referenced table on the
                       left, the projection's input on the right *)
                    joins :=
                      {
                        Ir.jc_edge = edge;
                        jc_left = Ir.Cv_full pk_table;
                        jc_right = child_view_of ~table:fk_table input;
                        jc_jcc = None;
                        jc_jdc = Some analysis.Exec.cards.(idx);
                        jc_source = source ^ "#pcc";
                      }
                      :: !joins))
        | _ -> ()));
    match p with
    | Plan.Table _ -> ()
    | Plan.Select (_, q) | Plan.Project { input = q; _ } | Plan.Aggregate { input = q; _ }
      ->
        go q
    | Plan.Join { left; right; _ } ->
        go left;
        go right
  in
  go plan;
  (List.rev !sccs, List.rev !joins)

(* The stored typed column is read in place: a dictionary column's codes
   are counted once, then each pool string is compared or matched once; a
   NULL row counts as [Value.Null]. *)
let code_counts codes nulls npool =
  let counts = Array.make npool 0 and n_null = ref 0 in
  for i = 0 to Bigarray.Array1.dim codes - 1 do
    match nulls with
    | Some b when Col.Bitset.get b i -> incr n_null
    | _ -> counts.(codes.{i}) <- counts.(codes.{i}) + 1
  done;
  (counts, !n_null)

(* [count_eq db table col]: the rows equal to a value, under [Value.compare] *)
let count_eq db table col =
  match Db.col db table col with
  | Col.Dict { codes; pool; nulls } ->
      let counts, n_null = code_counts codes nulls (Array.length pool) in
      fun v ->
        let c = ref (if Value.compare Value.Null v = 0 then n_null else 0) in
        Array.iteri
          (fun k s -> if Value.compare (Value.Str s) v = 0 then c := !c + counts.(k))
          pool;
        !c
  | column ->
      fun v ->
        let c = ref 0 in
        for i = 0 to Col.length column - 1 do
          if Value.compare (Col.get column i) v = 0 then incr c
        done;
        !c

(* [iter_strs db table col f]: [f s rows] over the column's strings, [rows]
   being how many rows hold [s] (a string may come more than once) *)
let iter_strs db table col f =
  match Db.col db table col with
  | Col.Dict { codes; pool; nulls } ->
      let counts, _ = code_counts codes nulls (Array.length pool) in
      Array.iteri (fun k s -> if counts.(k) > 0 then f s counts.(k)) pool
  | Col.Ints _ | Col.Floats _ -> ()

(* the production elements of an IN or LIKE literal over parameter [p] on
   [table]: each listed value with its row count, in list order, or each
   string matching the pattern with its row count, sorted *)
let elements_of_param db ~env ~table p = function
  | Pred.In { col; _ } -> (
      match Pred.Env.find p env with
      | Some (Pred.Env.Vlist []) | None -> []
      | Some (Pred.Env.Vlist vs) ->
          let count = count_eq db table col in
          List.map (fun v -> (v, count v)) vs
      | Some (Pred.Env.Scalar v) -> [ (v, count_eq db table col v) ])
  | Pred.Like { col; _ } -> (
      match Pred.Env.find p env with
      | Some (Pred.Env.Scalar (Value.Str pattern)) ->
          let counts = Hashtbl.create 16 in
          iter_strs db table col (fun str rows ->
              if Mirage_sql.Like.matches ~pattern str then
                Hashtbl.replace counts str
                  (rows + try Hashtbl.find counts str with Not_found -> 0));
          Hashtbl.fold (fun v c acc -> (Value.Str v, c) :: acc) counts []
          |> List.sort compare
      | _ -> [])
  | Pred.Cmp _ | Pred.Arith_cmp _ -> []

let run (w : Workload.t) ~ref_db ~prod_env =
  let schema = w.Workload.w_schema in
  let table_cards =
    List.map
      (fun (tbl : Schema.table) -> (tbl.Schema.tname, Db.row_count ref_db tbl.Schema.tname))
      (Schema.tables schema)
  in
  let column_cards =
    List.concat_map
      (fun (tbl : Schema.table) ->
        List.map
          (fun (c : Schema.column) ->
            ( (tbl.Schema.tname, c.Schema.cname),
              Db.distinct_count ref_db tbl.Schema.tname c.Schema.cname ))
          tbl.Schema.nonkeys)
      (Schema.tables schema)
  in
  let sccs = ref [] and joins = ref [] in
  let aqts = ref [] and rewritten = ref [] in
  let diags = ref [] in
  (* per-query tolerance: a template the rewriter or analyzer cannot handle
     is diagnosed and skipped (it will be reported Unsupported) instead of
     aborting the whole extraction; any partial constraints it contributed
     are rolled back *)
  let try_query (q : Workload.query) body =
    let saved = (!sccs, !joins, !aqts, !rewritten) in
    let restore () =
      let s, j, a, r = saved in
      sccs := s;
      joins := j;
      aqts := a;
      rewritten := r
    in
    match body () with
    | () -> ()
    | exception Rewrite.Unsupported msg ->
        restore ();
        diags :=
          Diag.error ~query:q.Workload.q_name
            ~hint:
              "rewrite the template with supported operators, or remove it \
               from the workload"
            Diag.Extract "rewrite: %s" msg
          :: !diags
    | exception Invalid_argument msg ->
        restore ();
        diags :=
          Diag.error ~query:q.Workload.q_name Diag.Extract "%s" msg :: !diags
  in
  List.iter
    (fun (q : Workload.query) ->
      try_query q @@ fun () ->
      let { Rewrite.rw_plan; rw_aux; rw_marginals } =
        Rewrite.push_down schema q.Workload.q_plan
      in
      rewritten := (q.Workload.q_name, rw_plan, rw_aux) :: !rewritten;
      (* marginal counts for nested complement literals (Example 3.1's n₃/n₄
         when the complement lands on an already-filtered side) *)
      List.iter
        (fun (table, pred) ->
          let rows = Exec.count_select ref_db ~env:prod_env ~table pred in
          sccs :=
            {
              Ir.scc_table = table;
              scc_pred = pred;
              scc_rows = rows;
              scc_source = q.Workload.q_name ^ "#marginal";
            }
            :: !sccs)
        rw_marginals;
      (* constraints from the rewritten plan *)
      let analysis = Exec.analyze ref_db ~env:prod_env rw_plan in
      let s, j = constraints_of_plan schema ~source:q.Workload.q_name rw_plan analysis in
      sccs := s @ !sccs;
      joins := j @ !joins;
      (* constraints from the auxiliary complement plans *)
      List.iteri
        (fun i aux ->
          let source = Printf.sprintf "%s#aux%d" q.Workload.q_name i in
          let analysis = Exec.analyze ref_db ~env:prod_env aux in
          let s, j = constraints_of_plan schema ~source aux analysis in
          sccs := s @ !sccs;
          joins := j @ !joins)
        rw_aux;
      (* verification AQT over the ORIGINAL plan; the rewriter leaves most
         plans unchanged, and then the analysis above already has its cards *)
      let orig_analysis =
        if rw_plan = q.Workload.q_plan then analysis
        else Exec.analyze ref_db ~env:prod_env q.Workload.q_plan
      in
      let aqt = Aqt.unannotated ~name:q.Workload.q_name q.Workload.q_plan in
      let aqt =
        Array.to_list orig_analysis.Exec.cards
        |> List.mapi (fun i c -> (i, c))
        |> List.fold_left (fun a (i, c) -> Aqt.annotate a i c) aqt
      in
      aqts := aqt :: !aqts)
    w.Workload.w_queries;
  (* a predicate that is purely a conjunction of range literals on ONE
     column (e.g. a BETWEEN) is replaced by one marginal SCC per literal:
     the marginal counts come from the production database and the
     conjunction count follows exactly (same-column identity), keeping the
     CDF anchors aligned with the production distribution *)
  let split_range_conjunctions l =
    List.concat_map
      (fun (s : Ir.scc) ->
        let clauses =
          try Some (Pred.cnf s.Ir.scc_pred)
          with Failure _ | Invalid_argument _ -> None
        in
        match clauses with
        | Some (( _ :: _ :: _ ) as cs)
          when List.for_all
                 (fun c ->
                   match c with
                   | [ Pred.Lit (Pred.Cmp { cmp = Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge; _ }) ] ->
                       true
                   | _ -> false)
                 cs
               &&
               let cols = List.concat_map (fun c -> List.concat_map Pred.columns c) cs in
               (match cols with [] -> false | c0 :: rest -> List.for_all (( = ) c0) rest)
          ->
            List.map
              (fun c ->
                let pred = match c with [ p ] -> p | _ -> assert false in
                {
                  s with
                  Ir.scc_pred = pred;
                  scc_rows = Exec.count_select ref_db ~env:prod_env ~table:s.Ir.scc_table pred;
                  scc_source = s.Ir.scc_source ^ "#range";
                })
              cs
        | _ -> [ s ])
      l
  in
  (* identical SCCs can arise once per plan that mentions a selection (the
     rewritten main plan and its auxiliary complements share pushed-down
     filters); keep one copy so the CDF does not double-count *)
  let dedup_sccs l =
    let seen = Hashtbl.create 32 in
    List.filter
      (fun (s : Ir.scc) ->
        let key = (s.Ir.scc_table, Pred.to_string s.Ir.scc_pred, s.Ir.scc_rows) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      l
  in
  let final_sccs = dedup_sccs (split_range_conjunctions (List.rev !sccs)) in
  (* production elements for every in/like parameter appearing in the
     selection constraints (used by the CDF and by constraint bundles) *)
  let param_elements =
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    let record table lit =
      match lit with
      | Pred.In { arg = Pred.Param p; _ } | Pred.Like { arg = Pred.Param p; _ } ->
          if not (Hashtbl.mem seen p) then begin
            Hashtbl.add seen p ();
            out := (p, elements_of_param ref_db ~env:prod_env ~table p lit) :: !out
          end
      | Pred.Cmp _ | Pred.In _ | Pred.Like _ | Pred.Arith_cmp _ -> ()
    in
    List.iter
      (fun (s : Ir.scc) ->
        let rec walk = function
          | Pred.True | Pred.False -> ()
          | Pred.Lit l -> record s.Ir.scc_table l
          | Pred.Not q -> walk q
          | Pred.And qs | Pred.Or qs -> List.iter walk qs
        in
        walk s.Ir.scc_pred)
      final_sccs;
    List.rev !out
  in
  {
    ir =
      {
        Ir.sccs = final_sccs;
        joins = List.rev !joins;
        table_cards;
        column_cards;
        param_elements;
      };
    aqts = List.rev !aqts;
    rewritten = List.rev !rewritten;
    diags = List.rev !diags;
  }
