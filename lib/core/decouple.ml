module Pred = Mirage_sql.Pred
module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema

type result = {
  uccs : Ir.ucc list;
  accs : Ir.acc list;
  bound : Ir.bound_rows list;
  fixed_env : Pred.Env.t;
  skipped : Diag.t list;
}

exception Skip of string

(* Rendering of cardinality-space value [v] in a column's declared kind.
   String values are zero-padded so lexicographic order equals numeric
   order. *)
let value_in_kind kind v =
  match kind with
  | Schema.Kint -> Value.Int v
  | Schema.Kfloat -> Value.Float (float_of_int v)
  | Schema.Kstring -> Value.Str (Printf.sprintf "v%08d" v)

let param_of_operand = function
  | Pred.Param p -> Some p
  | Pred.Const _ | Pred.Const_list _ -> None

let literal_param = function
  | Pred.Cmp { arg; _ } | Pred.In { arg; _ } | Pred.Like { arg; _ }
  | Pred.Arith_cmp { arg; _ } ->
      param_of_operand arg

(* Table 3, adapted to our cardinality space [1, dom]. *)
let universe_sentinel kind ~dom lit =
  match literal_param lit with
  | None -> None
  | Some _ -> (
      match lit with
      | Pred.Cmp { cmp = Pred.Gt; _ } -> Some (Pred.Env.Scalar (value_in_kind kind 0))
      | Pred.Cmp { cmp = Pred.Ge; _ } -> Some (Pred.Env.Scalar (value_in_kind kind 1))
      | Pred.Cmp { cmp = Pred.Lt; _ } ->
          Some (Pred.Env.Scalar (value_in_kind kind (dom + 1)))
      | Pred.Cmp { cmp = Pred.Le; _ } ->
          Some (Pred.Env.Scalar (value_in_kind kind dom))
      | Pred.Cmp { cmp = Pred.Neq; _ } ->
          Some (Pred.Env.Scalar (value_in_kind kind 0))
      | Pred.Cmp { cmp = Pred.Eq; _ } -> None
      | Pred.In { neg = true; _ } -> Some (Pred.Env.Vlist [])
      | Pred.In { neg = false; _ } -> None
      | Pred.Like { neg = true; _ } ->
          Some (Pred.Env.Scalar (Value.Str Cdf.impossible_string))
      | Pred.Like { neg = false; _ } -> None
      | Pred.Arith_cmp { cmp = Pred.Lt | Pred.Le; _ } ->
          Some (Pred.Env.Scalar (Value.Float 1e18))
      | Pred.Arith_cmp { cmp = Pred.Gt | Pred.Ge; _ } ->
          Some (Pred.Env.Scalar (Value.Float (-1e18)))
      | Pred.Arith_cmp { cmp = Pred.Eq | Pred.Neq; _ } -> None)

let empty_sentinel kind ~dom lit =
  match literal_param lit with
  | None -> None
  | Some _ -> (
      match lit with
      | Pred.Cmp { cmp = Pred.Gt; _ } ->
          Some (Pred.Env.Scalar (value_in_kind kind dom))
      | Pred.Cmp { cmp = Pred.Ge; _ } ->
          Some (Pred.Env.Scalar (value_in_kind kind (dom + 1)))
      | Pred.Cmp { cmp = Pred.Lt; _ } -> Some (Pred.Env.Scalar (value_in_kind kind 1))
      | Pred.Cmp { cmp = Pred.Le; _ } -> Some (Pred.Env.Scalar (value_in_kind kind 0))
      | Pred.Cmp { cmp = Pred.Eq; _ } -> Some (Pred.Env.Scalar (value_in_kind kind 0))
      | Pred.Cmp { cmp = Pred.Neq; _ } -> None
      | Pred.In { neg = false; _ } -> Some (Pred.Env.Vlist [])
      | Pred.In { neg = true; _ } -> None
      | Pred.Like { neg = false; _ } ->
          Some (Pred.Env.Scalar (Value.Str Cdf.impossible_string))
      | Pred.Like { neg = true; _ } -> None
      | Pred.Arith_cmp { cmp = Pred.Lt | Pred.Le; _ } ->
          Some (Pred.Env.Scalar (Value.Float (-1e18)))
      | Pred.Arith_cmp { cmp = Pred.Gt | Pred.Ge; _ } ->
          Some (Pred.Env.Scalar (Value.Float 1e18))
      | Pred.Arith_cmp { cmp = Pred.Eq | Pred.Neq; _ } -> None)

(* A fallback value for parameters whose literal is already irrelevant
   (their clause has been made U by another literal). *)
let harmless_binding kind ~dom lit =
  match empty_sentinel kind ~dom lit with
  | Some b -> Some b
  | None -> (
      match universe_sentinel kind ~dom lit with
      | Some b -> Some b
      | None -> (
          match lit with
          | Pred.In _ -> Some (Pred.Env.Vlist [ value_in_kind kind 1 ])
          | Pred.Like _ -> Some (Pred.Env.Scalar (Value.Str "%"))
          | Pred.Cmp _ -> Some (Pred.Env.Scalar (value_in_kind kind 1))
          | Pred.Arith_cmp _ -> Some (Pred.Env.Scalar (Value.Float 0.0))))

(* base preference order when keeping a literal: ranges are free (they only
   add a CDF anchor), arithmetic costs a sampling pass, equality classes
   consume the column's row budget *)
let base_cost = function
  | Pred.Cmp { arg = Pred.Param _; cmp = Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge; _ } -> 0
  | Pred.Arith_cmp { arg = Pred.Param _; _ } -> 2
  | Pred.Cmp { arg = Pred.Param _; cmp = Pred.Eq | Pred.Neq; _ } -> 3
  | Pred.In { arg = Pred.Param _; _ } -> 4
  | Pred.Like { arg = Pred.Param _; _ } -> 5
  | Pred.Cmp _ | Pred.In _ | Pred.Like _ | Pred.Arith_cmp _ -> 1000

let literal_of_cnf_member = function
  | Pred.Lit l -> l
  | Pred.Not (Pred.Lit l) -> (
      match Pred.negate_literal l with
      | Some l' -> l'
      | None -> raise (Skip "literal cannot be negated"))
  | _ -> raise (Skip "non-literal inside CNF clause")

let literal_main_column = function
  | Pred.Cmp { col; _ } | Pred.In { col; _ } | Pred.Like { col; _ } -> Some col
  | Pred.Arith_cmp _ -> None

type ctx = {
  schema : Schema.t;
  dom : string -> string -> int;
  table_rows : string -> int;
  e_used : (string * string, int * int) Hashtbl.t;
      (* per-column (rows, values) already claimed by equality-class
         constraints *)
  e_claimed : (string * string * Value.t * int, unit) Hashtbl.t;
  param_key : string -> Value.t option;
  mutable out_uccs : Ir.ucc list;
  mutable out_accs : Ir.acc list;
  mutable out_bound : Ir.bound_rows list;
  mutable env : Pred.Env.t;
}

(* rows an equality-class literal would pin if kept with count [n] *)
let e_rows_of ctx table lit n =
  match lit with
  | Pred.Cmp { cmp = Pred.Eq; _ } | Pred.In { neg = false; _ }
  | Pred.Like { neg = false; _ } ->
      n
  | Pred.Cmp { cmp = Pred.Neq; _ } | Pred.In { neg = true; _ }
  | Pred.Like { neg = true; _ } ->
      ctx.table_rows table - n
  | Pred.Cmp _ | Pred.Arith_cmp _ -> 0

let is_range = function
  | Pred.Cmp { cmp = Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge; _ } -> true
  | Pred.Cmp _ | Pred.In _ | Pred.Like _ | Pred.Arith_cmp _ -> false

(* budget-aware cost: an equality-class literal that would overflow its
   column's remaining rows is heavily penalised so another literal of the
   clause is kept instead *)
(* a range anchor costs a value slot (its boundary splits a range); penalise
   when the domain has no slots left *)
let range_cost ctx table lit base =
  match literal_main_column lit with
  | None -> base
  | Some col ->
      let _, used_values =
        try Hashtbl.find ctx.e_used (table, col) with Not_found -> (0, 0)
      in
      if used_values + 1 >= ctx.dom table col then base + 100 else base

let literal_cost ctx table n lit =
  let base = base_cost lit in
  let pinned = e_rows_of ctx table lit n in
  if base >= 1000 then base
  else if is_range lit then range_cost ctx table lit base
  else if pinned = 0 then base
  else
    match literal_main_column lit with
    | None -> base
    | Some col ->
        let used_rows, used_values =
          try Hashtbl.find ctx.e_used (table, col) with Not_found -> (0, 0)
        in
        let rows = ctx.table_rows table in
        let dom = ctx.dom table col in
        (* every remaining domain value still needs at least one row, so the
           usable row budget excludes that reserve *)
        let reserve = max 0 (dom - used_values - 1) in
        if used_rows + pinned > rows - reserve then base + 100 else base


let claim_budget ctx table lit n =
  let pinned = e_rows_of ctx table lit n in
  (if is_range lit then
     match literal_main_column lit with
     | Some col ->
         let used_rows, used_values =
           try Hashtbl.find ctx.e_used (table, col) with Not_found -> (0, 0)
         in
         Hashtbl.replace ctx.e_used (table, col) (used_rows, used_values + 1)
     | None -> ());
  if pinned > 0 then
    match literal_main_column lit with
    | Some col ->
        (* constraints over the same production value with the same count
           alias to one synthetic value in the CDF, so they claim the budget
           only once *)
        let key =
          match literal_param lit with
          | Some p -> (
              match ctx.param_key p with
              | Some v -> Some (table, col, v, n)
              | None -> None)
          | None -> None
        in
        let fresh =
          match key with
          | Some k ->
              if Hashtbl.mem ctx.e_claimed k then false
              else begin
                Hashtbl.add ctx.e_claimed k ();
                true
              end
          | None -> true
        in
        if fresh then begin
          let used_rows, used_values =
            try Hashtbl.find ctx.e_used (table, col) with Not_found -> (0, 0)
          in
          Hashtbl.replace ctx.e_used (table, col) (used_rows + pinned, used_values + 1)
        end
    | None -> ()

let bind ctx param binding = ctx.env <- Pred.Env.add param binding ctx.env

let kind_and_dom ctx table lit =
  match literal_main_column lit with
  | Some col ->
      let tbl = Schema.table ctx.schema table in
      if Schema.is_pk tbl col || Schema.is_fk tbl col then
        raise (Skip (Printf.sprintf "selection on key column %s" col));
      let c = Schema.nonkey tbl col in
      (c.Schema.kind, ctx.dom table col)
  | None -> (Schema.Kfloat, 1)

let require_param lit =
  match literal_param lit with
  | Some p -> p
  | None -> raise (Skip "literal with constant argument kept after elimination")

(* Make a clause universal: one literal gets its U sentinel, the rest get
   harmless bindings. *)
let eliminate_clause_as_universe ctx table clause =
  let u_lit =
    match
      List.find_opt
        (fun lit ->
          let kind, dom = kind_and_dom ctx table lit in
          universe_sentinel kind ~dom lit <> None)
        clause
    with
    | Some l -> l
    | None -> raise (Skip "clause cannot be made universal")
  in
  List.iter
    (fun lit ->
      match literal_param lit with
      | None -> ()
      | Some p ->
          let kind, dom = kind_and_dom ctx table lit in
          let binding =
            if lit == u_lit then universe_sentinel kind ~dom lit
            else harmless_binding kind ~dom lit
          in
          (match binding with Some b -> bind ctx p b | None -> ()))
    clause

let eliminate_literal_as_empty ctx table lit =
  match literal_param lit with
  | None -> raise (Skip "constant literal cannot be eliminated")
  | Some p -> (
      let kind, dom = kind_and_dom ctx table lit in
      match empty_sentinel kind ~dom lit with
      | Some b -> bind ctx p b
      | None -> raise (Skip "literal cannot be made empty"))

let emit_single ctx table source lit rows =
  match lit with
  | Pred.Arith_cmp { expr; cmp; arg } ->
      let p =
        match param_of_operand arg with
        | Some p -> p
        | None -> raise (Skip "arithmetic literal with constant argument")
      in
      ctx.out_accs <-
        {
          Ir.acc_table = table;
          acc_expr = expr;
          acc_cmp = cmp;
          acc_param = p;
          acc_rows = rows;
          acc_source = source;
        }
        :: ctx.out_accs
  | Pred.Cmp { col; _ } | Pred.In { col; _ } | Pred.Like { col; _ } ->
      ignore (require_param lit);
      ignore (kind_and_dom ctx table lit);
      claim_budget ctx table lit rows;
      ctx.out_uccs <-
        {
          Ir.ucc_table = table;
          ucc_col = col;
          ucc_lit = lit;
          ucc_rows = rows;
          ucc_source = source;
        }
        :: ctx.out_uccs

(* Reduce a kept clause (an OR of literals) carrying required output size
   [rows]. *)
let process_kept_clause ctx table source clause rows =
  match clause with
  | [] -> raise (Skip "empty clause")
  | [ lit ] -> emit_single ctx table source lit rows
  | lits -> (
      let can_empty lit =
        let kind, dom = kind_and_dom ctx table lit in
        empty_sentinel kind ~dom lit <> None
      in
      let non_empties = List.filter (fun l -> not (can_empty l)) lits in
      match non_empties with
      | [] ->
          (* all can be ∅: keep the cheapest, eliminate the rest (rule₂) *)
          let kept =
            List.fold_left
              (fun best lit ->
                if literal_cost ctx table rows lit < literal_cost ctx table rows best
                then lit
                else best)
              (List.hd lits) lits
          in
          List.iter
            (fun lit -> if lit != kept then eliminate_literal_as_empty ctx table lit)
            lits;
          emit_single ctx table source kept rows
      | _ :: _ ->
          (* rule₃ (De Morgan): eliminate ∅-able literals, complement the
             rest: |∪ σ_li| = n  ⇔  |∩ σ_¬li| = |T| − n. *)
          List.iter
            (fun lit -> if can_empty lit then eliminate_literal_as_empty ctx table lit)
            lits;
          let negs =
            List.map
              (fun lit ->
                match Pred.negate_literal lit with
                | Some l -> l
                | None -> raise (Skip "cannot complement literal"))
              non_empties
          in
          let m = ctx.table_rows table - rows in
          if m < 0 then raise (Skip "complement count negative");
          List.iter (fun l -> emit_single ctx table source l m) negs;
          if List.length negs > 1 then begin
            let cells =
              List.map
                (fun l ->
                  match (literal_main_column l, literal_param l) with
                  | Some col, Some p -> (col, p)
                  | _ -> raise (Skip "complemented literal unusable for binding"))
                negs
            in
            ctx.out_bound <-
              { Ir.br_table = table; br_cells = cells; br_rows = m; br_source = source }
              :: ctx.out_bound
          end)

let process_scc ctx (scc : Ir.scc) =
  let table = scc.Ir.scc_table in
  let source = scc.Ir.scc_source in
  let clauses =
    Pred.cnf scc.Ir.scc_pred |> List.map (List.map literal_of_cnf_member)
  in
  match clauses with
  | [] -> () (* predicate is True: no constraint *)
  | [ [ lit ] ] -> emit_single ctx table source lit scc.Ir.scc_rows
  | _ -> (
      let can_universe clause =
        List.exists
          (fun lit ->
            let kind, dom = kind_and_dom ctx table lit in
            universe_sentinel kind ~dom lit <> None)
          clause
      in
      let hard = List.filter (fun c -> not (can_universe c)) clauses in
      match hard with
      | [] ->
          (* rule₁: all clauses can be U; keep the cheapest one *)
          let cost clause =
            List.fold_left
              (fun m l -> min m (literal_cost ctx table scc.Ir.scc_rows l))
              10000 clause
          in
          let kept =
            List.fold_left
              (fun best c -> if cost c < cost best then c else best)
              (List.hd clauses) clauses
          in
          List.iter
            (fun c -> if c != kept then eliminate_clause_as_universe ctx table c)
            clauses;
          process_kept_clause ctx table source kept scc.Ir.scc_rows
      | [ clause ] ->
          List.iter
            (fun c -> if not (c == clause) && can_universe c then
                eliminate_clause_as_universe ctx table c)
            clauses;
          process_kept_clause ctx table source clause scc.Ir.scc_rows
      | _ :: _ :: _ ->
          (* several clauses of pure {=, in, like} literals: each keeps one
             literal; their values must co-occur in the same rows *)
          List.iter
            (fun c -> if can_universe c then eliminate_clause_as_universe ctx table c)
            clauses;
          let kepts =
            List.map
              (fun clause ->
                let kept =
                  List.fold_left
                    (fun best lit ->
                      if
                        literal_cost ctx table scc.Ir.scc_rows lit
                        < literal_cost ctx table scc.Ir.scc_rows best
                      then lit
                      else best)
                    (List.hd clause) clause
                in
                List.iter
                  (fun lit ->
                    if lit != kept then eliminate_literal_as_empty ctx table lit)
                  clause;
                kept)
              hard
          in
          List.iter (fun l -> emit_single ctx table source l scc.Ir.scc_rows) kepts;
          let cells =
            List.map
              (fun l ->
                match (literal_main_column l, literal_param l) with
                | Some col, Some p -> (col, p)
                | _ -> raise (Skip "kept literal unusable for row binding"))
              kepts
          in
          ctx.out_bound <-
            {
              Ir.br_table = table;
              br_cells = cells;
              br_rows = scc.Ir.scc_rows;
              br_source = source;
            }
            :: ctx.out_bound)

let run schema ~dom ~table_rows ~param_key sccs =
  let ctx =
    {
      schema;
      dom;
      table_rows;
      e_used = Hashtbl.create 32;
      e_claimed = Hashtbl.create 32;
      param_key;
      out_uccs = [];
      out_accs = [];
      out_bound = [];
      env = Pred.Env.empty;
    }
  in
  let skipped = ref [] in
  (* single-literal SCCs are forced (no elimination choice) — processing
     them first lets the budget-aware choice for OR clauses see the true
     remaining capacity *)
  let forced, flexible =
    List.partition
      (fun (scc : Ir.scc) ->
        match Pred.cnf scc.Ir.scc_pred with
        | [] | [ [ _ ] ] -> true
        | cs -> List.for_all (fun c -> List.length c = 1) cs)
      sccs
  in
  List.iter
    (fun scc ->
      try process_scc ctx scc
      with Skip reason ->
        skipped :=
          Diag.warning ~table:scc.Ir.scc_table ~query:scc.Ir.scc_source
            ~hint:"the selection constraint is dropped; its cardinality is \
                   not guaranteed"
            Diag.Decouple "%s" reason
          :: !skipped)
    (forced @ flexible);
  (* a parameter both sentinel-bound (its literal was eliminated in one SCC)
     and kept as a UCC/ACC (in another) indicates literal sharing across
     clauses after CNF distribution; the kept constraint wins, so drop the
     sentinel and report *)
  let kept_params = Hashtbl.create 32 in
  List.iter
    (fun (u : Ir.ucc) ->
      match literal_param u.Ir.ucc_lit with
      | Some p -> Hashtbl.replace kept_params p ()
      | None -> ())
    (List.rev ctx.out_uccs);
  List.iter
    (fun (a : Ir.acc) -> Hashtbl.replace kept_params a.Ir.acc_param ())
    ctx.out_accs;
  List.iter
    (fun (p, _) ->
      if Hashtbl.mem kept_params p then begin
        skipped :=
          Diag.warning Diag.Decouple
            "parameter %s both eliminated and kept; keeping the constraint" p
          :: !skipped;
        (* rebuild the env without this binding *)
        ctx.env <-
          Pred.Env.of_list
            (List.filter (fun (q, _) -> q <> p) (Pred.Env.bindings ctx.env))
      end)
    (Pred.Env.bindings ctx.env);
  (* exact duplicates collapse; a parameter constrained twice with different
     counts is contradictory input — keep the first and report the rest *)
  let seen = Hashtbl.create 32 in
  let by_param = Hashtbl.create 32 in
  let uccs =
    List.filter
      (fun (u : Ir.ucc) ->
        let key = (u.Ir.ucc_table, u.Ir.ucc_col, u.Ir.ucc_lit, u.Ir.ucc_rows) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          match u.Ir.ucc_lit with
          | Pred.Cmp { arg = Pred.Param p; _ }
          | Pred.In { arg = Pred.Param p; _ }
          | Pred.Like { arg = Pred.Param p; _ } -> (
              match Hashtbl.find_opt by_param p with
              | Some prev when prev <> u.Ir.ucc_rows ->
                  skipped :=
                    Diag.warning ~table:u.Ir.ucc_table ~query:u.Ir.ucc_source
                      ~hint:"the first count wins; align the annotations"
                      Diag.Decouple
                      "parameter %s constrained with conflicting counts" p
                    :: !skipped;
                  false
              | _ ->
                  Hashtbl.replace by_param p u.Ir.ucc_rows;
                  true)
          | Pred.Cmp _ | Pred.In _ | Pred.Like _ | Pred.Arith_cmp _ -> true
        end)
      (List.rev ctx.out_uccs)
  in
  {
    uccs;
    accs = List.rev ctx.out_accs;
    bound = List.rev ctx.out_bound;
    fixed_env = ctx.env;
    skipped = List.rev !skipped;
  }
