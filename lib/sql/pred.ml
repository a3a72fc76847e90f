type cmp = Eq | Neq | Lt | Le | Gt | Ge

type arith =
  | Acol of string
  | Aconst of float
  | Aadd of arith * arith
  | Asub of arith * arith
  | Amul of arith * arith
  | Adiv of arith * arith

type operand =
  | Param of string
  | Const of Value.t
  | Const_list of Value.t list

type literal =
  | Cmp of { col : string; cmp : cmp; arg : operand }
  | In of { col : string; neg : bool; arg : operand }
  | Like of { col : string; neg : bool; arg : operand }
  | Arith_cmp of { expr : arith; cmp : cmp; arg : operand }

type t =
  | Lit of literal
  | And of t list
  | Or of t list
  | Not of t
  | True
  | False

module Env = struct
  type binding = Scalar of Value.t | Vlist of Value.t list

  module M = Map.Make (String)

  type t = binding M.t

  let empty = M.empty
  let add = M.add
  let add_scalar name v t = M.add name (Scalar v) t
  let of_list l = List.fold_left (fun m (k, v) -> M.add k v m) M.empty l
  let find name t = M.find_opt name t

  let find_scalar name t =
    match M.find_opt name t with Some (Scalar v) -> Some v | Some (Vlist _) | None -> None
  let bindings t = M.bindings t

  let binding_to_string = function
    | Scalar v -> Value.to_string v
    | Vlist vs -> "(" ^ String.concat ", " (List.map Value.to_string vs) ^ ")"
end

let resolve_scalar ~env = function
  | Const v -> v
  | Const_list _ -> invalid_arg "Pred.eval: list operand in scalar position"
  | Param p -> (
      match Env.find p env with
      | Some (Env.Scalar v) -> v
      | Some (Env.Vlist _) ->
          invalid_arg (Printf.sprintf "Pred.eval: parameter %s bound to a list" p)
      | None -> invalid_arg (Printf.sprintf "Pred.eval: unbound parameter %s" p))

let resolve_list ~env = function
  | Const_list vs -> vs
  | Const v -> [ v ]
  | Param p -> (
      match Env.find p env with
      | Some (Env.Vlist vs) -> vs
      | Some (Env.Scalar v) -> [ v ]
      | None -> invalid_arg (Printf.sprintf "Pred.eval: unbound parameter %s" p))

let cmp_holds cmp c =
  match cmp with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec eval_arith lookup = function
  | Acol c -> Value.to_float (lookup c)
  | Aconst f -> Some f
  | Aadd (a, b) -> lift2 ( +. ) lookup a b
  | Asub (a, b) -> lift2 ( -. ) lookup a b
  | Amul (a, b) -> lift2 ( *. ) lookup a b
  | Adiv (a, b) -> (
      match (eval_arith lookup a, eval_arith lookup b) with
      | Some x, Some y when y <> 0.0 -> Some (x /. y)
      | _ -> None)

and lift2 op lookup a b =
  match (eval_arith lookup a, eval_arith lookup b) with
  | Some x, Some y -> Some (op x y)
  | _ -> None

let eval_literal ~env lookup = function
  | Cmp { col; cmp; arg } -> (
      let v = lookup col and arg_v = resolve_scalar ~env arg in
      match Value.cmp_sql v arg_v with
      | Some c -> cmp_holds cmp c
      | None -> false)
  | In { col; neg; arg } -> (
      let v = lookup col in
      match v with
      | Value.Null -> false
      | _ ->
          let vs = resolve_list ~env arg in
          let mem = List.exists (fun x -> Value.cmp_sql v x = Some 0) vs in
          if neg then not mem else mem)
  | Like { col; neg; arg } -> (
      match (lookup col, resolve_scalar ~env arg) with
      | Value.Str s, Value.Str pattern ->
          let m = Like.matches ~pattern s in
          if neg then not m else m
      | Value.Null, _ | _, Value.Null -> false
      | _ -> false)
  | Arith_cmp { expr; cmp; arg } -> (
      let arg_v = resolve_scalar ~env arg in
      match (eval_arith lookup expr, Value.to_float arg_v) with
      | Some x, Some y -> cmp_holds cmp (Stdlib.compare x y)
      | _ -> false)

let rec eval ~env lookup = function
  | True -> true
  | False -> false
  | Lit l -> eval_literal ~env lookup l
  | And ps -> List.for_all (eval ~env lookup) ps
  | Or ps -> List.exists (eval ~env lookup) ps
  | Not p -> not (eval ~env lookup p)

let rec arith_columns = function
  | Acol c -> [ c ]
  | Aconst _ -> []
  | Aadd (a, b) | Asub (a, b) | Amul (a, b) | Adiv (a, b) ->
      arith_columns a @ arith_columns b

let literal_columns = function
  | Cmp { col; _ } | In { col; _ } | Like { col; _ } -> [ col ]
  | Arith_cmp { expr; _ } -> arith_columns expr

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let columns p =
  let rec go = function
    | True | False -> []
    | Lit l -> literal_columns l
    | Not q -> go q
    | And qs | Or qs -> List.concat_map go qs
  in
  dedup (go p)

let operand_params = function Param p -> [ p ] | Const _ | Const_list _ -> []

let literal_params = function
  | Cmp { arg; _ } | In { arg; _ } | Like { arg; _ } | Arith_cmp { arg; _ } ->
      operand_params arg

let params p =
  let rec go = function
    | True | False -> []
    | Lit l -> literal_params l
    | Not q -> go q
    | And qs | Or qs -> List.concat_map go qs
  in
  dedup (go p)

let negate_cmp = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let negate_literal = function
  | Cmp c -> Some (Cmp { c with cmp = negate_cmp c.cmp })
  | In i -> Some (In { i with neg = not i.neg })
  | Like l -> Some (Like { l with neg = not l.neg })
  | Arith_cmp a -> Some (Arith_cmp { a with cmp = negate_cmp a.cmp })

(* Negation normal form: push Not down to literals, where it is absorbed by
   comparator flipping. *)
let rec nnf = function
  | True -> True
  | False -> False
  | Lit _ as p -> p
  | And ps -> And (List.map nnf ps)
  | Or ps -> Or (List.map nnf ps)
  | Not q -> nnf_neg q

and nnf_neg = function
  | True -> False
  | False -> True
  | Lit l -> (
      match negate_literal l with Some l' -> Lit l' | None -> Not (Lit l))
  | And ps -> Or (List.map nnf_neg ps)
  | Or ps -> And (List.map nnf_neg ps)
  | Not q -> nnf q

(* CNF by distribution.  Clauses are lists of literal predicates. *)
let cnf p =
  let rec clauses = function
    | True -> []
    | False -> [ [] ]
    | Lit _ as l -> [ [ l ] ]
    | Not _ as l -> [ [ l ] ] (* only possible for non-negatable literal *)
    | And ps -> List.concat_map clauses ps
    | Or ps ->
        let parts = List.map clauses ps in
        List.fold_left
          (fun acc cs ->
            List.concat_map (fun a -> List.map (fun c -> a @ c) cs) acc)
          [ [] ] parts
  in
  clauses (nnf p)

let pp_cmp ppf c =
  Fmt.string ppf
    (match c with
    | Eq -> "="
    | Neq -> "<>"
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">=")

let rec pp_arith ppf = function
  | Acol c -> Fmt.string ppf c
  | Aconst f -> Fmt.string ppf (Value.float_digits f)
  | Aadd (a, b) -> Fmt.pf ppf "(%a + %a)" pp_arith a pp_arith b
  | Asub (a, b) -> Fmt.pf ppf "(%a - %a)" pp_arith a pp_arith b
  | Amul (a, b) -> Fmt.pf ppf "(%a * %a)" pp_arith a pp_arith b
  | Adiv (a, b) -> Fmt.pf ppf "(%a / %a)" pp_arith a pp_arith b

let pp_operand ppf = function
  | Param p -> Fmt.pf ppf "$%s" p
  | Const v -> Value.pp ppf v
  | Const_list vs -> Fmt.string ppf (Env.binding_to_string (Env.Vlist vs))

let pp_literal ppf = function
  | Cmp { col; cmp; arg } -> Fmt.pf ppf "%s %a %a" col pp_cmp cmp pp_operand arg
  | In { col; neg; arg } ->
      Fmt.pf ppf "%s %sin %a" col (if neg then "not " else "") pp_operand arg
  | Like { col; neg; arg } ->
      Fmt.pf ppf "%s %slike %a" col (if neg then "not " else "") pp_operand arg
  | Arith_cmp { expr; cmp; arg } ->
      Fmt.pf ppf "%a %a %a" pp_arith expr pp_cmp cmp pp_operand arg

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Lit l -> pp_literal ppf l
  | And ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " and ") pp) ps
  | Or ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " or ") pp) ps
  | Not p -> Fmt.pf ppf "not %a" pp p

let to_string p = Fmt.str "%a" pp p
