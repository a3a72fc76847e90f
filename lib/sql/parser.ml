exception Parse_error of string

type token =
  | Tident of string
  | Tnumber of string
  | Tstring of string
  | Tparam of string
  | Tlparen
  | Trparen
  | Tcomma
  | Top of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'
let is_digit c = c >= '0' && c <= '9'

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then (push Tlparen; incr i)
    else if c = ')' then (push Trparen; incr i)
    else if c = ',' then (push Tcomma; incr i)
    else if c = '$' then begin
      incr i;
      let start = !i in
      while !i < n && is_ident s.[!i] do incr i done;
      if !i = start then fail "empty parameter name at offset %d" start;
      push (Tparam (String.sub s start (!i - start)))
    end
    else if c = '\'' then begin
      incr i;
      let buf = Buffer.create 8 in
      let closed = ref false in
      while !i < n && not !closed do
        (* a doubled quote is one quote inside the string, as in SQL *)
        if s.[!i] = '\'' && !i + 1 < n && s.[!i + 1] = '\'' then (
          Buffer.add_char buf '\'';
          i := !i + 2)
        else if s.[!i] = '\'' then (closed := true; incr i)
        else (Buffer.add_char buf s.[!i]; incr i)
      done;
      if not !closed then fail "unterminated string literal";
      push (Tstring (Buffer.contents buf))
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit s.[!i + 1]
                           && (match !toks with
                               | Top _ :: _ | Tlparen :: _ | Tcomma :: _ | [] -> true
                               | _ -> false)) then begin
      let start = !i in
      if c = '-' then incr i;
      while !i < n && (is_digit s.[!i] || s.[!i] = '.') do incr i done;
      push (Tnumber (String.sub s start (!i - start)))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident s.[!i] do incr i done;
      push (Tident (String.sub s start (!i - start)))
    end
    else begin
      let two = if !i + 1 < n then String.sub s !i 2 else "" in
      match two with
      | "<=" | ">=" | "<>" | "!=" -> (push (Top two); i := !i + 2)
      | _ -> (
          match c with
          | '=' | '<' | '>' | '+' | '-' | '*' | '/' ->
              push (Top (String.make 1 c));
              incr i
          | _ -> fail "unexpected character %c at offset %d" c !i)
    end
  done;
  List.rev !toks

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> None | t :: _ -> Some t
let advance st = match st.toks with [] -> fail "unexpected end of input" | _ :: r -> st.toks <- r

let expect st t =
  match st.toks with
  | x :: r when x = t -> st.toks <- r
  | _ -> fail "syntax error: expected token missing"

let keyword = function
  | Tident s -> Some (String.lowercase_ascii s)
  | _ -> None

let cmp_of_string = function
  | "=" -> Pred.Eq
  | "<>" | "!=" -> Pred.Neq
  | "<" -> Pred.Lt
  | "<=" -> Pred.Le
  | ">" -> Pred.Gt
  | ">=" -> Pred.Ge
  | s -> fail "unknown comparator %s" s

let float_of_number s =
  match float_of_string_opt s with Some x -> x | None -> fail "bad number %s" s

let value_of_number s =
  if String.contains s '.' then Value.Float (float_of_number s)
  else
    match int_of_string_opt s with
    | Some x -> Value.Int x
    | None -> fail "bad integer %s" s

let parse_literal st =
  match peek st with
  | Some (Tnumber s) -> advance st; value_of_number s
  | Some (Tstring s) -> advance st; Value.Str s
  | _ -> fail "expected a number or a string"

let parse_operand st =
  match peek st with
  | Some (Tparam p) -> advance st; Pred.Param p
  | Some Tlparen ->
      advance st;
      let rec items acc =
        let acc = parse_literal st :: acc in
        match peek st with
        | Some Tcomma -> advance st; items acc
        | Some Trparen -> advance st; List.rev acc
        | _ -> fail "expected ',' or ')' in list operand"
      in
      if peek st = Some Trparen then (advance st; Pred.Const_list [])
      else Pred.Const_list (items [])
  | _ -> Pred.Const (parse_literal st)

let rec parse_expr st =
  let lhs = parse_term st in
  let rec loop acc =
    match peek st with
    | Some (Top "+") -> advance st; loop (Pred.Aadd (acc, parse_term st))
    | Some (Top "-") -> advance st; loop (Pred.Asub (acc, parse_term st))
    | _ -> acc
  in
  loop lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec loop acc =
    match peek st with
    | Some (Top "*") -> advance st; loop (Pred.Amul (acc, parse_factor st))
    | Some (Top "/") -> advance st; loop (Pred.Adiv (acc, parse_factor st))
    | _ -> acc
  in
  loop lhs

and parse_factor st =
  match peek st with
  | Some (Tident c) when keyword (Tident c) <> Some "not" -> advance st; Pred.Acol c
  | Some (Tnumber s) -> advance st; Pred.Aconst (float_of_number s)
  | Some Tlparen ->
      advance st;
      let e = parse_expr st in
      expect st Trparen;
      e
  | _ -> fail "expected arithmetic factor"

let parse_comparison st =
  let expr = parse_expr st in
  match (expr, peek st) with
  | Pred.Acol col, Some (Tident kw)
    when keyword (Tident kw) = Some "in" || keyword (Tident kw) = Some "like"
         || keyword (Tident kw) = Some "not" -> (
      let neg =
        if keyword (Tident kw) = Some "not" then begin
          advance st;
          true
        end
        else false
      in
      match peek st with
      | Some (Tident k2) when keyword (Tident k2) = Some "in" ->
          advance st;
          Pred.Lit (Pred.In { col; neg; arg = parse_operand st })
      | Some (Tident k2) when keyword (Tident k2) = Some "like" ->
          advance st;
          Pred.Lit (Pred.Like { col; neg; arg = parse_operand st })
      | _ -> fail "expected 'in' or 'like' after column%s" (if neg then " not" else ""))
  | _, Some (Top op) ->
      advance st;
      let cmp = cmp_of_string op in
      let arg = parse_operand st in
      (match expr with
      | Pred.Acol col -> Pred.Lit (Pred.Cmp { col; cmp; arg })
      | _ ->
          (match cmp with
          | Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge -> ()
          | Pred.Eq | Pred.Neq ->
              fail "arithmetic predicates only support <, <=, >, >=");
          Pred.Lit (Pred.Arith_cmp { expr; cmp; arg }))
  | _ -> fail "expected comparator"

let rec parse_pred st =
  let lhs = parse_conj st in
  let rec loop acc =
    match peek st with
    | Some t when keyword t = Some "or" ->
        advance st;
        loop (parse_conj st :: acc)
    | _ -> List.rev acc
  in
  match loop [ lhs ] with [ p ] -> p | ps -> Pred.Or ps

and parse_conj st =
  let lhs = parse_atom st in
  let rec loop acc =
    match peek st with
    | Some t when keyword t = Some "and" ->
        advance st;
        loop (parse_atom st :: acc)
    | _ -> List.rev acc
  in
  match loop [ lhs ] with [ p ] -> p | ps -> Pred.And ps

and parse_atom st =
  match peek st with
  | Some t when keyword t = Some "not" ->
      advance st;
      Pred.Not (parse_atom st)
  | Some t when keyword t = Some "true" -> advance st; Pred.True
  | Some t when keyword t = Some "false" -> advance st; Pred.False
  | Some Tlparen ->
      (* Could be a parenthesised predicate or a parenthesised arithmetic
         expression starting a comparison.  Try predicate first, backtrack to
         comparison on failure. *)
      let saved = st.toks in
      (try
         advance st;
         let p = parse_pred st in
         expect st Trparen;
         p
       with Parse_error _ ->
         st.toks <- saved;
         parse_comparison st)
  | _ -> parse_comparison st

let pred s =
  let st = { toks = tokenize s } in
  let p = parse_pred st in
  (match st.toks with
  | [] -> ()
  | _ -> fail "trailing tokens after predicate");
  p

let pred_opt s = try Ok (pred s) with Parse_error m -> Error m

let binding s =
  let st = { toks = tokenize s } in
  let b =
    match parse_operand st with
    | Pred.Const v -> Pred.Env.Scalar v
    | Pred.Const_list vs -> Pred.Env.Vlist vs
    | Pred.Param p -> fail "expected a value, got the parameter $%s" p
  in
  if st.toks <> [] then fail "trailing tokens after the value";
  b
