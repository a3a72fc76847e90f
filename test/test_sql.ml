module Value = Mirage_sql.Value
module Like = Mirage_sql.Like
module Pred = Mirage_sql.Pred
module Parser = Mirage_sql.Parser
module Schema = Mirage_sql.Schema

(* --- Value --------------------------------------------------------------- *)

let test_value_compare_total () =
  Alcotest.(check bool) "null first" true (Value.compare Value.Null (Value.Int 0) < 0);
  Alcotest.(check int) "ints" (-1) (compare (Value.compare (Value.Int 1) (Value.Int 2)) 0);
  Alcotest.(check int) "int/float numeric" 0 (Value.compare (Value.Int 2) (Value.Float 2.0))

let test_value_cmp_sql_null () =
  Alcotest.(check bool) "null incomparable" true
    (Value.cmp_sql Value.Null (Value.Int 1) = None);
  Alcotest.(check bool) "null vs null" true (Value.cmp_sql Value.Null Value.Null = None)

let test_value_cmp_sql_mixed () =
  Alcotest.(check (option int)) "int vs float" (Some 0)
    (Value.cmp_sql (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check (option int)) "str" (Some (-1))
    (Option.map (fun c -> compare c 0) (Value.cmp_sql (Value.Str "a") (Value.Str "b")));
  Alcotest.(check bool) "str vs int incomparable" true
    (Value.cmp_sql (Value.Str "1") (Value.Int 1) = None)

let test_value_to_float () =
  Alcotest.(check (option (float 0.0))) "int" (Some 4.0) (Value.to_float (Value.Int 4));
  Alcotest.(check bool) "str none" true (Value.to_float (Value.Str "x") = None)

(* pools small enough that equal pairs are common: [Int]s and their [Float]
   images, ±0.0, NaNs with different payloads, infinities and integers
   beyond 2^53 whose float images coincide *)
let prop_value_hash_consistent =
  let gen =
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map (fun i -> Value.Int i) (int_range (-3) 3);
          map (fun i -> Value.Int i) (oneofl [ max_int; min_int; 1 lsl 53; (1 lsl 53) + 1 ]);
          map (fun i -> Value.Float (float_of_int i)) (int_range (-3) 3);
          map (fun f -> Value.Float f)
            (oneofl
               [ 0.0; -0.0; 0.5; nan; Int64.float_of_bits 0x7FF8000000000001L;
                 infinity; neg_infinity; 9007199254740992.0; 9.223372036854775807e18 ]);
          map (fun s -> Value.Str s) (oneofl [ ""; "1"; "a" ]);
        ])
  in
  QCheck.Test.make ~name:"compare a b = 0 implies hash a = hash b" ~count:2000
    (QCheck.make ~print:(fun (a, b) -> Value.to_string a ^ ", " ^ Value.to_string b)
       QCheck.Gen.(pair gen gen))
    (fun (a, b) -> Value.compare a b <> 0 || Value.hash a = Value.hash b)

(* --- Like ---------------------------------------------------------------- *)

let like_cases =
  [
    ("abc", "abc", true);
    ("abc", "abd", false);
    ("%", "", true);
    ("%", "anything", true);
    ("a%", "abc", true);
    ("a%", "bac", false);
    ("%c", "abc", true);
    ("%c", "cab", false);
    ("%b%", "abc", true);
    ("%b%", "ac", false);
    ("a_c", "abc", true);
    ("a_c", "ac", false);
    ("a__", "abc", true);
    ("%a%b%", "xxaxxbxx", true);
    ("%a%b%", "xxbxxaxx", false);
    ("%special%requests%", "the special customer requests arrived", true);
    ("%special%requests%", "requests special", false);
    ("", "", true);
    ("", "a", false);
    ("%%", "x", true);
    ("_%", "", false);
  ]

let test_like_cases () =
  List.iter
    (fun (pattern, s, expect) ->
      Alcotest.(check bool) (Printf.sprintf "%s ~ %s" pattern s) expect
        (Like.matches ~pattern s))
    like_cases

(* reference implementation: recursive descent *)
let rec like_ref p s pi si =
  if pi = String.length p then si = String.length s
  else
    match p.[pi] with
    | '%' ->
        let rec try_skip k =
          k <= String.length s && (like_ref p s (pi + 1) k || try_skip (k + 1))
        in
        try_skip si
    | '_' -> si < String.length s && like_ref p s (pi + 1) (si + 1)
    | c -> si < String.length s && s.[si] = c && like_ref p s (pi + 1) (si + 1)

let prop_like_vs_reference =
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (0 -- 8))
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 10)))
  in
  QCheck.Test.make ~name:"like agrees with reference matcher" ~count:500
    (QCheck.make gen) (fun (pattern, s) ->
      Like.matches ~pattern s = like_ref pattern s 0 0)

(* --- Pred ---------------------------------------------------------------- *)

let lookup_of l c = match List.assoc_opt c l with Some v -> v | None -> Value.Null

let env =
  Pred.Env.of_list
    [
      ("p", Pred.Env.Scalar (Value.Int 5));
      ("q", Pred.Env.Scalar (Value.Str "hi"));
      ("l", Pred.Env.Vlist [ Value.Int 1; Value.Int 3 ]);
      ("pat", Pred.Env.Scalar (Value.Str "h%"));
      ("f", Pred.Env.Scalar (Value.Float 2.5));
    ]

let row = [ ("a", Value.Int 4); ("b", Value.Str "hi"); ("c", Value.Int 3); ("n", Value.Null) ]

let ev p = Pred.eval ~env (lookup_of row) p

let test_pred_cmp () =
  Alcotest.(check bool) "a < p" true (ev (Parser.pred "a < $p"));
  Alcotest.(check bool) "a > p" false (ev (Parser.pred "a > $p"));
  Alcotest.(check bool) "a <> p" true (ev (Parser.pred "a <> $p"));
  Alcotest.(check bool) "a = 4" true (ev (Parser.pred "a = 4"));
  Alcotest.(check bool) "a >= 4" true (ev (Parser.pred "a >= 4"));
  Alcotest.(check bool) "a <= 3" false (ev (Parser.pred "a <= 3"))

let test_pred_null_semantics () =
  Alcotest.(check bool) "n = p false" false (ev (Parser.pred "n = $p"));
  Alcotest.(check bool) "n <> p false (SQL-ish)" false (ev (Parser.pred "n <> $p"));
  Alcotest.(check bool) "n in l false" false (ev (Parser.pred "n in $l"))

let test_pred_in_like () =
  Alcotest.(check bool) "c in l" true (ev (Parser.pred "c in $l"));
  Alcotest.(check bool) "a not in l" true (ev (Parser.pred "a not in $l"));
  Alcotest.(check bool) "b like pat" true (ev (Parser.pred "b like $pat"));
  Alcotest.(check bool) "b not like pat" false (ev (Parser.pred "b not like $pat"));
  Alcotest.(check bool) "b in literal list" true (ev (Parser.pred "b in ('hi', 'ho')"))

let test_pred_arith () =
  Alcotest.(check bool) "a - c > f" false (ev (Parser.pred "a - c > $f"));
  Alcotest.(check bool) "a + c > f" true (ev (Parser.pred "a + c > $f"));
  Alcotest.(check bool) "a * c >= 12" true (ev (Parser.pred "a * c >= 12"));
  Alcotest.(check bool) "arith with null false" false (ev (Parser.pred "a - n > $f"))

let test_pred_logic () =
  Alcotest.(check bool) "and" true (ev (Parser.pred "a = 4 and c = 3"));
  Alcotest.(check bool) "or" true (ev (Parser.pred "a = 9 or c = 3"));
  Alcotest.(check bool) "not" true (ev (Parser.pred "not a = 9"));
  Alcotest.(check bool) "nested" true (ev (Parser.pred "(a = 9 or c = 3) and b = 'hi'"))

let test_pred_unbound_param () =
  Alcotest.check_raises "unbound"
    (Invalid_argument "Pred.eval: unbound parameter zz") (fun () ->
      ignore (ev (Parser.pred "a < $zz")))

let test_columns_params () =
  let p = Parser.pred "a < $p and (b = $q or c - a > $r)" in
  Alcotest.(check (list string)) "columns" [ "a"; "b"; "c" ] (Pred.columns p);
  Alcotest.(check (list string)) "params" [ "p"; "q"; "r" ] (Pred.params p)

let test_negate_literal_involution () =
  let lits =
    [
      Pred.Cmp { col = "a"; cmp = Pred.Lt; arg = Pred.Param "p" };
      Pred.Cmp { col = "a"; cmp = Pred.Eq; arg = Pred.Param "p" };
      Pred.In { col = "a"; neg = false; arg = Pred.Param "l" };
      Pred.Like { col = "a"; neg = true; arg = Pred.Param "pat" };
    ]
  in
  List.iter
    (fun l ->
      match Pred.negate_literal l with
      | Some l' -> (
          match Pred.negate_literal l' with
          | Some l'' -> Alcotest.(check bool) "involution" true (l = l'')
          | None -> Alcotest.fail "negate failed")
      | None -> Alcotest.fail "negate failed")
    lits

(* random predicate generator over a fixed row, for the CNF property *)
let gen_pred : Pred.t QCheck.Gen.t =
  let open QCheck.Gen in
  let lit =
    oneof
      [
        map (fun v -> Parser.pred (Printf.sprintf "a < %d" v)) (int_range 0 9);
        map (fun v -> Parser.pred (Printf.sprintf "c = %d" v)) (int_range 0 5);
        map (fun v -> Parser.pred (Printf.sprintf "a - c > %d" v)) (int_range (-5) 5);
      ]
  in
  fix
    (fun self n ->
      if n = 0 then lit
      else
        frequency
          [
            (2, lit);
            (2, map2 (fun a b -> Pred.And [ a; b ]) (self (n - 1)) (self (n - 1)));
            (2, map2 (fun a b -> Pred.Or [ a; b ]) (self (n - 1)) (self (n - 1)));
            (1, map (fun a -> Pred.Not a) (self (n - 1)));
          ])
    3

let prop_cnf_preserves_semantics =
  QCheck.Test.make ~name:"CNF conversion preserves evaluation" ~count:300
    (QCheck.make gen_pred) (fun p ->
      let direct = ev p in
      let clauses = Pred.cnf p in
      let via_cnf =
        List.for_all (fun clause -> List.exists (fun l -> ev l) clause) clauses
      in
      direct = via_cnf)

let prop_pp_parse_roundtrip =
  (* the bundle format serialises predicates through Pred.pp and re-parses
     them with Parser.pred: the round trip must preserve evaluation *)
  QCheck.Test.make ~name:"pp/parse round trip preserves evaluation" ~count:300
    (QCheck.make gen_pred) (fun p ->
      match Parser.pred_opt (Pred.to_string p) with
      | Error _ -> false
      | Ok p' -> ev p = ev p')

(* constants print as text the parser reads back: the bundle carries
   predicates as this text, so a float printed with six digits, or with an
   exponent the parser has no syntax for, or a string holding a quote would
   change or lose the constraint *)
let prop_constants_roundtrip =
  QCheck.Test.make ~name:"float and string constants survive pp/parse" ~count:500
    QCheck.(pair float (oneofl [ 2.0; 0.05; -0.5; 1e20; 1.5e-7; 0.1234567 ]))
    (fun (x, y) ->
      QCheck.assume (Float.is_finite x);
      let p =
        Pred.And
          [
            Pred.Lit (Pred.Cmp { col = "a"; cmp = Pred.Lt; arg = Pred.Const (Value.Float x) });
            Pred.Lit
              (Pred.In
                 {
                   col = "a";
                   neg = false;
                   arg = Pred.Const_list [ Value.Float y; Value.Str "it's ''x'''" ];
                 });
            Pred.Lit
              (Pred.Arith_cmp
                 {
                   expr = Pred.Amul (Pred.Acol "a", Pred.Aconst x);
                   cmp = Pred.Gt;
                   arg = Pred.Const (Value.Float y);
                 });
          ]
      in
      Parser.pred_opt (Pred.to_string p) = Ok p)

(* a parameter value survives its text: parameters.txt writes each binding
   with Value.to_string and verify-dir reads it with Parser.binding, so a
   float cut to six digits, a whole float read back as an int or a string
   cut at a quote, comma or ')' would check a different constraint *)
let prop_binding_roundtrip =
  let open QCheck.Gen in
  let value =
    oneof
      [
        map (fun i -> Value.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
        map
          (fun f -> Value.Float f)
          (oneof
             [
               map (fun f -> if Float.is_finite f then f else 0.5) float;
               oneofl
                 [ 0.1234567; 459606.; 1e18; 1.5e-7; -0.; 0.; 5e-324; max_float; -1e300 ];
             ]);
        map
          (fun s -> Value.Str s)
          (string_size ~gen:(oneof [ oneofl [ '\''; ','; ')'; '('; '$' ]; char_range ' ' '~' ])
             (0 -- 8));
      ]
  in
  let binding =
    oneof
      [
        map (fun v -> Pred.Env.Scalar v) value;
        map (fun vs -> Pred.Env.Vlist vs) (list_size (0 -- 4) value);
      ]
  in
  (* floats by their bits, so -0. and 0. differ *)
  let same a b =
    match (a, b) with
    | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
    | _ -> a = b
  in
  QCheck.Test.make ~name:"Parser.binding reads Value.to_string back exactly" ~count:1000
    (QCheck.make ~print:Pred.Env.binding_to_string binding)
    (fun b ->
      match (b, Parser.binding (Pred.Env.binding_to_string b)) with
      | Pred.Env.Scalar v, Pred.Env.Scalar v' -> same v v'
      | Pred.Env.Vlist vs, Pred.Env.Vlist vs' ->
          List.length vs = List.length vs' && List.for_all2 same vs vs'
      | _ -> false
      | exception Parser.Parse_error m -> QCheck.Test.fail_report m)

(* --- Parser -------------------------------------------------------------- *)

let test_parser_roundtrip_shapes () =
  let ok s = match Parser.pred_opt s with Ok _ -> true | Error _ -> false in
  List.iter
    (fun s -> Alcotest.(check bool) s true (ok s))
    [
      "a = $p";
      "a <= 10 and b >= 3";
      "a in (1, 2, 3)";
      "name like '%x%'";
      "a - b * c > $p";
      "(a = 1 or b = 2) and c <> 3";
      "not (a = 1)";
      "a != 2";
    ]

let test_parser_errors () =
  let bad s = match Parser.pred_opt s with Ok _ -> false | Error _ -> true in
  List.iter
    (fun s -> Alcotest.(check bool) s true (bad s))
    [ "a <"; "= 3"; "a = $"; "a in (1,"; "a like"; "a = 'unterminated"; "a = 1 extra" ]

let test_parser_arith_eq_rejected () =
  Alcotest.(check bool) "arith with = rejected" true
    (match Parser.pred_opt "a - b = 3" with Error _ -> true | Ok _ -> false)

let test_parser_precedence () =
  (* and binds tighter than or *)
  let p = Parser.pred "a = 1 or a = 4 and c = 3" in
  Alcotest.(check bool) "or of and" true (ev p);
  match p with
  | Pred.Or [ _; Pred.And _ ] -> ()
  | _ -> Alcotest.failf "unexpected shape: %s" (Pred.to_string p)

(* --- Schema -------------------------------------------------------------- *)

let table ?(fks = []) name pk cols rows =
  {
    Schema.tname = name;
    pk;
    nonkeys =
      List.map (fun (c, d) -> { Schema.cname = c; domain_size = d; kind = Schema.Kint }) cols;
    fks;
    row_count = rows;
  }

let test_schema_ok () =
  let s =
    Schema.make
      [
        table "s" "s_pk" [ ("s1", 4) ] 4;
        table "t" "t_pk" [ ("t1", 5) ] 8
          ~fks:[ { Schema.fk_col = "t_fk"; references = "s" } ];
      ]
  in
  Alcotest.(check int) "tables" 2 (List.length (Schema.tables s));
  Alcotest.(check bool) "fk resolves" true (Schema.is_fk (Schema.table s "t") "t_fk");
  Alcotest.(check (list (pair string string))) "edges" [ ("s", "t") ]
    (Schema.referencing_edges s)

let test_schema_errors () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "dup table" true
    (raises (fun () -> ignore (Schema.make [ table "a" "pk" [] 1; table "a" "pk2" [] 1 ])));
  Alcotest.(check bool) "bad fk" true
    (raises (fun () ->
         ignore
           (Schema.make
              [ table "a" "pk" [] 1 ~fks:[ { Schema.fk_col = "x"; references = "nope" } ] ])));
  Alcotest.(check bool) "dup column" true
    (raises (fun () -> ignore (Schema.make [ table "a" "c" [ ("c", 2) ] 1 ])));
  Alcotest.(check bool) "bad rows" true
    (raises (fun () -> ignore (Schema.make [ table "a" "pk" [] 0 ])))

let test_schema_scale () =
  let s = Schema.make [ table "a" "pk" [ ("x", 3) ] 100 ] in
  let s2 = Schema.scale s 2.5 in
  Alcotest.(check int) "scaled" 250 (Schema.table s2 "a").Schema.row_count

let () =
  Alcotest.run "sql"
    [
      ( "value",
        [
          Alcotest.test_case "total order" `Quick test_value_compare_total;
          Alcotest.test_case "null sql" `Quick test_value_cmp_sql_null;
          Alcotest.test_case "mixed types" `Quick test_value_cmp_sql_mixed;
          Alcotest.test_case "to_float" `Quick test_value_to_float;
          QCheck_alcotest.to_alcotest prop_value_hash_consistent;
        ] );
      ( "like",
        [
          Alcotest.test_case "cases" `Quick test_like_cases;
          QCheck_alcotest.to_alcotest prop_like_vs_reference;
        ] );
      ( "pred",
        [
          Alcotest.test_case "comparisons" `Quick test_pred_cmp;
          Alcotest.test_case "null semantics" `Quick test_pred_null_semantics;
          Alcotest.test_case "in and like" `Quick test_pred_in_like;
          Alcotest.test_case "arithmetic" `Quick test_pred_arith;
          Alcotest.test_case "logic" `Quick test_pred_logic;
          Alcotest.test_case "unbound param" `Quick test_pred_unbound_param;
          Alcotest.test_case "columns and params" `Quick test_columns_params;
          Alcotest.test_case "negate involution" `Quick test_negate_literal_involution;
          QCheck_alcotest.to_alcotest prop_cnf_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_pp_parse_roundtrip;
          QCheck_alcotest.to_alcotest prop_constants_roundtrip;
        ] );
      ( "parser",
        [
          Alcotest.test_case "accepted shapes" `Quick test_parser_roundtrip_shapes;
          Alcotest.test_case "rejected shapes" `Quick test_parser_errors;
          Alcotest.test_case "arith eq rejected" `Quick test_parser_arith_eq_rejected;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          QCheck_alcotest.to_alcotest prop_binding_roundtrip;
        ] );
      ( "schema",
        [
          Alcotest.test_case "valid schema" `Quick test_schema_ok;
          Alcotest.test_case "invalid schemas" `Quick test_schema_errors;
          Alcotest.test_case "scaling" `Quick test_schema_scale;
        ] );
    ]
