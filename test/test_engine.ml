module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Parser = Mirage_sql.Parser
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan
module Db = Mirage_engine.Db
module Rel = Mirage_engine.Rel
module Exec = Mirage_engine.Exec
module Col = Mirage_engine.Col
module Arith = Mirage_engine.Arith

let schema =
  Schema.make
    [
      {
        Schema.tname = "s";
        pk = "s_pk";
        nonkeys = [ { Schema.cname = "s1"; domain_size = 4; kind = Schema.Kint } ];
        fks = [];
        row_count = 4;
      };
      {
        Schema.tname = "t";
        pk = "t_pk";
        nonkeys =
          [
            { Schema.cname = "t1"; domain_size = 5; kind = Schema.Kint };
            { Schema.cname = "t2"; domain_size = 4; kind = Schema.Kint };
          ];
        fks = [ { Schema.fk_col = "t_fk"; references = "s" } ];
        row_count = 8;
      };
    ]

let ints l = Array.of_list (List.map (fun x -> Value.Int x) l)

(* S has pks 1..4; T rows reference 1,2,2,3,3,3,4,4 (Example 2.4) *)
let db () =
  let db = Db.create schema in
  Db.put db "s" [ ("s_pk", ints [ 1; 2; 3; 4 ]); ("s1", ints [ 10; 20; 30; 40 ]) ];
  Db.put db "t"
    [
      ("t_pk", ints [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
      ("t_fk", ints [ 1; 2; 2; 3; 3; 3; 4; 4 ]);
      ("t1", ints [ 1; 2; 3; 4; 4; 4; 5; 3 ]);
      ("t2", ints [ 1; 2; 2; 2; 3; 4; 1; 3 ]);
    ];
  db

let env =
  Pred.Env.of_list
    [
      ("p1", Pred.Env.Scalar (Value.Int 30));
      ("p2", Pred.Env.Scalar (Value.Int 2));
    ]

(* --- Db ------------------------------------------------------------------ *)

let test_db_counts () =
  let db = db () in
  Alcotest.(check int) "|s|" 4 (Db.row_count db "s");
  Alcotest.(check int) "|t|" 8 (Db.row_count db "t");
  Alcotest.(check int) "unpopulated" 0 (Db.row_count db "nope")

let test_db_distinct () =
  let db = db () in
  Alcotest.(check int) "|t|_t1" 5 (Db.distinct_count db "t" "t1");
  Alcotest.(check int) "|t|_t2" 4 (Db.distinct_count db "t" "t2")

(* [Db.distinct_count] as it was, one [Hashtbl] key per non-NULL row, kept
   as the oracle for the id-table and pool-flag counts *)
let hashtbl_distinct_count c =
  let count_keys n nulls key =
    let seen = Hashtbl.create (min n 65536) in
    let has_null = ref false in
    for i = 0 to n - 1 do
      match nulls with
      | Some b when Col.Bitset.get b i -> has_null := true
      | _ -> Hashtbl.replace seen (key i) ()
    done;
    Hashtbl.length seen + if !has_null then 1 else 0
  in
  match c with
  | Col.Ints { data; nulls } -> count_keys (Bigarray.Array1.dim data) nulls (fun i -> data.{i})
  | Col.Floats { data; nulls } -> count_keys (Bigarray.Array1.dim data) nulls (fun i -> data.{i})
  | Col.Dict { codes; nulls; _ } -> count_keys (Bigarray.Array1.dim codes) nulls (fun i -> codes.{i})

let distinct_schema =
  Schema.make
    [
      {
        Schema.tname = "u";
        pk = "u_pk";
        nonkeys = [ { Schema.cname = "u1"; domain_size = 4; kind = Schema.Kint } ];
        fks = [];
        row_count = 1;
      };
    ]

(* ints with extremes, floats with both zeros, several NaN payloads and
   infinities, dictionaries whose pool has unused entries and whose NULL
   rows carry arbitrary codes; each with or without NULLs *)
let prop_distinct_count_matches_hashtbl =
  QCheck.Test.make ~name:"distinct_count = Hashtbl count on random columns" ~count:500
    QCheck.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = Random.State.int st 40 in
      let nulls =
        if Random.State.bool st then None
        else begin
          let b = Col.Bitset.create n in
          for i = 0 to n - 1 do
            if Random.State.int st 4 = 0 then Col.Bitset.set b i
          done;
          Some b
        end
      in
      let floats =
        [| 0.0; -0.0; Float.nan; -.Float.nan; Int64.float_of_bits 0x7FF0000000000001L;
           infinity; neg_infinity; 1.5; -1.5; 1e300; -1e-300; 2.0 |]
      in
      let col =
        match Random.State.int st 3 with
        | 0 ->
            let ints = [| min_int; max_int; -1; 0; 1; 2; 1 lsl 40 |] in
            Col.init_ints ?nulls n (fun _ -> ints.(Random.State.int st (Array.length ints)))
        | 1 ->
            Col.init_floats ?nulls n (fun _ ->
                floats.(Random.State.int st (Array.length floats)))
        | _ ->
            let pool = Array.init (1 + Random.State.int st 8) string_of_int in
            let codes =
              Col.Ivec.init n (fun _ -> Random.State.int st (Array.length pool))
            in
            Col.dict ?nulls ~codes ~pool ()
      in
      let db = Db.create distinct_schema in
      Db.put_cols db "u" [ ("u_pk", Col.init_ints n Fun.id); ("u1", col) ];
      Db.distinct_count db "u" "u1" = hashtbl_distinct_count col)

let test_db_put_validation () =
  let db = Db.create schema in
  Alcotest.(check bool) "missing column" true
    (try Db.put db "s" [ ("s_pk", ints [ 1 ]) ]; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "ragged" true
    (try
       Db.put db "s" [ ("s_pk", ints [ 1; 2 ]); ("s1", ints [ 1 ]) ];
       false
     with Invalid_argument _ -> true)

let test_db_csv () =
  let db = db () in
  let lines = String.split_on_char '\n' (Db.to_csv db "s") in
  Alcotest.(check string) "header" "s_pk,s1" (List.hd lines);
  Alcotest.(check string) "first row" "1,10" (List.nth lines 1)

let test_db_csv_roundtrip () =
  let src = db () in
  let dst = Db.create schema in
  Db.load_csv dst "s" (Db.to_csv src "s");
  Db.load_csv dst "t" (Db.to_csv src "t");
  Alcotest.(check string) "s round trip" (Db.to_csv src "s") (Db.to_csv dst "s");
  Alcotest.(check string) "t round trip" (Db.to_csv src "t") (Db.to_csv dst "t")

let test_db_csv_rejects () =
  let dst = Db.create schema in
  Alcotest.(check bool) "header mismatch" true
    (try Db.load_csv dst "s" "wrong,header\n1,2\n"; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad cell" true
    (try Db.load_csv dst "s" "s_pk,s1\nx,2\n"; false
     with Invalid_argument _ -> true)

(* --- Rel ------------------------------------------------------------------ *)

let test_rel_distinct () =
  let r =
    Rel.of_rows [| "a"; "b" |]
      [| [| Value.Int 1; Value.Int 2 |]; [| Value.Int 1; Value.Int 2 |];
         [| Value.Int 1; Value.Int 3 |] |]
  in
  Alcotest.(check int) "distinct pairs" 2 (Rel.card (Rel.distinct_on r [ "a"; "b" ]));
  Alcotest.(check int) "distinct a" 1 (Rel.distinct_count_on r [ "a" ]);
  Alcotest.(check int) "int set" 1 (Hashtbl.length (Rel.int_set r "a"))

(* --- selection ------------------------------------------------------------ *)

let test_selection_counts () =
  let db = db () in
  Alcotest.(check int) "s1 < 30" 2
    (Exec.count_select db ~env ~table:"s" (Parser.pred "s1 < $p1"));
  Alcotest.(check int) "t1 > 2" 6
    (Exec.count_select db ~env ~table:"t" (Parser.pred "t1 > $p2"));
  Alcotest.(check int) "arith" 4
    (Exec.count_select db ~env ~table:"t" (Parser.pred "t1 - t2 > 0"))

(* --- joins: Table 2 output sizes ------------------------------------------ *)

(* With V_l = sigma(s1<30)(S) = {1,2} and V_r = sigma(t1>2)(T) = rows 3..8:
   matched pairs: rows with fk in {1,2} among t1>2 -> rows 3 (fk 2) and 8? t1
   values by row: [1;2;3;4;4;4;5;3], so t1>2 keeps rows 3,4,5,6,7,8 with fks
   [2;3;3;3;4;4].  Matches against {1,2}: row 3 only -> jcc=1, jdc=1. *)
let join_of jt =
  Plan.Join
    {
      jt;
      pk_table = "s";
      fk_table = "t";
      fk_col = "t_fk";
      left = Plan.Select (Parser.pred "s1 < $p1", Plan.Table "s");
      right = Plan.Select (Parser.pred "t1 > $p2", Plan.Table "t");
    }

let sizes jt =
  let db = db () in
  let a = Exec.analyze db ~env (join_of jt) in
  let _, stat = List.hd a.Exec.join_stats |> fun (i, s) -> (i, s) in
  (a.Exec.cards.(0), stat)

let test_join_stats () =
  let _, stat = sizes Plan.Inner in
  Alcotest.(check int) "jcc" 1 stat.Exec.jcc;
  Alcotest.(check int) "jdc" 1 stat.Exec.jdc;
  Alcotest.(check int) "|Vl|" 2 stat.Exec.left_card;
  Alcotest.(check int) "|Vr|" 6 stat.Exec.right_card

(* Table 2: sizes in terms of |Vl|=2, |Vr|=6, jcc=1, jdc=1 *)
let test_join_sizes_table2 () =
  let check jt expect =
    let size, _ = sizes jt in
    Alcotest.(check int) (Plan.node_label (join_of jt)) expect size
  in
  check Plan.Inner 1 (* n_jcc *);
  check Plan.Left_outer 2 (* |Vl| - jdc + jcc = 2-1+1 *);
  check Plan.Right_outer 6 (* |Vr| *);
  check Plan.Full_outer 7 (* |Vl| - jdc + |Vr| = 2-1+6 *);
  check Plan.Left_semi 1 (* jdc *);
  check Plan.Right_semi 1 (* jcc *);
  check Plan.Left_anti 1 (* |Vl| - jdc *);
  check Plan.Right_anti 5 (* |Vr| - jcc *)

let test_projection_distinct () =
  let db = db () in
  let plan = Plan.Project { cols = [ "t_fk" ]; input = Plan.Table "t" } in
  let a = Exec.analyze db ~env plan in
  Alcotest.(check int) "distinct fks" 4 a.Exec.cards.(0)

let test_projection_over_join () =
  let db = db () in
  let plan = Plan.Project { cols = [ "t_fk" ]; input = join_of Plan.Inner } in
  Alcotest.(check int) "distinct matched fks" 1
    (Rel.card (Exec.run db ~env plan))

let test_nested_join_cards () =
  (* cards array uses preorder indexing *)
  let db = db () in
  let plan = Plan.Select (Parser.pred "t2 >= 1", join_of Plan.Inner) in
  let a = Exec.analyze db ~env plan in
  Alcotest.(check int) "outer select" 1 a.Exec.cards.(0);
  Alcotest.(check int) "join below" 1 a.Exec.cards.(1);
  Alcotest.(check int) "left select" 2 a.Exec.cards.(2);
  Alcotest.(check int) "s table" 4 a.Exec.cards.(3)

let test_outer_join_null_padding () =
  let db = db () in
  let rel = Exec.run db ~env (join_of Plan.Left_outer) in
  (* the unmatched S row (pk 1, since fk 1's t1=1 fails t1>2) has nulls *)
  let has_null_row =
    Array.exists (fun row -> Array.exists (fun v -> v = Value.Null) row)
      (Rel.rows rel)
  in
  Alcotest.(check bool) "padded row exists" true has_null_row

let test_aggregate_groups () =
  let db = db () in
  let plan =
    Plan.Aggregate
      {
        group_by = [ "t_fk" ];
        aggs = [ (Plan.Count, "t_pk"); (Plan.Sum, "t1"); (Plan.Min, "t2"); (Plan.Max, "t2") ];
        input = Plan.Table "t";
      }
  in
  let rel = Exec.run db ~env plan in
  Alcotest.(check int) "4 groups" 4 (Rel.card rel);
  (* group fk=3 has rows with t1 = 4,4,4 and t2 = 2,3,4 *)
  let fki = Rel.col_index rel "t_fk" in
  let row =
    Array.to_list (Rel.rows rel)
    |> List.find (fun r -> r.(fki) = Value.Int 3)
  in
  Alcotest.(check bool) "count 3" true (row.(Rel.col_index rel "count_t_pk") = Value.Int 3);
  Alcotest.(check bool) "sum 12" true (row.(Rel.col_index rel "sum_t1") = Value.Float 12.0);
  Alcotest.(check bool) "min 2" true (row.(Rel.col_index rel "min_t2") = Value.Float 2.0);
  Alcotest.(check bool) "max 4" true (row.(Rel.col_index rel "max_t2") = Value.Float 4.0)

let test_aggregate_global () =
  let db = db () in
  let plan =
    Plan.Aggregate
      { group_by = []; aggs = [ (Plan.Avg, "t1") ]; input = Plan.Table "t" }
  in
  let rel = Exec.run db ~env plan in
  Alcotest.(check int) "one global group" 1 (Rel.card rel);
  match (Rel.rows rel).(0).(0) with
  | Value.Float avg -> Alcotest.(check (float 1e-9)) "avg" 3.25 avg
  | _ -> Alcotest.fail "expected float"

let test_aggregate_over_empty () =
  let db = db () in
  let plan =
    Plan.Aggregate
      {
        group_by = [];
        aggs = [ (Plan.Sum, "t1") ];
        input = Plan.Select (Parser.pred "t1 > 99", Plan.Table "t");
      }
  in
  Alcotest.(check int) "no groups from no rows" 0 (Rel.card (Exec.run db ~env plan))

let prop_join_size_equations =
  (* generate random small PK-FK instances and check the Table 2 identities
     between the 8 join types *)
  QCheck.Test.make ~name:"Table 2 size identities on random instances" ~count:200
    QCheck.(pair (int_range 1 6) (int_range 0 12))
    (fun (ns, nt) ->
      let db = Db.create schema in
      let seed = (ns * 31) + nt in
      let rng = Mirage_util.Rng.create seed in
      let ns = min ns 4 in
      Db.put db "s"
        [
          ("s_pk", Array.init ns (fun i -> Value.Int (i + 1)));
          ("s1", Array.init ns (fun _ -> Value.Int (Mirage_util.Rng.int_in rng 10 40)));
        ];
      Db.put db "t"
        [
          ("t_pk", Array.init nt (fun i -> Value.Int (i + 1)));
          ("t_fk", Array.init nt (fun _ -> Value.Int (Mirage_util.Rng.int_in rng 1 ns)));
          ("t1", Array.init nt (fun _ -> Value.Int (Mirage_util.Rng.int_in rng 1 5)));
          ("t2", Array.init nt (fun _ -> Value.Int (Mirage_util.Rng.int_in rng 1 4)));
        ];
      let size jt = (Exec.analyze db ~env (join_of jt)).Exec.cards.(0) in
      let stat jt = List.hd (Exec.analyze db ~env (join_of jt)).Exec.join_stats |> snd in
      let s = stat Plan.Inner in
      size Plan.Inner = s.Exec.jcc
      && size Plan.Left_outer = s.Exec.left_card - s.Exec.jdc + s.Exec.jcc
      && size Plan.Right_outer = s.Exec.right_card
      && size Plan.Full_outer = s.Exec.left_card - s.Exec.jdc + s.Exec.right_card
      && size Plan.Left_semi = s.Exec.jdc
      && size Plan.Right_semi = s.Exec.jcc
      && size Plan.Left_anti = s.Exec.left_card - s.Exec.jdc
      && size Plan.Right_anti = s.Exec.right_card - s.Exec.jcc)

(* --- join kernel vs. the cons-list reference ------------------------------ *)

let join_types =
  Plan.[ Inner; Left_outer; Right_outer; Full_outer; Left_semi; Right_semi;
         Left_anti; Right_anti ]

(* keys that stress the flat index: duplicates, negatives, zero, the int
   extremes and multiples of a large power of two, which agree in every
   low bit *)
let random_key st =
  match Random.State.int st 7 with
  | 0 -> min_int
  | 1 -> max_int
  | 2 -> 0
  | 3 -> -1 - Random.State.int st 4
  | 4 -> Random.State.int st 8 lsl (10 * (1 + Random.State.int st 5))
  | _ -> 1 + Random.State.int st 6

(* a relation whose [key] column draws from [pool]: a physical column with
   an optional null bitmap (one in ten a float or string column, which the
   join must refuse), seen through a selection vector that repeats rows,
   reorders them and pads with -1; a second column shares the selection or
   has its own *)
let random_rel st ~key ~other pool =
  let np = Random.State.int st 12 in
  let keys = Array.init np (fun _ -> pool.(Random.State.int st (Array.length pool))) in
  let nulls =
    if Random.State.bool st then None
    else begin
      let nb = Col.Bitset.create np in
      for i = 0 to np - 1 do
        if Random.State.int st 5 = 0 then Col.Bitset.set nb i
      done;
      Some nb
    end
  in
  let kcol =
    match Random.State.int st 20 with
    | 0 -> Col.of_floats ?nulls (Array.map float_of_int keys)
    | 1 -> Col.of_strings ?nulls (Array.map string_of_int keys)
    | _ -> Col.of_ints ?nulls keys
  in
  let n = if np = 0 then Random.State.int st 2 else Random.State.int st 16 in
  let sel () =
    Array.init n (fun _ ->
        if np = 0 || Random.State.int st 6 = 0 then -1 else Random.State.int st np)
  in
  let ksel = sel () in
  let osel = if Random.State.bool st then ksel else sel () in
  {
    Rel.rcard = n;
    views =
      [|
        { Rel.vname = key; vcol = kcol; vsel = ksel };
        { Rel.vname = other; vcol = Col.of_ints (Array.init np Fun.id); vsel = osel };
      |];
  }

let prop_join_matches_reference =
  QCheck.Test.make ~name:"join = cons-list reference on random relations" ~count:1000
    QCheck.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pool = Array.init (1 + Random.State.int st 6) (fun _ -> random_key st) in
      let left = random_rel st ~key:"pk" ~other:"l" pool in
      let right = random_rel st ~key:"fk" ~other:"r" pool in
      let int_keys (rel : Rel.t) =
        match rel.Rel.views.(0).Rel.vcol with Col.Ints _ -> true | _ -> false
      in
      let typed = int_keys left && int_keys right in
      List.for_all
        (fun jt ->
          match Exec.join ~jt ~pk_col:"pk" ~fk_col:"fk" left right with
          | exception Invalid_argument _ -> not typed
          | rel, stat ->
              typed
              &&
              let rel', stat' =
                Join_reference.join ~jt ~pk_col:"pk" ~fk_col:"fk" left right
              in
              rel.Rel.rcard = rel'.Rel.rcard
              && stat = stat'
              && Array.length rel.Rel.views = Array.length rel'.Rel.views
              && Array.for_all2
                   (fun v v' -> v.Rel.vname = v'.Rel.vname && v.Rel.vsel = v'.Rel.vsel)
                   rel.Rel.views rel'.Rel.views)
        join_types)

(* --- the arithmetic kernel ---------------------------------------------- *)

(* floats that stress IEEE corner cases: signed zeros (zero divisors of
   both signs), infinities (whose difference is NaN), tiny and huge
   magnitudes *)
let random_float st =
  match Random.State.int st 10 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> infinity
  | 3 -> neg_infinity
  | 4 -> 1e300
  | 5 -> Random.State.float st 1e-3
  | _ -> float_of_int (Random.State.int st 9 - 4) /. 2.0

(* one column view: ints or floats with an optional null bitmap, a
   dictionary column, or an all-NULL column; the selection vector repeats
   and reorders rows and pads with -1 (an outer join's NULL rows) *)
let random_view st ~rows name =
  let np = 1 + Random.State.int st 8 in
  let nulls () =
    if Random.State.bool st then None
    else begin
      let b = Col.Bitset.create np in
      for i = 0 to np - 1 do
        if Random.State.int st 4 = 0 then Col.Bitset.set b i
      done;
      Some b
    end
  in
  let vcol =
    match Random.State.int st 6 with
    | 0 | 1 -> Col.of_ints ?nulls:(nulls ()) (Array.init np (fun _ -> Random.State.int st 7 - 3))
    | 2 | 3 -> Col.of_floats ?nulls:(nulls ()) (Array.init np (fun _ -> random_float st))
    | 4 -> Col.of_strings (Array.init np (fun i -> string_of_int i))
    | _ -> Col.const_null np
  in
  let vsel =
    Array.init rows (fun _ ->
        if Random.State.int st 6 = 0 then -1 else Random.State.int st np)
  in
  { Rel.vname = name; vcol; vsel }

let rec random_arith st depth =
  if depth = 0 || Random.State.int st 4 = 0 then
    if Random.State.int st 4 = 0 then Pred.Aconst (random_float st)
    else Pred.Acol (List.nth [ "a"; "b"; "c" ] (Random.State.int st 3))
  else
    let a = random_arith st (depth - 1) and b = random_arith st (depth - 1) in
    match Random.State.int st 4 with
    | 0 -> Pred.Aadd (a, b)
    | 1 -> Pred.Asub (a, b)
    | 2 -> Pred.Amul (a, b)
    | _ -> Pred.Adiv (a, b)

let random_arith_rel st =
  let rows = Random.State.int st 24 in
  let views = Array.map (random_view st ~rows) [| "a"; "b"; "c" |] in
  ({ Rel.rcard = rows; views }, random_arith st 3)

let find_view (rel : Rel.t) c = rel.Rel.views.(Rel.col_index rel c)
let boxed_row rel i c = Rel.get_view (find_view rel c) i

let prop_arith_matches_eval_arith =
  QCheck.Test.make ~name:"kernel = Pred.eval_arith per boxed row, bit for bit"
    ~count:2000 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let rel, e = random_arith_rel st in
      let r =
        Arith.eval ~rows:rel.Rel.rcard
          (fun c ->
            let v = find_view rel c in
            (v.Rel.vcol, Some v.Rel.vsel))
          e
      in
      let ok = ref true in
      for i = 0 to rel.Rel.rcard - 1 do
        match Pred.eval_arith (boxed_row rel i) e with
        | None -> if not (Arith.is_null r i) then ok := false
        | Some x ->
            if
              Arith.is_null r i
              || Int64.bits_of_float (Arith.values r).{i} <> Int64.bits_of_float x
            then ok := false
      done;
      !ok)

let prop_arith_cmp_matches_eval =
  QCheck.Test.make ~name:"Arith_cmp selection = Pred.eval, all comparators"
    ~count:1000 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let rel, e = random_arith_rel st in
      let arg =
        if Random.State.bool st then Value.Float (random_float st)
        else Value.Int (Random.State.int st 5 - 2)
      in
      List.for_all
        (fun cmp ->
          let p = Pred.Lit (Pred.Arith_cmp { expr = e; cmp; arg = Pred.Const arg }) in
          let keep =
            List.filter
              (fun i -> Pred.eval ~env:Pred.Env.empty (boxed_row rel i) p)
              (List.init rel.Rel.rcard Fun.id)
          in
          let got = Exec.filter ~env:Pred.Env.empty p rel in
          got.Rel.rcard = List.length keep
          && Array.for_all2
               (fun (v : Rel.view) (v' : Rel.view) ->
                 v'.Rel.vsel = Array.of_list (List.map (fun i -> v.Rel.vsel.(i)) keep))
               rel.Rel.views got.Rel.views)
        Pred.[ Eq; Neq; Lt; Le; Gt; Ge ])

(* after an in-place change to one row, re-running just that row agrees
   with a fresh evaluation *)
let test_arith_rerun_row () =
  let a = Col.of_ints [| 3; 0; 5; 2 |] and b = Col.of_floats [| 1.5; 2.0; 0.0; -0.0 |] in
  let leaf = function "a" -> (a, None) | _ -> (b, None) in
  let e = Pred.Adiv (Pred.Acol "a", Pred.Asub (Pred.Acol "b", Pred.Aconst 2.0)) in
  let r = Arith.eval ~rows:4 leaf e in
  Alcotest.(check bool) "b = 2 divides by zero" true (Arith.is_null r 1);
  (match (a, b) with
  | Col.Ints { data; _ }, Col.Floats { data = fb; _ } ->
      data.{1} <- 7;
      fb.{1} <- 4.0
  | _ -> assert false);
  Arith.run r ~src:1 ~dst:1 ~len:1;
  let fresh = Arith.eval ~rows:4 leaf e in
  for i = 0 to 3 do
    Alcotest.(check bool) "same null bit" (Arith.is_null fresh i) (Arith.is_null r i);
    if not (Arith.is_null r i) then
      Alcotest.(check (float 0.0)) "same value" (Arith.values fresh).{i} (Arith.values r).{i}
  done

let () =
  Alcotest.run "engine"
    [
      ( "db",
        [
          Alcotest.test_case "counts" `Quick test_db_counts;
          Alcotest.test_case "distinct" `Quick test_db_distinct;
          Alcotest.test_case "put validation" `Quick test_db_put_validation;
          Alcotest.test_case "csv" `Quick test_db_csv;
          Alcotest.test_case "csv round trip" `Quick test_db_csv_roundtrip;
          Alcotest.test_case "csv rejects bad input" `Quick test_db_csv_rejects;
          QCheck_alcotest.to_alcotest prop_distinct_count_matches_hashtbl;
        ] );
      ("rel", [ Alcotest.test_case "distinct" `Quick test_rel_distinct ]);
      ( "exec",
        [
          Alcotest.test_case "selection counts" `Quick test_selection_counts;
          Alcotest.test_case "join stats" `Quick test_join_stats;
          Alcotest.test_case "Table 2 join sizes" `Quick test_join_sizes_table2;
          Alcotest.test_case "projection distinct" `Quick test_projection_distinct;
          Alcotest.test_case "projection over join" `Quick test_projection_over_join;
          Alcotest.test_case "nested cards preorder" `Quick test_nested_join_cards;
          Alcotest.test_case "outer join null padding" `Quick test_outer_join_null_padding;
          Alcotest.test_case "aggregate groups" `Quick test_aggregate_groups;
          Alcotest.test_case "aggregate global" `Quick test_aggregate_global;
          Alcotest.test_case "aggregate over empty" `Quick test_aggregate_over_empty;
          QCheck_alcotest.to_alcotest prop_join_size_equations;
          QCheck_alcotest.to_alcotest prop_join_matches_reference;
          QCheck_alcotest.to_alcotest prop_arith_matches_eval_arith;
          QCheck_alcotest.to_alcotest prop_arith_cmp_matches_eval;
          Alcotest.test_case "re-run of one row" `Quick test_arith_rerun_row;
        ] );
    ]
