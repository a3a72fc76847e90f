(* Output-engine suite: the render kernel's digit writers and escaping, and
   the templated shard export against the per-cell reference renderer it
   replaced (test/reference.ml).  The QCheck properties pin itoa/ftoa to
   string_of_int / round-trip float parsing; the differential cases prove
   the export's concatenated shards are byte-identical to the naive
   renderer for every domain count, copy count and chunk size, on generated
   workloads and on a hand-built database full of quote-needing strings; a
   committed golden pins the RFC-4180 escaping bytes themselves. *)

module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Render = Mirage_engine.Render
module Scale_out = Mirage_core.Scale_out
module Driver = Mirage_core.Driver
module Par = Mirage_par.Par

let buf_str f =
  let b = Render.Buf.create 8 in
  f b;
  Bytes.sub_string (Render.Buf.unsafe_bytes b) 0 (Render.Buf.length b)

(* --- itoa ------------------------------------------------------------------ *)

let test_itoa_cases () =
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "itoa %d" n)
        (string_of_int n)
        (buf_str (fun b -> Render.Buf.itoa b n)))
    [
      0; 1; -1; 9; 10; 11; 99; 100; 101; -9; -10; -99; -100; 4096;
      999_999_999; 1_000_000_000; max_int; min_int; max_int - 1; min_int + 1;
    ]

let prop_itoa =
  QCheck.Test.make ~name:"itoa = string_of_int" ~count:2000
    QCheck.(int)
    (fun n -> buf_str (fun b -> Render.Buf.itoa b n) = string_of_int n)

(* --- ftoa ------------------------------------------------------------------ *)

(* the unified float format, pinned byte-for-byte: shortest round-trip
   decimal, integral values as bare digits (the committed goldens' %.17g
   images), specials as nan/inf *)
let test_ftoa_pinned () =
  List.iter
    (fun (f, want) ->
      Alcotest.(check string)
        (Printf.sprintf "float_repr %h" f)
        want (Render.float_repr f);
      Alcotest.(check string)
        (Printf.sprintf "ftoa %h" f)
        want
        (buf_str (fun b -> Render.Buf.ftoa b f)))
    [
      (0.0, "0");
      (-0.0, "-0");
      (1.0, "1");
      (-1.0, "-1");
      (0.5, "0.5");
      (-2.25, "-2.25");
      (0.1, "0.1");
      (1.0 /. 3.0, "0.3333333333333333");
      (1234.5, "1234.5");
      (43250.0, "43250");
      (1e22, "1e+22");
      (5e-324, "5e-324");
      (nan, "nan");
      (infinity, "inf");
      (neg_infinity, "-inf");
    ]

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> float_of_int i /. 64.0) (int_range (-1_000_000) 1_000_000));
        (2, map float_of_int (int_range (-1_000_000_000) 1_000_000_000));
        (2, float);
        (1, oneofl [ 0.0; -0.0; 1e308; -1e308; 5e-324; 4.2e18; 1.5e16 ]);
      ])

let prop_ftoa_roundtrip =
  QCheck.Test.make ~name:"float_of_string (float_repr f) = f" ~count:2000
    (QCheck.make float_gen) (fun f ->
      let s = Render.float_repr f in
      let f' = float_of_string s in
      if Float.is_nan f then Float.is_nan f'
      else f' = f && 1.0 /. f' = 1.0 /. f (* sign of zero survives *))

let prop_ftoa_buf_agrees =
  QCheck.Test.make ~name:"Buf.ftoa = float_repr" ~count:2000
    (QCheck.make float_gen) (fun f ->
      buf_str (fun b -> Render.Buf.ftoa b f) = Render.float_repr f)

(* --- CSV escaping ---------------------------------------------------------- *)

let test_csv_escape_cases () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check string) (Printf.sprintf "csv_escape %S" s) want
        (Render.csv_escape s))
    [
      ("", "");
      ("plain", "plain");
      ("with space", "with space");
      ("a,b", "\"a,b\"");
      ("say \"hi\"", "\"say \"\"hi\"\"\"");
      ("line\nbreak", "\"line\nbreak\"");
      ("cr\rhere", "\"cr\rhere\"");
      (",", "\",\"");
      ("\"", "\"\"\"\"");
    ];
  (* unquoted entries are returned physically — pool escaping never copies
     the common case *)
  let s = "no-quoting-needed" in
  Alcotest.(check bool) "physical reuse" true (Render.csv_escape s == s)

(* RFC-4180 unquote as an independent model: escape must invert *)
let csv_unescape s =
  let n = String.length s in
  if n = 0 || s.[0] <> '"' then s
  else begin
    let b = Buffer.create n in
    let i = ref 1 in
    while !i < n - 1 do
      if s.[!i] = '"' && !i + 1 < n - 1 && s.[!i + 1] = '"' then begin
        Buffer.add_char b '"';
        i := !i + 2
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

let prop_csv_escape_roundtrip =
  QCheck.Test.make ~name:"csv_escape round-trips through RFC-4180 unquote"
    ~count:2000
    (QCheck.make
       QCheck.Gen.(
         string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; 'z' ]) (0 -- 12)))
    (fun s -> csv_unescape (Render.csv_escape s) = s)

(* --- templated splicer vs reference renderer ------------------------------- *)

(* the export's files and each table's concatenated shards *)
let export_tables ~db ~copies ~domains ~chunk_rows =
  let dir = Shards.fresh_dir "mirage_tpl" in
  Par.with_pool ~domains (fun pool ->
      ignore (Shards.export ~pool ~db ~copies ~chunk_rows ~dir ~run_id:"tpl" ()));
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let tables = List.map (fun t -> (t, Shards.concat dir t)) (Shards.table_names db) in
  Shards.rm_rf dir;
  (files, tables)

let reference_tables ~db ~copies =
  List.map (fun t -> (t, Reference.csv ~db ~copies t)) (Shards.table_names db)

(* the export equals [reference] (from [reference_tables] at the same
   [copies]) as one shard per table and as one tile per shard *)
let check_identical ?reference ~label ~db ~copies ~domains () =
  let reference =
    match reference with Some r -> r | None -> reference_tables ~db ~copies
  in
  List.iter
    (fun chunk_rows ->
      let files, got = export_tables ~db ~copies ~domains ~chunk_rows in
      if chunk_rows = max_int then
        Alcotest.(check (list string))
          (label ^ ": one shard per table, plus the manifest")
          (List.sort compare
             ("MANIFEST.json"
             :: List.map (fun t -> t ^ ".csv.0") (Shards.table_names db)))
          files;
      List.iter2
        (fun (t, want) (_, got) ->
          if not (String.equal want got) then
            Alcotest.failf
              "%s chunk=%d: %s differs (%d bytes vs %d reference bytes)" label
              chunk_rows t (String.length got) (String.length want))
        reference got)
    [ max_int; 1 ]

(* a schema exercising every splice shape: keys (pk + fk, one nullable),
   dictionary strings that need quoting, floats, NULLs and a wide fixed
   tail around interleaved key columns *)
let special_db () =
  let dim =
    {
      Schema.tname = "dim";
      pk = "d_key";
      nonkeys =
        [ { Schema.cname = "d_label"; domain_size = 4; kind = Schema.Kstring } ];
      fks = [];
      row_count = 4;
    }
  in
  let fact =
    {
      Schema.tname = "fact";
      pk = "f_key";
      nonkeys =
        [
          { Schema.cname = "f_note"; domain_size = 5; kind = Schema.Kstring };
          { Schema.cname = "f_ratio"; domain_size = 8; kind = Schema.Kfloat };
          { Schema.cname = "f_count"; domain_size = 8; kind = Schema.Kint };
        ];
      fks = [ { Schema.fk_col = "f_dim"; references = "dim" } ];
      row_count = 8;
    }
  in
  let schema = Schema.make [ dim; fact ] in
  let db = Db.create schema in
  Db.put_cols db "dim"
    [
      ("d_key", Col.of_ints [| 1; 2; 3; 4 |]);
      ( "d_label",
        Col.of_strings
          [| "plain"; "comma, inside"; "quote \"q\" here"; "multi\nline" |] );
    ];
  let nulls_at n rows =
    let b = Col.Bitset.create n in
    List.iter (Col.Bitset.set b) rows;
    b
  in
  let null3 n = nulls_at n [ 3 ] in
  Db.put_cols db "fact"
    [
      ("f_key", Col.of_ints [| 1; 2; 3; 4; 5; 6; 7; 8 |]);
      ( "f_note",
        Col.of_strings ~nulls:(null3 8)
          [| "a"; "b,c"; "d\r\n"; ""; "\""; "x"; "y,"; ",z" |] );
      ( "f_ratio",
        Col.of_floats ~nulls:(null3 8)
          [| 0.5; -2.25; 1.0 /. 3.0; 0.0; 1e22; -0.0; 42.0; 0.1 |] );
      (* numbers and quote-needing text as one dictionary column, NULL at
         rows 1 and 6 *)
      ( "f_count",
        Col.of_strings ~nulls:(nulls_at 8 [ 1; 6 ])
          [| "7"; ""; "n,a"; "2.5"; "-3"; "plain"; ""; "0" |] );
      ("f_dim", Col.of_ints ~nulls:(null3 8) [| 1; 2; 3; 0; 4; 1; 2; 3 |]);
    ];
  db

let test_special_identity () =
  let db = special_db () in
  List.iter
    (fun (copies, domains) ->
      check_identical
        ~label:(Printf.sprintf "special copies=%d domains=%d" copies domains)
        ~db ~copies ~domains ())
    [ (1, 1); (3, 1); (3, 2); (16, 2) ]

(* the templated writer, Db.to_csv and tile_db must agree on the same bytes
   even with quote-needing cells in play *)
let test_special_matches_tile_db () =
  let db = special_db () in
  let copies = 3 in
  let tiled = Scale_out.tile_db ~db ~copies in
  let _, got = export_tables ~db ~copies ~domains:1 ~chunk_rows:max_int in
  List.iter
    (fun (tname, got) ->
      Alcotest.(check bool)
        (tname ^ " shard matches Db.to_csv of tile_db")
        true
        (String.equal got (Db.to_csv tiled tname)))
    got

(* quote-needing strings: goldens/quote/<table>.csv pins the escaping bytes *)
let test_quote_golden () =
  let db = special_db () in
  let _, tables = export_tables ~db ~copies:2 ~domains:1 ~chunk_rows:max_int in
  List.iter
    (fun t -> Pinned.write ("quote/" ^ t ^ ".csv") (List.assoc t tables))
    [ "dim"; "fact" ]

let test_nested_dir () =
  let base = Filename.temp_file "mirage_nested" "" in
  Sys.remove base;
  let dir = Filename.concat (Filename.concat base "deep") "er" in
  let db = special_db () in
  ignore (Shards.export ~db ~copies:1 ~dir ~run_id:"nested" ());
  Alcotest.(check bool) "nested dir created" true (Sys.is_directory dir);
  Shards.rm_rf base

(* a one-row table and an empty table referencing it: with an unbounded
   chunk, a tile-per-shard count of max_int / max 1 rows must not wrap the
   shard count *)
let test_tiny_tables_unbounded () =
  let one =
    {
      Schema.tname = "one";
      pk = "o_key";
      nonkeys =
        [ { Schema.cname = "o_label"; domain_size = 1; kind = Schema.Kstring } ];
      fks = [];
      row_count = 1;
    }
  in
  let none =
    {
      Schema.tname = "none";
      pk = "n_key";
      nonkeys = [];
      fks = [ { Schema.fk_col = "n_one"; references = "one" } ];
      row_count = 1;
    }
  in
  let db = Db.create (Schema.make [ one; none ]) in
  Db.put_cols db "one"
    [ ("o_key", Col.of_ints [| 1 |]); ("o_label", Col.of_strings [| "a,b" |]) ];
  (* the schema's declared count must be positive; the stored table is
     what the export sees *)
  Db.put_cols db "none"
    [ ("n_key", Col.of_ints [||]); ("n_one", Col.of_ints [||]) ];
  List.iter
    (fun domains ->
      check_identical
        ~label:(Printf.sprintf "tiny tables domains=%d" domains)
        ~db ~copies:3 ~domains ())
    [ 1; 2 ]

(* --- generated workloads: SSB + TPC-H, domains × copies ------------------- *)

let generate make ~sf =
  let workload, ref_db, prod_env = make ~sf ~seed:7 in
  let config =
    { Driver.default_config with seed = 42; batch_size = 1_000_000; domains = 1 }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok r -> r.Driver.r_db

let test_workload_identity name make ~sf () =
  let db = generate make ~sf in
  List.iter
    (fun copies ->
      let reference = reference_tables ~db ~copies in
      List.iter
        (fun domains ->
          check_identical ~reference
            ~label:(Printf.sprintf "%s domains=%d copies=%d" name domains copies)
            ~db ~copies ~domains ())
        [ 1; 2; 4 ])
    [ 1; 3; 16 ]

let () =
  Alcotest.run "render"
    [
      ( "kernel",
        [
          Alcotest.test_case "itoa boundary cases" `Quick test_itoa_cases;
          QCheck_alcotest.to_alcotest prop_itoa;
          Alcotest.test_case "ftoa pinned format" `Quick test_ftoa_pinned;
          QCheck_alcotest.to_alcotest prop_ftoa_roundtrip;
          QCheck_alcotest.to_alcotest prop_ftoa_buf_agrees;
          Alcotest.test_case "csv_escape cases" `Quick test_csv_escape_cases;
          QCheck_alcotest.to_alcotest prop_csv_escape_roundtrip;
        ] );
      ( "template",
        [
          Alcotest.test_case "special chars: templated = reference" `Quick
            test_special_identity;
          Alcotest.test_case "special chars: matches tile_db render" `Quick
            test_special_matches_tile_db;
          Alcotest.test_case "quote-needing golden bytes" `Quick
            test_quote_golden;
          Alcotest.test_case "nested output directories" `Quick test_nested_dir;
          Alcotest.test_case "0- and 1-row tables, copies 3, unbounded chunk"
            `Quick test_tiny_tables_unbounded;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "ssb domains 1/2/4 x copies 1/3/16" `Slow
            (test_workload_identity "ssb" Mirage_workloads.Ssb.make ~sf:0.1);
          Alcotest.test_case "tpch domains 1/2/4 x copies 1/3/16" `Slow
            (test_workload_identity "tpch" Mirage_workloads.Tpch.make ~sf:0.05);
        ] );
    ]
