(* End-to-end tests of the built [mirage] binary: the deployment story
   (extract a bundle, generate from it elsewhere) must write the same files
   the direct [generate] run writes, and its output must verify against the
   bundle, and a malformed parameter file is refused with its line; the
   default export (no --chunk-rows) is one resumable shard per
   table; the bytes of the benchmark-scale exports and of the extracted
   bundles are written out as md5sum lists, which test/cli/dune diffs
   against the goldens, and those exports verify against their bundles; an
   expired deadline exits 3; --sql with --copies,
   and a surplus shard that cannot be removed, fail with their exit codes,
   and so does an unknown query to explain; each --help lists only its
   command's exit codes.  The first argument is the binary's path; the
   rest go to alcotest. *)

let cli = ref ""

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let lines path = String.split_on_char '\n' (read_file path)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let ssb_tables = [ "ddate"; "customer"; "supplier"; "part"; "lineorder" ]

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* run the CLI with [args], stdout and stderr into [log]; the exit code *)
let mirage ~log args =
  Sys.command (Filename.quote_command !cli args ~stdout:log ~stderr:log)

let expect_ok ~log args =
  let code = mirage ~log args in
  if code <> 0 then
    Alcotest.failf "mirage %s exited %d:\n%s" (String.concat " " args) code
      (read_file log)

let with_dir f =
  let dir = Filename.temp_dir "mirage_cli" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* [from-bundle] draws with the default seed (42) and has no seed flag, so
   the direct run pins the same seed *)
let extract dir =
  let bundle = Filename.concat dir "ssb.bundle" in
  expect_ok ~log:(Filename.concat dir "extract.log")
    [ "extract"; "-w"; "ssb"; "--sf"; "0.05"; "--seed"; "42"; "-o"; bundle ];
  bundle

(* shards hold whole tiles, so four copies at one lineorder tile per shard
   split every table, lineorder included, over four shards *)
let chunk_args = [ "--copies"; "4"; "--chunk-rows"; "300" ]

let test_bundle_shards_match_generate () =
  with_dir @@ fun dir ->
  let bundle = extract dir in
  let d1 = Filename.concat dir "d1" and d2 = Filename.concat dir "d2" in
  let log = Filename.concat dir "run.log" in
  expect_ok ~log ([ "from-bundle"; bundle; "-o"; d1 ] @ chunk_args);
  expect_ok ~log
    ([ "generate"; "-w"; "ssb"; "--sf"; "0.05"; "--seed"; "42"; "-o"; d2 ]
    @ chunk_args);
  let files d = List.sort compare (Array.to_list (Sys.readdir d)) in
  Alcotest.(check (list string)) "same files" (files d2) (files d1);
  let shards =
    List.filter (fun f -> f <> "MANIFEST.json" && f <> "parameters.txt") (files d1)
  in
  Alcotest.(check bool)
    "lineorder spans several shards" true
    (List.length (List.filter (String.starts_with ~prefix:"lineorder.csv.") shards)
    > 1);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f ^ " byte-identical") true
        (read_file (Filename.concat d1 f) = read_file (Filename.concat d2 f)))
    shards;
  Alcotest.(check bool) "from-bundle seals a complete manifest" true
    (contains ~sub:"\"complete\": true" (read_file (Filename.concat d1 "MANIFEST.json")));
  (* the first manifest line carries the run id, which names each run's
     own inputs; every shard line must agree *)
  let shard_lines d = List.tl (lines (Filename.concat d "MANIFEST.json")) in
  Alcotest.(check (list string)) "manifest shard lines" (shard_lines d2)
    (shard_lines d1);
  Alcotest.(check string) "parameters.txt"
    (read_file (Filename.concat d2 "parameters.txt"))
    (read_file (Filename.concat d1 "parameters.txt"))

let verify_dir ~log bundle d =
  mirage ~log
    [ "verify-dir"; bundle; "-d"; d; "-p"; Filename.concat d "parameters.txt" ]

(* without --chunk-rows every table is the single shard <table>.csv.0 *)
let test_bundle_csvs_verify () =
  with_dir @@ fun dir ->
  let bundle = extract dir in
  let d3 = Filename.concat dir "d3" in
  let log = Filename.concat dir "run.log" in
  expect_ok ~log [ "from-bundle"; bundle; "-o"; d3 ];
  Alcotest.(check bool) "lineorder is one shard" true
    (Sys.file_exists (Filename.concat d3 "lineorder.csv.0")
    && not (Sys.file_exists (Filename.concat d3 "lineorder.csv.1")));
  Alcotest.(check int) "verify-dir passes" 0 (verify_dir ~log bundle d3)

(* shards hold whole tiles, so at one copy every table is one shard however
   small --chunk-rows is.  Re-split lineorder into 12 shards cut mid-line:
   only numeric index order (a glob puts .10 before .2) rebuilds its rows *)
let test_multi_shard_verify () =
  with_dir @@ fun dir ->
  let bundle = extract dir in
  let d = Filename.concat dir "d4" in
  let log = Filename.concat dir "run.log" in
  expect_ok ~log
    [ "from-bundle"; bundle; "-o"; d; "--copies"; "1"; "--chunk-rows"; "300" ];
  let shard k = Filename.concat d (Printf.sprintf "lineorder.csv.%d" k) in
  let whole = read_file (shard 0) in
  let n = String.length whole and k = 12 in
  for i = 0 to k - 1 do
    let lo = i * n / k and hi = (i + 1) * n / k in
    write_file (shard i) (String.sub whole lo (hi - lo))
  done;
  Alcotest.(check int) "verify-dir passes on 12 shards" 0
    (verify_dir ~log bundle d)

(* a directory reused from an older export can hold a stale <table>.csv
   next to fresh shards; verify-dir refuses to pick one and names both *)
let test_stale_csv_beside_shards () =
  with_dir @@ fun dir ->
  let bundle = extract dir in
  let d = Filename.concat dir "d7" in
  let log = Filename.concat dir "run.log" in
  expect_ok ~log [ "from-bundle"; bundle; "-o"; d ];
  let stale = Filename.concat d "lineorder.csv" in
  write_file stale (read_file (Filename.concat d "lineorder.csv.0"));
  Alcotest.(check int) "verify-dir exit code" 2 (verify_dir ~log bundle d);
  let out = read_file log in
  Alcotest.(check bool) "names both files" true
    (contains ~sub:stale out && contains ~sub:(stale ^ ".0") out)

(* a malformed parameters.txt exits 2 with a message that names the file,
   the line and the parameter: a bad number, a number with an exponent
   (which parameters.txt never writes), an unterminated string, an unclosed
   list, a list missing its ')', a list where a constraint compares with
   one value, and (with no line to name) a parameter a constraint reads but
   no line binds *)
let test_malformed_parameters () =
  with_dir @@ fun dir ->
  let bundle = extract dir in
  let d = Filename.concat dir "d8" and log = Filename.concat dir "run.log" in
  expect_ok ~log [ "from-bundle"; bundle; "-o"; d ];
  let good = List.filter (( <> ) "") (lines (Filename.concat d "parameters.txt")) in
  let line_of name =
    let rec go i = function
      | [] -> Alcotest.failf "no %s in parameters.txt" name
      | l :: rest -> if String.starts_with ~prefix:(name ^ " = ") l then i else go (i + 1) rest
    in
    go 1 good
  in
  let replace name v =
    List.map (fun l -> if String.starts_with ~prefix:(name ^ " = ") l then name ^ " = " ^ v else l) good
  in
  let params = Filename.concat dir "bad-parameters.txt" in
  let at name lnum = Printf.sprintf "%s:%d: parameter %s:" params lnum name in
  let appended = List.length good + 1 in
  List.iter
    (fun (label, ls, where) ->
      write_file params (String.concat "\n" ls ^ "\n");
      Alcotest.(check int) (label ^ ": exit code") 2
        (mirage ~log [ "verify-dir"; bundle; "-d"; d; "-p"; params ]);
      Alcotest.(check bool) (label ^ ": names " ^ where) true
        (contains ~sub:where (read_file log)))
    [
      ("bad number", good @ [ "x_bad = 12abc" ], at "x_bad" appended);
      ("exponent", good @ [ "x = 1e+18" ], at "x" appended);
      ("unterminated string", good @ [ "x = 'abc" ], at "x" appended);
      ("unclosed list", good @ [ "x = (" ], at "x" appended);
      ( "list without ')'",
        replace "s33_ccity" "('v00000001', 'v00000000'",
        at "s33_ccity" (line_of "s33_ccity") );
      ( "list for a scalar",
        replace "s21_cat" "('v00000001', 'v00000000')",
        at "s21_cat" (line_of "s21_cat") );
      ( "unbound",
        List.filter (fun l -> not (String.starts_with ~prefix:"s21_cat = " l)) good,
        params ^ ": parameter s21_cat, read by" );
    ]

(* a deadline that has already passed stops the run with exit code 3, not
   a crash, for generate and from-bundle alike *)
let test_expired_deadline command =
  with_dir @@ fun dir ->
  let log = Filename.concat dir "run.log" in
  let args =
    match command with
    | `Generate -> [ "generate"; "-w"; "ssb"; "--sf"; "0.05" ]
    | `From_bundle -> [ "from-bundle"; extract dir ]
  in
  Alcotest.(check int) "exit code" 3
    (mirage ~log (args @ [ "--budget-seconds"; "0.0" ]))

let generate_ssb ~log d extra =
  mirage ~log
    ([ "generate"; "-w"; "ssb"; "--sf"; "0.05"; "--seed"; "42"; "-o"; d ]
    @ extra)

(* no --chunk-rows: one shard per table plus the manifest, and --resume
   skips every shard of the finished export *)
let test_default_export_resumes () =
  with_dir @@ fun dir ->
  let d = Filename.concat dir "d5" and log = Filename.concat dir "run.log" in
  Alcotest.(check int) "first run" 0 (generate_ssb ~log d []);
  Alcotest.(check (list string))
    "one shard per table, manifest, parameters"
    (List.sort compare
       ("MANIFEST.json" :: "parameters.txt"
       :: List.map (fun t -> t ^ ".csv.0") ssb_tables))
    (List.sort compare (Array.to_list (Sys.readdir d)));
  let shards () =
    List.map (fun t -> read_file (Filename.concat d (t ^ ".csv.0"))) ssb_tables
  in
  let before = shards () in
  Alcotest.(check int) "resumed run" 0 (generate_ssb ~log d [ "--resume" ]);
  Alcotest.(check bool) "every shard resumed, nothing rewritten" true
    (contains ~sub:"(5 resumed, 0 bytes this run)" (read_file log));
  Alcotest.(check bool) "shards unchanged" true (before = shards ())

(* --sql beside a chunked CSV export: the data.sql shards keep their own
   manifest, so neither export replaces the other's entries and a resumed
   run skips every CSV shard and every data.sql shard *)
let test_sql_chunked_resumes () =
  with_dir @@ fun dir ->
  let d = Filename.concat dir "d8" and log = Filename.concat dir "run.log" in
  let args = [ "--chunk-rows"; "2000"; "--sql" ] in
  Alcotest.(check int) "first run" 0 (generate_ssb ~log d args);
  let first = read_file log in
  Alcotest.(check bool) "first run writes 5 data.sql shards" true
    (contains ~sub:"5 data.sql shards (0 resumed)" first);
  let files () =
    List.filter_map
      (fun f ->
        if f = "MANIFEST.json" || f = "MANIFEST.sql.json"
           || String.starts_with ~prefix:"data.sql." f
           || Filename.check_suffix (Filename.remove_extension f) ".csv"
        then Some (f, read_file (Filename.concat d f))
        else None)
      (List.sort compare (Array.to_list (Sys.readdir d)))
  in
  let before = files () in
  Alcotest.(check bool) "MANIFEST.json lists the CSV shards" true
    (contains ~sub:"lineorder.csv.0" (read_file (Filename.concat d "MANIFEST.json")));
  Alcotest.(check int) "resumed run" 0 (generate_ssb ~log d (args @ [ "--resume" ]));
  let resumed = read_file log in
  Alcotest.(check bool) "every CSV shard resumed, 0 bytes" true
    (contains ~sub:"(5 resumed, 0 bytes this run)" resumed);
  Alcotest.(check bool) "every data.sql shard resumed" true
    (contains ~sub:"5 data.sql shards (5 resumed)" resumed);
  Alcotest.(check bool) "shards and manifests unchanged" true (before = files ())

(* --sql without --chunk-rows: every INSERT lands in the one shard
   data.sql.0, which a resumed run skips *)
let test_sql_default_resumes () =
  with_dir @@ fun dir ->
  let d = Filename.concat dir "d9" and log = Filename.concat dir "run.log" in
  Alcotest.(check int) "first run" 0 (generate_ssb ~log d [ "--sql" ]);
  Alcotest.(check bool) "one data.sql shard" true
    (contains ~sub:"1 data.sql shards (0 resumed)" (read_file log)
    && Sys.file_exists (Filename.concat d "data.sql.0")
    && not (Sys.file_exists (Filename.concat d "data.sql.1")));
  let before = read_file (Filename.concat d "data.sql.0") in
  Alcotest.(check int) "resumed run" 0 (generate_ssb ~log d [ "--sql"; "--resume" ]);
  Alcotest.(check bool) "data.sql.0 resumed" true
    (contains ~sub:"1 data.sql shards (1 resumed)" (read_file log));
  Alcotest.(check bool) "data.sql.0 unchanged" true
    (before = read_file (Filename.concat d "data.sql.0"))

(* --sql writes one copy of the database, so it refuses --copies above 1
   before generating or writing anything *)
let test_sql_rejects_copies () =
  with_dir @@ fun dir ->
  let d = Filename.concat dir "d10" and log = Filename.concat dir "run.log" in
  Alcotest.(check int) "exit code" 2
    (generate_ssb ~log d [ "--copies"; "2"; "--sql" ]);
  Alcotest.(check bool) "message names --sql" true
    (contains ~sub:"--sql" (read_file log));
  Alcotest.(check bool) "no output directory" false (Sys.file_exists d)

(* a directory squatting on a surplus shard name cannot be removed: the
   export fails with exit 4 before its manifest is sealed, for the CSV
   shards and the data.sql shards alike *)
let test_surplus_shard_squatter () =
  with_dir @@ fun dir ->
  let d = Filename.concat dir "d11" and log = Filename.concat dir "run.log" in
  let squat f = Sys.mkdir (Filename.concat d f) 0o755 in
  let manifest f = read_file (Filename.concat d f) in
  Sys.mkdir d 0o755;
  squat "customer.csv.1";
  squat "data.sql.1";
  Alcotest.(check int) "CSV squatter: exit code" 4
    (generate_ssb ~log d [ "--sql" ]);
  Alcotest.(check bool) "CSV squatter: I/O failure named" true
    (contains ~sub:"customer.csv.1" (read_file log));
  Alcotest.(check bool) "CSV squatter: MANIFEST.json not complete" false
    (contains ~sub:"\"complete\": true" (manifest "MANIFEST.json"));
  Sys.rmdir (Filename.concat d "customer.csv.1");
  Alcotest.(check int) "data.sql squatter: exit code" 4
    (generate_ssb ~log d [ "--sql" ]);
  Alcotest.(check bool) "data.sql squatter: I/O failure named" true
    (contains ~sub:"data.sql.1" (read_file log));
  Alcotest.(check bool) "data.sql squatter: MANIFEST.json complete" true
    (contains ~sub:"\"complete\": true" (manifest "MANIFEST.json"));
  Alcotest.(check bool) "data.sql squatter: MANIFEST.sql.json not complete" false
    (contains ~sub:"\"complete\": true" (manifest "MANIFEST.sql.json"))

(* the exit codes a subcommand's --help lists, in order *)
let help_exit_codes command =
  with_dir @@ fun dir ->
  let log = Filename.concat dir "help.log" in
  expect_ok ~log [ command; "--help=plain" ];
  let rec section = function
    | [] -> []
    | l :: rest when String.trim l = "EXIT STATUS" -> codes rest
    | _ :: rest -> section rest
  and codes = function
    | [] -> []
    | l :: _ when l <> "" && l.[0] <> ' ' -> []
    | l :: rest -> (
        match String.split_on_char ' ' (String.trim l) with
        | c :: _ when int_of_string_opt c <> None -> int_of_string c :: codes rest
        | _ -> codes rest)
  in
  (section (lines log), read_file log)

let test_help_exit_codes () =
  let extract, text = help_exit_codes "extract" in
  Alcotest.(check (list int)) "extract" [ 0; 2; 4; 124; 125 ] extract;
  Alcotest.(check bool) "extract does not promise exact queries" false
    (contains ~sub:"every query exact" text);
  let generate, _ = help_exit_codes "generate" in
  Alcotest.(check (list int)) "generate" [ 0; 1; 2; 3; 4; 124; 125 ] generate

(* an unknown query is an input error (exit 2), not an internal one *)
let test_explain_unknown_query () =
  with_dir @@ fun dir ->
  let log = Filename.concat dir "run.log" in
  Alcotest.(check int) "exit code" 2
    (mirage ~log [ "explain"; "-w"; "ssb"; "--sf"; "0.05"; "-q"; "nope" ]);
  Alcotest.(check bool) "message names the query" true
    (contains ~sub:"unknown query nope" (read_file log))

(* --compress needs no --chunk-rows; verify-dir cannot inflate yet and says
   so with exit 2 *)
let test_default_export_gzip () =
  with_dir @@ fun dir ->
  let d = Filename.concat dir "d6" and log = Filename.concat dir "run.log" in
  Alcotest.(check int) "compressed run" 0 (generate_ssb ~log d [ "--compress" ]);
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ ".csv.0.gz written") true
        (Sys.file_exists (Filename.concat d (t ^ ".csv.0.gz"))))
    ssb_tables;
  let bundle = Filename.concat dir "ssb.bundle" in
  expect_ok ~log
    [ "extract"; "-w"; "ssb"; "--sf"; "0.05"; "--seed"; "42"; "-o"; bundle ];
  Alcotest.(check int) "verify-dir exit code" 2 (verify_dir ~log bundle d);
  Alcotest.(check bool) "names the missing inflater" true
    (contains ~sub:"no inflater" (read_file log))

(* md5sum lines ("<md5>  <file>") for [files] of [dir], in that order *)
let md5_lines dir files =
  String.concat ""
    (List.map
       (fun f ->
         Printf.sprintf "%s  %s\n"
           (Digest.to_hex (Digest.file (Filename.concat dir f)))
           f)
       files)

(* [md5_lines] written at [path], a golden's path relative to test/goldens,
   under the working directory *)
let pin path lines =
  let d = Filename.dirname path in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  write_file path lines

(* an export's files in name order, without its MANIFEST.json *)
let exported dir =
  List.filter (( <> ) "MANIFEST.json") (List.sort compare (Array.to_list (Sys.readdir dir)))

(* a seed-7 export of workload [w] at scale [sf] holds every selection
   constraint of the bundle that extract writes for the same run, read
   with the parameter values of its parameters.txt *)
let verify_export ~dir ~w ~sf out =
  let bundle = Filename.concat dir (w ^ ".bundle") in
  let log = Filename.concat dir "verify.log" in
  expect_ok ~log [ "extract"; "-w"; w; "--sf"; sf; "--seed"; "7"; "-o"; bundle ];
  Alcotest.(check int) "verify-dir passes" 0 (verify_dir ~log bundle out)

(* The byte contract at the tpch-nonkey benchmark's scale: the shards and
   parameters.txt of TPC-H sf 4 pin every ACC threshold, every tie-repaired
   lineitem and partsupp row, and the LIKE parameter on orders.o_comment
   with its 6,182 CDF items.  The float thresholds read back exactly, so
   the export verifies. *)
let test_tpch_sf4_digests () =
  with_dir @@ fun dir ->
  let out = Filename.concat dir "out" in
  expect_ok ~log:(Filename.concat dir "run.log")
    [ "generate"; "-w"; "tpch"; "--sf"; "4"; "--seed"; "7"; "-o"; out;
      "--chunk-rows"; "100000" ];
  pin "tpch/cli-sf4-seed7.md5" (md5_lines out (exported out));
  verify_export ~dir ~w:"tpch" ~sf:"4" out

(* The LIKE sentinel, the pattern no rendered value matches, is printable:
   TPC-H sf 4 binds it to tpch_q16's NOT LIKE parameter, and a DBMS that
   forbids NUL in text literals (PostgreSQL) could not load a NUL there. *)
let test_tpch_sf4_no_nul () =
  with_dir @@ fun dir ->
  let out = Filename.concat dir "out" in
  expect_ok ~log:(Filename.concat dir "run.log")
    [ "generate"; "-w"; "tpch"; "--sf"; "4"; "--seed"; "7"; "-o"; out;
      "--chunk-rows"; "100000"; "--sql" ];
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " holds no NUL byte") false
        (String.contains (read_file (Filename.concat out f)) '\000'))
    [ "parameters.txt"; "queries.sql" ]

(* The ssb-keygen benchmark's instance: 384k lineorder rows whose FK
   columns pin the key generator's view membership (the join kernel) and
   its T-partition order.  The export verifies. *)
let test_ssb_sf64_digests () =
  with_dir @@ fun dir ->
  let out = Filename.concat dir "out" in
  expect_ok ~log:(Filename.concat dir "run.log")
    [ "generate"; "-w"; "ssb"; "--sf"; "64"; "--seed"; "7"; "-o"; out;
      "--chunk-rows"; "100000" ];
  pin "ssb/cli-sf64-seed7.md5" (md5_lines out (exported out));
  verify_export ~dir ~w:"ssb" ~sf:"64" out

(* The tpcds-cp benchmark's instance, whose key generator solves the largest
   LP relaxation: its shards and parameters.txt pin the CP layer's bytes,
   both from anonymous memory and with column payloads mapped from files
   under --big-dir, which the run must leave empty.  The export verifies. *)
let test_tpcds_sf2_digests () =
  with_dir @@ fun dir ->
  let run ?(extra = []) name =
    let out = Filename.concat dir name in
    expect_ok ~log:(Filename.concat dir "run.log")
      ([ "generate"; "-w"; "tpcds"; "--sf"; "2"; "--seed"; "7"; "-o"; out;
         "--chunk-rows"; "100000" ] @ extra);
    md5_lines out (exported out)
  in
  let lines = run "out" in
  pin "tpcds/cli-sf2-seed7.md5" lines;
  verify_export ~dir ~w:"tpcds" ~sf:"2" (Filename.concat dir "out");
  let spill = Filename.concat dir "spill" in
  Alcotest.(check string) "--big-dir: same bytes" lines
    (run ~extra:[ "--big-dir"; spill ] "spilled");
  Alcotest.(check (array string)) "spill dir left empty" [||]
    (Sys.readdir spill)

(* The tiled export path at benchmark scale: two copies cut into 30,000-row
   shards, so each of the largest tables spans two shards, once through
   gzip (TPC-H sf 4) and once plain (TPC-DS sf 2). *)
let test_tiled_digests ~w ~sf ~extra ~golden () =
  with_dir @@ fun dir ->
  let out = Filename.concat dir "out" in
  expect_ok ~log:(Filename.concat dir "run.log")
    ([ "generate"; "-w"; w; "--sf"; sf; "--seed"; "7"; "-o"; out;
       "--copies"; "2"; "--chunk-rows"; "30000" ] @ extra);
  pin golden (md5_lines out (exported out))

(* The production side's bytes: every jcc/jdc the join kernel computes, every
   AQT label and every IN/LIKE parameter's element counts land in the
   bundles of the three workloads. *)
let test_bundle_sf2_digests () =
  with_dir @@ fun dir ->
  let bundles = [ "ssb.bundle"; "tpch.bundle"; "tpcds.bundle" ] in
  List.iter
    (fun b ->
      expect_ok ~log:(Filename.concat dir "extract.log")
        [ "extract"; "-w"; Filename.remove_extension b; "--sf"; "2"; "--seed";
          "7"; "-o"; Filename.concat dir b ])
    bundles;
  pin "bundle/sf2-seed7.md5" (md5_lines dir bundles)

(* a batch, chunk or copy count below 1 is a command-line error (124),
   refused before anything is generated or written *)
let test_nonpositive_sizes command =
  with_dir @@ fun dir ->
  let d = Filename.concat dir "out" and log = Filename.concat dir "run.log" in
  let args =
    match command with
    | `Generate -> [ "generate"; "-w"; "ssb"; "--sf"; "0.05" ]
    | `From_bundle -> [ "from-bundle"; extract dir ]
  in
  List.iter
    (fun flag ->
      Alcotest.(check int) (String.concat " " flag ^ ": exit code") 124
        (mirage ~log (args @ [ "-o"; d ] @ flag));
      Alcotest.(check bool) (String.concat " " flag ^ ": no output") false
        (Sys.file_exists d))
    [ [ "--batch"; "0" ]; [ "--batch=-5" ]; [ "--chunk-rows"; "0" ];
      [ "--copies"; "0" ] ]

(* without -o, generate exports nothing and prints the per-query error
   table *)
let test_generate_without_out () =
  with_dir @@ fun dir ->
  let log = Filename.concat dir "run.log" in
  Alcotest.(check int) "exit code" 0
    (mirage ~log [ "generate"; "-w"; "ssb"; "--sf"; "0.05" ]);
  let out = read_file log in
  Alcotest.(check bool) "error table header" true
    (contains ~sub:"relative error" out);
  Alcotest.(check bool) "every query exact" true (contains ~sub:"13/13 exact" out);
  Alcotest.(check bool) "nothing written" false (contains ~sub:"wrote" out);
  Alcotest.(check (array string)) "no files" [| "run.log" |] (Sys.readdir dir)

(* verify was generate without -o; it is gone *)
let test_verify_unknown () =
  with_dir @@ fun dir ->
  Alcotest.(check int) "exit code" 124
    (mirage ~log:(Filename.concat dir "run.log") [ "verify"; "-w"; "ssb" ])

let () =
  cli := Sys.argv.(1);
  Alcotest.run
    ~argv:(Array.append [| Sys.argv.(0) |] (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)))
    "cli"
    [
      ( "from-bundle",
        [
          Alcotest.test_case "chunked shards equal generate's" `Quick
            test_bundle_shards_match_generate;
          Alcotest.test_case "CSVs verify against the bundle" `Quick
            test_bundle_csvs_verify;
          Alcotest.test_case "re-split shards verify in index order" `Quick
            test_multi_shard_verify;
          Alcotest.test_case "stale <table>.csv beside shards exits 2" `Quick
            test_stale_csv_beside_shards;
          Alcotest.test_case "malformed parameters.txt exits 2" `Quick
            test_malformed_parameters;
          Alcotest.test_case "expired deadline exits 3" `Quick (fun () ->
              test_expired_deadline `From_bundle);
          Alcotest.test_case "non-positive --batch/--chunk-rows/--copies exit 124"
            `Quick (fun () -> test_nonpositive_sizes `From_bundle);
        ] );
      ( "generate",
        [
          Alcotest.test_case "default export: one shard per table, resumable"
            `Quick test_default_export_resumes;
          Alcotest.test_case "gzip without --chunk-rows; verify-dir exits 2"
            `Quick test_default_export_gzip;
          Alcotest.test_case "--sql --chunk-rows: resume skips both exports"
            `Quick test_sql_chunked_resumes;
          Alcotest.test_case "TPC-H sf 4 shards match the pinned digests"
            `Quick test_tpch_sf4_digests;
          Alcotest.test_case "SSB sf 64 shards match the pinned digests"
            `Quick test_ssb_sf64_digests;
          Alcotest.test_case "TPC-DS sf 2 shards match the pinned digests"
            `Quick test_tpcds_sf2_digests;
          Alcotest.test_case "TPC-H sf 4 x2 gzip shards match the pinned digests"
            `Quick
            (test_tiled_digests ~w:"tpch" ~sf:"4" ~extra:[ "--compress" ]
               ~golden:"tpch/cli-sf4-copies2-gz-seed7.md5");
          Alcotest.test_case "TPC-DS sf 2 x2 shards match the pinned digests"
            `Quick
            (test_tiled_digests ~w:"tpcds" ~sf:"2" ~extra:[]
               ~golden:"tpcds/cli-sf2-copies2-seed7.md5");
          Alcotest.test_case "expired deadline exits 3" `Quick (fun () ->
              test_expired_deadline `Generate);
          Alcotest.test_case "--sql alone: one data.sql.0 shard, resumable"
            `Quick test_sql_default_resumes;
          Alcotest.test_case "--sql --copies 2 exits 2, writes nothing" `Quick
            test_sql_rejects_copies;
          Alcotest.test_case "unremovable surplus shard exits 4, manifest open"
            `Quick test_surplus_shard_squatter;
          Alcotest.test_case "TPC-H sf 4 parameters and queries hold no NUL"
            `Quick test_tpch_sf4_no_nul;
          Alcotest.test_case "non-positive --batch/--chunk-rows/--copies exit 124"
            `Quick (fun () -> test_nonpositive_sizes `Generate);
          Alcotest.test_case "no -o: per-query errors, exit 0" `Quick
            test_generate_without_out;
        ] );
      ( "extract",
        [
          Alcotest.test_case "sf 2 bundles match the pinned digests" `Quick
            test_bundle_sf2_digests;
        ] );
      ( "exit codes",
        [
          Alcotest.test_case "--help lists only the command's exit codes" `Quick
            test_help_exit_codes;
          Alcotest.test_case "explain: unknown query exits 2" `Quick
            test_explain_unknown_query;
          Alcotest.test_case "verify is an unknown command (124)" `Quick
            test_verify_unknown;
        ] );
    ]
