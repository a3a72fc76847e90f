(* End-to-end tests of the built [mirage] binary: the deployment story
   (extract a bundle, generate from it elsewhere) must write the same files
   the direct [generate] run writes, and its output must verify against the
   bundle.  The binary's path is the first command-line argument. *)

let cli = ref ""

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let lines path = String.split_on_char '\n' (read_file path)

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
  (* the first manifest line carries the run id, which names each run's
     own inputs; every shard line must agree *)
  let shard_lines d = List.tl (lines (Filename.concat d "MANIFEST.json")) in
  Alcotest.(check (list string)) "manifest shard lines" (shard_lines d2)
    (shard_lines d1);
  Alcotest.(check string) "parameters.txt"
    (read_file (Filename.concat d2 "parameters.txt"))
    (read_file (Filename.concat d1 "parameters.txt"))

let test_bundle_csvs_verify () =
  with_dir @@ fun dir ->
  let bundle = extract dir in
  let d3 = Filename.concat dir "d3" in
  let log = Filename.concat dir "run.log" in
  expect_ok ~log [ "from-bundle"; bundle; "-o"; d3 ];
  expect_ok ~log
    [ "verify-dir"; bundle; "-d"; d3; "-p"; Filename.concat d3 "parameters.txt" ]

let () =
  cli := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "from-bundle",
        [
          Alcotest.test_case "chunked shards equal generate's" `Quick
            test_bundle_shards_match_generate;
          Alcotest.test_case "CSVs verify against the bundle" `Quick
            test_bundle_csvs_verify;
        ] );
    ]
