(* Crash-safe chunked export: sink unit tests (CRC, manifest, fault
   injection, stale-file hygiene) and end-to-end resume byte-identity on
   generated SSB / TPC-H databases across domain counts. *)

module Sink = Mirage_engine.Sink
module Budget = Mirage_util.Budget
module Driver = Mirage_core.Driver
module Diag = Mirage_core.Diag
module Scale_out = Mirage_core.Scale_out
module Par = Mirage_par.Par
module Schema = Mirage_sql.Schema
module Db = Mirage_engine.Db

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let tmp_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".tmp")

let put_string w s =
  Sink.put w (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* --- unit: crc32 ---------------------------------------------------------- *)

let test_crc32 () =
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int)
    "known answer" 0xCBF43926
    (Sink.crc32 b ~pos:0 ~len:(Bytes.length b));
  (* incremental over a split equals one-shot *)
  let c1 = Sink.crc32 b ~pos:0 ~len:4 in
  let c2 = Sink.crc32 ~crc:c1 b ~pos:4 ~len:5 in
  Alcotest.(check int) "incremental" 0xCBF43926 c2;
  Alcotest.(check int) "empty is zero" 0 (Sink.crc32 b ~pos:0 ~len:0)

(* the byte-at-a-time CRC-32 loop, kept as the oracle for the sliced one *)
let bytewise_crc32 ?(crc = 0) b ~pos ~len =
  let tbl =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := tbl.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* random buffers cut at random offsets into pieces of 0 to 100 bytes, each
   piece extending the previous piece's CRC *)
let prop_crc32_sliced_eq_bytewise =
  QCheck.Test.make ~name:"sliced crc32 = byte-at-a-time loop, chained" ~count:500
    QCheck.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let b = Bytes.init (Random.State.int st 400) (fun _ -> Char.chr (Random.State.int st 256)) in
      let pos = ref (Random.State.int st (Bytes.length b + 1)) in
      let crc = Int64.to_int (Random.State.int64 st 0x1_0000_0000L) in
      let sliced = ref crc and bytewise = ref crc in
      let ok = ref true in
      while !ok && !pos < Bytes.length b do
        let len = min (Random.State.int st 101) (Bytes.length b - !pos) in
        sliced := Sink.crc32 ~crc:!sliced b ~pos:!pos ~len;
        bytewise := bytewise_crc32 ~crc:!bytewise b ~pos:!pos ~len;
        ok := !sliced = !bytewise;
        pos := !pos + len
      done;
      !ok)

(* --- unit: manifest round trip -------------------------------------------- *)

let test_manifest_roundtrip () =
  let dir = Shards.fresh_dir "mirage_sink_rt" in
  let t = Sink.create ~dir ~run_id:"rt-1" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "hello,world\n");
  Sink.write_shard t ~name:"a.csv.1" (fun w -> put_string w "more\n");
  Sink.finish t;
  let t2 = Sink.create ~resume:true ~dir ~run_id:"rt-1" () in
  Alcotest.(check int) "resumed both" 2 (Sink.resumed_shards t2);
  Alcotest.(check bool) "a.csv.0 done" true (Sink.is_done t2 "a.csv.0");
  Alcotest.(check bool) "a.csv.1 done" true (Sink.is_done t2 "a.csv.1");
  Alcotest.(check bool) "unknown not done" false (Sink.is_done t2 "a.csv.2");
  let names = List.map (fun s -> s.Sink.sh_name) (Sink.completed t2) in
  Alcotest.(check (list string)) "commit order" [ "a.csv.0"; "a.csv.1" ] names;
  let sizes = List.map (fun s -> s.Sink.sh_bytes) (Sink.completed t2) in
  Alcotest.(check (list int)) "sizes" [ 12; 5 ] sizes;
  (* a write_shard for a committed name is a no-op *)
  Sink.write_shard t2 ~name:"a.csv.0" (fun _ -> Alcotest.fail "re-rendered");
  Shards.rm_rf dir

let test_run_id_mismatch () =
  let dir = Shards.fresh_dir "mirage_sink_id" in
  let t = Sink.create ~dir ~run_id:"old" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "x\n");
  let t2 = Sink.create ~resume:true ~dir ~run_id:"new" () in
  Alcotest.(check int) "fresh start" 0 (Sink.resumed_shards t2);
  Alcotest.(check bool) "nothing done" false (Sink.is_done t2 "a.csv.0");
  Alcotest.(check bool)
    "stale manifest removed" false
    (Sys.file_exists (Sink.manifest_path ~dir));
  Shards.rm_rf dir

let test_stale_tmp_cleanup () =
  let dir = Shards.fresh_dir "mirage_sink_tmp" in
  write_file (Filename.concat dir "dead.csv.3.tmp") "half a shard";
  write_file (Filename.concat dir "MANIFEST.json.tmp") "half a manifest";
  let _ = Sink.create ~dir ~run_id:"x" () in
  Alcotest.(check (list string)) "tmp files removed" [] (tmp_files dir);
  Shards.rm_rf dir

let test_resume_drops_bad_size () =
  let dir = Shards.fresh_dir "mirage_sink_size" in
  let t = Sink.create ~dir ~run_id:"s" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "0123456789\n");
  (* truncate behind the manifest's back, as a torn disk would *)
  write_file (Filename.concat dir "a.csv.0") "0123";
  let t2 = Sink.create ~resume:true ~dir ~run_id:"s" () in
  Alcotest.(check bool)
    "mismatched shard re-rendered" false
    (Sink.is_done t2 "a.csv.0");
  Shards.rm_rf dir

let replace_once s ~sub ~by =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not found" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_resume_drops_bad_crc () =
  let dir = Shards.fresh_dir "mirage_sink_crc" in
  let crc s = Sink.crc32 (Bytes.of_string s) ~pos:0 ~len:(String.length s) in
  let t = Sink.create ~dir ~run_id:"c" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "first\n");
  Sink.write_shard t ~name:"a.csv.1" (fun w -> put_string w "second\n");
  Sink.finish t;
  (* an unparsable crc32 must not resume as a committed shard with CRC 0 *)
  let mpath = Sink.manifest_path ~dir in
  write_file mpath
    (replace_once (Shards.read_file mpath)
       ~sub:(Printf.sprintf "\"crc32\": \"%08x\"" (crc "second\n"))
       ~by:"\"crc32\": \"0x12zz\"");
  let t2 = Sink.create ~resume:true ~dir ~run_id:"c" () in
  Alcotest.(check int) "only the intact entry resumed" 1 (Sink.resumed_shards t2);
  Alcotest.(check bool)
    "corrupted entry re-rendered" false
    (Sink.is_done t2 "a.csv.1");
  Sink.write_shard t2 ~name:"a.csv.1" (fun w -> put_string w "second\n");
  Sink.finish t2;
  let t3 = Sink.create ~resume:true ~dir ~run_id:"c" () in
  Alcotest.(check (list int))
    "rewritten manifest carries the true CRCs"
    [ crc "first\n"; crc "second\n" ]
    (List.map (fun s -> s.Sink.sh_crc) (Sink.completed t3));
  Shards.rm_rf dir

(* an entry without "seq" and "raw", as manifests had before the sharded
   sink, parses like any other incomplete entry: it is rendered again *)
let test_resume_drops_entry_without_seq_raw () =
  let dir = Shards.fresh_dir "mirage_sink_legacy" in
  let t = Sink.create ~dir ~run_id:"l" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "first\n");
  Sink.write_shard t ~name:"a.csv.1" (fun w -> put_string w "second\n");
  Sink.finish t;
  let mpath = Sink.manifest_path ~dir in
  write_file mpath
    (replace_once (Shards.read_file mpath)
       ~sub:"\"name\": \"a.csv.1\", \"seq\": 1, \"bytes\": 7, \"raw\": 7,"
       ~by:"\"name\": \"a.csv.1\", \"bytes\": 7,");
  let t2 = Sink.create ~resume:true ~dir ~run_id:"l" () in
  Alcotest.(check int) "only the full entry resumed" 1 (Sink.resumed_shards t2);
  Alcotest.(check bool) "entry without seq/raw re-rendered" false
    (Sink.is_done t2 "a.csv.1");
  Shards.rm_rf dir

let test_mkdir_p_concurrent () =
  let base = Shards.fresh_dir "mirage_mkdir" in
  let target = Filename.concat (Filename.concat base "a") "b" in
  (* both domains race the same nested creation; the loser must treat the
     winner's directory as success *)
  Par.with_pool ~domains:2 @@ fun pool ->
  Par.run pool 2 (fun _ -> Sink.mkdir_p target);
  Alcotest.(check bool) "created" true (Sys.is_directory target);
  Sink.mkdir_p target;
  Shards.rm_rf base

(* --- unit: fault injection ------------------------------------------------- *)

let test_enospc_no_orphans () =
  let dir = Shards.fresh_dir "mirage_sink_enospc" in
  let backend =
    Sink.faulty
      { Sink.no_faults with enospc_after_bytes = Some 8 }
      Sink.os_backend
  in
  let t = Sink.create ~backend ~dir ~run_id:"e" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "0123456789\n");
  let failed =
    match
      Sink.write_shard t ~name:"a.csv.1" (fun w ->
          put_string w "this write crosses the injected capacity\n")
    with
    | () -> false
    | exception Sink.Io_failure _ -> true
  in
  Alcotest.(check bool) "Io_failure raised" true failed;
  Alcotest.(check (list string)) "no orphaned temp files" [] (tmp_files dir);
  Alcotest.(check bool)
    "committed shard intact" true
    (Sys.file_exists (Filename.concat dir "a.csv.0"));
  (* the manifest still checkpoints exactly the committed prefix *)
  let t2 = Sink.create ~resume:true ~dir ~run_id:"e" () in
  Alcotest.(check int) "resume sees one shard" 1 (Sink.resumed_shards t2);
  Shards.rm_rf dir

let test_short_writes_byte_exact () =
  let dir = Shards.fresh_dir "mirage_sink_short" in
  let backend = Sink.faulty { Sink.no_faults with short_writes = true } Sink.os_backend in
  let t = Sink.create ~backend ~dir ~run_id:"s" () in
  let payload = String.concat "," (List.init 200 string_of_int) ^ "\n" in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w payload);
  Alcotest.(check string)
    "partial writes drained" payload
    (Shards.read_file (Filename.concat dir "a.csv.0"));
  Shards.rm_rf dir

let test_crash_leaves_tmp_then_resume () =
  let dir = Shards.fresh_dir "mirage_sink_crash" in
  let backend =
    Sink.faulty { Sink.no_faults with crash_after_shards = Some 1 } Sink.os_backend
  in
  let t = Sink.create ~backend ~dir ~run_id:"c" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "first\n");
  let crashed =
    match Sink.write_shard t ~name:"a.csv.1" (fun w -> put_string w "second\n") with
    | () -> false
    | exception Sink.Injected_crash _ -> true
  in
  Alcotest.(check bool) "crash raised" true crashed;
  Alcotest.(check (list string))
    "kill leaves the temp file" [ "a.csv.1.tmp" ] (tmp_files dir);
  (* restart: stale tmp swept, committed prefix resumed, rest re-rendered *)
  let t2 = Sink.create ~resume:true ~dir ~run_id:"c" () in
  Alcotest.(check (list string)) "tmp swept on resume" [] (tmp_files dir);
  Alcotest.(check int) "one shard resumed" 1 (Sink.resumed_shards t2);
  Sink.write_shard t2 ~name:"a.csv.1" (fun w -> put_string w "second\n");
  Alcotest.(check string)
    "identical after resume" "first\nsecond\n"
    (Shards.read_file (Filename.concat dir "a.csv.0")
    ^ Shards.read_file (Filename.concat dir "a.csv.1"));
  Shards.rm_rf dir

(* --- end-to-end: generated workloads -------------------------------------- *)

let generate make ~sf =
  let workload, ref_db, prod_env = make ~sf ~seed:7 in
  let config =
    { Driver.default_config with seed = 42; batch_size = 1_000_000; domains = 1 }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok r -> (workload, r)

(* shard fan-out small enough to be quick, large enough that the fact table
   splits into several shards *)
let chunk_rows_for db =
  let largest =
    List.fold_left (fun m t -> max m (Db.row_count db t)) 1 (Shards.table_names db)
  in
  max 1 (largest / 2)

let check_chunked_identity ~label ~db ~copies ~domains ~chunk_rows =
  let chunk = Shards.fresh_dir "mirage_chunk" in
  Par.with_pool ~domains (fun pool ->
      let rep =
        Shards.export ~pool ~db ~copies ~chunk_rows ~dir:chunk ~run_id:label ()
      in
      Alcotest.(check int) (label ^ ": nothing resumed") 0 rep.Scale_out.cr_resumed);
  List.iter
    (fun t ->
      let m = Reference.csv ~db ~copies t in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s chunked = monolithic" label t)
        true
        (String.equal m (Shards.concat chunk t)))
    (Shards.table_names db);
  Shards.rm_rf chunk

let check_crash_resume ?chunk_rows ~label ~db ~copies ~domains ~crash_after () =
  let chunk = Shards.fresh_dir "mirage_chunk" in
  let chunk_rows = Option.value chunk_rows ~default:(chunk_rows_for db) in
  let run_id = label ^ "-resume" in
  (* run 1: killed after [crash_after] committed shards *)
  let crashed =
    Par.with_pool ~domains (fun pool ->
        let backend =
          Sink.faulty
            { Sink.no_faults with crash_after_shards = Some crash_after }
            Sink.os_backend
        in
        match
          Shards.export ~pool ~backend ~db ~copies ~chunk_rows ~dir:chunk
            ~run_id ()
        with
        | _ -> false
        | exception Sink.Injected_crash _ -> true)
  in
  Alcotest.(check bool) (label ^ ": run 1 crashed") true crashed;
  (* run 2: resume from the manifest, clean backend *)
  Par.with_pool ~domains (fun pool ->
      let rep =
        Shards.export ~pool ~resume:true ~db ~copies ~chunk_rows ~dir:chunk
          ~run_id ()
      in
      Alcotest.(check int)
        (label ^ ": committed prefix resumed")
        crash_after rep.Scale_out.cr_resumed);
  Alcotest.(check (list string)) (label ^ ": no temp files") [] (tmp_files chunk);
  List.iter
    (fun t ->
      let m = Reference.csv ~db ~copies t in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s resumed run byte-identical" label t)
        true
        (String.equal m (Shards.concat chunk t)))
    (Shards.table_names db);
  Shards.rm_rf chunk

let test_workload_chunked name make ~sf () =
  let _, r = generate make ~sf in
  let db = r.Driver.r_db in
  List.iter
    (fun domains ->
      check_chunked_identity
        ~label:(Printf.sprintf "%s domains=%d" name domains)
        ~db ~copies:3 ~domains ~chunk_rows:(chunk_rows_for db))
    [ 1; 2; 4 ]

let test_workload_crash_resume name make ~sf () =
  let _, r = generate make ~sf in
  let db = r.Driver.r_db in
  List.iter
    (fun domains ->
      check_crash_resume
        ~label:(Printf.sprintf "%s domains=%d" name domains)
        ~db ~copies:3 ~domains ~crash_after:2 ())
    [ 1; 2; 4 ]

(* --- shard-parallel writer ------------------------------------------------

   One tile per shard ([chunk_rows] 1), so every table has several shards
   for the domains to write concurrently. *)

let test_workload_sharded name make ~sf () =
  let _, r = generate make ~sf in
  let db = r.Driver.r_db in
  List.iter
    (fun domains ->
      check_chunked_identity
        ~label:(Printf.sprintf "%s sharded domains=%d" name domains)
        ~db ~copies:3 ~domains ~chunk_rows:1)
    [ 1; 2; 4 ]

(* --- live export: open → concurrent export_table → finish ----------------- *)

(* every table exported from its own pool task, as the driver's live export
   does, then the finish pass seals the manifest *)
let live_gz_export ?backend ?(resume = false) ~pool ~db ~dir () =
  let h =
    Scale_out.open_csv_export ~pool ?backend ~resume ~compress:true ~copies:4
      ~chunk_rows:(chunk_rows_for db) ~dir ~run_id:"live-gz" ()
  in
  let tables = Array.of_list (Shards.table_names db) in
  Par.run pool (Array.length tables) (fun i ->
      Scale_out.export_table h ~db tables.(i));
  Scale_out.finish_csv_export h ~db

let test_live_export_gz () =
  let _, r = generate Mirage_workloads.Ssb.make ~sf:0.05 in
  let db = r.Driver.r_db in
  let export domains =
    let dir = Shards.fresh_dir "mirage_live" in
    Par.with_pool ~domains (fun pool -> ignore (live_gz_export ~pool ~db ~dir ()));
    let files = Shards.dir_files dir in
    Shards.rm_rf dir;
    files
  in
  let reference = export 1 in
  List.iter
    (fun domains ->
      let got = export domains in
      Alcotest.(check (list string))
        (Printf.sprintf "domains=%d: same file names" domains)
        (List.map fst reference) (List.map fst got);
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d: shards and MANIFEST.json byte-identical"
           domains)
        true (got = reference))
    [ 2; 4 ];
  (* kill after [crash_after] commits while 2 domains write the fact
     table's shards, then resume *)
  let fact =
    List.fold_left
      (fun best t -> if Db.row_count db t > Db.row_count db best then t else best)
      (List.hd (Shards.table_names db)) (Shards.table_names db)
  in
  let crash_after = 2 in
  let dir = Shards.fresh_dir "mirage_live_kill" in
  Par.with_pool ~domains:2 (fun pool ->
      let backend =
        Sink.faulty
          { Sink.no_faults with crash_after_shards = Some crash_after }
          Sink.os_backend
      in
      let h =
        Scale_out.open_csv_export ~pool ~backend ~compress:true ~copies:4
          ~chunk_rows:(chunk_rows_for db) ~dir ~run_id:"live-gz" ()
      in
      match Scale_out.export_table h ~db fact with
      | () -> Alcotest.fail "expected the injected kill"
      | exception Sink.Injected_crash _ -> ());
  Alcotest.(check bool) "the kill leaves a temp file" true (tmp_files dir <> []);
  let rep =
    Par.with_pool ~domains:2 (fun pool ->
        live_gz_export ~resume:true ~pool ~db ~dir ())
  in
  Alcotest.(check int)
    "every committed shard passed size verification and resumed" crash_after
    rep.Scale_out.cr_resumed;
  Alcotest.(check (list string)) "no temp files after resume" [] (tmp_files dir);
  Alcotest.(check bool)
    "resumed output byte-identical" true
    (Shards.dir_files dir = reference);
  Shards.rm_rf dir

(* --- gzip round trip: the reference decompressor is the oracle ------------- *)

let gunzip_bytes label s =
  let gz = Filename.temp_file "mirage_gz" ".gz" in
  let out = Filename.temp_file "mirage_gz" ".out" in
  write_file gz s;
  let rc =
    Sys.command
      (Printf.sprintf "gzip -dc %s > %s 2>/dev/null" (Filename.quote gz)
         (Filename.quote out))
  in
  let r = if rc = 0 then Some (Shards.read_file out) else None in
  Sys.remove gz;
  Sys.remove out;
  match r with
  | Some s -> s
  | None -> Alcotest.fail (label ^ ": gzip -d rejected the stream")

let check_gzip_roundtrip ?chunk_rows ~label ~db ~copies ~domains () =
  let chunk_rows = Option.value chunk_rows ~default:(chunk_rows_for db) in
  let gzd = Shards.fresh_dir "mirage_gzd" in
  Par.with_pool ~domains (fun pool ->
      ignore
        (Shards.export ~pool ~compress:true ~db ~copies
           ~chunk_rows ~dir:gzd ~run_id:label ()));
  List.iter
    (fun t ->
      let m = Reference.csv ~db ~copies t in
      let cat = Shards.concat ~compress:true gzd t in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s gz shards present" label t)
        true (cat <> "");
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s gunzipped concatenation = monolithic" label t)
        true
        (String.equal m (gunzip_bytes (label ^ "/" ^ t) cat)))
    (Shards.table_names db);
  Shards.rm_rf gzd

let test_workload_gzip name make ~sf () =
  let _, r = generate make ~sf in
  let db = r.Driver.r_db in
  List.iter
    (fun domains ->
      check_gzip_roundtrip
        ~label:(Printf.sprintf "%s gz domains=%d" name domains)
        ~db ~copies:3 ~domains ())
    [ 1; 2; 4 ]

(* --- unbounded chunk: one shard per table --------------------------------

   The CLI's export without --chunk-rows.  Resume and compression work on
   it exactly as on smaller chunks: a kill after two committed tables
   resumes byte-identically, and the gzip members gunzip to the reference
   bytes. *)

let test_unbounded_resume_gzip () =
  let _, r = generate Mirage_workloads.Ssb.make ~sf:0.05 in
  let db = r.Driver.r_db in
  List.iter
    (fun domains ->
      let label = Printf.sprintf "unbounded domains=%d" domains in
      check_crash_resume ~chunk_rows:max_int ~label ~db ~copies:3 ~domains
        ~crash_after:2 ();
      check_gzip_roundtrip ~chunk_rows:max_int ~label:(label ^ " gz") ~db
        ~copies:3 ~domains ())
    [ 1; 2 ]

(* --- gzip bytes pinned by golden digests ----------------------------------

   The round trip above only proves the output decompresses; these digests
   pin the compressed bytes themselves, so a kernel change that alters the
   LZ77 parse (a different match choice, chain cutoff or block split) fails
   here even when [gzip -d] still accepts the stream.  Every slicing of the
   same input must give the same bytes. *)

module Gz = Mirage_engine.Gz

(* incompressible bytes from a fixed xorshift stream, independent of the
   stdlib's Random *)
let pseudo_random n =
  let s = ref 0x2545F491 in
  String.init n (fun _ ->
      let x = !s in
      let x = x lxor ((x lsl 13) land 0xFFFFFFFF) in
      let x = x lxor (x lsr 17) in
      let x = x lxor ((x lsl 5) land 0xFFFFFFFF) in
      s := x;
      Char.unsafe_chr (x land 0xFF))

(* the tile is TPC-H sf 0.05's lineitem.csv, as goldens/tpch pins it *)
let gz_inputs () =
  let _, r = generate Mirage_workloads.Tpch.make ~sf:0.05 in
  let tile = Db.to_csv r.Driver.r_db "lineitem" in
  [
    ("lineitem-tile", tile);
    ("empty", "");
    ("one-byte-200k", String.make 200_000 'x');
    ("pseudo-random-300k", pseudo_random 300_000);
    ("len-65535", String.sub tile 0 65535);
    ("len-65536", String.sub tile 0 65536);
    ("len-65537", String.sub tile 0 65537);
  ]

let gzip_in_slices s ~slice =
  let out = Buffer.create (String.length s / 2) in
  let gz = Gz.create (fun b ~pos ~len -> Buffer.add_subbytes out b pos len) in
  let b = Bytes.unsafe_of_string s in
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let len = min slice (n - !pos) in
    Gz.write gz b ~pos:!pos ~len;
    pos := !pos + len
  done;
  Gz.finish gz;
  Buffer.contents out

(* one "<input> <bytes> <gzip bytes> <gzip md5>" line per input *)
let test_gz_golden_digests () =
  let line (name, input) =
    let gz = gzip_in_slices input ~slice:(1 lsl 20) in
    List.iter
      (fun slice ->
        if not (String.equal gz (gzip_in_slices input ~slice)) then
          Alcotest.failf "%s: %d-byte writes change the gzip bytes" name slice)
      [ 1; 1000; 65536 ];
    Alcotest.(check string)
      (name ^ ": gunzips to the input")
      (Digest.to_hex (Digest.string input))
      (Digest.to_hex (Digest.string (gunzip_bytes name gz)));
    Printf.sprintf "%s %d %d %s\n" name (String.length input) (String.length gz)
      (Digest.to_hex (Digest.string gz))
  in
  Pinned.write "gz/digests.txt" (String.concat "" (List.map line (gz_inputs ())))

(* --- budget breach racing the shard writers --------------------------------- *)

let test_budget_race_sharded () =
  let _, r = generate Mirage_workloads.Ssb.make ~sf:0.05 in
  let db = r.Driver.r_db in
  let copies = 3 in
  let chunk_rows = chunk_rows_for db in
  List.iter
    (fun domains ->
      let label = Printf.sprintf "race domains=%d" domains in
      let dir = Shards.fresh_dir "mirage_race" in
      let run_id = label in
      (* the deadline token is already expired; the countdown delays the
         first check so several writers are mid-shard across domains when
         the breach lands *)
      let token =
        Budget.start { Budget.no_limits with Budget.deadline_s = Some 0.0 }
      in
      let polls = Atomic.make 0 in
      let interrupt () =
        if Atomic.fetch_and_add polls 1 >= 3 * domains then Budget.check token
      in
      let tripped =
        Par.with_pool ~domains (fun pool ->
            match
              Shards.export ~pool ~interrupt ~db ~copies ~chunk_rows ~dir
                ~run_id ()
            with
            | _ -> false
            | exception Budget.Exceeded _ -> true)
      in
      Alcotest.(check bool) (label ^ ": budget tripped") true tripped;
      Alcotest.(check (list string))
        (label ^ ": no orphaned temp files")
        [] (tmp_files dir);
      (* every shard the manifest committed is on disk at its recorded size *)
      let t2 = Sink.create ~resume:true ~dir ~run_id () in
      let committed = Sink.completed t2 in
      List.iter
        (fun (s : Sink.shard) ->
          let p = Filename.concat dir s.Sink.sh_name in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s exists" label s.Sink.sh_name)
            true (Sys.file_exists p);
          Alcotest.(check int)
            (Printf.sprintf "%s: %s size matches manifest" label s.Sink.sh_name)
            s.Sink.sh_bytes
            (let st = Unix.stat p in
             st.Unix.st_size))
        committed;
      (* a clean resume completes the export byte-identically *)
      Par.with_pool ~domains (fun pool ->
          let rep =
            Shards.export ~pool ~resume:true ~db ~copies ~chunk_rows ~dir
              ~run_id ()
          in
          Alcotest.(check int)
            (label ^ ": committed shards resumed")
            (List.length committed) rep.Scale_out.cr_resumed);
      List.iter
        (fun t ->
          let m = Reference.csv ~db ~copies t in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s resumed run byte-identical" label t)
            true
            (String.equal m (Shards.concat dir t)))
        (Shards.table_names db);
      Shards.rm_rf dir)
    [ 1; 2; 4 ]

(* --- file-backed payloads -------------------------------------------------- *)

(* With a spill directory set, every payload of 1 MiB or more is mapped
   from a temp file there, unlinked as soon as it is mapped.  The exported
   bytes must not change, the directory must hold no files afterwards, and
   a directory that does not exist falls back to anonymous memory.  SSB at
   sf 24 is the smallest round scale whose fact table (144k rows) has int
   columns above that floor. *)
let test_spill_dir () =
  let module Col = Mirage_engine.Col in
  let export db =
    let dir = Shards.fresh_dir "mirage_spill_out" in
    ignore (Shards.export ~db ~copies:2 ~dir ~run_id:"spill" ());
    let bytes =
      String.concat "\x00" (List.map (Shards.concat dir) (Shards.table_names db))
    in
    Shards.rm_rf dir;
    bytes
  in
  let spill = Shards.fresh_dir "mirage_spill" in
  let saved = Col.big_dir () in
  Fun.protect
    ~finally:(fun () ->
      Col.set_big_dir saved;
      Shards.rm_rf spill)
    (fun () ->
      Col.set_big_dir None;
      let _, r = generate Mirage_workloads.Ssb.make ~sf:24.0 in
      let anon = export r.Driver.r_db in
      Col.set_big_dir (Some spill);
      let _, r = generate Mirage_workloads.Ssb.make ~sf:24.0 in
      let db = r.Driver.r_db in
      Alcotest.(check bool) "some column reaches the 1 MiB file-backed floor" true
        (List.exists
           (fun t -> 8 * Db.row_count db t >= 1 lsl 20)
           (Shards.table_names db));
      (* where the kernel lists mappings, the live columns show up as
         mappings of deleted files under the spill directory *)
      if Sys.file_exists "/proc/self/maps" then begin
        let contains l sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length l && (String.sub l i n = sub || go (i + 1))
          in
          go 0
        in
        let ic = open_in "/proc/self/maps" in
        let rec mapped () =
          match input_line ic with
          | l -> (contains l spill && contains l "mirage-big-") || mapped ()
          | exception End_of_file -> false
        in
        let found = Fun.protect ~finally:(fun () -> close_in ic) mapped in
        Alcotest.(check bool) "columns are mapped from the spill directory" true
          found
      end;
      Alcotest.(check bool) "file-backed export = anonymous export" true
        (String.equal anon (export db));
      Alcotest.(check (list string)) "spill directory holds no files" []
        (Array.to_list (Sys.readdir spill));
      let missing = Filename.concat spill "missing" in
      Col.set_big_dir (Some missing);
      let n = 1 lsl 18 in
      let v = Col.alloc_int_big n in
      Bigarray.Array1.set v (n - 1) 7;
      Alcotest.(check (pair int int)) "missing directory: zeroed, writable memory"
        (0, 7)
        (Bigarray.Array1.get v 0, Bigarray.Array1.get v (n - 1));
      Alcotest.(check bool) "missing directory is not created" false
        (Sys.file_exists missing))

(* --- budget: typed degradation, not exceptions ----------------------------- *)

let test_deadline_typed_diag () =
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.05 ~seed:7 in
  let config =
    { Driver.default_config with
      seed = 42;
      domains = 1;
      budget = { Budget.no_limits with Budget.deadline_s = Some 0.0 } }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Ok _ -> Alcotest.fail "expected a budget breach"
  | Error d ->
      Alcotest.(check string) "stage" "budget" (Diag.stage_name d.Diag.d_stage);
      Alcotest.(check int) "exit code" 3 (Diag.exit_code d)

let test_export_deadline_no_orphans () =
  let _, r = generate Mirage_workloads.Ssb.make ~sf:0.05 in
  let db = r.Driver.r_db in
  let dir = Shards.fresh_dir "mirage_deadline" in
  let token =
    Budget.start { Budget.no_limits with Budget.deadline_s = Some 0.0 }
  in
  let tripped =
    match
      Shards.export
        ~interrupt:(fun () -> Budget.check token)
        ~db ~copies:2 ~chunk_rows:100 ~dir ~run_id:"dl" ()
    with
    | _ -> false
    | exception Budget.Exceeded (Budget.Deadline _) -> true
  in
  Alcotest.(check bool) "deadline tripped during export" true tripped;
  Alcotest.(check (list string)) "no temp files left" [] (tmp_files dir);
  Shards.rm_rf dir

let () =
  Alcotest.run "sink"
    [
      ( "unit",
        [
          Alcotest.test_case "crc32 known answers" `Quick test_crc32;
          Alcotest.test_case "manifest round trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "run_id mismatch starts fresh" `Quick
            test_run_id_mismatch;
          Alcotest.test_case "stale tmp files swept" `Quick test_stale_tmp_cleanup;
          Alcotest.test_case "size mismatch re-renders" `Quick
            test_resume_drops_bad_size;
          Alcotest.test_case "unparsable manifest CRC re-renders" `Quick
            test_resume_drops_bad_crc;
          Alcotest.test_case "mkdir_p concurrent creation" `Quick
            test_mkdir_p_concurrent;
          QCheck_alcotest.to_alcotest prop_crc32_sliced_eq_bytewise;
          Alcotest.test_case "manifest entry without seq/raw re-renders" `Quick
            test_resume_drops_entry_without_seq_raw;
        ] );
      ( "faults",
        [
          Alcotest.test_case "ENOSPC leaves no orphans" `Quick
            test_enospc_no_orphans;
          Alcotest.test_case "short writes drain byte-exact" `Quick
            test_short_writes_byte_exact;
          Alcotest.test_case "crash leaves tmp; resume sweeps and completes"
            `Quick test_crash_leaves_tmp_then_resume;
        ] );
      ( "gz",
        [
          Alcotest.test_case "gzip bytes match golden digests, any write slicing"
            `Quick test_gz_golden_digests;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "ssb chunked = monolithic, domains 1/2/4" `Slow
            (test_workload_chunked "ssb" Mirage_workloads.Ssb.make ~sf:0.05);
          Alcotest.test_case "tpch chunked = monolithic, domains 1/2/4" `Slow
            (test_workload_chunked "tpch" Mirage_workloads.Tpch.make ~sf:0.05);
          Alcotest.test_case "ssb crash+resume byte-identity, domains 1/2/4"
            `Slow
            (test_workload_crash_resume "ssb" Mirage_workloads.Ssb.make ~sf:0.05);
          Alcotest.test_case "tpch crash+resume byte-identity, domains 1/2/4"
            `Slow
            (test_workload_crash_resume "tpch" Mirage_workloads.Tpch.make
               ~sf:0.05);
          Alcotest.test_case "ssb sharded = monolithic, domains 1/2/4" `Slow
            (test_workload_sharded "ssb" Mirage_workloads.Ssb.make ~sf:0.05);
          Alcotest.test_case "tpch sharded = monolithic, domains 1/2/4" `Slow
            (test_workload_sharded "tpch" Mirage_workloads.Tpch.make ~sf:0.05);
          Alcotest.test_case
            "live gzip export identical at domains 1/2/4, kill and resume"
            `Slow test_live_export_gz;
          Alcotest.test_case
            "ssb gzip shards gunzip to monolithic, domains 1/2/4" `Slow
            (test_workload_gzip "ssb" Mirage_workloads.Ssb.make ~sf:0.05);
          Alcotest.test_case
            "tpch gzip shards gunzip to monolithic, domains 1/2/4" `Slow
            (test_workload_gzip "tpch" Mirage_workloads.Tpch.make ~sf:0.05);
          Alcotest.test_case
            "spill directory: same bytes, no files left, missing dir falls back"
            `Slow test_spill_dir;
          Alcotest.test_case
            "one shard per table: crash+resume and gzip, domains 1/2" `Slow
            test_unbounded_resume_gzip;
        ] );
      ( "budget",
        [
          Alcotest.test_case "deadline yields typed Diag (exit 3)" `Quick
            test_deadline_typed_diag;
          Alcotest.test_case "export deadline leaves no orphans" `Quick
            test_export_deadline_no_orphans;
          Alcotest.test_case
            "budget breach racing sharded writers, domains 1/2/4" `Slow
            test_budget_race_sharded;
        ] );
    ]
