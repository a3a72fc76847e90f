(* Determinism of the domain-parallel pipeline: the generated database and
   its measured errors must be bit-identical for every domain count, and the
   Par primitives must match their sequential counterparts exactly. *)

module Rng = Mirage_util.Rng
module Par = Mirage_par.Par
module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema
module Db = Mirage_engine.Db
module Driver = Mirage_core.Driver
module Error = Mirage_core.Error
module Scale_out = Mirage_core.Scale_out

(* --- Rng.split ~stream --------------------------------------------------- *)

let seq rng n = List.init n (fun _ -> Rng.int rng 1_000_000)

let test_split_pure () =
  (* deriving streams must not advance the parent *)
  let a = Rng.create 42 and b = Rng.create 42 in
  ignore (Rng.split ~stream:0 a);
  ignore (Rng.split ~stream:17 a);
  Alcotest.(check (list int))
    "parent unchanged by ~stream splits" (seq b 32) (seq a 32)

let test_split_stable () =
  (* same parent state + same stream index = same generator *)
  let a = Rng.create 7 and b = Rng.create 7 in
  let sa = Rng.split ~stream:3 a and sb = Rng.split ~stream:3 b in
  Alcotest.(check (list int)) "stream 3 reproducible" (seq sa 32) (seq sb 32);
  (* and independent of how many other streams were derived first *)
  let c = Rng.create 7 in
  List.iter (fun i -> ignore (Rng.split ~stream:i c)) [ 0; 1; 2; 9; 100 ];
  let sc = Rng.split ~stream:3 c in
  let d = Rng.create 7 in
  Alcotest.(check (list int))
    "stream 3 independent of sibling count"
    (seq (Rng.split ~stream:3 d) 32)
    (seq sc 32)

let test_split_distinct () =
  let rng = Rng.create 99 in
  let streams = List.init 16 (fun i -> seq (Rng.split ~stream:i rng) 16) in
  let distinct = List.sort_uniq compare streams in
  Alcotest.(check int)
    "16 streams pairwise distinct" 16 (List.length distinct)

(* --- Par primitives ------------------------------------------------------ *)

let with_pools f =
  List.iter (fun d -> Par.with_pool ~domains:d f) [ 1; 2; 4 ]

let test_run () =
  with_pools (fun pool ->
      let n = 1000 in
      let hits = Array.make n 0 in
      Par.run pool n (fun i -> hits.(i) <- hits.(i) + (i + 1));
      Alcotest.(check (array int))
        "run touches every index exactly once"
        (Array.init n (fun i -> i + 1))
        hits)

let test_init () =
  with_pools (fun pool ->
      let n = 1237 in
      Alcotest.(check (array int))
        "init matches Array.init"
        (Array.init n (fun i -> (i * i) mod 7919))
        (Par.init pool n (fun i -> (i * i) mod 7919)))

let test_iter_chunks () =
  with_pools (fun pool ->
      List.iter
        (fun n ->
          let hits = Array.make (max n 1) 0 in
          Par.iter_chunks pool n (fun lo hi ->
              for i = lo to hi do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check (array int))
            (Printf.sprintf "chunks cover [0,%d) exactly once" n)
            (Array.init (max n 1) (fun i -> if i < n then 1 else 0))
            hits)
        [ 0; 1; 2; 63; 64; 1000 ])

let test_map_chunks_list () =
  with_pools (fun pool ->
      let xs = Array.init 513 (fun i -> i) in
      Alcotest.(check (array int))
        "map_chunks matches Array.map"
        (Array.map (fun x -> (3 * x) + 1) xs)
        (Par.map_chunks pool (fun x -> (3 * x) + 1) xs);
      let l = List.init 47 (fun i -> i) in
      Alcotest.(check (list int))
        "map_list preserves order"
        (List.map (fun x -> x * x) l)
        (Par.map_list pool (fun x -> x * x) l))

exception Boom

let test_exception () =
  with_pools (fun pool ->
      let raised =
        try
          Par.run pool 64 (fun i -> if i = 13 then raise Boom);
          false
        with Boom -> true
      in
      Alcotest.(check bool) "task exception re-raised in caller" true raised)

(* --- persistent resident pool (Par.get) ---------------------------------- *)

let test_get_identity () =
  let p2 = Par.get ~domains:2 () in
  Alcotest.(check bool)
    "same width returns the same resident pool" true
    (p2 == Par.get ~domains:2 ());
  Alcotest.(check int) "resident pool width" 2 (Par.size p2);
  let p1 = Par.get ~domains:1 () in
  Alcotest.(check int) "width 1 is sequential" 1 (Par.size p1);
  Alcotest.(check bool)
    "width 1 is shared too" true
    (p1 == Par.get ~domains:1 ())

let test_get_survives_failure () =
  let pool = Par.get ~domains:3 () in
  (try Par.run pool 64 (fun i -> if i = 7 then raise Boom) with Boom -> ());
  let n = 257 in
  Alcotest.(check (array int))
    "resident pool usable after a failed region"
    (Array.init n (fun i -> i * 2))
    (Par.init pool n (fun i -> i * 2))

(* --- end-to-end determinism across domain counts ------------------------- *)

let generate_with ~domains workload ref_db prod_env =
  let config = { Driver.default_config with Driver.domains; seed = 5 } in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Ok r -> r
  | Error d ->
      Alcotest.failf "generation failed: %s" (Mirage_core.Diag.to_string d)

let check_same_db label (a : Db.t) (b : Db.t) =
  let schema = Db.schema a in
  List.iter
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      Alcotest.(check int)
        (Printf.sprintf "%s: %s row count" label tname)
        (Db.row_count a tname) (Db.row_count b tname);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s.%s identical" label tname c)
            true
            (Db.column a tname c = Db.column b tname c))
        (Schema.column_names tbl))
    (Schema.tables schema)

let check_workload ?(widths = [ 2; 4 ]) name (workload, ref_db, prod_env) =
  let r1 = generate_with ~domains:1 workload ref_db prod_env in
  let errs1 = Driver.measure_errors r1 in
  List.iter
    (fun domains ->
      let r = generate_with ~domains workload ref_db prod_env in
      Alcotest.(check int)
        (Printf.sprintf "%s: pool width used" name)
        domains r.Driver.r_timings.Driver.domains_used;
      check_same_db
        (Printf.sprintf "%s domains=%d vs 1" name domains)
        r1.Driver.r_db r.Driver.r_db;
      let errs = Driver.measure_errors r in
      List.iter2
        (fun (e1 : Error.query_error) (e : Error.query_error) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: query name" name)
            e1.Error.qe_name e.Error.qe_name;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: %s error identical" name e.Error.qe_name)
            e1.Error.qe_relative e.Error.qe_relative)
        errs1 errs)
    widths

let test_driver_shared_pool () =
  (* consecutive runs on the resident pool ([Par.get]) share its worker
     domains; the second run must yield the same database as the first and
     as fresh serial generation *)
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.1 ~seed:7 in
  let base = generate_with ~domains:1 workload ref_db prod_env in
  List.iter
    (fun domains ->
      let run () = generate_with ~domains workload ref_db prod_env in
      let r1 = run () in
      let r2 = run () in
      check_same_db
        (Printf.sprintf "shared pool d=%d run 1 vs serial" domains)
        base.Driver.r_db r1.Driver.r_db;
      check_same_db
        (Printf.sprintf "shared pool d=%d run 2 vs run 1" domains)
        r1.Driver.r_db r2.Driver.r_db)
    [ 1; 2; 4 ]

let test_determinism_ssb () =
  check_workload "ssb" (Mirage_workloads.Ssb.make ~sf:0.25 ~seed:7)

let test_determinism_tpch () =
  check_workload "tpch" (Mirage_workloads.Tpch.make ~sf:0.05 ~seed:7)

(* TPC-DS key generation solves its LP relaxations inside pool tasks *)
let test_determinism_tpcds () =
  check_workload ~widths:[ 2 ] "tpcds" (Mirage_workloads.Tpcds.make ~sf:0.1 ~seed:7)

(* --- scale-out writer byte-identity -------------------------------------- *)

let test_scaleout_bytes () =
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.1 ~seed:7 in
  let r = generate_with ~domains:1 workload ref_db prod_env in
  let db = r.Driver.r_db in
  let copies = 5 in
  (* reference: the in-memory tiled database rendered by the sequential
     exporter — the shard export on 3 domains must produce exactly these
     bytes, as one shard per table and as one tile per shard *)
  let tiled = Scale_out.tile_db ~db ~copies in
  List.iter
    (fun chunk_rows ->
      let dir = Filename.temp_file "mirage_par_test" "" in
      Sys.remove dir;
      Par.with_pool ~domains:3 (fun pool ->
          ignore
            (Shards.export ~pool ~db ~copies ~chunk_rows ~dir ~run_id:"par" ()));
      List.iter
        (fun (tbl : Schema.table) ->
          let tname = tbl.Schema.tname in
          Alcotest.(check bool)
            (Printf.sprintf "%s shards (chunk %d) byte-identical to sequential \
                             render" tname chunk_rows)
            true
            (Shards.concat dir tname = Db.to_csv tiled tname))
        (Schema.tables (Db.schema db));
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    [ max_int; 1 ]

let () =
  Alcotest.run "par"
    [
      ( "rng-split",
        [
          Alcotest.test_case "stream splits are pure" `Quick test_split_pure;
          Alcotest.test_case "stream splits are stable" `Quick test_split_stable;
          Alcotest.test_case "streams are distinct" `Quick test_split_distinct;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run" `Quick test_run;
          Alcotest.test_case "init" `Quick test_init;
          Alcotest.test_case "iter_chunks" `Quick test_iter_chunks;
          Alcotest.test_case "map_chunks / map_list" `Quick test_map_chunks_list;
          Alcotest.test_case "exception propagation" `Quick test_exception;
        ] );
      ( "resident-pool",
        [
          Alcotest.test_case "Par.get identity" `Quick test_get_identity;
          Alcotest.test_case "usable after failed region" `Quick
            test_get_survives_failure;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shared resident pool across runs" `Slow
            test_driver_shared_pool;
          Alcotest.test_case "ssb domains 1/2/4" `Slow test_determinism_ssb;
          Alcotest.test_case "tpch domains 1/2/4" `Slow test_determinism_tpch;
          Alcotest.test_case "tpcds domains 1/2" `Slow test_determinism_tpcds;
          Alcotest.test_case "scale-out bytes" `Quick test_scaleout_bytes;
        ] );
    ]
