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

(* [render] runs on worker domains, where Alcotest (its Format state is not
   domain-safe) must not be called: count violations there, assert on the
   calling domain after the region *)
let test_iter_tiles_order () =
  with_pools (fun pool ->
      let written = ref [] in
      let bad_slots = Atomic.make 0 in
      Par.iter_tiles pool ~tiles:23
        ~render:(fun ~slot ~tile ->
          if slot < 0 || slot >= Par.tile_slots pool then Atomic.incr bad_slots;
          tile * 10)
        ~write:(fun ~tile v -> written := (tile, v) :: !written);
      Alcotest.(check int) "slots within lookahead" 0 (Atomic.get bad_slots);
      Alcotest.(check (list (pair int int)))
        "tiles written sequentially in tile order"
        (List.init 23 (fun t -> (t, t * 10)))
        (List.rev !written))

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

let test_iter_tiles_exns_then_reuse () =
  let pool = Par.get ~domains:4 () in
  (* a render failure must propagate after in-flight tiles settle, with the
     writes forming an in-order prefix that stops before the failed tile *)
  let written = ref [] in
  let raised =
    try
      Par.iter_tiles pool ~tiles:20
        ~render:(fun ~slot:_ ~tile -> if tile = 11 then raise Boom else tile)
        ~write:(fun ~tile v -> written := (tile, v) :: !written);
      false
    with Boom -> true
  in
  Alcotest.(check bool) "render exception re-raised" true raised;
  let w = List.rev !written in
  Alcotest.(check (list (pair int int)))
    "writes are an in-order prefix"
    (List.init (List.length w) (fun t -> (t, t)))
    w;
  Alcotest.(check bool) "failed tile never written" true (List.length w <= 11);
  (* a write failure stops the drain immediately *)
  let count = ref 0 in
  let raised =
    try
      Par.iter_tiles pool ~tiles:20
        ~render:(fun ~slot:_ ~tile -> tile)
        ~write:(fun ~tile:_ _ ->
          incr count;
          if !count = 5 then raise Boom);
      false
    with Boom -> true
  in
  Alcotest.(check bool) "write exception re-raised" true raised;
  Alcotest.(check int) "no write after the failing one" 5 !count;
  (* and the same resident pool still runs a clean pass in order *)
  let written = ref [] in
  Par.iter_tiles pool ~tiles:23
    ~render:(fun ~slot:_ ~tile -> tile * 3)
    ~write:(fun ~tile v -> written := (tile, v) :: !written);
  Alcotest.(check (list (pair int int)))
    "pool reusable after failed tile regions"
    (List.init 23 (fun t -> (t, t * 3)))
    (List.rev !written)

exception Stop

let test_iter_tiles_interrupt () =
  List.iter
    (fun domains ->
      let pool = Par.get ~domains () in
      let written = ref 0 and calls = ref 0 in
      let raised =
        try
          Par.iter_tiles pool
            ~interrupt:(fun () ->
              incr calls;
              if !calls > 6 then raise Stop)
            ~tiles:50
            ~render:(fun ~slot:_ ~tile -> tile)
            ~write:(fun ~tile:_ _ -> incr written);
          false
        with Stop -> true
      in
      Alcotest.(check bool) "interrupt propagates" true raised;
      Alcotest.(check int)
        (Printf.sprintf "interrupt checked before every write (domains=%d)"
           domains)
        6 !written)
    [ 1; 4 ]

(* --- randomized pipelining (QCheck) -------------------------------------- *)

(* test/dune has no unix dependency, so latency is a spin-wait; opaque to
   keep the loop from being optimised away *)
let spin n =
  let x = ref 0 in
  for _ = 1 to n * 20 do
    x := Sys.opaque_identity (!x + 1)
  done

let latency_of lats t =
  match lats with [] -> 0 | _ -> List.nth lats (t mod List.length lats)

let qcheck_tiles_order =
  QCheck.Test.make ~count:25
    ~name:"iter_tiles writes every tile in order under random render latency"
    QCheck.(
      pair (int_range 0 40) (pair (int_range 1 4) (small_list (int_range 0 500))))
    (fun (tiles, (domains, lats)) ->
      let pool = Par.get ~domains () in
      let written = ref [] in
      let bad_slots = Atomic.make 0 in
      Par.iter_tiles pool ~tiles
        ~render:(fun ~slot ~tile ->
          if slot < 0 || slot >= Par.tile_slots pool then Atomic.incr bad_slots;
          spin (latency_of lats tile);
          tile * 7)
        ~write:(fun ~tile v -> written := (tile, v) :: !written);
      if Atomic.get bad_slots > 0 then
        QCheck.Test.fail_report "slot out of lookahead range";
      List.rev !written = List.init tiles (fun t -> (t, t * 7)))

let qcheck_slot_safety =
  QCheck.Test.make ~count:25
    ~name:"slot buffers never reused before their tile is written"
    QCheck.(pair (int_range 1 4) (small_list (int_range 0 300)))
    (fun (domains, lats) ->
      let tiles = 33 in
      let pool = Par.get ~domains () in
      let slots = Par.tile_slots pool in
      (* a slot is claimed by its tile at render entry and released only when
         that tile is written; any overlap means a buffer would have been
         clobbered while still unwritten *)
      let owner = Array.init slots (fun _ -> Atomic.make (-1)) in
      let ok = Atomic.make true in
      Par.iter_tiles pool ~tiles
        ~render:(fun ~slot ~tile ->
          if not (Atomic.compare_and_set owner.(slot) (-1) tile) then
            Atomic.set ok false;
          spin (latency_of lats tile);
          tile)
        ~write:(fun ~tile v ->
          ignore v;
          if not (Atomic.compare_and_set owner.(tile mod slots) tile (-1)) then
            Atomic.set ok false);
      Atomic.get ok)

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
  (* the daemon-style usage: one resident pool and one solve cache shared
     across consecutive runs must yield the same database as fresh serial
     generation — cache sharing may only change wall-clock, never content *)
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.1 ~seed:7 in
  let base = generate_with ~domains:1 workload ref_db prod_env in
  let cache = Mirage_core.Solve_cache.create () in
  List.iter
    (fun domains ->
      let pool = Par.get ~domains () in
      let run () =
        let config =
          {
            Driver.default_config with
            Driver.domains;
            seed = 5;
            pool = Some pool;
            cache = Some cache;
          }
        in
        match Driver.generate ~config workload ~ref_db ~prod_env with
        | Ok r -> r
        | Error d ->
            Alcotest.failf "generation failed: %s"
              (Mirage_core.Diag.to_string d)
      in
      let r1 = run () in
      let r2 = run () in
      check_same_db
        (Printf.sprintf "shared pool d=%d run 1 vs serial" domains)
        base.Driver.r_db r1.Driver.r_db;
      check_same_db
        (Printf.sprintf "shared pool d=%d run 2 vs run 1" domains)
        r1.Driver.r_db r2.Driver.r_db)
    [ 1; 2; 4 ];
  Alcotest.(check bool)
    "shared solve cache hit across runs" true
    (Mirage_core.Solve_cache.hits cache > 0)

let test_determinism_ssb () =
  check_workload "ssb" (Mirage_workloads.Ssb.make ~sf:0.25 ~seed:7)

let test_determinism_tpch () =
  check_workload "tpch" (Mirage_workloads.Tpch.make ~sf:0.05 ~seed:7)

(* TPC-DS key generation solves its LP relaxations inside pool tasks *)
let test_determinism_tpcds () =
  check_workload ~widths:[ 2 ] "tpcds" (Mirage_workloads.Tpcds.make ~sf:0.1 ~seed:7)

(* --- scale-out writer byte-identity -------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_scaleout_bytes () =
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.1 ~seed:7 in
  let r = generate_with ~domains:1 workload ref_db prod_env in
  let db = r.Driver.r_db in
  let copies = 5 in
  (* reference: the in-memory tiled database rendered by the sequential
     exporter — to_csv_dir must produce exactly these bytes *)
  let tiled = Scale_out.tile_db ~db ~copies in
  let dir = Filename.temp_file "mirage_par_test" "" in
  Sys.remove dir;
  Par.with_pool ~domains:3 (fun pool ->
      Scale_out.to_csv_dir ~pool ~db ~copies ~dir ());
  List.iter
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      let got = read_file (Filename.concat dir (tname ^ ".csv")) in
      Alcotest.(check bool)
        (Printf.sprintf "%s.csv byte-identical to sequential render" tname)
        true
        (got = Db.to_csv tiled tname))
    (Schema.tables (Db.schema db));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

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
          Alcotest.test_case "iter_tiles ordering" `Quick test_iter_tiles_order;
        ] );
      ( "resident-pool",
        [
          Alcotest.test_case "Par.get identity" `Quick test_get_identity;
          Alcotest.test_case "usable after failed region" `Quick
            test_get_survives_failure;
          Alcotest.test_case "iter_tiles exceptions then reuse" `Quick
            test_iter_tiles_exns_then_reuse;
          Alcotest.test_case "per-tile interrupt" `Quick
            test_iter_tiles_interrupt;
          QCheck_alcotest.to_alcotest qcheck_tiles_order;
          QCheck_alcotest.to_alcotest qcheck_slot_safety;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shared pool and cache across runs" `Slow
            test_driver_shared_pool;
          Alcotest.test_case "ssb domains 1/2/4" `Slow test_determinism_ssb;
          Alcotest.test_case "tpch domains 1/2/4" `Slow test_determinism_tpch;
          Alcotest.test_case "tpcds domains 1/2" `Slow test_determinism_tpcds;
          Alcotest.test_case "scale-out bytes" `Quick test_scaleout_bytes;
        ] );
    ]
