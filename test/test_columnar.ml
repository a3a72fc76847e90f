(* Storage-layer regression suite.  The 1-domain runs write their exports
   under the working directory at their golden paths (Pinned): every CSV,
   schema.sql, queries.sql and the per-query verdicts of SSB and TPC-H, the
   TPC-DS verdicts and a digest line per TPC-DS CSV.  Runs at 2 and 4 domains must
   give the 1-domain bytes.  The QCheck properties pin down the Col
   round-trips the rest of the engine relies on. *)

module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Driver = Mirage_core.Driver
module Workload = Mirage_core.Workload

let generate make ~sf ~domains =
  let workload, ref_db, prod_env = make ~sf ~seed:7 in
  let config =
    { Driver.default_config with seed = 42; batch_size = 1_000_000; domains }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok r -> (workload, r)

(* a workload at its scale factor, with its 1-domain run: the one written
   out *)
let at make ~sf = (make, sf, lazy (generate make ~sf ~domains:1))
let ssb = at Mirage_workloads.Ssb.make ~sf:0.1
let tpch = at Mirage_workloads.Tpch.make ~sf:0.05
let _, _, tpcds = at Mirage_workloads.Tpcds.make ~sf:0.1

let csvs (workload : Workload.t) (r : Driver.result) =
  List.map
    (fun (tbl : Schema.table) ->
      (tbl.Schema.tname, Db.to_csv r.Driver.r_db tbl.Schema.tname))
    (Schema.tables workload.Workload.w_schema)

let verdict_text (r : Driver.result) =
  let errs = Driver.measure_errors r in
  let buf = Buffer.create 256 in
  List.iter2
    (fun (v : Mirage_core.Diag.verdict) (e : Mirage_core.Error.query_error) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %.6f\n" v.Mirage_core.Diag.v_query
           (Mirage_core.Diag.status_name v.Mirage_core.Diag.v_status)
           e.Mirage_core.Error.qe_relative))
    r.Driver.r_verdicts errs;
  Buffer.contents buf

(* <wl>/<table>.csv, <wl>/schema.sql, <wl>/queries.sql and
   <wl>/verdicts.txt *)
let full_export wl (_, _, run) () =
  let workload, r = Lazy.force run in
  let file f = Filename.concat wl f in
  List.iter (fun (t, csv) -> Pinned.write (file (t ^ ".csv")) csv) (csvs workload r);
  Mirage_core.Sql_export.write ~dir:wl ~workload ~env:r.Driver.r_env;
  Pinned.write (file "verdicts.txt") (verdict_text r)

let check_bytes label want got =
  (* compare without Alcotest's diff printer: dumping megabytes of CSV on a
     mismatch helps nobody *)
  if not (String.equal want got) then
    Alcotest.failf "%s: %d bytes vs %d at domains=1 (content differs)" label
      (String.length got) (String.length want)

let domain_check wl (make, sf, run) ~domains () =
  let workload, r1 = Lazy.force run in
  let _, r = generate make ~sf ~domains in
  List.iter2
    (fun (t, want) (_, got) ->
      check_bytes (Printf.sprintf "%s/%s.csv (domains=%d)" wl t domains) want got)
    (csvs workload r1) (csvs workload r);
  check_bytes
    (Printf.sprintf "%s/verdicts.txt (domains=%d)" wl domains)
    (verdict_text r1) (verdict_text r)

let test_tpcds_verdicts () =
  let _, r = Lazy.force tpcds in
  Pinned.write "tpcds/verdicts.txt" (verdict_text r)

(* TPC-DS CSVs are pinned by digest rather than by their bytes: one
   "<table> <rows> <bytes> <md5>" line per table.  Its key generator solves
   the largest LP relaxations of the three workloads, so this is where an LP
   kernel change would first move a byte. *)
let test_tpcds_digests () =
  let workload, r = Lazy.force tpcds in
  Pinned.write "tpcds/digests.txt"
    (String.concat ""
       (List.map
          (fun (t, csv) ->
            Printf.sprintf "%s %d %d %s\n" t (Db.row_count r.Driver.r_db t)
              (String.length csv)
              (Digest.to_hex (Digest.string csv)))
          (csvs workload r)))

(* --- Col round-trip properties --------------------------------------------- *)

(* non-null values of one kind each: Int, Float, Str *)
let kind_gens =
  QCheck.Gen.
    [|
      map (fun i -> Value.Int i) (int_range (-1000) 1000);
      map (fun i -> Value.Float (float_of_int i /. 8.0)) (int_range (-1000) 1000);
      map (fun s -> Value.Str s) (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 4));
    |]

let cells kind =
  QCheck.Gen.(
    array_size (0 -- 25) (frequency [ (1, return Value.Null); (3, kind_gens.(kind)) ]))

(* one kind, NULLs mixed in; all-NULL and empty arrays included *)
let prop_value_roundtrip =
  QCheck.Test.make ~name:"Col.of_values/to_values round-trip" ~count:500
    (QCheck.make QCheck.Gen.(int_bound 2 >>= fun k -> cells k))
    (fun vs -> Col.to_values (Col.of_values vs) = vs)

(* a value of a second kind anywhere in the array *)
let prop_mixed_kinds_rejected =
  QCheck.Test.make ~name:"Col.of_values rejects mixed kinds" ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* k = int_bound 2 and* d = int_range 1 2 in
         let k' = (k + d) mod 3 in
         let* x = kind_gens.(k) and* y = kind_gens.(k')
         and* a = cells k and* b = cells k' in
         let vs = Array.concat [ [| x; y |]; a; b ] in
         let+ () = shuffle_a vs in
         vs))
    (fun vs ->
      match Col.of_values vs with
      | _ -> false
      | exception Invalid_argument _ -> true)

let prop_dict_encoding =
  QCheck.Test.make ~name:"dict encoding: distinct pool, faithful decode"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         array_size (0 -- 80)
           (string_size ~gen:(oneofl [ 'x'; 'y'; 'z' ]) (0 -- 3))))
    (fun ss ->
      match Col.of_strings ss with
      | Col.Dict { codes; pool; nulls = None } ->
          let distinct =
            Array.to_list pool |> List.sort_uniq compare |> List.length
            = Array.length pool
          in
          distinct
          && Bigarray.Array1.dim codes = Array.length ss
          && Array.for_all
               (fun c -> c >= 0 && c < Array.length pool)
               (Col.Ivec.to_array codes)
          && Array.to_list ss
             = List.init (Array.length ss) (fun i -> pool.(codes.{i}))
      | _ -> false)

let prop_null_bitmap =
  QCheck.Test.make ~name:"null bitmap agrees with boxed view" ~count:500
    (QCheck.make QCheck.Gen.(array_size (1 -- 60) bool))
    (fun mask ->
      let vs =
        Array.mapi (fun i b -> if b then Value.Null else Value.Int i) mask
      in
      let col = Col.of_values vs in
      Col.length col = Array.length mask
      && Array.for_all
           (fun i -> Col.is_null col i = mask.(i) && Col.get col i = vs.(i))
           (Array.init (Array.length mask) Fun.id))

let prop_bitset =
  QCheck.Test.make ~name:"Bitset matches a bool-array model" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (1 -- 200) (list_size (0 -- 60) (pair (0 -- 199) bool))))
    (fun (n, ops) ->
      let b = Col.Bitset.create n in
      let model = Array.make n false in
      List.iter
        (fun (i, v) ->
          let i = i mod n in
          if v then Col.Bitset.set b i else Col.Bitset.clear b i;
          model.(i) <- v)
        ops;
      Col.Bitset.length b = n
      && Col.Bitset.count b
         = Array.fold_left (fun a v -> if v then a + 1 else a) 0 model
      && Array.for_all
           (fun i -> Col.Bitset.get b i = model.(i))
           (Array.init n Fun.id))

(* ranges start and end on byte edges half the time, and lengths are not
   multiples of 8, so the per-byte count meets partial bytes at either end *)
let prop_bitset_count_range =
  QCheck.Test.make ~name:"Bitset count and count_range = per-bit count" ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple (0 -- 203) (list_size (0 -- 150) (0 -- 202))
           (list_size (1 -- 8) (pair (pair bool (0 -- 210)) (pair bool (0 -- 210))))))
    (fun (n, sets, ranges) ->
      let b = Col.Bitset.create n in
      let model = Array.make n false in
      if n > 0 then
        List.iter
          (fun i ->
            Col.Bitset.set b (i mod n);
            model.(i mod n) <- true)
          sets;
      let bit_count lo hi =
        let c = ref 0 in
        for i = lo to hi - 1 do
          if model.(i) then incr c
        done;
        !c
      in
      let pos (on_edge, x) =
        let x = min n x in
        if on_edge then x land lnot 7 else x
      in
      Col.Bitset.count b = bit_count 0 n
      && List.for_all
           (fun (lo, hi) ->
             let lo = pos lo and hi = pos hi in
             Col.Bitset.count_range b lo hi = bit_count lo hi)
           ranges)

let () =
  Alcotest.run "columnar"
    [
      ( "goldens",
        [
          Alcotest.test_case "ssb full export, domains 1" `Slow
            (full_export "ssb" ssb);
          Alcotest.test_case "tpch full export, domains 1" `Slow
            (full_export "tpch" tpch);
          Alcotest.test_case "ssb csv bytes, domains 2" `Slow
            (domain_check "ssb" ssb ~domains:2);
          Alcotest.test_case "ssb csv bytes, domains 4" `Slow
            (domain_check "ssb" ssb ~domains:4);
          Alcotest.test_case "tpch csv bytes, domains 2" `Slow
            (domain_check "tpch" tpch ~domains:2);
          Alcotest.test_case "tpch csv bytes, domains 4" `Slow
            (domain_check "tpch" tpch ~domains:4);
          Alcotest.test_case "tpcds verdicts" `Slow test_tpcds_verdicts;
          Alcotest.test_case "tpcds csv digests" `Slow test_tpcds_digests;
        ] );
      ( "col",
        [
          QCheck_alcotest.to_alcotest prop_value_roundtrip;
          QCheck_alcotest.to_alcotest prop_mixed_kinds_rejected;
          QCheck_alcotest.to_alcotest prop_dict_encoding;
          QCheck_alcotest.to_alcotest prop_null_bitmap;
          QCheck_alcotest.to_alcotest prop_bitset;
          QCheck_alcotest.to_alcotest prop_bitset_count_range;
        ] );
    ]
