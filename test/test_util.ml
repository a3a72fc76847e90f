module Rng = Mirage_util.Rng
module Toposort = Mirage_util.Toposort
module Hoeffding = Mirage_util.Hoeffding
module Stats = Mirage_util.Stats

let test_rng_bounds () =
  let t = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int t 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_rng_int_in () =
  let t = Rng.create 2 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in t 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_split_independent () =
  let t = Rng.create 7 in
  let s = Rng.split t in
  let xs = List.init 50 (fun _ -> Rng.int t 1000) in
  let ys = List.init 50 (fun _ -> Rng.int s 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_float_range () =
  let t = Rng.create 3 in
  for _ = 1 to 1_000 do
    let v = Rng.float t 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_shuffle_is_permutation () =
  let t = Rng.create 5 in
  let arr = Array.init 200 (fun i -> i) in
  let copy = Array.copy arr in
  Rng.shuffle t copy;
  Array.sort compare copy;
  Alcotest.(check bool) "permutation" true (arr = copy)

let test_sample_without_replacement () =
  let t = Rng.create 6 in
  let s = Rng.sample_without_replacement t 30 100 in
  Alcotest.(check int) "size" 30 (Array.length s);
  let distinct = Array.to_list s |> List.sort_uniq compare in
  Alcotest.(check int) "distinct" 30 (List.length distinct);
  Array.iter (fun v -> Alcotest.(check bool) "range" true (v >= 0 && v < 100)) s

let test_sample_dense_case () =
  let t = Rng.create 8 in
  let s = Rng.sample_without_replacement t 90 100 in
  Alcotest.(check int) "size" 90 (Array.length s);
  Alcotest.(check int) "distinct" 90
    (Array.to_list s |> List.sort_uniq compare |> List.length)

let test_rng_invalid () =
  let t = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0));
  Alcotest.check_raises "k > n"
    (Invalid_argument "Rng.sample_without_replacement: k > n") (fun () ->
      ignore (Rng.sample_without_replacement t 5 3))

let test_topo_chain () =
  let order =
    Toposort.sort ~vertices:[ "c"; "a"; "b" ] ~edges:[ ("a", "b"); ("b", "c") ]
  in
  Alcotest.(check (list string)) "chain order" [ "a"; "b"; "c" ] order

let test_topo_respects_edges () =
  let vertices = [ "s"; "t"; "u"; "v"; "w" ] in
  let edges = [ ("s", "t"); ("s", "u"); ("u", "v"); ("t", "v") ] in
  let order = Toposort.sort ~vertices ~edges in
  Alcotest.(check bool) "is topological" true
    (Toposort.is_topological ~vertices ~edges order)

let test_topo_cycle () =
  Alcotest.check_raises "cycle" (Failure "Toposort.sort: graph has a cycle")
    (fun () ->
      ignore (Toposort.sort ~vertices:[ "a"; "b" ] ~edges:[ ("a", "b"); ("b", "a") ]))

let test_topo_deterministic () =
  let vertices = [ "z"; "y"; "x" ] in
  let a = Toposort.sort ~vertices ~edges:[] in
  let b = Toposort.sort ~vertices ~edges:[] in
  Alcotest.(check (list string)) "stable" a b

let test_hoeffding_paper_setting () =
  (* §8: delta 0.1%, alpha 99.9% -> about 3.8M rows *)
  let n = Hoeffding.sample_size ~delta:0.001 ~alpha:0.999 in
  Alcotest.(check bool) "in the 3-4.5M range" true (n > 3_000_000 && n < 4_500_000)

let test_hoeffding_inverse () =
  let n = Hoeffding.sample_size ~delta:0.01 ~alpha:0.95 in
  let d = Hoeffding.error_bound ~sample_size:n ~alpha:0.95 in
  Alcotest.(check bool) "bound holds" true (d <= 0.01 +. 1e-6)

let test_hoeffding_monotone () =
  let a = Hoeffding.sample_size ~delta:0.01 ~alpha:0.9 in
  let b = Hoeffding.sample_size ~delta:0.005 ~alpha:0.9 in
  Alcotest.(check bool) "smaller delta needs more samples" true (b > a)

let test_relative_error_zero () =
  Alcotest.(check (float 1e-9)) "exact" 0.0
    (Stats.relative_error ~expected:[ 5; 10 ] ~actual:[ 5; 10 ])

let test_relative_error_paper_metric () =
  Alcotest.(check (float 1e-9)) "metric" (3.0 /. 15.0)
    (Stats.relative_error ~expected:[ 5; 10 ] ~actual:[ 4; 12 ])

let test_relative_error_degenerate () =
  Alcotest.(check (float 1e-9)) "0/0" 0.0 (Stats.relative_error ~expected:[ 0 ] ~actual:[ 0 ]);
  Alcotest.(check (float 1e-9)) "x/0" 1.0 (Stats.relative_error ~expected:[ 0 ] ~actual:[ 3 ])

let test_percentile () =
  let data = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile data 0.5);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.percentile data 0.0);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.percentile data 1.0)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let arr = Array.of_list l in
      let t = Rng.create seed in
      Rng.shuffle t arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let prop_topo_random_dags =
  QCheck.Test.make ~name:"random DAGs sort topologically" ~count:100
    QCheck.small_nat
    (fun n ->
      let n = max 2 (min 15 n) in
      let vertices = List.init n string_of_int in
      let edges =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                if (i + j) mod 3 = 0 then Some (string_of_int i, string_of_int j)
                else None)
              (List.init (n - i - 1) (fun k -> i + k + 1)))
          (List.init n (fun i -> i))
      in
      let order = Toposort.sort ~vertices ~edges in
      Toposort.is_topological ~vertices ~edges order)

module Sexp = Mirage_util.Sexp

let test_sexp_roundtrip_cases () =
  let cases =
    [
      Sexp.Atom "hello";
      Sexp.Atom "with space";
      Sexp.Atom "quo\"te";
      Sexp.Atom "";
      Sexp.List [];
      Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "c" ] ];
      Sexp.List [ Sexp.Atom "(paren)"; Sexp.Atom "new\nline" ];
    ]
  in
  List.iter
    (fun s ->
      match Sexp.of_string (Sexp.to_string s) with
      | Ok s' -> Alcotest.(check bool) (Sexp.to_string s) true (s = s')
      | Error m -> Alcotest.failf "parse failed: %s" m)
    cases

let test_sexp_errors () =
  let bad s = match Sexp.of_string s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "unclosed" true (bad "(a (b)");
  Alcotest.(check bool) "stray paren" true (bad ")");
  Alcotest.(check bool) "two exprs" true (bad "a b");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc")

let prop_sexp_roundtrip =
  let rec gen_sexp n =
    let open QCheck.Gen in
    if n = 0 then map (fun s -> Sexp.Atom s) (string_size ~gen:printable (0 -- 6))
    else
      frequency
        [
          (2, map (fun s -> Sexp.Atom s) (string_size ~gen:printable (0 -- 6)));
          (1, map (fun l -> Sexp.List l) (list_size (0 -- 4) (gen_sexp (n - 1))));
        ]
  in
  QCheck.Test.make ~name:"sexp print/parse round trip" ~count:300
    (QCheck.make (gen_sexp 3))
    (fun s -> Sexp.of_string (Sexp.to_string s) = Ok s)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "sample dense" `Quick test_sample_dense_case;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          QCheck_alcotest.to_alcotest prop_shuffle_permutation;
        ] );
      ( "toposort",
        [
          Alcotest.test_case "chain" `Quick test_topo_chain;
          Alcotest.test_case "respects edges" `Quick test_topo_respects_edges;
          Alcotest.test_case "cycle detected" `Quick test_topo_cycle;
          Alcotest.test_case "deterministic" `Quick test_topo_deterministic;
          QCheck_alcotest.to_alcotest prop_topo_random_dags;
        ] );
      ( "hoeffding",
        [
          Alcotest.test_case "paper setting" `Quick test_hoeffding_paper_setting;
          Alcotest.test_case "inverse" `Quick test_hoeffding_inverse;
          Alcotest.test_case "monotone" `Quick test_hoeffding_monotone;
        ] );
      ( "sexp",
        [
          Alcotest.test_case "round trip cases" `Quick test_sexp_roundtrip_cases;
          Alcotest.test_case "errors" `Quick test_sexp_errors;
          QCheck_alcotest.to_alcotest prop_sexp_roundtrip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "relative error zero" `Quick test_relative_error_zero;
          Alcotest.test_case "paper metric" `Quick test_relative_error_paper_metric;
          Alcotest.test_case "degenerate" `Quick test_relative_error_degenerate;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
    ]
