module Plan = Mirage_relalg.Plan
module Aqt = Mirage_relalg.Aqt
module Parser = Mirage_sql.Parser
module Schema = Mirage_sql.Schema

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

let join ?(jt = Plan.Inner) left right =
  Plan.Join { jt; pk_table = "s"; fk_table = "t"; fk_col = "t_fk"; left; right }

let q1 =
  Plan.Project
    {
      cols = [ "t_fk" ];
      input =
        join
          (Plan.Select (Parser.pred "s1 < $p1", Plan.Table "s"))
          (Plan.Select (Parser.pred "t1 > $p2", Plan.Table "t"));
    }

let test_preorder_order () =
  let labels = List.map Plan.node_label (Plan.preorder q1) in
  Alcotest.(check int) "six views" 6 (List.length labels);
  (* root first, then left subtree, then right subtree *)
  Alcotest.(check bool) "project first" true
    (String.length (List.nth labels 0) > 0 && String.sub (List.nth labels 0) 0 1 <> "s");
  Alcotest.(check string) "s under its select" "s" (List.nth labels 3)

let test_size_tables_params () =
  Alcotest.(check int) "size" 6 (Plan.size q1);
  Alcotest.(check (list string)) "tables" [ "s"; "t" ] (Plan.tables q1);
  Alcotest.(check (list string)) "params" [ "p1"; "p2" ] (Plan.params q1)

let test_joins_indexed () =
  match Plan.joins q1 with
  | [ (idx, Plan.Join _) ] -> Alcotest.(check int) "join at preorder 1" 1 idx
  | _ -> Alcotest.fail "expected exactly one join"

let test_validate_ok () =
  Alcotest.(check bool) "valid" true (Plan.validate schema q1 = Ok ())

let test_validate_errors () =
  let is_err = function Error _ -> true | Ok () -> false in
  Alcotest.(check bool) "unknown table" true
    (is_err (Plan.validate schema (Plan.Table "nope")));
  Alcotest.(check bool) "bad predicate column" true
    (is_err
       (Plan.validate schema (Plan.Select (Parser.pred "zz > 1", Plan.Table "s"))));
  Alcotest.(check bool) "pk side must hold pk table" true
    (is_err
       (Plan.validate schema
          (Plan.Join
             {
               jt = Plan.Inner;
               pk_table = "s";
               fk_table = "t";
               fk_col = "t_fk";
               left = Plan.Table "t";
               right = Plan.Table "s";
             })));
  Alcotest.(check bool) "non-fk join column" true
    (is_err
       (Plan.validate schema
          (Plan.Join
             {
               jt = Plan.Inner;
               pk_table = "s";
               fk_table = "t";
               fk_col = "t1";
               left = Plan.Table "s";
               right = Plan.Table "t";
             })))

let test_all_join_types_validate () =
  List.iter
    (fun jt ->
      Alcotest.(check bool) "join type validates" true
        (Plan.validate schema (join ~jt (Plan.Table "s") (Plan.Table "t")) = Ok ()))
    [
      Plan.Inner; Plan.Left_outer; Plan.Right_outer; Plan.Full_outer;
      Plan.Left_semi; Plan.Right_semi; Plan.Left_anti; Plan.Right_anti;
    ]

let test_aqt_annotation () =
  let aqt = Aqt.unannotated ~name:"q" q1 in
  Alcotest.(check (list (pair int int))) "none yet" []
    (List.map (fun (i, _, n) -> (i, n)) (Aqt.annotated_views aqt));
  let aqt = Aqt.annotate (Aqt.annotate aqt 0 2) 1 3 in
  Alcotest.(check (option int)) "view 0" (Some 2) (Aqt.card aqt 0);
  Alcotest.(check (option int)) "view 1" (Some 3) (Aqt.card aqt 1);
  Alcotest.(check (option int)) "view 2 unset" None (Aqt.card aqt 2);
  Alcotest.(check int) "two annotated" 2 (List.length (Aqt.annotated_views aqt))

let test_aqt_out_of_range () =
  let aqt = Aqt.unannotated ~name:"q" q1 in
  Alcotest.(check bool) "bad index raises" true
    (try ignore (Aqt.annotate aqt 99 1); false with Invalid_argument _ -> true);
  Alcotest.(check (option int)) "card out of range" None (Aqt.card aqt 99)

let () =
  Alcotest.run "relalg"
    [
      ( "plan",
        [
          Alcotest.test_case "preorder" `Quick test_preorder_order;
          Alcotest.test_case "size/tables/params" `Quick test_size_tables_params;
          Alcotest.test_case "joins indexed" `Quick test_joins_indexed;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate errors" `Quick test_validate_errors;
          Alcotest.test_case "all join types" `Quick test_all_join_types_validate;
        ] );
      ( "aqt",
        [
          Alcotest.test_case "annotation" `Quick test_aqt_annotation;
          Alcotest.test_case "out of range" `Quick test_aqt_out_of_range;
        ] );
    ]
