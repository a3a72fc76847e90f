module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Parser = Mirage_sql.Parser
module Plan = Mirage_relalg.Plan
module Workload = Mirage_core.Workload

let col n d k = { Schema.cname = n; domain_size = d; kind = k }
let fk c r = { Schema.fk_col = c; references = r }
let scale sf n = max 4 (int_of_float (float_of_int n *. sf))

let schema ~sf =
  Schema.make
    [
      {
        Schema.tname = "region";
        pk = "r_regionkey";
        nonkeys = [ col "r_name" 5 Schema.Kstring ];
        fks = [];
        row_count = 5;
      };
      {
        Schema.tname = "nation";
        pk = "n_nationkey";
        nonkeys = [ col "n_name" 25 Schema.Kstring ];
        fks = [ fk "n_regionkey" "region" ];
        row_count = 25;
      };
      {
        Schema.tname = "supplier";
        pk = "s_suppkey";
        nonkeys =
          [ col "s_acctbal" 900 Schema.Kint; col "s_comment" 100 Schema.Kstring ];
        fks = [ fk "s_nationkey" "nation" ];
        row_count = scale sf 100;
      };
      {
        Schema.tname = "customer";
        pk = "c_custkey";
        nonkeys =
          [
            col "c_mktsegment" 5 Schema.Kstring;
            col "c_acctbal" 1000 Schema.Kint;
            col "c_phonecc" 25 Schema.Kint;
          ];
        fks = [ fk "c_nationkey" "nation" ];
        row_count = scale sf 1500;
      };
      {
        Schema.tname = "part";
        pk = "p_partkey";
        nonkeys =
          [
            col "p_brand" 25 Schema.Kstring;
            col "p_type" 150 Schema.Kstring;
            col "p_container" 40 Schema.Kstring;
            col "p_size" 50 Schema.Kint;
            col "p_name" 1000 Schema.Kstring;
          ];
        fks = [];
        row_count = scale sf 2000;
      };
      {
        Schema.tname = "partsupp";
        pk = "ps_partsuppkey";
        nonkeys =
          [ col "ps_availqty" 1000 Schema.Kint; col "ps_supplycost" 1000 Schema.Kint ];
        fks = [ fk "ps_partkey" "part"; fk "ps_suppkey" "supplier" ];
        row_count = scale sf 8000;
      };
      {
        Schema.tname = "orders";
        pk = "o_orderkey";
        nonkeys =
          [
            col "o_orderdate" 2400 Schema.Kint;
            col "o_orderpriority" 5 Schema.Kstring;
            col "o_orderstatus" 3 Schema.Kstring;
            col "o_comment" 5000 Schema.Kstring;
          ];
        fks = [ fk "o_custkey" "customer" ];
        row_count = scale sf 15000;
      };
      {
        Schema.tname = "lineitem";
        pk = "l_linekey";
        nonkeys =
          [
            col "l_quantity" 50 Schema.Kint;
            col "l_discount" 11 Schema.Kint;
            col "l_shipdate" 2500 Schema.Kint;
            col "l_commitdate" 2500 Schema.Kint;
            col "l_receiptdate" 2500 Schema.Kint;
            col "l_returnflag" 3 Schema.Kstring;
            col "l_shipmode" 7 Schema.Kstring;
            col "l_extendedprice" 10000 Schema.Kint;
          ];
        fks =
          [
            fk "l_orderkey" "orders";
            fk "l_partkey" "part";
            fk "l_suppkey" "supplier";
          ];
        row_count = scale sf 60000;
      };
    ]

let type_lexicon =
  [| "ECONOMY"; "STANDARD"; "MEDIUM"; "ANODIZED"; "BRUSHED"; "POLISHED";
     "STEEL"; "BRASS"; "COPPER" |]

let name_lexicon =
  [| "green"; "blue"; "red"; "ivory"; "salmon"; "almond"; "antique"; "azure";
     "beige"; "bisque"; "black"; "blanched" |]

let specs =
  [
    ("region", [ ("r_name", Refgen.Perm_string "REGION") ]);
    ("nation", [ ("n_name", Refgen.Perm_string "NATION") ]);
    ( "supplier",
      [
        ("s_acctbal", Refgen.Uniform_int 900);
        ("s_comment", Refgen.Words_string (Refgen.comment_lexicon, 8));
      ] );
    ( "customer",
      [
        ("c_mktsegment", Refgen.Cat_string ("SEGMENT", 5));
        ("c_acctbal", Refgen.Uniform_int 1000);
        ("c_phonecc", Refgen.Uniform_int 25);
      ] );
    ( "part",
      [
        ("p_brand", Refgen.Cat_string ("BRAND", 25));
        ("p_type", Refgen.Words_string (type_lexicon, 3));
        ("p_container", Refgen.Cat_string ("CONTAINER", 40));
        ("p_size", Refgen.Uniform_int 50);
        ("p_name", Refgen.Words_string (name_lexicon, 4));
      ] );
    ( "partsupp",
      [
        ("ps_availqty", Refgen.Uniform_int 1000);
        ("ps_supplycost", Refgen.Uniform_int 1000);
      ] );
    ( "orders",
      [
        ("o_orderdate", Refgen.Date_int 2400);
        ("o_orderpriority", Refgen.Cat_string ("PRIO", 5));
        ("o_orderstatus", Refgen.Cat_string ("STATUS", 3));
        ("o_comment", Refgen.Words_string (Refgen.comment_lexicon, 10));
      ] );
    ( "lineitem",
      [
        ("l_quantity", Refgen.Uniform_int 50);
        ("l_discount", Refgen.Uniform_int 11);
        ("l_shipdate", Refgen.Date_int 2500);
        ("l_commitdate", Refgen.Date_int 2500);
        ("l_receiptdate", Refgen.Date_int 2500);
        ("l_returnflag", Refgen.Cat_string ("FLAG", 3));
        ("l_shipmode", Refgen.Cat_string ("MODE", 7));
        ("l_extendedprice", Refgen.Skewed_int (10000, 1.3));
      ] );
  ]

(* plan helpers *)
let sel s plan = Plan.Select (Parser.pred s, plan)
let t n = Plan.Table n

let j ?(jt = Plan.Inner) pk_table fk_table fk_col left right =
  Plan.Join { jt; pk_table; fk_table; fk_col; left; right }

let q1 =
  (* the real Q1 groups by return flag and aggregates; the group count (3)
     is stable because the domain is preserved, so the AQT stays exact *)
  Plan.Aggregate
    {
      group_by = [ "l_returnflag" ];
      aggs =
        [
          (Plan.Sum, "l_quantity"); (Plan.Sum, "l_extendedprice");
          (Plan.Avg, "l_discount"); (Plan.Count, "l_linekey");
        ];
      input = sel "l_shipdate <= $h1_d" (t "lineitem");
    }

let q2 =
  let parts =
    j "part" "partsupp" "ps_partkey"
      (sel "p_size = $h2_size and p_type like $h2_type" (t "part"))
      (t "partsupp")
  in
  let supps =
    j "nation" "supplier" "s_nationkey"
      (j "region" "nation" "n_regionkey"
         (sel "r_name = $h2_reg" (t "region"))
         (t "nation"))
      (t "supplier")
  in
  j "supplier" "partsupp" "ps_suppkey" supps parts

let q3 =
  j "orders" "lineitem" "l_orderkey"
    (j "customer" "orders" "o_custkey"
       (sel "c_mktsegment = $h3_seg" (t "customer"))
       (sel "o_orderdate < $h3_d" (t "orders")))
    (sel "l_shipdate > $h3_d2" (t "lineitem"))

let q4 =
  j ~jt:Plan.Left_semi "orders" "lineitem" "l_orderkey"
    (sel "o_orderdate >= $h4_dlo and o_orderdate < $h4_dhi" (t "orders"))
    (sel "l_commitdate - l_receiptdate < $h4_z" (t "lineitem"))

let q5 =
  j "orders" "lineitem" "l_orderkey"
    (j "customer" "orders" "o_custkey"
       (j "nation" "customer" "c_nationkey"
          (sel "n_name in $h5_nats" (t "nation"))
          (t "customer"))
       (sel "o_orderdate >= $h5_dlo and o_orderdate < $h5_dhi" (t "orders")))
    (t "lineitem")

let q6 =
  (* global revenue aggregate over the selected rows *)
  Plan.Aggregate
    {
      group_by = [];
      aggs = [ (Plan.Sum, "l_extendedprice") ];
      input =
        sel
          "l_shipdate >= $h6_dlo and l_shipdate < $h6_dhi and l_discount >= $h6_disclo and l_discount <= $h6_dischi and l_quantity < $h6_q"
          (t "lineitem");
    }

let q7 =
  j "supplier" "lineitem" "l_suppkey"
    (j "nation" "supplier" "s_nationkey"
       (sel "n_name in $h7_nats" (t "nation"))
       (t "supplier"))
    (sel "l_shipdate >= $h7_dlo and l_shipdate <= $h7_dhi" (t "lineitem"))

let q8 =
  let orders_side =
    j "orders" "lineitem" "l_orderkey"
      (j "customer" "orders" "o_custkey"
         (j "nation" "customer" "c_nationkey"
            (j "region" "nation" "n_regionkey"
               (sel "r_name = $h8_reg" (t "region"))
               (t "nation"))
            (t "customer"))
         (sel "o_orderdate >= $h8_dlo and o_orderdate <= $h8_dhi" (t "orders")))
      (t "lineitem")
  in
  j "part" "lineitem" "l_partkey" (sel "p_type like $h8_type" (t "part")) orders_side

let q9 =
  let part_side =
    j "part" "lineitem" "l_partkey"
      (sel "p_name like $h9_color" (t "part"))
      (t "lineitem")
  in
  j "supplier" "lineitem" "l_suppkey"
    (j "nation" "supplier" "s_nationkey" (t "nation") (t "supplier"))
    part_side

let q10 =
  j "orders" "lineitem" "l_orderkey"
    (j "customer" "orders" "o_custkey" (t "customer")
       (sel "o_orderdate >= $h10_dlo and o_orderdate < $h10_dhi" (t "orders")))
    (sel "l_returnflag = $h10_flag" (t "lineitem"))

let q11 =
  j "supplier" "partsupp" "ps_suppkey"
    (j "nation" "supplier" "s_nationkey"
       (sel "n_name = $h11_nat" (t "nation"))
       (t "supplier"))
    (sel "ps_supplycost * ps_availqty > $h11_v" (t "partsupp"))

let q12 =
  j "orders" "lineitem" "l_orderkey" (t "orders")
    (sel
       "l_shipmode in $h12_modes and l_commitdate - l_receiptdate < $h12_z and l_receiptdate >= $h12_dlo and l_receiptdate < $h12_dhi"
       (t "lineitem"))

let q13 =
  j ~jt:Plan.Left_outer "customer" "orders" "o_custkey" (t "customer")
    (sel "o_comment not like $h13_pat" (t "orders"))

let q14 =
  j "part" "lineitem" "l_partkey" (t "part")
    (sel "l_shipdate >= $h14_dlo and l_shipdate < $h14_dhi" (t "lineitem"))

let q15 =
  j "supplier" "lineitem" "l_suppkey" (t "supplier")
    (sel "l_shipdate >= $h15_dlo and l_shipdate < $h15_dhi" (t "lineitem"))

let q16 =
  Plan.Project
    {
      cols = [ "ps_suppkey" ];
      input =
        j "part" "partsupp" "ps_partkey"
          (sel "p_brand <> $h16_brand and p_type not like $h16_type and p_size in $h16_sizes"
             (t "part"))
          (t "partsupp");
    }

let q17 =
  j ~jt:Plan.Left_semi "part" "lineitem" "l_partkey"
    (sel "p_brand = $h17_brand and p_container = $h17_cont" (t "part"))
    (sel "l_quantity < $h17_q" (t "lineitem"))

let q18 =
  j "customer" "orders" "o_custkey" (t "customer")
    (j ~jt:Plan.Left_semi "orders" "lineitem" "l_orderkey" (t "orders")
       (sel "l_quantity > $h18_q" (t "lineitem")))

let q19 =
  sel "(p_brand = $h19_brand or l_quantity <= $h19_q) and l_shipmode in $h19_modes"
    (j "part" "lineitem" "l_partkey" (t "part") (t "lineitem"))

let q20 =
  j ~jt:Plan.Left_semi "supplier" "partsupp" "ps_suppkey"
    (j "nation" "supplier" "s_nationkey"
       (sel "n_name = $h20_nat" (t "nation"))
       (t "supplier"))
    (j "part" "partsupp" "ps_partkey"
       (sel "p_name like $h20_col" (t "part"))
       (sel "ps_availqty > $h20_qty" (t "partsupp")))

let q21 =
  j "supplier" "lineitem" "l_suppkey"
    (j "nation" "supplier" "s_nationkey"
       (sel "n_name = $h21_nat" (t "nation"))
       (t "supplier"))
    (j ~jt:Plan.Right_anti "orders" "lineitem" "l_orderkey"
       (sel "o_orderstatus = $h21_st" (t "orders"))
       (sel "l_receiptdate - l_commitdate > $h21_z" (t "lineitem")))

let q22 =
  j ~jt:Plan.Left_anti "customer" "orders" "o_custkey"
    (sel "c_phonecc in $h22_ccs and c_acctbal > $h22_bal" (t "customer"))
    (t "orders")

let scalar v = Pred.Env.Scalar v
let vlist vs = Pred.Env.Vlist vs
let int n = scalar (Value.Int n)
let str s = scalar (Value.Str s)
let nat n = Value.Str (Printf.sprintf "NATION#%05d" n)

let prod_env =
  Pred.Env.of_list
    [
      ("h1_d", int 2380);
      ("h2_size", int 15);
      ("h2_type", str "%BRASS");
      ("h2_reg", str "REGION#00003");
      ("h3_seg", str "SEGMENT#00002");
      ("h3_d", int 1200);
      ("h3_d2", int 1200);
      ("h4_dlo", int 800);
      ("h4_dhi", int 892);
      ("h4_z", scalar (Value.Float 0.0));
      ("h5_nats", vlist [ nat 1; nat 5; nat 9; nat 13; nat 17 ]);
      ("h5_dlo", int 400);
      ("h5_dhi", int 765);
      ("h6_dlo", int 400);
      ("h6_dhi", int 765);
      ("h6_disclo", int 3);
      ("h6_dischi", int 5);
      ("h6_q", int 24);
      ("h7_nats", vlist [ nat 4; nat 10 ]);
      ("h7_dlo", int 900);
      ("h7_dhi", int 1630);
      ("h8_reg", str "REGION#00002");
      ("h8_dlo", int 1100);
      ("h8_dhi", int 1830);
      ("h8_type", str "%STEEL");
      ("h9_color", str "%green%");
      ("h10_dlo", int 600);
      ("h10_dhi", int 692);
      ("h10_flag", str "FLAG#00002");
      ("h11_nat", nat 7 |> scalar);
      ("h11_v", scalar (Value.Float 400000.0));
      ("h12_modes", vlist [ Value.Str "MODE#00003"; Value.Str "MODE#00005" ]);
      ("h12_z", scalar (Value.Float 0.0));
      ("h12_dlo", int 1000);
      ("h12_dhi", int 1365);
      ("h13_pat", str "%special%requests%");
      ("h14_dlo", int 1400);
      ("h14_dhi", int 1430);
      ("h15_dlo", int 1500);
      ("h15_dhi", int 1591);
      ("h16_brand", str "BRAND#00015");
      ("h16_type", str "MEDIUM POLISHED%");
      ("h16_sizes", vlist (List.map (fun n -> Value.Int n) [ 3; 9; 14; 19; 23; 36; 45; 49 ]));
      ("h17_brand", str "BRAND#00023");
      ("h17_cont", str "CONTAINER#00017");
      ("h17_q", int 5);
      ("h18_q", int 47);
      ("h19_brand", str "BRAND#00012");
      ("h19_q", int 10);
      ("h19_modes", vlist [ Value.Str "MODE#00001"; Value.Str "MODE#00004" ]);
      ("h20_nat", nat 12 |> scalar);
      ("h20_col", str "%ivory%");
      ("h20_qty", int 500);
      ("h21_nat", nat 3 |> scalar);
      ("h21_st", str "STATUS#00002");
      ("h21_z", scalar (Value.Float 0.0));
      ("h22_ccs", vlist (List.map (fun n -> Value.Int n) [ 3; 6; 9; 12; 17; 20; 23 ]));
      ("h22_bal", int 500);
    ]

let queries =
  [
    ("tpch_q1", q1); ("tpch_q2", q2); ("tpch_q3", q3); ("tpch_q4", q4);
    ("tpch_q5", q5); ("tpch_q6", q6); ("tpch_q7", q7); ("tpch_q8", q8);
    ("tpch_q9", q9); ("tpch_q10", q10); ("tpch_q11", q11); ("tpch_q12", q12);
    ("tpch_q13", q13); ("tpch_q14", q14); ("tpch_q15", q15); ("tpch_q16", q16);
    ("tpch_q17", q17); ("tpch_q18", q18); ("tpch_q19", q19); ("tpch_q20", q20);
    ("tpch_q21", q21); ("tpch_q22", q22);
  ]

let make ~sf ~seed =
  let schema = schema ~sf in
  let workload =
    Workload.make schema
      (List.map (fun (n, p) -> { Workload.q_name = n; q_plan = p }) queries)
  in
  let ref_db = Refgen.build ~seed schema ~specs in
  (workload, ref_db, prod_env)
