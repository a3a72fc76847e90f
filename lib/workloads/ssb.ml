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
        Schema.tname = "ddate";
        pk = "d_datekey";
        nonkeys =
          [
            col "d_year" 7 Schema.Kint;
            col "d_yearmonthnum" 84 Schema.Kint;
            col "d_weeknuminyear" 53 Schema.Kint;
            col "d_sellingseason" 5 Schema.Kstring;
          ];
        fks = [];
        row_count = 400;
      };
      {
        Schema.tname = "customer";
        pk = "c_custkey";
        nonkeys =
          [
            col "c_region" 5 Schema.Kstring;
            col "c_nation" 25 Schema.Kstring;
            col "c_city" 50 Schema.Kstring;
            col "c_mktsegment" 5 Schema.Kstring;
          ];
        fks = [];
        row_count = scale sf 600;
      };
      {
        Schema.tname = "supplier";
        pk = "s_suppkey";
        nonkeys =
          [
            col "s_region" 5 Schema.Kstring;
            col "s_nation" 25 Schema.Kstring;
            col "s_city" 50 Schema.Kstring;
          ];
        fks = [];
        row_count = scale sf 200;
      };
      {
        Schema.tname = "part";
        pk = "p_partkey";
        nonkeys =
          [
            col "p_mfgr" 5 Schema.Kstring;
            col "p_category" 25 Schema.Kstring;
            col "p_brand1" 250 Schema.Kstring;
          ];
        fks = [];
        row_count = scale sf 500;
      };
      {
        Schema.tname = "lineorder";
        pk = "lo_orderkey";
        nonkeys =
          [
            col "lo_quantity" 50 Schema.Kint;
            col "lo_discount" 11 Schema.Kint;
            col "lo_extendedprice" 1000 Schema.Kint;
            col "lo_revenue" 1000 Schema.Kint;
          ];
        fks =
          [
            fk "lo_custkey" "customer";
            fk "lo_suppkey" "supplier";
            fk "lo_partkey" "part";
            fk "lo_orderdate" "ddate";
          ];
        row_count = scale sf 6000;
      };
    ]

let specs =
  [
    ( "ddate",
      [
        ("d_sellingseason", Refgen.Cat_string ("SEASON", 5));
      ] );
    ( "customer",
      [
        ("c_region", Refgen.Cat_string ("REGION", 5));
        ("c_nation", Refgen.Cat_string ("NATION", 25));
        ("c_city", Refgen.Cat_string ("CITY", 50));
        ("c_mktsegment", Refgen.Cat_string ("SEGMENT", 5));
      ] );
    ( "supplier",
      [
        ("s_region", Refgen.Cat_string ("REGION", 5));
        ("s_nation", Refgen.Cat_string ("NATION", 25));
        ("s_city", Refgen.Cat_string ("CITY", 50));
      ] );
    ( "part",
      [
        ("p_mfgr", Refgen.Cat_string ("MFGR", 5));
        ("p_category", Refgen.Cat_string ("CAT", 25));
        ("p_brand1", Refgen.Cat_string ("BRAND", 250));
      ] );
    ( "lineorder",
      [
        ("lo_quantity", Refgen.Uniform_int 50);
        ("lo_discount", Refgen.Uniform_int 11);
        ("lo_extendedprice", Refgen.Skewed_int (1000, 1.5));
        ("lo_revenue", Refgen.Skewed_int (1000, 1.5));
      ] );
  ]

(* plan helpers *)
let sel s plan = Plan.Select (Parser.pred s, plan)
let t n = Plan.Table n

let join ?(jt = Plan.Inner) pk_table fk_col left right =
  Plan.Join { jt; pk_table; fk_table = "lineorder"; fk_col; left; right }

let cat n = Value.Str (Printf.sprintf "CAT#%05d" n)
let reg n = Value.Str (Printf.sprintf "REGION#%05d" n)
let nat n = Value.Str (Printf.sprintf "NATION#%05d" n)
let city n = Value.Str (Printf.sprintf "CITY#%05d" n)
let brand n = Value.Str (Printf.sprintf "BRAND#%05d" n)
let mfgr n = Value.Str (Printf.sprintf "MFGR#%05d" n)

let scalar v = Pred.Env.Scalar v
let vlist vs = Pred.Env.Vlist vs
let int n = scalar (Value.Int n)

(* Flight 1: lineorder ⋈ ddate with quantity/discount filters. *)
let q1_1 =
  join "ddate" "lo_orderdate"
    (sel "d_year = $s11_year" (t "ddate"))
    (sel "lo_discount >= $s11_dlo and lo_discount <= $s11_dhi and lo_quantity < $s11_q"
       (t "lineorder"))

let q1_2 =
  join "ddate" "lo_orderdate"
    (sel "d_yearmonthnum = $s12_ym" (t "ddate"))
    (sel
       "lo_discount >= $s12_dlo and lo_discount <= $s12_dhi and lo_quantity >= $s12_qlo and lo_quantity <= $s12_qhi"
       (t "lineorder"))

let q1_3 =
  join "ddate" "lo_orderdate"
    (sel "d_weeknuminyear = $s13_wk and d_year = $s13_year" (t "ddate"))
    (sel
       "lo_discount >= $s13_dlo and lo_discount <= $s13_dhi and lo_quantity >= $s13_qlo and lo_quantity <= $s13_qhi"
       (t "lineorder"))

(* Flight 2: part and supplier dimensions. *)
let flight2 ~part_pred ~supp_pred =
  let j1 = join "ddate" "lo_orderdate" (t "ddate") (t "lineorder") in
  let j2 = join "supplier" "lo_suppkey" (sel supp_pred (t "supplier")) j1 in
  join "part" "lo_partkey" (sel part_pred (t "part")) j2

let q2_1 = flight2 ~part_pred:"p_category = $s21_cat" ~supp_pred:"s_region = $s21_reg"

let q2_2 =
  flight2
    ~part_pred:"p_brand1 >= $s22_blo and p_brand1 <= $s22_bhi"
    ~supp_pred:"s_region = $s22_reg"

let q2_3 = flight2 ~part_pred:"p_brand1 = $s23_b" ~supp_pred:"s_region = $s23_reg"

(* Flight 3: customer and supplier with date ranges. *)
let flight3 ~cust_pred ~supp_pred ~date_pred =
  let j1 = join "ddate" "lo_orderdate" (sel date_pred (t "ddate")) (t "lineorder") in
  let j2 = join "supplier" "lo_suppkey" (sel supp_pred (t "supplier")) j1 in
  join "customer" "lo_custkey" (sel cust_pred (t "customer")) j2

let q3_1 =
  flight3 ~cust_pred:"c_region = $s31_creg" ~supp_pred:"s_region = $s31_sreg"
    ~date_pred:"d_year >= $s31_ylo and d_year <= $s31_yhi"

let q3_2 =
  flight3 ~cust_pred:"c_nation = $s32_cnat" ~supp_pred:"s_nation = $s32_snat"
    ~date_pred:"d_year >= $s32_ylo and d_year <= $s32_yhi"

let q3_3 =
  flight3 ~cust_pred:"c_city in $s33_ccity" ~supp_pred:"s_city in $s33_scity"
    ~date_pred:"d_year >= $s33_ylo and d_year <= $s33_yhi"

let q3_4 =
  flight3 ~cust_pred:"c_city in $s34_ccity" ~supp_pred:"s_city in $s34_scity"
    ~date_pred:"d_yearmonthnum = $s34_ym"

(* Flight 4: all four dimensions. *)
let flight4 ~cust_pred ~supp_pred ~part_pred ~date_pred =
  let j1 = join "ddate" "lo_orderdate" (sel date_pred (t "ddate")) (t "lineorder") in
  let j2 = join "supplier" "lo_suppkey" (sel supp_pred (t "supplier")) j1 in
  let j3 = join "customer" "lo_custkey" (sel cust_pred (t "customer")) j2 in
  join "part" "lo_partkey" (sel part_pred (t "part")) j3

let q4_1 =
  flight4 ~cust_pred:"c_region = $s41_creg" ~supp_pred:"s_region = $s41_sreg"
    ~part_pred:"p_mfgr in $s41_mfgr" ~date_pred:"d_year >= $s41_ylo"

let q4_2 =
  flight4 ~cust_pred:"c_region = $s42_creg" ~supp_pred:"s_region = $s42_sreg"
    ~part_pred:"p_mfgr in $s42_mfgr"
    ~date_pred:"d_year >= $s42_ylo and d_year <= $s42_yhi"

let q4_3 =
  flight4 ~cust_pred:"c_region = $s43_creg" ~supp_pred:"s_nation = $s43_snat"
    ~part_pred:"p_category = $s43_cat"
    ~date_pred:"d_year >= $s43_ylo and d_year <= $s43_yhi"

let prod_env =
  Pred.Env.of_list
    [
      ("s11_year", int 3);
      ("s11_dlo", int 2);
      ("s11_dhi", int 4);
      ("s11_q", int 25);
      ("s12_ym", int 23);
      ("s12_dlo", int 4);
      ("s12_dhi", int 6);
      ("s12_qlo", int 26);
      ("s12_qhi", int 35);
      ("s13_wk", int 6);
      ("s13_year", int 3);
      ("s13_dlo", int 5);
      ("s13_dhi", int 7);
      ("s13_qlo", int 26);
      ("s13_qhi", int 35);
      ("s21_cat", scalar (cat 12));
      ("s21_reg", scalar (reg 2));
      ("s22_blo", scalar (brand 60));
      ("s22_bhi", scalar (brand 68));
      ("s22_reg", scalar (reg 3));
      ("s23_b", scalar (brand 140));
      ("s23_reg", scalar (reg 4));
      ("s31_creg", scalar (reg 2));
      ("s31_sreg", scalar (reg 2));
      ("s31_ylo", int 2);
      ("s31_yhi", int 6);
      ("s32_cnat", scalar (nat 10));
      ("s32_snat", scalar (nat 10));
      ("s32_ylo", int 2);
      ("s32_yhi", int 6);
      ("s33_ccity", vlist [ city 11; city 15 ]);
      ("s33_scity", vlist [ city 11; city 15 ]);
      ("s33_ylo", int 2);
      ("s33_yhi", int 6);
      ("s34_ccity", vlist [ city 11; city 15 ]);
      ("s34_scity", vlist [ city 11; city 15 ]);
      ("s34_ym", int 42);
      ("s41_creg", scalar (reg 1));
      ("s41_sreg", scalar (reg 1));
      ("s41_mfgr", vlist [ mfgr 1; mfgr 2 ]);
      ("s41_ylo", int 2);
      ("s42_creg", scalar (reg 1));
      ("s42_sreg", scalar (reg 1));
      ("s42_mfgr", vlist [ mfgr 1; mfgr 2 ]);
      ("s42_ylo", int 5);
      ("s42_yhi", int 6);
      ("s43_creg", scalar (reg 1));
      ("s43_snat", scalar (nat 20));
      ("s43_cat", scalar (cat 3));
      ("s43_ylo", int 5);
      ("s43_yhi", int 6);
    ]

let queries =
  [
    ("ssb_q1.1", q1_1);
    ("ssb_q1.2", q1_2);
    ("ssb_q1.3", q1_3);
    ("ssb_q2.1", q2_1);
    ("ssb_q2.2", q2_2);
    ("ssb_q2.3", q2_3);
    ("ssb_q3.1", q3_1);
    ("ssb_q3.2", q3_2);
    ("ssb_q3.3", q3_3);
    ("ssb_q3.4", q3_4);
    ("ssb_q4.1", q4_1);
    ("ssb_q4.2", q4_2);
    ("ssb_q4.3", q4_3);
  ]

let make ~sf ~seed =
  let schema = schema ~sf in
  let workload =
    Workload.make schema
      (List.map (fun (n, p) -> { Workload.q_name = n; q_plan = p }) queries)
  in
  let ref_db = Refgen.build ~seed schema ~specs in
  (workload, ref_db, prod_env)
