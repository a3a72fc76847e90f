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
        Schema.tname = "dd";
        pk = "d_datekey";
        nonkeys =
          [ col "d_year" 6 Schema.Kint; col "d_moy" 12 Schema.Kint; col "d_qoy" 4 Schema.Kint ];
        fks = [];
        row_count = 500;
      };
      {
        Schema.tname = "it";
        pk = "i_itemkey";
        nonkeys =
          [
            col "i_category" 10 Schema.Kstring;
            col "i_brand" 100 Schema.Kstring;
            col "i_class" 50 Schema.Kstring;
            col "i_color" 40 Schema.Kstring;
          ];
        fks = [];
        row_count = scale sf 1000;
      };
      {
        Schema.tname = "ca";
        pk = "ca_addrkey";
        nonkeys = [ col "ca_state" 50 Schema.Kstring; col "ca_gmt" 10 Schema.Kint ];
        fks = [];
        row_count = scale sf 800;
      };
      {
        Schema.tname = "cu";
        pk = "cu_custkey";
        nonkeys =
          [
            col "cu_gender" 2 Schema.Kstring;
            col "cu_education" 7 Schema.Kstring;
            col "cu_credit" 4 Schema.Kstring;
            col "cu_income" 1000 Schema.Kint;
          ];
        fks = [ fk "cu_addrkey" "ca" ];
        row_count = scale sf 2000;
      };
      {
        Schema.tname = "st";
        pk = "st_storekey";
        nonkeys = [ col "st_state" 30 Schema.Kstring; col "st_size" 900 Schema.Kint ];
        fks = [];
        row_count = scale sf 100;
      };
      {
        Schema.tname = "wh";
        pk = "wh_whkey";
        nonkeys = [ col "wh_state" 30 Schema.Kstring ];
        fks = [];
        row_count = scale sf 50;
      };
      {
        Schema.tname = "ss";
        pk = "ss_salekey";
        nonkeys =
          [
            col "ss_quantity" 100 Schema.Kint;
            col "ss_price" 1000 Schema.Kint;
            col "ss_discount" 100 Schema.Kint;
          ];
        fks =
          [
            fk "ss_datekey" "dd"; fk "ss_itemkey" "it"; fk "ss_custkey" "cu";
            fk "ss_storekey" "st";
          ];
        row_count = scale sf 20000;
      };
      {
        Schema.tname = "cs";
        pk = "cs_salekey";
        nonkeys = [ col "cs_quantity" 100 Schema.Kint; col "cs_price" 1000 Schema.Kint ];
        fks =
          [
            fk "cs_datekey" "dd"; fk "cs_itemkey" "it"; fk "cs_custkey" "cu";
            fk "cs_whkey" "wh";
          ];
        row_count = scale sf 12000;
      };
      {
        Schema.tname = "ws";
        pk = "ws_salekey";
        nonkeys = [ col "ws_quantity" 100 Schema.Kint; col "ws_price" 1000 Schema.Kint ];
        fks = [ fk "ws_datekey" "dd"; fk "ws_itemkey" "it"; fk "ws_custkey" "cu" ];
        row_count = scale sf 8000;
      };
    ]

let specs =
  [
    ( "it",
      [
        ("i_category", Refgen.Cat_string ("CATEGORY", 10));
        ("i_brand", Refgen.Cat_string ("BRAND", 100));
        ("i_class", Refgen.Cat_string ("CLASS", 50));
        ("i_color", Refgen.Cat_string ("COLOR", 40));
      ] );
    ("ca", [ ("ca_state", Refgen.Cat_string ("STATE", 50)) ]);
    ( "cu",
      [
        ("cu_gender", Refgen.Cat_string ("GENDER", 2));
        ("cu_education", Refgen.Cat_string ("EDU", 7));
        ("cu_credit", Refgen.Cat_string ("CREDIT", 4));
        ("cu_income", Refgen.Uniform_int 1000);
      ] );
    ("st", [ ("st_state", Refgen.Cat_string ("STATE", 30)) ]);
    ("wh", [ ("wh_state", Refgen.Cat_string ("STATE", 30)) ]);
  ]

let sel s plan = Plan.Select (Parser.pred s, plan)
let t n = Plan.Table n

let j pk_table fk_table fk_col left right =
  Plan.Join { jt = Plan.Inner; pk_table; fk_table; fk_col; left; right }

let cat pfx n = Value.Str (Printf.sprintf "%s#%05d" pfx n)
let scalar v = Pred.Env.Scalar v
let vlist vs = Pred.Env.Vlist vs
let int n = scalar (Value.Int n)

(* One family = a plan builder over a parameter prefix, plus the production
   bindings for instance [inst] (1..5). *)
type family = {
  fam_id : int;
  build : string -> Plan.t;  (** prefix -> plan *)
  bindings : string -> int -> (string * Pred.Env.binding) list;
}

let families : family list =
  [
    {
      fam_id = 1;
      build =
        (fun p ->
          j "dd" "ss" "ss_datekey"
            (sel (Printf.sprintf "d_year = $%s_y" p) (t "dd"))
            (sel (Printf.sprintf "ss_quantity < $%s_q" p) (t "ss")));
      bindings =
        (fun p inst -> [ (p ^ "_y", int (1 + (inst mod 6))); (p ^ "_q", int (20 + (10 * inst))) ]);
    };
    {
      fam_id = 2;
      build =
        (fun p ->
          j "it" "ss" "ss_itemkey"
            (sel (Printf.sprintf "i_category = $%s_c" p) (t "it"))
            (j "dd" "ss" "ss_datekey"
               (sel (Printf.sprintf "d_year = $%s_y" p) (t "dd"))
               (t "ss")));
      bindings =
        (fun p inst ->
          [
            (p ^ "_c", scalar (cat "CATEGORY" (1 + (inst mod 10))));
            (p ^ "_y", int (1 + (inst mod 6)));
          ]);
    };
    {
      fam_id = 3;
      build =
        (fun p ->
          j "cu" "ss" "ss_custkey"
            (j "ca" "cu" "cu_addrkey"
               (sel (Printf.sprintf "ca_state in $%s_st" p) (t "ca"))
               (sel (Printf.sprintf "cu_gender = $%s_g" p) (t "cu")))
            (t "ss"));
      bindings =
        (fun p inst ->
          [
            (p ^ "_st", vlist [ cat "STATE" inst; cat "STATE" (inst + 10) ]);
            (p ^ "_g", scalar (cat "GENDER" (1 + (inst mod 2))));
          ]);
    };
    {
      fam_id = 4;
      build =
        (fun p ->
          j "st" "ss" "ss_storekey"
            (sel (Printf.sprintf "st_state = $%s_s" p) (t "st"))
            (sel (Printf.sprintf "ss_discount >= $%s_dlo and ss_discount <= $%s_dhi" p p)
               (t "ss")));
      bindings =
        (fun p inst ->
          [
            (p ^ "_s", scalar (cat "STATE" (1 + (2 * inst))));
            (p ^ "_dlo", int (10 * inst));
            (p ^ "_dhi", int ((10 * inst) + 20));
          ]);
    };
    {
      (* disjunctive fact filter *)
      fam_id = 5;
      build =
        (fun p ->
          j "dd" "ss" "ss_datekey"
            (sel (Printf.sprintf "d_year = $%s_y" p) (t "dd"))
            (sel (Printf.sprintf "ss_quantity < $%s_q or ss_price > $%s_p" p p) (t "ss")));
      bindings =
        (fun p inst ->
          [
            (p ^ "_y", int (1 + (inst mod 6)));
            (p ^ "_q", int (5 + (5 * inst)));
            (p ^ "_p", int (900 - (20 * inst)));
          ]);
    };
    {
      (* disjunctive dimension filter *)
      fam_id = 6;
      build =
        (fun p ->
          j "wh" "cs" "cs_whkey"
            (sel (Printf.sprintf "wh_state in $%s_w" p) (t "wh"))
            (j "dd" "cs" "cs_datekey"
               (sel (Printf.sprintf "d_qoy = $%s_q or d_moy >= $%s_m" p p) (t "dd"))
               (t "cs")));
      bindings =
        (fun p inst ->
          [
            (p ^ "_w", vlist [ cat "STATE" inst; cat "STATE" (inst + 5) ]);
            (p ^ "_q", int (1 + (inst mod 4)));
            (p ^ "_m", int (1 + (inst mod 12)));
          ]);
    };
    {
      fam_id = 7;
      build =
        (fun p ->
          j "it" "cs" "cs_itemkey"
            (sel (Printf.sprintf "i_brand = $%s_b" p) (t "it"))
            (t "cs"));
      bindings = (fun p inst -> [ (p ^ "_b", scalar (cat "BRAND" (7 * inst))) ]);
    };
    {
      fam_id = 8;
      build =
        (fun p ->
          j "cu" "cs" "cs_custkey"
            (sel (Printf.sprintf "cu_education = $%s_e" p) (t "cu"))
            (sel (Printf.sprintf "cs_quantity > $%s_q or cs_price < $%s_p" p p) (t "cs")));
      bindings =
        (fun p inst ->
          [
            (p ^ "_e", scalar (cat "EDU" (1 + (inst mod 7))));
            (p ^ "_q", int (90 - (5 * inst)));
            (p ^ "_p", int (50 + (20 * inst)));
          ]);
    };
    {
      fam_id = 9;
      build =
        (fun p ->
          j "dd" "ws" "ws_datekey"
            (sel (Printf.sprintf "d_year >= $%s_ylo and d_year <= $%s_yhi" p p) (t "dd"))
            (t "ws"));
      bindings =
        (fun p inst -> [ (p ^ "_ylo", int (1 + (inst mod 3))); (p ^ "_yhi", int (3 + (inst mod 3))) ]);
    };
    {
      fam_id = 10;
      build =
        (fun p ->
          j "it" "ws" "ws_itemkey"
            (sel (Printf.sprintf "i_color in $%s_c or i_class = $%s_k" p p) (t "it"))
            (t "ws"));
      bindings =
        (fun p inst ->
          [
            (p ^ "_c", vlist [ cat "COLOR" inst; cat "COLOR" (inst + 20) ]);
            (p ^ "_k", scalar (cat "CLASS" (3 * inst)));
          ]);
    };
    {
      fam_id = 11;
      build =
        (fun p ->
          j "cu" "ws" "ws_custkey"
            (sel (Printf.sprintf "cu_credit = $%s_c or cu_income > $%s_i" p p) (t "cu"))
            (sel (Printf.sprintf "ws_quantity <= $%s_q" p) (t "ws")));
      bindings =
        (fun p inst ->
          [
            (p ^ "_c", scalar (cat "CREDIT" (1 + (inst mod 4))));
            (p ^ "_i", int (600 + (50 * inst)));
            (p ^ "_q", int (30 + (10 * inst)));
          ]);
    };
    {
      fam_id = 12;
      build =
        (fun p ->
          j "st" "ss" "ss_storekey"
            (sel (Printf.sprintf "st_size > $%s_z" p) (t "st"))
            (j "it" "ss" "ss_itemkey"
               (sel (Printf.sprintf "i_category = $%s_c" p) (t "it"))
               (j "dd" "ss" "ss_datekey"
                  (sel (Printf.sprintf "d_year = $%s_y" p) (t "dd"))
                  (t "ss"))));
      bindings =
        (fun p inst ->
          [
            (p ^ "_z", int (100 * inst));
            (p ^ "_c", scalar (cat "CATEGORY" (1 + (inst mod 10))));
            (p ^ "_y", int (1 + (inst mod 6)));
          ]);
    };
    {
      fam_id = 13;
      build =
        (fun p ->
          j "it" "ss" "ss_itemkey"
            (sel (Printf.sprintf "i_brand = $%s_b2 or i_class = $%s_k" p p) (t "it"))
            (t "ss"));
      bindings =
        (fun p inst ->
          [
            (p ^ "_b2", scalar (cat "BRAND" (11 * inst)));
            (p ^ "_k", scalar (cat "CLASS" (5 * inst)));
          ]);
    };
    {
      fam_id = 14;
      build =
        (fun p ->
          j "cu" "cs" "cs_custkey"
            (j "ca" "cu" "cu_addrkey"
               (sel (Printf.sprintf "ca_gmt >= $%s_glo and ca_gmt <= $%s_ghi" p p) (t "ca"))
               (t "cu"))
            (sel (Printf.sprintf "cs_price >= $%s_plo" p) (t "cs")));
      bindings =
        (fun p inst ->
          [
            (p ^ "_glo", int (1 + (inst mod 5)));
            (p ^ "_ghi", int (5 + (inst mod 5)));
            (p ^ "_plo", int (100 * inst));
          ]);
    };
    {
      fam_id = 15;
      build =
        (fun p ->
          j "dd" "ss" "ss_datekey"
            (sel (Printf.sprintf "d_moy <= $%s_m or d_qoy = $%s_q" p p) (t "dd"))
            (t "ss"));
      bindings =
        (fun p inst ->
          [ (p ^ "_m", int (1 + (inst mod 12))); (p ^ "_q", int (1 + (inst mod 4))) ]);
    };
    {
      fam_id = 16;
      build =
        (fun p ->
          j "cu" "ws" "ws_custkey"
            (sel (Printf.sprintf "cu_credit = $%s_c" p) (t "cu"))
            (sel (Printf.sprintf "ws_quantity >= $%s_qlo or ws_price >= $%s_plo" p p)
               (t "ws")));
      bindings =
        (fun p inst ->
          [
            (p ^ "_c", scalar (cat "CREDIT" (1 + (inst mod 4))));
            (p ^ "_qlo", int (40 + (10 * inst)));
            (p ^ "_plo", int (800 - (30 * inst)));
          ]);
    };
    {
      fam_id = 17;
      build =
        (fun p ->
          j "st" "ss" "ss_storekey"
            (sel (Printf.sprintf "st_state = $%s_s or st_size > $%s_z" p p) (t "st"))
            (t "ss"));
      bindings =
        (fun p inst ->
          [
            (p ^ "_s", scalar (cat "STATE" (1 + (3 * inst))));
            (p ^ "_z", int (850 - (50 * inst)));
          ]);
    };
    {
      fam_id = 18;
      build =
        (fun p ->
          j "dd" "cs" "cs_datekey"
            (sel (Printf.sprintf "d_year = $%s_y" p) (t "dd"))
            (sel (Printf.sprintf "cs_price >= $%s_plo and cs_price <= $%s_phi" p p)
               (t "cs")));
      bindings =
        (fun p inst ->
          [
            (p ^ "_y", int (1 + (inst mod 6)));
            (p ^ "_plo", int (100 * inst));
            (p ^ "_phi", int ((100 * inst) + 300));
          ]);
    };
    {
      fam_id = 19;
      build =
        (fun p ->
          j "cu" "ss" "ss_custkey"
            (j "ca" "cu" "cu_addrkey"
               (sel (Printf.sprintf "ca_state = $%s_s or ca_gmt = $%s_g" p p) (t "ca"))
               (t "cu"))
            (t "ss"));
      bindings =
        (fun p inst ->
          [
            (p ^ "_s", scalar (cat "STATE" (4 * inst)));
            (p ^ "_g", int (1 + (inst mod 10)));
          ]);
    };
    {
      fam_id = 20;
      build =
        (fun p ->
          j "it" "cs" "cs_itemkey"
            (sel (Printf.sprintf "i_brand = $%s_b or i_color in $%s_c" p p) (t "it"))
            (t "cs"));
      bindings =
        (fun p inst ->
          [
            (p ^ "_b", scalar (cat "BRAND" (9 * inst)));
            (p ^ "_c", vlist [ cat "COLOR" (2 * inst); cat "COLOR" ((2 * inst) + 1) ]);
          ]);
    };
  ]

let instances = 5

let queries_and_env () =
  let queries = ref [] and env = ref Pred.Env.empty in
  List.iter
    (fun fam ->
      for inst = 1 to instances do
        let prefix = Printf.sprintf "f%02di%d" fam.fam_id inst in
        let name = Printf.sprintf "tpcds_q%02d.%d" fam.fam_id inst in
        queries := { Workload.q_name = name; q_plan = fam.build prefix } :: !queries;
        List.iter (fun (p, b) -> env := Pred.Env.add p b !env) (fam.bindings prefix inst)
      done)
    families;
  (List.rev !queries, !env)

let make ~sf ~seed =
  let schema = schema ~sf in
  let queries, prod_env = queries_and_env () in
  let workload = Workload.make schema queries in
  let ref_db = Refgen.build ~seed schema ~specs in
  (workload, ref_db, prod_env)
