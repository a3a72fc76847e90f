module Pred = Mirage_sql.Pred
module Plan = Mirage_relalg.Plan

type scc = {
  scc_table : string;
  scc_pred : Pred.t;
  scc_rows : int;
  scc_source : string;
}

type ucc = {
  ucc_table : string;
  ucc_col : string;
  ucc_lit : Pred.literal;
  ucc_rows : int;
  ucc_source : string;
}

type acc = {
  acc_table : string;
  acc_expr : Pred.arith;
  acc_cmp : Pred.cmp;
  acc_param : string;
  acc_rows : int;
  acc_source : string;
}

type bound_rows = {
  br_table : string;
  br_cells : (string * string) list;
  br_rows : int;
  br_source : string;
}

type child_view =
  | Cv_full of string
  | Cv_select of { cv_table : string; cv_pred : Pred.t }
  | Cv_subplan of { cv_plan : Plan.t; cv_table : string }

type edge = { e_pk_table : string; e_fk_table : string; e_fk_col : string }

type join_constraint = {
  jc_edge : edge;
  jc_left : child_view;
  jc_right : child_view;
  jc_jcc : int option;
  jc_jdc : int option;
  jc_source : string;
}

type t = {
  sccs : scc list;
  joins : join_constraint list;
  table_cards : (string * int) list;
  column_cards : ((string * string) * int) list;
  param_elements : (string * (Mirage_sql.Value.t * int) list) list;
}

let pp_child_view ppf = function
  | Cv_full t -> Fmt.pf ppf "%s" t
  | Cv_select { cv_table; cv_pred } ->
      Fmt.pf ppf "σ[%a](%s)" Pred.pp cv_pred cv_table
  | Cv_subplan { cv_table; _ } -> Fmt.pf ppf "⟨subplan⟩→%s" cv_table

let pp_join_constraint ppf jc =
  Fmt.pf ppf "%s: %a ⋈ %a on %s.%s jcc=%a jdc=%a" jc.jc_source pp_child_view
    jc.jc_left pp_child_view jc.jc_right jc.jc_edge.e_fk_table
    jc.jc_edge.e_fk_col
    Fmt.(option ~none:(any "-") int)
    jc.jc_jcc
    Fmt.(option ~none:(any "-") int)
    jc.jc_jdc

let pp ppf t =
  Fmt.pf ppf "tables:@.";
  List.iter (fun (n, c) -> Fmt.pf ppf "  |%s| = %d@." n c) t.table_cards;
  Fmt.pf ppf "selections:@.";
  List.iter
    (fun s ->
      Fmt.pf ppf "  %s: |σ[%a](%s)| = %d@." s.scc_source Pred.pp s.scc_pred
        s.scc_table s.scc_rows)
    t.sccs;
  Fmt.pf ppf "joins:@.";
  List.iter (fun jc -> Fmt.pf ppf "  %a@." pp_join_constraint jc) t.joins
