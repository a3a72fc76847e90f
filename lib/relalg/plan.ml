module Pred = Mirage_sql.Pred
module Schema = Mirage_sql.Schema

type agg_fn = Count | Sum | Avg | Min | Max

type join_type =
  | Inner
  | Left_outer
  | Right_outer
  | Full_outer
  | Left_semi
  | Right_semi
  | Left_anti
  | Right_anti

type t =
  | Table of string
  | Select of Pred.t * t
  | Join of {
      jt : join_type;
      pk_table : string;
      fk_table : string;
      fk_col : string;
      left : t;
      right : t;
    }
  | Project of { cols : string list; input : t }
  | Aggregate of {
      group_by : string list;
      aggs : (agg_fn * string) list;
      input : t;
    }

let rec preorder p =
  p
  ::
  (match p with
  | Table _ -> []
  | Select (_, q) | Project { input = q; _ } | Aggregate { input = q; _ } ->
      preorder q
  | Join { left; right; _ } -> preorder left @ preorder right)

let size p = List.length (preorder p)

let join_type_label = function
  | Inner -> "⋈"
  | Left_outer -> "⟕"
  | Right_outer -> "⟖"
  | Full_outer -> "⟗"
  | Left_semi -> "⋉"
  | Right_semi -> "⋊"
  | Left_anti -> "▷"
  | Right_anti -> "◁"

let node_label = function
  | Table t -> t
  | Select (p, _) -> Fmt.str "σ[%a]" Pred.pp p
  | Join { jt; fk_col; _ } -> Fmt.str "%s(%s)" (join_type_label jt) fk_col
  | Project { cols; _ } -> Fmt.str "Π[%s]" (String.concat "," cols)
  | Aggregate { group_by; _ } -> Fmt.str "γ[%s]" (String.concat "," group_by)

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let tables p =
  let rec go = function
    | Table t -> [ t ]
    | Select (_, q) | Project { input = q; _ } | Aggregate { input = q; _ } -> go q
    | Join { left; right; _ } -> go left @ go right
  in
  dedup (go p)

let params p =
  let rec go = function
    | Table _ -> []
    | Select (pr, q) -> Pred.params pr @ go q
    | Project { input = q; _ } | Aggregate { input = q; _ } -> go q
    | Join { left; right; _ } -> go left @ go right
  in
  dedup (go p)

let joins p =
  preorder p
  |> List.mapi (fun i sub -> (i, sub))
  |> List.filter (fun (_, sub) -> match sub with Join _ -> true | _ -> false)

let rec columns_in_scope schema = function
  | Table t -> Schema.column_names (Schema.table schema t)
  | Select (_, q) | Project { input = q; _ } | Aggregate { input = q; _ } ->
      columns_in_scope schema q
  | Join { left; right; _ } ->
      columns_in_scope schema left @ columns_in_scope schema right

let validate schema p =
  let ( let* ) r f = Result.bind r f in
  let check b msg = if b then Ok () else Error msg in
  let rec go = function
    | Table t ->
        check (Schema.mem schema t) (Printf.sprintf "unknown table %s" t)
    | Select (pr, q) ->
        let* () = go q in
        let scope = columns_in_scope schema q in
        List.fold_left
          (fun r c ->
            let* () = r in
            check (List.mem c scope)
              (Printf.sprintf "predicate column %s not in scope" c))
          (Ok ()) (Pred.columns pr)
    | Project { cols; input } ->
        let* () = go input in
        let scope = columns_in_scope schema input in
        List.fold_left
          (fun r c ->
            let* () = r in
            check (List.mem c scope)
              (Printf.sprintf "projected column %s not in scope" c))
          (Ok ()) cols
    | Aggregate { group_by; aggs; input } ->
        let* () = go input in
        let scope = columns_in_scope schema input in
        List.fold_left
          (fun r c ->
            let* () = r in
            check (List.mem c scope)
              (Printf.sprintf "aggregate column %s not in scope" c))
          (Ok ())
          (group_by @ List.map snd aggs)
    | Join { pk_table; fk_table; fk_col; left; right; _ } ->
        let* () = go left in
        let* () = go right in
        let* () =
          check (Schema.mem schema pk_table)
            (Printf.sprintf "unknown pk table %s" pk_table)
        in
        let* () =
          check (Schema.mem schema fk_table)
            (Printf.sprintf "unknown fk table %s" fk_table)
        in
        let ft = Schema.table schema fk_table in
        let* () =
          check (Schema.is_fk ft fk_col)
            (Printf.sprintf "%s.%s is not a foreign key" fk_table fk_col)
        in
        let* () =
          check ((Schema.fk ft fk_col).Schema.references = pk_table)
            (Printf.sprintf "%s.%s does not reference %s" fk_table fk_col pk_table)
        in
        let* () =
          check (List.mem pk_table (tables left))
            (Printf.sprintf "pk table %s not on left side" pk_table)
        in
        check (List.mem fk_table (tables right))
          (Printf.sprintf "fk table %s not on right side" fk_table)
  in
  go p

let rec pp_indent ppf (depth, p) =
  let pad = String.make (2 * depth) ' ' in
  Fmt.pf ppf "%s%s@." pad (node_label p);
  match p with
  | Table _ -> ()
  | Select (_, q) | Project { input = q; _ } | Aggregate { input = q; _ } ->
      pp_indent ppf (depth + 1, q)
  | Join { left; right; _ } ->
      pp_indent ppf (depth + 1, left);
      pp_indent ppf (depth + 1, right)

let pp ppf p = pp_indent ppf (0, p)
