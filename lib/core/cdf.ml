module Pred = Mirage_sql.Pred
module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema

type layout = {
  l_table : string;
  l_col : string;
  l_kind : Schema.kind;
  l_dom : int;
  l_rows : int;
  l_value_counts : int array;
  l_param_card : (string * int) list;
  l_bindings : (string * Pred.Env.binding) list;
  l_render : int -> Value.t;
}

exception Infeasible of string

let fail fmt = Fmt.kstr (fun s -> raise (Infeasible s)) fmt

(* rendered strings start with 'v' *)
let impossible_string = "nomatch"

(* F-anchor: cumulative constraint F(boundary) = cum rows.  [minus_one]
   marks parameters that sit one value above the boundary (from < and ≥
   comparators).  [fa_key] is the parameter's production value; for integer
   columns it localises the boundary in production value order. *)
type fa = {
  fa_param : string;
  fa_minus_one : bool;
  fa_cum : int;
  fa_key : Value.t option;
}

(* E-item: exactly [ei_rows] rows carry the (single) value of [ei_param].
   [ei_key] identifies the production value behind the parameter; two items
   with the same key and row count refer to the same value and may share it
   (the paper's parameter-reuse fallback, made semantics-safe). *)
type ei = { ei_param : string; ei_rows : int; ei_key : Value.t option }

type norm = {
  mutable fas : fa list;
  mutable eis : ei list;
  mutable zeros : string list;  (* sub-params bound outside the domain *)
  mutable groups : (string * string list) list;  (* like param -> sub-params *)
  mutable in_params : (string * string list) list;  (* in param -> sub-params *)
}

(* (production key, row count), equal exactly when [Value.compare] says the
   keys are *)
module Key_rows = Hashtbl.Make (struct
  type t = Value.t * int

  let equal (k, r) (k', r') = r = r' && Value.compare k k' = 0
  let hash (k, r) = Hashtbl.hash (Value.hash k, r)
end)

let sub_params p elements =
  List.mapi (fun i (key, k) -> (Printf.sprintf "%s#%d" p i, key, k)) elements

let normalise ~rows ~elements ~param_key (n : norm) (u : Ir.ucc) =
  let k = u.Ir.ucc_rows in
  if k < 0 || k > rows then
    fail "%s: count %d out of [0, %d]" u.Ir.ucc_source k rows;
  let param =
    match u.Ir.ucc_lit with
    | Pred.Cmp { arg = Pred.Param p; _ }
    | Pred.In { arg = Pred.Param p; _ }
    | Pred.Like { arg = Pred.Param p; _ } ->
        p
    | _ -> fail "%s: UCC without a parameter" u.Ir.ucc_source
  in
  let expand lit ~target =
    (* distribute [target] rows over the literal's production elements,
       keeping proportions and the exact total *)
    let els = elements lit in
    let els = if els = [] then [ (Value.Null, target) ] else els in
    let counts = List.map snd els in
    let total = List.fold_left ( + ) 0 counts in
    let scaled =
      if total = target then counts
      else if total = 0 then
        target :: List.map (fun _ -> 0) (List.tl counts)
      else
        Array.to_list
          (Mirage_lp.Lp.round_preserving_sum
             (Array.of_list
                (List.map
                   (fun c ->
                     float_of_int c *. float_of_int target /. float_of_int total)
                   counts))
             ~total:target)
    in
    (* keys stay aligned; a rescaled count no longer matches the production
       value exactly, so drop the key to disable aliasing in that case *)
    List.map2
      (fun (key, orig) c ->
        ((if total = target && orig = c then Some key else None), c))
      els scaled
  in
  let key () = param_key param in
  match u.Ir.ucc_lit with
  | Pred.Cmp { cmp = Pred.Le; _ } ->
      n.fas <-
        { fa_param = param; fa_minus_one = false; fa_cum = k; fa_key = param_key param }
        :: n.fas
  | Pred.Cmp { cmp = Pred.Lt; _ } ->
      n.fas <-
        { fa_param = param; fa_minus_one = true; fa_cum = k; fa_key = param_key param }
        :: n.fas
  | Pred.Cmp { cmp = Pred.Gt; _ } ->
      n.fas <-
        { fa_param = param; fa_minus_one = false; fa_cum = rows - k; fa_key = param_key param }
        :: n.fas
  | Pred.Cmp { cmp = Pred.Ge; _ } ->
      n.fas <-
        { fa_param = param; fa_minus_one = true; fa_cum = rows - k; fa_key = param_key param }
        :: n.fas
  | Pred.Cmp { cmp = Pred.Eq; _ } ->
      (* a zero-count equality binds outside the domain: giving it a real
         value would waste a domain slot on zero rows *)
      if k = 0 then n.zeros <- param :: n.zeros
      else n.eis <- { ei_param = param; ei_rows = k; ei_key = key () } :: n.eis
  | Pred.Cmp { cmp = Pred.Neq; _ } ->
      if rows - k = 0 then n.zeros <- param :: n.zeros
      else n.eis <- { ei_param = param; ei_rows = rows - k; ei_key = key () } :: n.eis
  | Pred.In { neg; _ } as lit ->
      let target = if neg then rows - k else k in
      let subs = sub_params param (expand lit ~target) in
      n.in_params <- (param, List.map (fun (sp, _, _) -> sp) subs) :: n.in_params;
      List.iter
        (fun (sp, key, c) ->
          if c = 0 then n.zeros <- sp :: n.zeros
          else n.eis <- { ei_param = sp; ei_rows = c; ei_key = key } :: n.eis)
        subs
  | Pred.Like { neg; _ } as lit ->
      let target = if neg then rows - k else k in
      let subs = sub_params param (expand lit ~target) in
      n.groups <- (param, List.map (fun (sp, _, _) -> sp) subs) :: n.groups;
      List.iter
        (fun (sp, key, c) ->
          if c = 0 then n.zeros <- sp :: n.zeros
          else n.eis <- { ei_param = sp; ei_rows = c; ei_key = key } :: n.eis)
        subs
  | Pred.Arith_cmp _ -> fail "%s: arithmetic literal is not a UCC" u.Ir.ucc_source

let build ~table ~col ~kind ~dom ~rows ~uccs ~elements ~param_key () =
  try
    if dom <= 0 || rows <= 0 then fail "empty column";
    if dom > rows then fail "domain %d larger than row count %d" dom rows;
    let n = { fas = []; eis = []; zeros = []; groups = []; in_params = [] } in
    List.iter (normalise ~rows ~elements ~param_key n) uccs;
    (match (kind, n.groups) with
    | (Schema.Kint | Schema.Kfloat), _ :: _ ->
        fail "like predicate on non-string column %s" col
    | _ -> ());
    (* --- step 1: ranges from F-anchors ------------------------------- *)
    List.iter
      (fun f ->
        if f.fa_cum < 0 || f.fa_cum > rows then
          fail "cumulative count %d out of range" f.fa_cum)
      n.fas;
    let module IM = Map.Make (Int) in
    let by_cum =
      List.fold_left
        (fun m f ->
          IM.update f.fa_cum
            (function None -> Some [ f ] | Some fs -> Some (f :: fs))
            m)
        IM.empty n.fas
    in
    let boundaries = IM.bindings by_cum in
    (* range row counts: below first boundary, between boundaries, above last *)
    let cums = List.map fst boundaries in
    let range_rows =
      match cums with
      | [] -> [ rows ]
      | first :: _ ->
          let rec gaps = function
            | a :: (b :: _ as rest) -> (b - a) :: gaps rest
            | [ last ] -> [ rows - last ]
            | [] -> []
          in
          first :: gaps cums
    in
    let nr = List.length range_rows in
    let r = Array.of_list range_rows in
    Array.iter (fun x -> if x < 0 then fail "decreasing cumulative counts") r;
    (* --- step 2: best-fit-decreasing packing of E-items --------------- *)
    let eis = Array.of_list (List.rev n.eis) in
    let order = Array.init (Array.length eis) (fun i -> i) in
    Array.sort
      (fun a b ->
        match compare eis.(b).ei_rows eis.(a).ei_rows with
        | 0 -> compare a b
        | c -> c)
      order;
    let slack = Array.copy r in
    let placed = Array.make (Array.length eis) (-1) in
    let alias = Array.make (Array.length eis) (-1) in
    (* Two equality items referring to the same production value (same key)
       with the same row count denote the same value and share it — the
       paper's parameter-reuse fallback, restricted to where it is sound.
       Placed items are indexed by (key, rows) as they are placed; placement
       follows [order], so the earliest binding is the first placed item in
       [order]. *)
    let placed_by_key = Key_rows.create (Array.length eis) in
    let alias_candidate item =
      match eis.(item).ei_key with
      | None -> None
      | Some key -> (
          (* [find_all] lists the latest binding first *)
          match List.rev (Key_rows.find_all placed_by_key (key, eis.(item).ei_rows)) with
          | j :: _ -> Some j
          | [] -> None)
    in
    (* Production-guided placement: when the boundaries and an item all carry
       integer production values, the item's natural range — the one the
       production data put it in — is known, and placing it there reproduces
       a packing that is feasible by construction. *)
    let boundary_prod =
      List.map
        (fun (_, fs) ->
          List.fold_left
            (fun acc (f : fa) ->
              match (acc, f.fa_key) with
              | Some _, _ -> acc
              | None, Some (Value.Int v) ->
                  Some (if f.fa_minus_one then v - 1 else v)
              | None, _ -> None)
            None fs)
        boundaries
    in
    let all_boundaries_known =
      (* every boundary carries an integer production value, and those
         values increase with the cumulative counts: eliminations can shift
         an anchor's count away from its production marginal, making the
         guide incoherent *)
      boundary_prod <> []
      && List.for_all (fun b -> b <> None) boundary_prod
      &&
      let rec mono = function
        | Some a :: (Some b :: _ as rest) -> a < b && mono rest
        | _ -> true
      in
      mono boundary_prod
    in
    let natural_bin item =
      if not all_boundaries_known then None
      else
        match eis.(item).ei_key with
        | Some (Value.Int ev) ->
            let rec scan idx = function
              | [] -> Some idx (* above the last boundary *)
              | Some b :: rest -> if ev <= b then Some idx else scan (idx + 1) rest
              | None :: _ -> None
            in
            scan 0 boundary_prod
        | _ -> None
    in
    Array.iter
      (fun item ->
        match alias_candidate item with
        | Some j -> alias.(item) <- j
        | None -> (
            let nat =
              match natural_bin item with
              | Some bin when bin < nr && slack.(bin) >= eis.(item).ei_rows ->
                  Some bin
              | _ -> None
            in
            let best =
              match nat with
              | Some bin -> ref bin
              | None ->
                  let best = ref (-1) in
                  Array.iteri
                    (fun bin s ->
                      if s >= eis.(item).ei_rows && (!best = -1 || s < slack.(!best))
                      then best := bin)
                    slack;
                  best
            in
            match !best with
            | -1 ->
                fail "cannot place equality constraint of %d rows (param %s)"
                  eis.(item).ei_rows eis.(item).ei_param
            | bin ->
                placed.(item) <- bin;
                slack.(bin) <- slack.(bin) - eis.(item).ei_rows;
                Option.iter
                  (fun key -> Key_rows.add placed_by_key (key, eis.(item).ei_rows) item)
                  eis.(item).ei_key))
      order;
    (* --- step 3: distribute unique values over ranges ----------------- *)
    let e_count = Array.make nr 0 and e_rows = Array.make nr 0 in
    Array.iteri
      (fun item bin ->
        if bin >= 0 then begin
          e_count.(bin) <- e_count.(bin) + 1;
          e_rows.(bin) <- e_rows.(bin) + eis.(item).ei_rows
        end)
      placed;
    let lo = Array.init nr (fun i -> e_count.(i) + if r.(i) > e_rows.(i) then 1 else 0) in
    let hi = Array.init nr (fun i -> e_count.(i) + (r.(i) - e_rows.(i))) in
    let sum a = Array.fold_left ( + ) 0 a in
    if dom < sum lo then
      fail "domain %d too small for %d ranges/parameters" dom (sum lo);
    if dom > sum hi then fail "domain %d exceeds value capacity %d" dom (sum hi);
    let nv = Array.copy lo in
    let leftover = ref (dom - sum lo) in
    (* proportional bulk distribution, then round-robin for the residue *)
    let total_slack = sum hi - sum lo in
    if total_slack > 0 then
      for i = 0 to nr - 1 do
        let add =
          min (hi.(i) - lo.(i)) (!leftover * (hi.(i) - lo.(i)) / total_slack)
        in
        nv.(i) <- nv.(i) + add;
        leftover := !leftover - add
      done;
    let i = ref 0 in
    while !leftover > 0 do
      if nv.(!i) < hi.(!i) then begin
        nv.(!i) <- nv.(!i) + 1;
        decr leftover
      end;
      i := (!i + 1) mod nr
    done;
    (* --- step 4: lay out values, assign counts and parameter cards ---- *)
    let value_counts = Array.make dom 0 in
    let param_card = ref [] in
    let boundary_value = Array.make (nr + 1) 0 in
    let cursor = ref 0 in
    (* items per bin in deterministic order *)
    let items_of_bin = Array.make nr [] in
    for item = Array.length eis - 1 downto 0 do
      if placed.(item) >= 0 then
        items_of_bin.(placed.(item)) <- item :: items_of_bin.(placed.(item))
    done;
    let item_value = Array.make (Array.length eis) 0 in
    for bin = 0 to nr - 1 do
      List.iter
        (fun item ->
          incr cursor;
          if !cursor > dom then fail "internal: value overflow";
          value_counts.(!cursor - 1) <- eis.(item).ei_rows;
          item_value.(item) <- !cursor)
        items_of_bin.(bin);
      let fillers = nv.(bin) - e_count.(bin) in
      let filler_rows = r.(bin) - e_rows.(bin) in
      if fillers > 0 then begin
        let base = filler_rows / fillers and extra = filler_rows mod fillers in
        for j = 0 to fillers - 1 do
          incr cursor;
          if !cursor > dom then fail "internal: value overflow";
          value_counts.(!cursor - 1) <- base + (if j < extra then 1 else 0)
        done
      end
      else if filler_rows > 0 then
        (* unreachable: lo reserved a filler slot whenever r > e_rows *)
        fail "internal: residual rows without a value slot";
      boundary_value.(bin + 1) <- !cursor
    done;
    if !cursor <> dom then fail "internal: %d values laid out, domain %d" !cursor dom;
    (* aliased items share their target's value *)
    Array.iteri
      (fun item a -> if a >= 0 then item_value.(item) <- item_value.(a))
      alias;
    Array.iteri
      (fun item v ->
        if placed.(item) >= 0 || alias.(item) >= 0 then
          param_card := (eis.(item).ei_param, v) :: !param_card)
      item_value;
    List.iter (fun sp -> param_card := (sp, 0) :: !param_card) n.zeros;
    (* F parameters: boundary k (0-based) closes range k, so its value is the
       cumulative value count through range k *)
    List.iteri
      (fun k (_, fs) ->
        List.iter
          (fun f ->
            let v = boundary_value.(k + 1) + if f.fa_minus_one then 1 else 0 in
            param_card := (f.fa_param, v) :: !param_card)
          fs)
      boundaries;
    (* --- rendering and bindings --------------------------------------- *)
    let cards = Hashtbl.create (List.length !param_card) in
    (* the list's first binding of a parameter wins, as in [List.assoc] *)
    List.iter (fun (p, v) -> Hashtbl.replace cards p v) (List.rev !param_card);
    let card_of p =
      match Hashtbl.find_opt cards p with
      | Some v -> v
      | None -> fail "internal: parameter %s not instantiated" p
    in
    let group_list =
      List.mapi
        (fun gi (p, subs) ->
          (p, gi, List.filter_map (fun sp ->
               let v = card_of sp in
               if v = 0 then None else Some v) subs))
        (List.rev n.groups)
    in
    let groups_of_value = Hashtbl.create 16 in
    List.iter
      (fun (_, gi, vs) ->
        List.iter
          (fun v ->
            let cur = try Hashtbl.find groups_of_value v with Not_found -> [] in
            Hashtbl.replace groups_of_value v (cur @ [ gi ]))
          vs)
      group_list;
    let render v =
      match kind with
      | Schema.Kint -> Value.Int v
      | Schema.Kfloat -> Value.Float (float_of_int v)
      | Schema.Kstring -> (
          let base = Printf.sprintf "v%08d" v in
          match Hashtbl.find_opt groups_of_value v with
          | None | Some [] -> Value.Str base
          | Some gs ->
              Value.Str
                (base ^ String.concat "" (List.map (Printf.sprintf "_g%d") gs) ^ "_"))
    in
    let bindings = ref [] in
    let bind p b = bindings := (p, b) :: !bindings in
    List.iter
      (fun (u : Ir.ucc) ->
        match u.Ir.ucc_lit with
        | Pred.Cmp { arg = Pred.Param p; _ } ->
            bind p (Pred.Env.Scalar (render (card_of p)))
        | Pred.In { arg = Pred.Param p; _ } ->
            let subs = List.assoc p n.in_params in
            bind p (Pred.Env.Vlist (List.map (fun sp -> render (card_of sp)) subs))
        | Pred.Like { arg = Pred.Param p; _ } -> (
            match List.find_opt (fun (q, _, _) -> q = p) group_list with
            | Some (_, gi, _ :: _) ->
                bind p (Pred.Env.Scalar (Value.Str (Printf.sprintf "%%_g%d_%%" gi)))
            | Some (_, _, []) ->
                bind p (Pred.Env.Scalar (Value.Str impossible_string))
            | None -> fail "internal: like parameter %s has no group" p)
        | Pred.Cmp _ | Pred.In _ | Pred.Like _ | Pred.Arith_cmp _ ->
            fail "UCC literal without parameter")
      uccs;
    Ok
      {
        l_table = table;
        l_col = col;
        l_kind = kind;
        l_dom = dom;
        l_rows = rows;
        l_value_counts = value_counts;
        l_param_card = !param_card;
        l_bindings = !bindings;
        l_render = render;
      }
  with Infeasible msg -> Error (Printf.sprintf "%s.%s: %s" table col msg)

let default_layout ~table ~col ~kind ~dom ~rows =
  let dom = min dom rows in
  let value_counts = Array.make dom 0 in
  let base = rows / dom and extra = rows mod dom in
  for v = 0 to dom - 1 do
    value_counts.(v) <- base + (if v < extra then 1 else 0)
  done;
  let render v =
    match kind with
    | Schema.Kint -> Value.Int v
    | Schema.Kfloat -> Value.Float (float_of_int v)
    | Schema.Kstring -> Value.Str (Printf.sprintf "v%08d" v)
  in
  {
    l_table = table;
    l_col = col;
    l_kind = kind;
    l_dom = dom;
    l_rows = rows;
    l_value_counts = value_counts;
    l_param_card = [];
    l_bindings = [];
    l_render = render;
  }

let lookup_param_card layout p = List.assoc_opt p layout.l_param_card

(* Render a whole column of value-domain ints straight into typed storage:
   ints are the identity, floats are flat, strings dictionary-encode with one
   rendered pool entry per distinct value (the renderer is injective in v, so
   pool entries are distinct by construction). *)
let to_col layout vals =
  let module Col = Mirage_engine.Col in
  let n = Col.Ivec.length vals in
  match layout.l_kind with
  | Schema.Kint -> Col.Ivec.to_col vals
  | Schema.Kfloat -> Col.init_floats n (fun i -> float_of_int (Col.Ivec.get vals i))
  | Schema.Kstring ->
      let codes = Col.Ivec.make n 0 in
      let tbl = Hashtbl.create 256 in
      let rev_pool = ref [] and next = ref 0 in
      for i = 0 to n - 1 do
        let v = Col.Ivec.get vals i in
        let c =
          match Hashtbl.find_opt tbl v with
          | Some c -> c
          | None ->
              let c = !next in
              Hashtbl.add tbl v c;
              (match layout.l_render v with
              | Value.Str s -> rev_pool := s :: !rev_pool
              | _ -> assert false);
              incr next;
              c
        in
        Col.Ivec.set codes i c
      done;
      let pool = Array.of_list (List.rev !rev_pool) in
      Col.dict ~codes ~pool ()
