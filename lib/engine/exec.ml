module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Like = Mirage_sql.Like
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan

type join_stat = { jcc : int; jdc : int; left_card : int; right_card : int }

type analysis = {
  result : Rel.t;
  cards : int array;
  join_stats : (int * join_stat) list;
}

let vnull nulls p =
  match nulls with Some b -> Col.Bitset.get b p | None -> false

(* ------------------------------------------------------------------ *)
(* Compiled predicates.

   A predicate is compiled once per operator into an [int -> bool] closure
   over logical row ids, resolving column views, parameters and dictionary
   pools a single time instead of per row.  Resolution happens lazily on the
   first row a literal actually evaluates, which preserves the legacy
   per-row semantics exactly: an unbound parameter or out-of-scope column
   only raises if some row reaches that literal, so empty relations and
   short-circuited branches never raise. *)

(* [find c] resolves column [c] to its stored column and the selection
   vector from logical to physical rows ([-1] is a NULL row, [None] the
   identity: a whole stored table needs no table-sized vector) *)
type scope = { rows : int; find : string -> Col.t * int array option }

let scope_of_rel ~missing (rel : Rel.t) =
  let idx = Hashtbl.create (Array.length rel.Rel.views) in
  Array.iter (fun v -> Hashtbl.replace idx v.Rel.vname v) rel.Rel.views;
  {
    rows = Rel.card rel;
    find =
      (fun c ->
        match Hashtbl.find_opt idx c with
        | Some v -> (v.Rel.vcol, Some v.Rel.vsel)
        | None -> invalid_arg (missing c));
  }

let[@inline] phys sel i = match sel with None -> i | Some s -> s.(i)

(* boxed value at a logical row, for the representations without a
   typed fast path *)
let get_phys col sel i =
  let p = phys sel i in
  if p < 0 then Value.Null else Col.get col p

let lazy_lit build =
  let cell = ref None in
  fun i ->
    let f =
      match !cell with
      | Some f -> f
      | None ->
          let f = build () in
          cell := Some f;
          f
    in
    f i

let int_test cmp y =
  match cmp with
  | Pred.Eq -> fun x -> x = y
  | Pred.Neq -> fun x -> x <> y
  | Pred.Lt -> fun x -> x < y
  | Pred.Le -> fun x -> x <= y
  | Pred.Gt -> fun x -> x > y
  | Pred.Ge -> fun x -> x >= y

let compile_cmp ~env scope col cmp arg =
  lazy_lit (fun () ->
      let arg_v = Pred.resolve_scalar ~env arg in
      let vcol, sel = scope.find col in
      match (vcol, arg_v) with
      | Col.Ints { data; nulls }, Value.Int y ->
          let ok = int_test cmp y in
          fun i ->
            let p = phys sel i in
            p >= 0 && (not (vnull nulls p)) && ok data.{p}
      | Col.Ints { data; nulls }, Value.Float y ->
          fun i ->
            let p = phys sel i in
            p >= 0
            && (not (vnull nulls p))
            && Pred.cmp_holds cmp (Stdlib.compare (float_of_int data.{p}) y)
      | Col.Floats { data; nulls }, Value.Float y ->
          fun i ->
            let p = phys sel i in
            p >= 0
            && (not (vnull nulls p))
            && Pred.cmp_holds cmp (Stdlib.compare data.{p} y)
      | Col.Floats { data; nulls }, Value.Int y ->
          let yf = float_of_int y in
          fun i ->
            let p = phys sel i in
            p >= 0
            && (not (vnull nulls p))
            && Pred.cmp_holds cmp (Stdlib.compare data.{p} yf)
      | Col.Dict { codes; pool; nulls }, Value.Str y ->
          let verdict =
            Array.map (fun s -> Pred.cmp_holds cmp (String.compare s y)) pool
          in
          fun i ->
            let p = phys sel i in
            p >= 0 && (not (vnull nulls p)) && verdict.(codes.{p})
      | _, _ ->
          fun i -> (
            match Value.cmp_sql (get_phys vcol sel i) arg_v with
            | Some c -> Pred.cmp_holds cmp c
            | None -> false))

let compile_in ~env scope col neg arg =
  lazy_lit (fun () ->
      let vcol, sel = scope.find col in
      (* the legacy evaluator resolves the list only once a non-NULL value
         reaches the literal — keep that, so an unbound list parameter over
         an all-NULL column still never raises *)
      let elems = ref None in
      let get_elems () =
        match !elems with
        | Some vs -> vs
        | None ->
            let vs = Pred.resolve_list ~env arg in
            elems := Some vs;
            vs
      in
      match vcol with
      | Col.Ints { data; nulls } ->
          let table = ref None in
          let member x =
            let set, floats =
              match !table with
              | Some p -> p
              | None ->
                  let vs = get_elems () in
                  let set = Hashtbl.create (List.length vs + 1) in
                  List.iter
                    (function
                      | Value.Int n -> Hashtbl.replace set n () | _ -> ())
                    vs;
                  let floats =
                    List.filter_map
                      (function Value.Float f -> Some f | _ -> None)
                      vs
                  in
                  let p = (set, floats) in
                  table := Some p;
                  p
            in
            Hashtbl.mem set x
            || List.exists
                 (fun f -> Stdlib.compare (float_of_int x) f = 0)
                 floats
          in
          fun i ->
            let p = phys sel i in
            if p < 0 || vnull nulls p then false
            else
              let m = member data.{p} in
              if neg then not m else m
      | Col.Dict { codes; pool; nulls } ->
          let verdict = ref None in
          let get_verdict () =
            match !verdict with
            | Some a -> a
            | None ->
                let vs = get_elems () in
                let a =
                  Array.map
                    (fun s ->
                      let m =
                        List.exists
                          (fun x -> Value.cmp_sql (Value.Str s) x = Some 0)
                          vs
                      in
                      if neg then not m else m)
                    pool
                in
                verdict := Some a;
                a
          in
          fun i ->
            let p = phys sel i in
            if p < 0 || vnull nulls p then false
            else (get_verdict ()).(codes.{p})
      | _ ->
          fun i -> (
            match get_phys vcol sel i with
            | Value.Null -> false
            | vv ->
                let m =
                  List.exists
                    (fun x -> Value.cmp_sql vv x = Some 0)
                    (get_elems ())
                in
                if neg then not m else m))

let compile_like ~env scope col neg arg =
  lazy_lit (fun () ->
      let arg_v = Pred.resolve_scalar ~env arg in
      let vcol, sel = scope.find col in
      match (vcol, arg_v) with
      | Col.Dict { codes; pool; nulls }, Value.Str pattern ->
          (* one LIKE match per distinct pool entry, not per row *)
          let verdict =
            Array.map
              (fun s ->
                let m = Like.matches ~pattern s in
                if neg then not m else m)
              pool
          in
          fun i ->
            let p = phys sel i in
            p >= 0 && (not (vnull nulls p)) && verdict.(codes.{p})
      | _, Value.Str pattern ->
          fun i -> (
            match get_phys vcol sel i with
            | Value.Str s ->
                let m = Like.matches ~pattern s in
                if neg then not m else m
            | _ -> false)
      | _, _ -> fun _ -> false)

(* the columnar kernel evaluates the expression one window of
   [Arith.block] logical rows at a time, starting at the first row that
   reaches the literal and moving on when a row falls outside the window *)
let compile_arith_cmp ~env scope expr cmp arg =
  lazy_lit (fun () ->
      let arg_v = Pred.resolve_scalar ~env arg in
      let r = Arith.create ~capacity:Arith.block scope.find expr in
      match Value.to_float arg_v with
      | None -> fun _ -> false
      | Some y ->
          let values = Arith.values r in
          let base = ref 0 and filled = ref 0 in
          fun i ->
            if i < !base || i >= !base + !filled then begin
              base := i;
              filled := min Arith.block (scope.rows - i);
              Arith.run r ~src:i ~dst:0 ~len:!filled
            end;
            let k = i - !base in
            (not (Arith.is_null r k))
            && Pred.cmp_holds cmp (Stdlib.compare values.{k} y))

let compile_literal ~env scope = function
  | Pred.Cmp { col; cmp; arg } -> compile_cmp ~env scope col cmp arg
  | Pred.In { col; neg; arg } -> compile_in ~env scope col neg arg
  | Pred.Like { col; neg; arg } -> compile_like ~env scope col neg arg
  | Pred.Arith_cmp { expr; cmp; arg } ->
      compile_arith_cmp ~env scope expr cmp arg

let rec compile ~env scope = function
  | Pred.True -> fun _ -> true
  | Pred.False -> fun _ -> false
  | Pred.Lit l -> compile_literal ~env scope l
  | Pred.And ps -> (
      match List.map (compile ~env scope) ps with
      | [] -> fun _ -> true
      | [ f ] -> f
      | fs -> fun i -> List.for_all (fun f -> f i) fs)
  | Pred.Or ps -> (
      match List.map (compile ~env scope) ps with
      | [] -> fun _ -> false
      | [ f ] -> f
      | fs -> fun i -> List.exists (fun f -> f i) fs)
  | Pred.Not p ->
      let f = compile ~env scope p in
      fun i -> not (f i)

(* ------------------------------------------------------------------ *)
(* Operators *)

let scan db tname =
  let tschema = Schema.table (Db.schema db) tname in
  let names = Schema.column_names tschema in
  Rel.of_cols (List.map (fun c -> (c, Db.col db tname c)) names)

let filter ~env pred (rel : Rel.t) =
  let scope =
    scope_of_rel rel ~missing:(Printf.sprintf "Exec: column %s not in scope")
  in
  let p = compile ~env scope pred in
  let n = Rel.card rel in
  let keep = Array.make n 0 in
  let nk = ref 0 in
  for i = 0 to n - 1 do
    if p i then begin
      keep.(!nk) <- i;
      incr nk
    end
  done;
  Rel.select rel (Array.sub keep 0 !nk)

(* Integer keys: a flat {!Int_ids} table (sized for every left row, so
   it never grows) gives each key an id, and [heads.(id)] starts the chain
   of that key's left rows, linked through [next].  Rows are inserted
   ascending, so a chain lists them descending.  Pass 1 records each right
   row's chain head, marks matches and counts jcc, and jdc as the keys hit;
   pass 2 fills the exact-size pair arrays. *)
let int_pairs ~nleft ~nright (lsel, ldata, lnulls) (rsel, rdata, rnulls)
    left_matched right_matched =
  let index = Int_ids.create nleft in
  let heads = Array.make nleft (-1) and lens = Array.make nleft 0 in
  let next = Array.make nleft (-1) in
  for li = 0 to nleft - 1 do
    let p = lsel.(li) in
    if p >= 0 && not (vnull lnulls p) then begin
      let id = Int_ids.add index ldata.{p} in
      next.(li) <- heads.(id);
      heads.(id) <- li;
      lens.(id) <- lens.(id) + 1
    end
  done;
  let hit = Bytes.make nleft '\000' in
  let rhead = Array.make nright (-1) in
  let jcc = ref 0 and jdc = ref 0 in
  for ri = 0 to nright - 1 do
    let p = rsel.(ri) in
    if p >= 0 && not (vnull rnulls p) then begin
      let id = Int_ids.find index rdata.{p} in
      if id >= 0 then begin
        if Bytes.get hit id = '\000' then begin
          (* the key's first match: one walk marks its left rows *)
          Bytes.set hit id '\001';
          incr jdc;
          let li = ref heads.(id) in
          while !li >= 0 do
            Bytes.set left_matched !li '\001';
            li := next.(!li)
          done
        end;
        rhead.(ri) <- heads.(id);
        Bytes.set right_matched ri '\001';
        jcc := !jcc + lens.(id)
      end
    end
  done;
  let pairs_l = Array.make !jcc 0 and pairs_r = Array.make !jcc 0 in
  let np = ref 0 in
  for ri = 0 to nright - 1 do
    let li = ref rhead.(ri) in
    while !li >= 0 do
      pairs_l.(!np) <- !li;
      pairs_r.(!np) <- ri;
      incr np;
      li := next.(!li)
    done
  done;
  (pairs_l, pairs_r, !jdc)

let int_key name (v : Rel.view) =
  match v.Rel.vcol with
  | Col.Ints { data; nulls } -> (v.Rel.vsel, data, nulls)
  | _ -> invalid_arg (Printf.sprintf "Exec.join: key column %s is not Ints" name)

(* PK–FK hash join.  The left relation carries [pk_table]'s primary key
   column, the right relation the foreign key column.  Row-pair order
   replicates the legacy row-major evaluator exactly: right rows ascending,
   and within one right row the matching left rows descending (the order of
   the cons-list buckets the index once was).  Returns the joined relation
   for the requested join type plus the uniform (jcc, jdc) statistics:
   jcc = matched pairs, jdc = distinct matched key values. *)
let join ~jt ~pk_col ~fk_col (left : Rel.t) (right : Rel.t) =
  let lv = Rel.view left (Rel.col_index left pk_col) in
  let rv = Rel.view right (Rel.col_index right fk_col) in
  let nleft = Rel.card left and nright = Rel.card right in
  let left_matched = Bytes.make nleft '\000' in
  let right_matched = Bytes.make nright '\000' in
  let pairs_l, pairs_r, jdc =
    int_pairs ~nleft ~nright (int_key pk_col lv) (int_key fk_col rv)
      left_matched right_matched
  in
  let rows_where flags wanted =
    let wanted = if wanted then '\001' else '\000' in
    let n = Bytes.length flags in
    let buf = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get flags i = wanted then begin
        buf.(!k) <- i;
        incr k
      end
    done;
    Array.sub buf 0 !k
  in
  let nulls n = Array.make n (-1) in
  let combine lkeep rkeep =
    let lrel = Rel.select left lkeep and rrel = Rel.select right rkeep in
    {
      Rel.rcard = Array.length lkeep;
      views = Array.append lrel.Rel.views rrel.Rel.views;
    }
  in
  let rel =
    match jt with
    | Plan.Inner -> combine pairs_l pairs_r
    | Plan.Left_outer ->
        let ul = rows_where left_matched false in
        combine
          (Array.append pairs_l ul)
          (Array.append pairs_r (nulls (Array.length ul)))
    | Plan.Right_outer ->
        let ur = rows_where right_matched false in
        combine
          (Array.append pairs_l (nulls (Array.length ur)))
          (Array.append pairs_r ur)
    | Plan.Full_outer ->
        let ul = rows_where left_matched false in
        let ur = rows_where right_matched false in
        combine
          (Array.concat [ pairs_l; ul; nulls (Array.length ur) ])
          (Array.concat [ pairs_r; nulls (Array.length ul); ur ])
    | Plan.Left_semi -> Rel.select left (rows_where left_matched true)
    | Plan.Right_semi -> Rel.select right (rows_where right_matched true)
    | Plan.Left_anti -> Rel.select left (rows_where left_matched false)
    | Plan.Right_anti -> Rel.select right (rows_where right_matched false)
  in
  let stat =
    { jcc = Array.length pairs_l; jdc; left_card = nleft; right_card = nright }
  in
  (rel, stat)

let float_at_view (v : Rel.view) i =
  let p = v.Rel.vsel.(i) in
  if p < 0 then None else Col.float_at v.Rel.vcol p

(* hash aggregation: group rows by the group-by columns and fold each
   aggregate function; output columns are the group keys followed by one
   column per aggregate named "<fn>_<col>" *)
let aggregate ~group_by ~aggs (rel : Rel.t) =
  let gvs = List.map (fun c -> Rel.view rel (Rel.col_index rel c)) group_by in
  let avs =
    List.map (fun (f, c) -> (f, Rel.view rel (Rel.col_index rel c))) aggs
  in
  let n_aggs = List.length avs in
  let groups = Hashtbl.create 64 in
  for i = 0 to Rel.card rel - 1 do
    let key = List.map (fun v -> Rel.get_view v i) gvs in
    let accs =
      match Hashtbl.find_opt groups key with
      | Some a -> a
      | None ->
          let a = Array.make n_aggs (0, 0.0, infinity, neg_infinity) in
          Hashtbl.add groups key a;
          a
    in
    List.iteri
      (fun k (_, v) ->
        let cnt, sum, mn, mx = accs.(k) in
        match float_at_view v i with
        | Some x -> accs.(k) <- (cnt + 1, sum +. x, min mn x, max mx x)
        | None -> accs.(k) <- (cnt + 1, sum, mn, mx))
      avs
  done;
  let agg_name (f, c) =
    let fn =
      match f with
      | Plan.Count -> "count"
      | Plan.Sum -> "sum"
      | Plan.Avg -> "avg"
      | Plan.Min -> "min"
      | Plan.Max -> "max"
    in
    fn ^ "_" ^ c
  in
  let cols =
    Array.of_list (group_by @ List.map (fun (f, c) -> agg_name (f, c)) aggs)
  in
  let rows =
    Hashtbl.fold
      (fun key accs acc ->
        let agg_vals =
          List.mapi
            (fun k (f, _) ->
              let cnt, sum, mn, mx = accs.(k) in
              match f with
              | Plan.Count -> Value.Int cnt
              | Plan.Sum -> Value.Float sum
              | Plan.Avg ->
                  if cnt = 0 then Value.Null
                  else Value.Float (sum /. float_of_int cnt)
              | Plan.Min -> if cnt = 0 then Value.Null else Value.Float mn
              | Plan.Max -> if cnt = 0 then Value.Null else Value.Float mx)
            avs
        in
        Array.of_list (key @ agg_vals) :: acc)
      groups []
  in
  Rel.of_rows cols (Array.of_list rows)

let analyze db ~env plan =
  let n = Plan.size plan in
  let cards = Array.make n 0 in
  let join_stats = ref [] in
  let counter = ref 0 in
  let rec go p =
    let idx = !counter in
    incr counter;
    let rel =
      match p with
      | Plan.Table t -> scan db t
      | Plan.Select (pred, q) -> filter ~env pred (go q)
      | Plan.Project { cols; input } -> Rel.distinct_on (go input) cols
      | Plan.Aggregate { group_by; aggs; input } ->
          aggregate ~group_by ~aggs (go input)
      | Plan.Join { jt; pk_table; fk_col; left; right; _ } ->
          let lrel = go left in
          let rrel = go right in
          let pk_col = (Schema.table (Db.schema db) pk_table).Schema.pk in
          let rel, stat = join ~jt ~pk_col ~fk_col lrel rrel in
          join_stats := (idx, stat) :: !join_stats;
          rel
    in
    cards.(idx) <- Rel.card rel;
    rel
  in
  let result = go plan in
  { result; cards; join_stats = List.rev !join_stats }

let run db ~env plan = (analyze db ~env plan).result

(* the stored table's rows, logical row = physical row *)
let table_scope db ~missing ~table cols =
  let n = Db.row_count db table in
  let stored = List.map (fun c -> (c, Db.col db table c)) cols in
  ( n,
    {
      rows = n;
      find =
        (fun c ->
          match List.assoc_opt c stored with
          | Some col -> (col, None)
          | None -> invalid_arg (missing c));
    } )

let count_select db ~env ~table pred =
  let tschema = Schema.table (Db.schema db) table in
  let names = Schema.column_names tschema in
  let n, scope =
    table_scope db ~table names
      ~missing:(Printf.sprintf "Exec.count_select: unknown column %s")
  in
  let p = compile ~env scope pred in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if p i then incr count
  done;
  !count

let select_mask db ~env ~table pred =
  let cols = Mirage_sql.Pred.columns pred in
  let n, scope =
    table_scope db ~table cols
      ~missing:(Printf.sprintf "Exec: column %s not in scope")
  in
  let p = compile ~env scope pred in
  let b = Col.Bitset.create n in
  for i = 0 to n - 1 do
    if p i then Col.Bitset.set b i
  done;
  b

let timed_run db ~env plan =
  let t0 = Unix.gettimeofday () in
  let r = run db ~env plan in
  let t1 = Unix.gettimeofday () in
  (r, t1 -. t0)
