(* [Exec.join] as it was before its integer path took a flat index, kept
   as a test oracle: a polymorphic [Hashtbl] from key to a cons-list bucket
   of left rows, a second [Hashtbl] for the distinct matched keys, and
   growable pair buffers.  [test_engine] checks that the flat-index join
   returns the same relation and statistics. *)

module Value = Mirage_sql.Value
module Plan = Mirage_relalg.Plan
module Col = Mirage_engine.Col
module Rel = Mirage_engine.Rel
module Exec = Mirage_engine.Exec

let vnull nulls p =
  match nulls with Some b -> Col.Bitset.get b p | None -> false

(* PK–FK hash join.  The left relation carries [pk_table]'s primary key
   column, the right relation the foreign key column.  Row-pair order
   replicates the legacy row-major evaluator exactly: right rows ascending,
   and within one right row the matching left rows in the (descending)
   bucket order the index build produced.  Returns the joined relation for
   the requested join type plus the uniform (jcc, jdc) statistics:
   jcc = matched pairs, jdc = distinct matched key values. *)
let join ~jt ~pk_col ~fk_col (left : Rel.t) (right : Rel.t) =
  let lv = Rel.view left (Rel.col_index left pk_col) in
  let rv = Rel.view right (Rel.col_index right fk_col) in
  let nleft = Rel.card left and nright = Rel.card right in
  let left_matched = Array.make nleft false in
  let right_matched = Array.make nright false in
  let jcc = ref 0 in
  let jdc = ref 0 in
  (* growable matched-pair buffers, in legacy emission order *)
  let cap = ref (max 16 nright) in
  let pl = ref (Array.make !cap 0) in
  let pr = ref (Array.make !cap 0) in
  let np = ref 0 in
  let push l r =
    if !np = !cap then begin
      let c = !cap * 2 in
      let nl = Array.make c 0 and nr = Array.make c 0 in
      Array.blit !pl 0 nl 0 !np;
      Array.blit !pr 0 nr 0 !np;
      pl := nl;
      pr := nr;
      cap := c
    end;
    !pl.(!np) <- l;
    !pr.(!np) <- r;
    incr np
  in
  (match (lv.Rel.vcol, rv.Rel.vcol) with
  | ( Col.Ints { data = ldata; nulls = lnulls },
      Col.Ints { data = rdata; nulls = rnulls } ) ->
      let lsel = lv.Rel.vsel and rsel = rv.Rel.vsel in
      let index = Hashtbl.create nleft in
      for li = 0 to nleft - 1 do
        let p = lsel.(li) in
        if p >= 0 && not (vnull lnulls p) then
          let k = ldata.{p} in
          let cur = try Hashtbl.find index k with Not_found -> [] in
          Hashtbl.replace index k (li :: cur)
      done;
      let matched_fk = Hashtbl.create 64 in
      for ri = 0 to nright - 1 do
        let p = rsel.(ri) in
        if p >= 0 && not (vnull rnulls p) then
          let k = rdata.{p} in
          match Hashtbl.find_opt index k with
          | None -> ()
          | Some lidxs ->
              Hashtbl.replace matched_fk k ();
              right_matched.(ri) <- true;
              List.iter
                (fun li ->
                  incr jcc;
                  left_matched.(li) <- true;
                  push li ri)
                lidxs
      done;
      jdc := Hashtbl.length matched_fk
  | _ -> invalid_arg "Join_reference.join: key column is not Ints");
  let pairs_l = Array.sub !pl 0 !np and pairs_r = Array.sub !pr 0 !np in
  let rows_where flags wanted =
    let n = Array.length flags in
    let buf = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if flags.(i) = wanted then begin
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
    { Exec.jcc = !jcc; jdc = !jdc; left_card = nleft; right_card = nright }
  in
  (rel, stat)
