module Pred = Mirage_sql.Pred

(* results at a range of positions: a value each, and its NULL bit *)
type buf = { v : Col.float_big; z : Col.Bitset.t }

type op = Add | Sub | Mul | Div

(* An expression compiled once: leaves hold their resolved column and
   selection vector, and each binary node owns a block-sized buffer its
   right operand is evaluated into.  The left operand is evaluated into the
   node's own destination, so a node combines two buffers in place. *)
type node =
  | Leaf of { col : Col.t; sel : int array option }
  | Const of float
  | Bin of { op : op; a : node; b : node; tmp : buf }

type t = { root : node; out : buf }

(* rows evaluated per pass over the tree: every intermediate buffer holds
   one block, so it stays in cache and costs no fresh pages *)
let block = 2048

let buf n = { v = Col.alloc_float_big n; z = Col.Bitset.create n }

let rec compile leaf = function
  | Pred.Acol c ->
      let col, sel = leaf c in
      Leaf { col; sel }
  | Pred.Aconst f -> Const f
  | Pred.Aadd (a, b) -> bin leaf Add a b
  | Pred.Asub (a, b) -> bin leaf Sub a b
  | Pred.Amul (a, b) -> bin leaf Mul a b
  | Pred.Adiv (a, b) -> bin leaf Div a b

and bin leaf op a b =
  let a = compile leaf a in
  let b = compile leaf b in
  Bin { op; a; b; tmp = buf block }

let null_at nulls p =
  match nulls with Some b -> Col.Bitset.get b p | None -> false

(* Logical rows [src, src + len) of [node] into positions [dst, dst + len)
   of [d], writing every value and NULL bit there ([len <= block]); true
   when some row came out NULL.  The NULL rules are {!Pred.eval_arith}'s: a
   NULL row (sel -1), a NULL or non-numeric cell, a NULL operand and a zero
   divisor all give NULL. *)
let rec fill node d ~src ~dst ~len =
  let v = d.v and z = d.z in
  let any = ref false in
  (match node with
  | Const f ->
      for i = dst to dst + len - 1 do
        Col.Bitset.clear z i;
        Bigarray.Array1.unsafe_set v i f
      done
  | Leaf { col = Col.Dict _; _ } ->
      any := len > 0;
      for i = dst to dst + len - 1 do
        Col.Bitset.set z i
      done
  | Leaf { col = Col.Ints { data; nulls }; sel } ->
      for k = 0 to len - 1 do
        let r = src + k and i = dst + k in
        let p = match sel with None -> r | Some s -> s.(r) in
        if p < 0 || null_at nulls p then begin
          Col.Bitset.set z i;
          any := true
        end
        else begin
          Col.Bitset.clear z i;
          Bigarray.Array1.unsafe_set v i (float_of_int data.{p})
        end
      done
  | Leaf { col = Col.Floats { data; nulls }; sel } ->
      for k = 0 to len - 1 do
        let r = src + k and i = dst + k in
        let p = match sel with None -> r | Some s -> s.(r) in
        if p < 0 || null_at nulls p then begin
          Col.Bitset.set z i;
          any := true
        end
        else begin
          Col.Bitset.clear z i;
          Bigarray.Array1.unsafe_set v i data.{p}
        end
      done
  | Bin { op; a; b; tmp } ->
      let na = fill a d ~src ~dst ~len in
      let nb = fill b tmp ~src ~dst:0 ~len in
      any := na || nb;
      for k = 0 to len - 1 do
        let i = dst + k in
        (* a NULL operand gives NULL *)
        if (na && Col.Bitset.get z i) || (nb && Col.Bitset.get tmp.z k) then
          Col.Bitset.set z i
        else
          let x = Bigarray.Array1.unsafe_get v i
          and y = Bigarray.Array1.unsafe_get tmp.v k in
          match op with
          | Add -> Bigarray.Array1.unsafe_set v i (x +. y)
          | Sub -> Bigarray.Array1.unsafe_set v i (x -. y)
          | Mul -> Bigarray.Array1.unsafe_set v i (x *. y)
          | Div ->
              if y = 0.0 then begin
                Col.Bitset.set z i;
                any := true
              end
              else Bigarray.Array1.unsafe_set v i (x /. y)
      done);
  !any

let create ~capacity leaf expr =
  let root = compile leaf expr in
  { root; out = buf capacity }

let run t ~src ~dst ~len =
  let k = ref 0 in
  while !k < len do
    let n = min block (len - !k) in
    ignore (fill t.root t.out ~src:(src + !k) ~dst:(dst + !k) ~len:n);
    k := !k + n
  done

let eval ~rows leaf expr =
  let t = create ~capacity:rows leaf expr in
  run t ~src:0 ~dst:0 ~len:rows;
  t

let values t = t.out.v
let nulls t = t.out.z
let is_null t i = Col.Bitset.get t.out.z i
