(* odd multiplier near 2^63 / golden ratio: the top bits of [k * mult]
   spread keys that agree in their low bits *)
let mult = 0x4F1BBCDCBFA53E0B

type t = {
  mutable bits : int;  (* log2 of the slot count *)
  mutable slots : int array;  (* id per slot; -1 when empty *)
  mutable keys : int array;  (* key per id; capacity half the slot count *)
  mutable n : int;
}

let create expected =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * expected do
    incr bits
  done;
  {
    bits = !bits;
    slots = Array.make (1 lsl !bits) (-1);
    keys = Array.make (1 lsl (!bits - 1)) 0;
    n = 0;
  }

let length t = t.n
let key t id = t.keys.(id)

(* the slot holding [k], or the empty slot where it would go; a loop, not
   a local recursive closure, so a probe allocates nothing *)
let slot t k =
  let slots = t.slots and keys = t.keys in
  let mask = Array.length slots - 1 in
  let s = ref ((k * mult) lsr (63 - t.bits)) in
  while
    let id = Array.unsafe_get slots !s in
    id >= 0 && Array.unsafe_get keys id <> k
  do
    s := (!s + 1) land mask
  done;
  !s

let find t k = Array.unsafe_get t.slots (slot t k)

let grow t =
  t.bits <- t.bits + 1;
  t.slots <- Array.make (1 lsl t.bits) (-1);
  let keys = Array.make (1 lsl (t.bits - 1)) 0 in
  Array.blit t.keys 0 keys 0 t.n;
  t.keys <- keys;
  for id = 0 to t.n - 1 do
    t.slots.(slot t keys.(id)) <- id
  done

let add t k =
  let s = slot t k in
  let id = t.slots.(s) in
  if id >= 0 then id
  else begin
    let s =
      if 2 * (t.n + 1) <= Array.length t.slots then s
      else begin
        grow t;
        slot t k
      end
    in
    let id = t.n in
    t.keys.(id) <- k;
    t.slots.(s) <- id;
    t.n <- id + 1;
    id
  end
