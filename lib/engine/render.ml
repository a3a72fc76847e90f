(* Zero-allocation output kernel: digit writers and pre-escaped fragment
   splicing over a growable Bytes buffer.  See render.mli for the
   formatting policy the exporters share. *)

(* integral floats in this range convert to int exactly (any integral
   double below 2^62 is an exact OCaml int), so they take the
   allocation-free digit path; the bound is far below 2^62 only to keep the
   reasoning local *)
let integral_fast f = Float.is_integer f && Float.abs f < 1e18

let float_repr f =
  if f <> f then "nan"
  else if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else if f = 0.0 then (if 1.0 /. f < 0.0 then "-0" else "0")
  else if integral_fast f then string_of_int (int_of_float f)
  else begin
    (* shortest decimal that parses back to the identical double: data
       floats round-trip at low precision, so the loop is short in practice
       and capped at the 17 digits that always suffice for binary64 *)
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 1
  end

module Buf = struct
  type t = { mutable bytes : Bytes.t; mutable len : int }

  let create n = { bytes = Bytes.create (max 16 n); len = 0 }
  let clear b = b.len <- 0
  let length b = b.len
  let contents b = Bytes.sub_string b.bytes 0 b.len
  let to_bytes b = Bytes.sub b.bytes 0 b.len

  let ensure b extra =
    let need = b.len + extra in
    let cap = Bytes.length b.bytes in
    if need > cap then begin
      let cap' = ref (cap * 2) in
      while !cap' < need do
        cap' := !cap' * 2
      done;
      let nb = Bytes.create !cap' in
      Bytes.blit b.bytes 0 nb 0 b.len;
      b.bytes <- nb
    end

  let add_char b c =
    ensure b 1;
    Bytes.unsafe_set b.bytes b.len c;
    b.len <- b.len + 1

  let add_string b s =
    let n = String.length s in
    ensure b n;
    Bytes.blit_string s 0 b.bytes b.len n;
    b.len <- b.len + n

  let add_subbytes b src ~pos ~len =
    ensure b len;
    Bytes.blit src pos b.bytes b.len len;
    b.len <- b.len + len

  (* "00" "01" … "99": one table lookup emits two digits, halving the
     divisions on the per-key hot path *)
  let digit_pairs =
    String.init 200 (fun i ->
        let v = i / 2 in
        Char.chr (Char.code '0' + if i land 1 = 0 then v / 10 else v mod 10))

  let itoa b n =
    if n = 0 then add_char b '0'
    else if n = min_int then add_string b (string_of_int n)
      (* [-n] overflows only for min_int; one cold branch keeps the loop
         below free of overflow checks *)
    else begin
      let neg = n < 0 in
      let v = ref (if neg then -n else n) in
      let d = ref 0 and t = ref !v in
      while !t > 0 do
        incr d;
        t := !t / 10
      done;
      let total = !d + if neg then 1 else 0 in
      ensure b total;
      let bytes = b.bytes in
      let base = b.len in
      if neg then Bytes.unsafe_set bytes base '-';
      let p = ref (base + total) in
      while !v >= 100 do
        let r = !v mod 100 in
        v := !v / 100;
        p := !p - 2;
        Bytes.unsafe_set bytes !p (String.unsafe_get digit_pairs (2 * r));
        Bytes.unsafe_set bytes (!p + 1) (String.unsafe_get digit_pairs ((2 * r) + 1))
      done;
      if !v >= 10 then begin
        p := !p - 2;
        Bytes.unsafe_set bytes !p (String.unsafe_get digit_pairs (2 * !v));
        Bytes.unsafe_set bytes (!p + 1) (String.unsafe_get digit_pairs ((2 * !v) + 1))
      end
      else begin
        decr p;
        Bytes.unsafe_set bytes !p (Char.unsafe_chr (Char.code '0' + !v))
      end;
      b.len <- base + total
    end

  let ftoa b f =
    if integral_fast f then
      (* covers 0.0 too: -0.0 still takes the cold path to keep its sign *)
      if f = 0.0 && 1.0 /. f < 0.0 then add_string b "-0"
      else itoa b (int_of_float f)
    else add_string b (float_repr f)

  let unsafe_bytes b = b.bytes
end

let csv_needs_quote s =
  let n = String.length s in
  let rec go i =
    i < n
    &&
    match String.unsafe_get s i with
    | ',' | '"' | '\n' | '\r' -> true
    | _ -> go (i + 1)
  in
  go 0

let csv_escape s =
  if not (csv_needs_quote s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

let csv_pool pool = Array.map csv_escape pool

let sql_pool pool = Array.map (fun s -> Mirage_sql.Value.(to_string (Str s))) pool
