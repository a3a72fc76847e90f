(* Streaming gzip: fixed-Huffman DEFLATE (RFC 1951 §3.2.6) framed per
   RFC 1952.  See gz.mli for the design constraints. *)

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits (* matcher window; distances stay <= 32768 *)
let hash_bits = 15
let hash_size = 1 lsl hash_bits
let max_match = 258
let min_match = 3
let max_dist = 32768
let max_chain = 48 (* hash-chain probes per position *)
let good_len = 96 (* stop probing once a match this long is found *)

(* [Stdlib.min] is polymorphic and compiles to a call; this one inlines *)
let[@inline] imin (a : int) b = if a < b then a else b

(* Huffman codes are MSB-first in the LSB-first bit stream, so every code is
   stored pre-reversed and pushed with a single [put_bits]. *)
let rev_bits v n =
  let r = ref 0 and v = ref v in
  for _ = 1 to n do
    r := (!r lsl 1) lor (!v land 1);
    v := !v lsr 1
  done;
  !r

(* fixed literal/length alphabet (RFC 1951 §3.2.6): 0-143 → 8 bits from
   0x30, 144-255 → 9 bits from 0x190, 256-279 → 7 bits from 0, 280-287 → 8
   bits from 0xC0 *)
let lit_code, lit_bits =
  let code = Array.make 288 0 and bits = Array.make 288 0 in
  for sym = 0 to 287 do
    let c, n =
      if sym <= 143 then (0x30 + sym, 8)
      else if sym <= 255 then (0x190 + (sym - 144), 9)
      else if sym <= 279 then (sym - 256, 7)
      else (0xC0 + (sym - 280), 8)
    in
    code.(sym) <- rev_bits c n;
    bits.(sym) <- n
  done;
  (code, bits)

(* length symbols 257..285: (base, extra bits) *)
let len_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51; 59;
     67; 83; 99; 115; 131; 163; 195; 227; 258 |]

let len_xbits =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4; 4;
     5; 5; 5; 5; 0 |]

(* length 3..258 → index into the sym-257 tables *)
let len_lookup =
  let t = Bytes.make (max_match + 1) '\000' in
  for s = 0 to 28 do
    let hi = if s = 28 then max_match else len_base.(s + 1) - 1 in
    for l = len_base.(s) to min hi max_match do
      Bytes.unsafe_set t l (Char.unsafe_chr s)
    done
  done;
  (* length 258 is sym 285 (extra 0), not the top of sym 284's range *)
  Bytes.unsafe_set t max_match (Char.unsafe_chr 28);
  t

(* distance symbols 0..29: (base, extra bits); codes are 5 bits fixed *)
let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385;
     513; 769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385; 24577 |]

let dist_xbits =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10;
     10; 11; 11; 12; 12; 13; 13 |]

let dist_code = Array.init 30 (fun s -> rev_bits s 5)

(* distance 1..32768 → sym, one byte per distance; built once at module
   initialisation so the match emitter reads it without a lazy check *)
let dist_lookup =
  let t = Bytes.make (max_dist + 1) '\000' in
  for s = 0 to 29 do
    let hi = if s = 29 then max_dist else dist_base.(s + 1) - 1 in
    for d = dist_base.(s) to min hi max_dist do
      Bytes.unsafe_set t d (Char.unsafe_chr s)
    done
  done;
  t

(* Output buffer capacity.  A chunk costs at most 9 bits per input byte:
   literals take 8 or 9 bits, and matches take less per byte (the costliest,
   length 3 at the farthest distance, is 7 + 5 + 13 = 25 bits for 3 bytes).
   Add the block header, the end-of-block code, the 10-byte gzip header that
   waits in the buffer until the first flush, and the bits [put_bits] holds
   back.  Writes into the buffer are unchecked, so this bound is what keeps
   them in range. *)
let obuf_size = (chunk_size * 9 / 8) + 64

type t = {
  out : Bytes.t -> pos:int -> len:int -> unit;
  obuf : Bytes.t;  (* compressed bytes not yet pushed to [out] *)
  mutable opos : int;
  mutable bitbuf : int;  (* pending bits, LSB first; fewer than 32 *)
  mutable bitcnt : int;
  chunk : Bytes.t;
  mutable clen : int;
  head : int array; (* hash → most recent chunk position, -1 = none *)
  prev : int array; (* position → previous position with the same hash *)
  mutable crc : int;
  mutable isize : int;
  mutable finished : bool;
}

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* bits accumulate LSB-first and leave as whole little-endian 32-bit words;
   no code is wider than 13 bits, so [bitbuf] never exceeds 45 bits *)
let[@inline] put_bits t v n =
  let bb = t.bitbuf lor (v lsl t.bitcnt) and bc = t.bitcnt + n in
  if bc >= 32 then begin
    let w = Int32.of_int bb in
    set32u t.obuf t.opos (if Sys.big_endian then swap32 w else w);
    t.opos <- t.opos + 4;
    t.bitbuf <- bb lsr 32;
    t.bitcnt <- bc - 32
  end
  else begin
    t.bitbuf <- bb;
    t.bitcnt <- bc
  end

let[@inline] add_byte t c =
  Bytes.unsafe_set t.obuf t.opos (Char.unsafe_chr (c land 0xFF));
  t.opos <- t.opos + 1

(* the callback reads [obuf] in place and must not keep it *)
let flush_obuf t =
  if t.opos > 0 then begin
    t.out t.obuf ~pos:0 ~len:t.opos;
    t.opos <- 0
  end

let create out =
  let t =
    {
      out;
      obuf = Bytes.create obuf_size;
      opos = 0;
      bitbuf = 0;
      bitcnt = 0;
      chunk = Bytes.create chunk_size;
      clen = 0;
      head = Array.make hash_size (-1);
      prev = Array.make chunk_size (-1);
      crc = 0;
      isize = 0;
      finished = false;
    }
  in
  (* gzip member header: magic, CM=8 (deflate), no flags, mtime 0, XFL 0,
     OS 255 (unknown) — mtime deliberately zero so output is deterministic *)
  String.iter (fun c -> add_byte t (Char.code c))
    "\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff";
  t

let[@inline] hash3 b i =
  ((Char.code (Bytes.unsafe_get b i) lsl 10)
  lxor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 5)
  lxor Char.code (Bytes.unsafe_get b (i + 2)))
  land (hash_size - 1)

let[@inline] emit_literal t c = put_bits t lit_code.(c) lit_bits.(c)

let emit_match t ~len ~dist =
  let s = Char.code (Bytes.unsafe_get len_lookup len) in
  let sym = 257 + s in
  put_bits t lit_code.(sym) lit_bits.(sym);
  let xb = Array.unsafe_get len_xbits s in
  if xb > 0 then put_bits t (len - Array.unsafe_get len_base s) xb;
  let d = Char.code (Bytes.unsafe_get dist_lookup dist) in
  put_bits t (Array.unsafe_get dist_code d) 5;
  let xb = Array.unsafe_get dist_xbits d in
  if xb > 0 then put_bits t (dist - Array.unsafe_get dist_base d) xb

(* longest common prefix of chunk[i..] and chunk[j..], capped; eight bytes
   per compare while a whole word fits under the cap *)
let match_len b i j limit =
  let l = ref 0 in
  while !l + 8 <= limit && (get64u b (i + !l) : int64) = get64u b (j + !l) do
    l := !l + 8
  done;
  while
    !l < limit
    && Bytes.unsafe_get b (j + !l) = Bytes.unsafe_get b (i + !l)
  do
    incr l
  done;
  !l

(* one non-final fixed-Huffman block per chunk; greedy hash-chain LZ77 *)
let compress_chunk t =
  let n = t.clen in
  if n > 0 then begin
    put_bits t 0 1 (* BFINAL = 0 *);
    put_bits t 1 2 (* BTYPE = 01, fixed Huffman *);
    Array.fill t.head 0 hash_size (-1);
    let b = t.chunk in
    let i = ref 0 in
    while !i < n do
      let i0 = !i in
      let best_len = ref 0 and best_dist = ref 0 in
      if i0 + min_match <= n then begin
        let h = hash3 b i0 in
        let limit = imin max_match (n - i0) in
        (* no candidate can match past [limit]; stopping there as well as at
           [good_len] changes nothing *)
        let stop_len = imin good_len limit in
        let j = ref t.head.(h) and chain = ref 0 in
        (* chain positions strictly decrease (positions are inserted in
           order), so once one candidate is out of the window every later one
           is too: ending the walk there picks the same match *)
        while
          !j >= 0 && i0 - !j <= max_dist && !chain < max_chain
          && !best_len < stop_len
        do
          let jj = !j and bl = !best_len in
          (* only a strictly longer match replaces the current one, and a
             longer match must agree at offset [bl]: one byte compare
             rejects most candidates before [match_len] *)
          if Bytes.unsafe_get b (jj + bl) = Bytes.unsafe_get b (i0 + bl) then begin
            let l = match_len b i0 jj limit in
            if l > bl then begin
              best_len := l;
              best_dist := i0 - jj
            end
          end;
          j := t.prev.(jj);
          incr chain
        done;
        t.prev.(i0) <- t.head.(h);
        t.head.(h) <- i0
      end;
      if !best_len >= min_match then begin
        emit_match t ~len:!best_len ~dist:!best_dist;
        (* index the skipped positions so later matches can reference them;
           position [i0 + best_len] is left to the main loop — inserting it
           here too would make the chain self-referential *)
        let stop = imin (i0 + !best_len - 1) (n - min_match) in
        for p = i0 + 1 to stop do
          let h = hash3 b p in
          t.prev.(p) <- t.head.(h);
          t.head.(h) <- p
        done;
        i := i0 + !best_len
      end
      else begin
        emit_literal t (Char.code (Bytes.unsafe_get b i0));
        incr i
      end
    done;
    put_bits t lit_code.(256) lit_bits.(256) (* end of block *);
    t.clen <- 0;
    flush_obuf t
  end

let write t b ~pos ~len =
  if t.finished then invalid_arg "Gz.write: already finished";
  t.crc <- Sink.crc32 ~crc:t.crc b ~pos ~len;
  t.isize <- t.isize + len;
  let pos = ref pos and len = ref len in
  while !len > 0 do
    let room = chunk_size - t.clen in
    let take = imin room !len in
    Bytes.blit b !pos t.chunk t.clen take;
    t.clen <- t.clen + take;
    pos := !pos + take;
    len := !len - take;
    if t.clen = chunk_size then compress_chunk t
  done

let finish t =
  if not t.finished then begin
    t.finished <- true;
    compress_chunk t;
    (* empty final block closes the DEFLATE stream *)
    put_bits t 1 1 (* BFINAL = 1 *);
    put_bits t 1 2;
    put_bits t lit_code.(256) lit_bits.(256);
    (* pending bits, the last byte zero-padded *)
    while t.bitcnt > 0 do
      add_byte t t.bitbuf;
      t.bitbuf <- t.bitbuf lsr 8;
      t.bitcnt <- (if t.bitcnt > 8 then t.bitcnt - 8 else 0)
    done;
    let le32 v =
      for k = 0 to 3 do
        add_byte t (v lsr (8 * k))
      done
    in
    le32 (t.crc land 0xFFFFFFFF);
    le32 (t.isize land 0xFFFFFFFF);
    flush_obuf t
  end
