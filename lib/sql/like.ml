(* A pattern is fixed-length segments separated by '%' ('_' matches any one
   character).  The first segment must match at the start of [s], the last
   at its end, and each middle segment is matched at its leftmost place
   after the previous one: an earlier place never leaves less room for the
   segments that follow, so the greedy scan finds a match whenever one
   exists.  O(|s| * longest segment) at worst, and about O(|s|) on text. *)

(* [pattern.[ps .. ps+len)] matches [s] at [j] *)
let rec seg_at pattern ps len s j =
  len = 0
  || (let c = String.unsafe_get pattern ps in
      (c = '_' || c = String.unsafe_get s j) && seg_at pattern (ps + 1) (len - 1) s (j + 1))

(* leftmost [j' >= j] with the segment at [j'] ending by [limit]; -1 if none *)
let rec find_seg pattern ps len s j limit =
  if j + len > limit then -1
  else if seg_at pattern ps len s j then j
  else find_seg pattern ps len s (j + 1) limit

let matches ~pattern s =
  let pn = String.length pattern and sn = String.length s in
  match String.index_opt pattern '%' with
  | None -> pn = sn && seg_at pattern 0 pn s 0
  | Some first ->
      let last = String.rindex pattern '%' in
      let suffix = pn - last - 1 in
      let limit = sn - suffix in
      first <= limit
      && seg_at pattern 0 first s 0
      && seg_at pattern (last + 1) suffix s limit
      &&
      (* middle segments, each after a '%' at [ps - 1], within [j, limit) *)
      let rec middle ps j =
        ps > last
        ||
        let pe = String.index_from pattern ps '%' in
        let f = find_seg pattern ps (pe - ps) s j limit in
        f >= 0 && middle (pe + 1) (f + pe - ps)
      in
      middle (first + 1) first
