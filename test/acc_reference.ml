(* [Acc.choose_threshold] as it was before the one-sweep search, kept as a
   test oracle: every sorted value and the two sentinels become a boxed
   candidate list, and each candidate's selected count takes two binary
   searches.  [test_core] checks that the selection returns the
   bit-identical threshold for [<], [<=], [>] and [>=], except that a
   winning zero run holding both signs is [+0.0]. *)

module Pred = Mirage_sql.Pred

(* Exact count of elements of [sorted] (ascending) satisfying [x ◦ t]. *)
let count_selected ~cmp sorted t =
  let n = Array.length sorted in
  (* index of first element > t (upper bound) and first >= t (lower bound) *)
  let upper =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) <= t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let lower =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) < t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  match cmp with
  | Pred.Gt -> n - upper
  | Pred.Ge -> n - lower
  | Pred.Lt -> lower
  | Pred.Le -> upper
  | Pred.Eq -> upper - lower
  | Pred.Neq -> n - (upper - lower)

let choose_threshold ~cmp ~target values =
  if Array.length values = 0 then 0.0
  else begin
    let sorted = Array.copy values in
    Array.sort compare sorted;
    let n = Array.length sorted in
    (* candidate thresholds: every distinct value, plus sentinels outside the
       data range; pick the one minimising |count − target| *)
    let candidates = ref [ sorted.(0) -. 1.0; sorted.(n - 1) +. 1.0 ] in
    Array.iter (fun v -> candidates := v :: !candidates) sorted;
    let best = ref (sorted.(0) -. 1.0) in
    let best_dev = ref max_int in
    List.iter
      (fun t ->
        let dev = abs (count_selected ~cmp sorted t - target) in
        if dev < !best_dev then begin
          best_dev := dev;
          best := t
        end)
      !candidates;
    !best
  end

