module Pred = Mirage_sql.Pred
module Value = Mirage_sql.Value
module Db = Mirage_engine.Db
module Col = Mirage_engine.Col
module Arith = Mirage_engine.Arith
module Rng = Mirage_util.Rng

(* Rows of an ascending array of [n] values satisfying [x ◦ t], given the
   index of its first element >= t ([lower]) and of its first > t ([upper]). *)
let selected ~cmp ~n ~lower ~upper =
  match cmp with
  | Pred.Gt -> n - upper
  | Pred.Ge -> n - lower
  | Pred.Lt -> lower
  | Pred.Le -> upper
  | Pred.Eq -> upper - lower
  | Pred.Neq -> n - (upper - lower)

(* first index of [sorted] whose element fails [below] *)
let search sorted below =
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if below sorted.(mid) then lo := mid + 1 else hi := mid
  done;
  !lo

(* The sort-and-sweep: copy the values, heap-sort the copy, and pick the
   candidate minimising |count − target|; the first strictly better one
   wins, visiting every sorted value from the top down and then two
   sentinels outside the data range.  The values of one run of equal values
   select the same rows, so the run's top element stands for it, and one
   downward sweep finds every run's bounds.  Where a run's elements differ
   in bits (a NaN, or a zero run holding both signs), the heap sort's
   permutation decides which bits come back, so only this sweep returns
   them. *)
let sweep ~cmp ~target (values : Col.float_big) =
  let n = Bigarray.Array1.dim values in
  let sorted = Array.init n (fun i -> values.{i}) in
  Array.sort Float.compare sorted;
  let best = ref 0.0 and best_dev = ref max_int in
  let consider t ~lower ~upper =
    let dev = abs (selected ~cmp ~n ~lower ~upper - target) in
    if dev < !best_dev then begin
      best_dev := dev;
      best := t
    end
  in
  let upper = ref n in
  while !upper > 0 do
    let t = sorted.(!upper - 1) in
    let lower = ref (!upper - 1) in
    while !lower > 0 && sorted.(!lower - 1) = t do
      decr lower
    done;
    consider t ~lower:!lower ~upper:!upper;
    upper := !lower
  done;
  (* a sentinel can equal an extreme value (an infinity, or a magnitude
     where ±1 rounds away), so its bounds are searched *)
  List.iter
    (fun t ->
      consider t ~lower:(search sorted (fun x -> x < t))
        ~upper:(search sorted (fun x -> x <= t)))
    [ sorted.(0) -. 1.0; sorted.(n - 1) +. 1.0 ];
  !best

let median3 x y z =
  if x < y then if y < z then y else if x < z then z else x
  else if x < z then x
  else if y < z then z
  else y

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* The [k]-th smallest element of [a] (NaN-free), permuting [a]: a
   three-way quickselect on median-of-three pivots, so a tie-heavy range
   ends as soon as [k] falls among the pivot's equals.  A range still
   unresolved after [2 log2 n] partitions, or small, is sorted instead
   (introselect), which bounds the worst case by O(n log n). *)
let select (a : Col.float_big) k =
  let lo = ref 0 and hi = ref (Bigarray.Array1.dim a) in
  let depth = ref (2 * log2 !hi) and found = ref None in
  while Option.is_none !found do
    if !hi - !lo <= 16 || !depth = 0 then begin
      let sub = Array.init (!hi - !lo) (fun i -> a.{!lo + i}) in
      Array.sort Float.compare sub;
      found := Some sub.(k - !lo)
    end
    else begin
      decr depth;
      let p = median3 a.{!lo} a.{(!lo + !hi) / 2} a.{!hi - 1} in
      (* [lo, lt) < p, [lt, gt) = p, [gt, hi) > p *)
      let lt = ref !lo and i = ref !lo and gt = ref !hi in
      while !i < !gt do
        let e = Bigarray.Array1.unsafe_get a !i in
        if e < p then begin
          Bigarray.Array1.unsafe_set a !i (Bigarray.Array1.unsafe_get a !lt);
          Bigarray.Array1.unsafe_set a !lt e;
          incr lt;
          incr i
        end
        else if e > p then begin
          decr gt;
          Bigarray.Array1.unsafe_set a !i (Bigarray.Array1.unsafe_get a !gt);
          Bigarray.Array1.unsafe_set a !gt e
        end
        else incr i
      done;
      if k < !lt then hi := !lt
      else if k >= !gt then lo := !gt
      else found := Some p
    end
  done;
  Option.get !found

(* For [Gt]/[Ge]/[Lt]/[Le] the selected count is monotone in the run, so
   |count − target| falls and then rises over the sweep's runs: the best
   run is the one holding the order statistic at the target rank, or its
   nearest distinct neighbour below or above.  One selection finds that
   statistic [v]; one pass counts the rows below and at [v], finds both
   neighbours with their multiplicities, the extremes with theirs (the
   sentinels' bounds) and the zero signs.  The same candidates in the
   sweep's order (neighbour above, [v], neighbour below, sentinels) pick
   the same winner.  [None] when the sweep must decide the bits: a NaN, or
   a winning zero run that holds both [-0.0] and [+0.0]. *)
let bracket ~cmp ~target (values : Col.float_big) =
  let n = Bigarray.Array1.dim values in
  let scratch = Col.alloc_float_big n in
  let nan = ref false in
  for i = 0 to n - 1 do
    let x = values.{i} in
    if Float.is_nan x then nan := true;
    Bigarray.Array1.unsafe_set scratch i x
  done;
  if !nan then None
  else begin
    let rank =
      match cmp with
      | Pred.Gt -> n - target - 1
      | Pred.Le -> target - 1
      | Pred.Ge -> n - target
      | Pred.Lt | Pred.Eq | Pred.Neq -> target
    in
    let v = select scratch (max 0 (min (n - 1) rank)) in
    let lt = ref 0 and le = ref 0 in
    let below = ref 0.0 and below_n = ref 0 in
    let above = ref 0.0 and above_n = ref 0 in
    let lo = ref values.{0} and lo_n = ref 0 in
    let hi = ref values.{0} and hi_n = ref 0 in
    let neg0 = ref false and pos0 = ref false in
    for i = 0 to n - 1 do
      let x = values.{i} in
      if x < v then begin
        incr lt;
        incr le;
        if !below_n = 0 || x > !below then begin
          below := x;
          below_n := 1
        end
        else if x = !below then incr below_n
      end
      else if x = v then incr le
      else if !above_n = 0 || x < !above then begin
        above := x;
        above_n := 1
      end
      else if x = !above then incr above_n;
      if x < !lo then begin
        lo := x;
        lo_n := 1
      end
      else if x = !lo then incr lo_n;
      if x > !hi then begin
        hi := x;
        hi_n := 1
      end
      else if x = !hi then incr hi_n;
      if x = 0.0 then if Float.sign_bit x then neg0 := true else pos0 := true
    done;
    let best = ref 0.0 and best_dev = ref max_int and best_run = ref false in
    let consider ~run t ~lower ~upper =
      let dev = abs (selected ~cmp ~n ~lower ~upper - target) in
      if dev < !best_dev then begin
        best_dev := dev;
        best := t;
        best_run := run
      end
    in
    if !above_n > 0 then
      consider ~run:true !above ~lower:!le ~upper:(!le + !above_n);
    consider ~run:true v ~lower:!lt ~upper:!le;
    if !below_n > 0 then
      consider ~run:true !below ~lower:(!lt - !below_n) ~upper:!lt;
    (* a sentinel equals an extreme only where ±1 rounds away *)
    let t = !lo -. 1.0 in
    consider ~run:false t ~lower:0 ~upper:(if t < !lo then 0 else !lo_n);
    let t = !hi +. 1.0 in
    consider ~run:false t ~lower:(if t > !hi then n else n - !hi_n) ~upper:n;
    if !best_run && !best = 0.0 && !neg0 && !pos0 then None else Some !best
  end

let choose_threshold ~cmp ~target values =
  if Bigarray.Array1.dim values = 0 then 0.0
  else
    match cmp with
    | Pred.Eq | Pred.Neq -> sweep ~cmp ~target values
    | Pred.Gt | Pred.Ge | Pred.Lt | Pred.Le -> (
        match bracket ~cmp ~target values with
        | Some t -> t
        | None -> sweep ~cmp ~target values)

(* swap two rows of one stored column in place; value multisets (and hence
   every UCC) are preserved by construction *)
let swap_cells col i j =
  let swap_bits = function
    | None -> ()
    | Some b ->
        let bi = Col.Bitset.get b i and bj = Col.Bitset.get b j in
        if bi <> bj then begin
          if bj then Col.Bitset.set b i else Col.Bitset.clear b i;
          if bi then Col.Bitset.set b j else Col.Bitset.clear b j
        end
  in
  match col with
  | Col.Ints { data; nulls } ->
      let t = data.{i} in
      data.{i} <- data.{j};
      data.{j} <- t;
      swap_bits nulls
  | Col.Floats { data; nulls } ->
      let t = data.{i} in
      data.{i} <- data.{j};
      data.{j} <- t;
      swap_bits nulls
  | Col.Dict { codes; nulls; _ } ->
      let t = codes.{i} in
      codes.{i} <- codes.{j};
      codes.{j} <- t;
      swap_bits nulls

(* Arrangement repair (see below): when ties in the result view leave the
   best threshold off target, swapping one involved column's values between
   two rows changes the count without touching any column's value multiset,
   so every UCC stays exact.  Rows below [frozen_prefix] carry bound-row
   groups and are never touched. *)
let instantiate ?(repair = true) ?(frozen_prefix = 0)
    ?(interrupt = fun () -> ()) ~rng ~db ~sample_size (acc : Ir.acc) =
  interrupt ();
  let table = acc.Ir.acc_table and cmp = acc.Ir.acc_cmp in
  let cols = Pred.arith_columns acc.Ir.acc_expr in
  (* live typed columns: the repair swaps below must mutate the stored
     table, not a boxed copy *)
  let arrays = List.map (fun c -> (c, Db.col db table c)) cols in
  let n = Db.row_count db table in
  let s = min n sample_size in
  let sel = if s = n then None else Some (Rng.sample_without_replacement rng s n) in
  let view =
    Arith.eval ~rows:s (fun c -> (List.assoc c arrays, sel)) acc.Ir.acc_expr
  in
  (* a NULL result row has a NULL or non-numeric cell, or a zero divisor *)
  let check k =
    if Arith.is_null view k then begin
      let p = match sel with None -> k | Some idx -> idx.(k) in
      invalid_arg
        (if List.exists (fun (_, col) -> Col.float_at col p = None) arrays then
           "Acc: non-numeric column in arithmetic expression"
         else "Acc: division by zero")
    end
  in
  if Col.Bitset.count (Arith.nulls view) > 0 then
    for k = 0 to s - 1 do
      check k
    done;
  let values = Arith.values view in
  (* scale the target to the sample, rounding to nearest *)
  let target =
    if s = n then acc.Ir.acc_rows
    else
      int_of_float
        (Float.round (float_of_int acc.Ir.acc_rows *. float_of_int s /. float_of_int n))
  in
  let p = choose_threshold ~cmp ~target values in
  (* tie repair only applies when the whole table was scanned: on a sample
     the paper's delta bound already covers the deviation *)
  (if repair && s = n then
     (* 1 when row [i] satisfies the predicate at [p]: IEEE comparisons,
        unboxed *)
     let hit =
       match cmp with
       | Pred.Gt -> fun i -> Bool.to_int (values.{i} > p)
       | Pred.Ge -> fun i -> Bool.to_int (values.{i} >= p)
       | Pred.Lt -> fun i -> Bool.to_int (values.{i} < p)
       | Pred.Le -> fun i -> Bool.to_int (values.{i} <= p)
       | Pred.Eq -> fun i -> Bool.to_int (values.{i} = p)
       | Pred.Neq -> fun i -> Bool.to_int (values.{i} <> p)
     in
     let count = ref 0 in
     for i = 0 to n - 1 do
       count := !count + hit i
     done;
     if !count <> target then begin
       let cols_arr = Array.of_list (List.map snd arrays) in
       if Array.length cols_arr > 0 && n - frozen_prefix >= 2 then begin
         let tries = ref (50 * n) in
         let current = ref !count in
         while !current <> target && !tries > 0 do
           (* cooperative poll on the swap search, cheap enough to keep the
              hot loop branch-predictable: repair only runs on fully-scanned
              tables, whose swaps mutate the stored (off-heap)
              columns in place — resident state stays at the sample *)
           if !tries land 4095 = 0 then interrupt ();
           decr tries;
           let i = frozen_prefix + Rng.int rng (n - frozen_prefix) in
           let j = frozen_prefix + Rng.int rng (n - frozen_prefix) in
           if i <> j then begin
             let col = cols_arr.(Rng.int rng (Array.length cols_arr)) in
             let vi = values.{i} and vj = values.{j} in
             let before = hit i + hit j in
             swap_cells col i j;
             (* only the two swapped rows change; a swap can move a zero
                into a divisor *)
             Arith.run view ~src:i ~dst:i ~len:1;
             Arith.run view ~src:j ~dst:j ~len:1;
             check i;
             check j;
             let after = hit i + hit j in
             let next = !current + after - before in
             if abs (next - target) < abs (!current - target) then current := next
             else begin
               swap_cells col i j;
               values.{i} <- vi;
               values.{j} <- vj
             end
           end
         done
       end
     end);
  (acc.Ir.acc_param, Pred.Env.Scalar (Value.Float p))
