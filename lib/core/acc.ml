module Pred = Mirage_sql.Pred
module Value = Mirage_sql.Value
module Db = Mirage_engine.Db
module Col = Mirage_engine.Col
module Arith = Mirage_engine.Arith
module Rng = Mirage_util.Rng

let median3 x y z =
  if x < y then if y < z then y else if x < z then z else x
  else if x < z then x
  else if y < z then z
  else y

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* Sorts [a.{lo}] .. [a.{hi - 1}] (NaN-free) in place: a heap sort, so
   O(m log m) in the range's length [m], with no allocation. *)
let heap_sort (a : Col.float_big) lo hi =
  let get i = Bigarray.Array1.unsafe_get a (lo + i)
  and set i x = Bigarray.Array1.unsafe_set a (lo + i) x in
  (* sift element [i] down the max-heap held by the first [len] *)
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && get (l + 1) > get l then l + 1 else l in
      if get c > get i then begin
        let x = get i in
        set i (get c);
        set c x;
        sift c len
      end
    end
  in
  let m = hi - lo in
  for i = (m / 2) - 1 downto 0 do
    sift i m
  done;
  for last = m - 1 downto 1 do
    let x = get 0 in
    set 0 (get last);
    set last x;
    sift 0 last
  done

(* The [k]-th smallest element of [a] (NaN-free), permuting [a]: a
   three-way quickselect on median-of-three pivots, so a tie-heavy range
   ends as soon as [k] falls among the pivot's equals.  A range still
   unresolved after [2 log2 n] partitions, or small, is heap-sorted instead
   (introselect), which bounds the worst case by O(n log n). *)
let select (a : Col.float_big) k =
  let lo = ref 0 and hi = ref (Bigarray.Array1.dim a) in
  let depth = ref (2 * log2 !hi) and found = ref None in
  while Option.is_none !found do
    if !hi - !lo <= 16 || !depth = 0 then begin
      heap_sort a !lo !hi;
      found := Some a.{k}
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

(* The count of rows selected by [x ◦ t] is monotone in [t], so
   |count − target| falls and then rises over the runs of equal values:
   the best run is the one holding the order statistic at the target rank,
   or its nearest distinct neighbour below or above.  One selection on a
   scratch copy finds that statistic [v]; one pass counts the rows below
   and at [v], finds both neighbours with their multiplicities, the
   extremes with theirs (the sentinels' bounds) and the zero signs.  The
   candidates are visited as a downward sweep over every run would visit
   them (neighbour above, [v], neighbour below, sentinels), and the first
   strictly better one wins. *)
let choose_threshold ~cmp ~target (values : Col.float_big) =
  let n = Bigarray.Array1.dim values in
  (* the target rank, and the rows selected given the index of the first
     value >= t ([lower]) and of the first > t ([upper]) *)
  let rank, selected =
    match cmp with
    | Pred.Gt -> (n - target - 1, fun ~lower:_ ~upper -> n - upper)
    | Pred.Ge -> (n - target, fun ~lower ~upper:_ -> n - lower)
    | Pred.Lt -> (target, fun ~lower ~upper:_ -> lower)
    | Pred.Le -> (target - 1, fun ~lower:_ ~upper -> upper)
    | Pred.Eq | Pred.Neq ->
        invalid_arg "Acc: arithmetic predicates only support <, <=, >, >="
  in
  if n = 0 then 0.0
  else begin
    let scratch = Col.alloc_float_big n in
    for i = 0 to n - 1 do
      let x = values.{i} in
      if Float.is_nan x then invalid_arg "Acc: NaN in arithmetic expression";
      Bigarray.Array1.unsafe_set scratch i x
    done;
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
    let best = ref 0.0 and best_dev = ref max_int in
    let consider t ~lower ~upper =
      let dev = abs (selected ~lower ~upper - target) in
      if dev < !best_dev then begin
        best_dev := dev;
        best := t
      end
    in
    if !above_n > 0 then consider !above ~lower:!le ~upper:(!le + !above_n);
    consider v ~lower:!lt ~upper:!le;
    if !below_n > 0 then consider !below ~lower:(!lt - !below_n) ~upper:!lt;
    (* a sentinel equals an extreme only where ±1 rounds away *)
    let t = !lo -. 1.0 in
    consider t ~lower:0 ~upper:(if t < !lo then 0 else !lo_n);
    let t = !hi +. 1.0 in
    consider t ~lower:(if t > !hi then n else n - !hi_n) ~upper:n;
    (* both zeros select the same rows; a sentinel is zero only when the
       values hold none *)
    if !best = 0.0 && !neg0 && !pos0 then 0.0 else !best
  end

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
let instantiate ?(frozen_prefix = 0)
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
  (if s = n then
     (* 1 when row [i] satisfies the predicate at [p]: IEEE comparisons,
        unboxed *)
     let hit =
       match cmp with
       | Pred.Gt -> fun i -> Bool.to_int (values.{i} > p)
       | Pred.Ge -> fun i -> Bool.to_int (values.{i} >= p)
       | Pred.Lt -> fun i -> Bool.to_int (values.{i} < p)
       | Pred.Le -> fun i -> Bool.to_int (values.{i} <= p)
       | Pred.Eq | Pred.Neq -> assert false (* refused by [choose_threshold] *)
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
