module Pred = Mirage_sql.Pred
module Value = Mirage_sql.Value
module Db = Mirage_engine.Db
module Col = Mirage_engine.Col
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

let choose_threshold ~cmp ~target values =
  let n = Array.length values in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    (* pick the candidate minimising |count − target|; the first strictly
       better one wins, visiting every sorted value from the top down and
       then two sentinels outside the data range.  The values of one run of
       equal values select the same rows, so the run's top element stands
       for it, and one downward sweep finds every run's bounds *)
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
  end

let eval_expr_on_row lookup expr =
  let rec go = function
    | Pred.Acol c -> lookup c
    | Pred.Aconst f -> f
    | Pred.Aadd (a, b) -> go a +. go b
    | Pred.Asub (a, b) -> go a -. go b
    | Pred.Amul (a, b) -> go a *. go b
    | Pred.Adiv (a, b) ->
        let d = go b in
        if d = 0.0 then invalid_arg "Acc: division by zero" else go a /. d
  in
  go expr

let non_numeric () =
  invalid_arg "Acc: non-numeric column in arithmetic expression"

let cell_null nulls i =
  match nulls with Some b -> Col.Bitset.get b i | None -> false

(* unboxed per-row float reader over a stored column *)
let float_accessor = function
  | Col.Ints { data; nulls } ->
      fun i -> if cell_null nulls i then non_numeric () else float_of_int data.{i}
  | Col.Floats { data; nulls } ->
      fun i -> if cell_null nulls i then non_numeric () else data.{i}
  | Col.Dict _ -> fun _ -> non_numeric ()
  | Col.Boxed vs -> (
      fun i ->
        match Value.to_float vs.(i) with Some f -> f | None -> non_numeric ())

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
  | Col.Boxed vs ->
      let t = vs.(i) in
      vs.(i) <- vs.(j);
      vs.(j) <- t

let satisfies cmp v t =
  match cmp with
  | Pred.Gt -> v > t
  | Pred.Ge -> v >= t
  | Pred.Lt -> v < t
  | Pred.Le -> v <= t
  | Pred.Eq -> v = t
  | Pred.Neq -> v <> t

(* Arrangement repair (see below): when ties in the result view leave the
   best threshold off target, swapping one involved column's values between
   two rows changes the count without touching any column's value multiset,
   so every UCC stays exact.  Rows below [frozen_prefix] carry bound-row
   groups and are never touched. *)
let instantiate ?(repair = true) ?(frozen_prefix = 0)
    ?(interrupt = fun () -> ()) ~rng ~db ~sample_size (acc : Ir.acc) =
  interrupt ();
  let table = acc.Ir.acc_table in
  let cols = Pred.arith_columns acc.Ir.acc_expr in
  (* live typed columns: the repair swaps below must mutate the stored
     table, not a boxed copy *)
  let arrays = List.map (fun c -> (c, Db.col db table c)) cols in
  let accessors = List.map (fun (c, col) -> (c, float_accessor col)) arrays in
  let n = Db.row_count db table in
  let s = min n sample_size in
  let idx =
    if s = n then Array.init n (fun i -> i)
    else Rng.sample_without_replacement rng s n
  in
  let row_value i =
    let lookup c =
      match List.assoc_opt c accessors with
      | Some f -> f i
      | None -> invalid_arg (Printf.sprintf "Acc: unknown column %s" c)
    in
    eval_expr_on_row lookup acc.Ir.acc_expr
  in
  let values = Array.map row_value idx in
  (* scale the target to the sample, rounding to nearest *)
  let target =
    if s = n then acc.Ir.acc_rows
    else
      int_of_float
        (Float.round (float_of_int acc.Ir.acc_rows *. float_of_int s /. float_of_int n))
  in
  let p = choose_threshold ~cmp:acc.Ir.acc_cmp ~target values in
  (* tie repair only applies when the whole table was scanned: on a sample
     the paper's delta bound already covers the deviation *)
  (if repair && s = n then
     let count () =
       let c = ref 0 in
       for i = 0 to n - 1 do
         if satisfies acc.Ir.acc_cmp (row_value i) p then incr c
       done;
       !c
     in
     if count () <> target then begin
       let cols_arr = Array.of_list (List.map snd arrays) in
       if Array.length cols_arr > 0 && n - frozen_prefix >= 2 then begin
         let tries = ref (50 * n) in
         let current = ref (count ()) in
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
             let before =
               (if satisfies acc.Ir.acc_cmp (row_value i) p then 1 else 0)
               + if satisfies acc.Ir.acc_cmp (row_value j) p then 1 else 0
             in
             swap_cells col i j;
             let after =
               (if satisfies acc.Ir.acc_cmp (row_value i) p then 1 else 0)
               + if satisfies acc.Ir.acc_cmp (row_value j) p then 1 else 0
             in
             let next = !current + after - before in
             if abs (next - target) < abs (!current - target) then current := next
             else swap_cells col i j
           end
         done
       end
     end);
  (acc.Ir.acc_param, Pred.Env.Scalar (Value.Float p))
