type outcome =
  | Optimal of float array
  | Infeasible
  | Unbounded

module Mem = Mirage_util.Mem

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Standard-form tableau simplex.
   Tableau layout: rows 0..m-1 are constraints, row m is the objective.
   Columns 0..total-1 are variables, column total is the RHS.
   [basis.(r)] is the variable basic in row r.

   The tableau is stored dense, row r at offset [r * w] of one off-heap
   vector, but the LPs the generator builds are almost empty (about 0.1%
   non-zeros), so a pivot reads column j once, into [rows], and updates
   only the non-zero columns of the pivot row, gathered into [idx].  A
   skipped row has a zero in column j and a skipped column a zero in the
   pivot row, and [x -. f *. ±0.0 = x] for finite [f]: the values, the
   pivot sequence and the solution are those of the full dense
   Gauss–Jordan update, up to the sign of a zero, which no comparison can
   see.  A large tableau is mapped from zero pages ([Mem.zeroed]), so only
   the pages a solve writes become resident, and they go back to the OS
   when the tableau is collected; the largest TPC-DS sf 2 relaxation is
   99 MB dense. *)
type tableau = {
  tab : vec;
  w : int;  (* row width: total + 1 *)
  basis : int array;
  m : int;
  total : int;
  idx : int array;  (* non-zero columns of the current source row *)
  rows : int array;  (* constraint rows with a non-zero in the pivot column *)
}

(* inlined, so the floats they read and write stay unboxed *)
let[@inline] get (v : vec) i = Bigarray.Array1.unsafe_get v i
let[@inline] set (v : vec) i x = Bigarray.Array1.unsafe_set v i x
let[@inline] at t r j = get t.tab ((r * t.w) + j)
let[@inline] put t r j x = set t.tab ((r * t.w) + j) x

(* [tab.{dst + k} <- tab.{dst + k} -. f *. tab.{src + k}] over the first
   [cnt] columns of [idx]; [dst] and [src] are row offsets. *)
let sub_scaled tab idx cnt dst f src =
  for i = 0 to cnt - 1 do
    let k = Array.unsafe_get idx i in
    set tab (dst + k) (get tab (dst + k) -. (f *. get tab (src + k)))
  done

(* Gather the non-zero columns of the row at offset [row] into [t.idx];
   returns their count. *)
let gather t row =
  let cnt = ref 0 in
  for k = 0 to t.w - 1 do
    if get t.tab (row + k) <> 0.0 then begin
      Array.unsafe_set t.idx !cnt k;
      incr cnt
    end
  done;
  !cnt

(* Gather the constraint rows with a non-zero in column [j] into [t.rows],
   in row order; returns their count. *)
let gather_column t j =
  let cnt = ref 0 in
  for r = 0 to t.m - 1 do
    if abs_float (at t r j) > 0.0 then begin
      t.rows.(!cnt) <- r;
      incr cnt
    end
  done;
  !cnt

(* Gauss–Jordan pivot on (r, j), with [t.rows] holding column j's first
   [ncol] non-zero rows (from [gather_column t j]): divide row r by its
   column-j entry, then eliminate column j from every other row, the
   objective row last. *)
let pivot t ~ncol r j =
  let tab = t.tab and w = t.w in
  let prow = r * w in
  let piv = get tab (prow + j) in
  let cnt = gather t prow in
  for i = 0 to cnt - 1 do
    let k = t.idx.(i) in
    set tab (prow + k) (get tab (prow + k) /. piv)
  done;
  for i = 0 to ncol - 1 do
    let r' = t.rows.(i) in
    if r' <> r then begin
      let row = r' * w in
      sub_scaled tab t.idx cnt row (get tab (row + j)) prow
    end
  done;
  let objrow = t.m * w in
  let f = get tab (objrow + j) in
  if abs_float f > 0.0 then sub_scaled tab t.idx cnt objrow f prow;
  t.basis.(r) <- j

(* pivot and feasibility tolerance *)
let eps = 1e-9

let simplex_tableau ?allowed t =
  let { basis; m; total; _ } = t in
  let obj = m in
  let rhs = total in
  (* columns eligible to enter the basis: phase II must never re-admit the
     artificial variables *)
  let allowed = match allowed with Some a -> a | None -> total in
  let rec iterate guard =
    if guard > 20_000 then `Unbounded (* cycling guard; Bland prevents it in theory *)
    else begin
      (* Bland: entering variable = lowest index with negative reduced cost *)
      let entering = ref (-1) in
      (try
         for j = 0 to allowed - 1 do
           if at t obj j < -.eps then begin
             entering := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !entering = -1 then `Optimal
      else begin
        let j = !entering in
        (* ratio test over the column's non-zero rows, Bland tie-break on
           basis variable index *)
        let ncol = gather_column t j in
        let leaving = ref (-1) in
        let best = ref infinity in
        for i = 0 to ncol - 1 do
          let r = t.rows.(i) in
          if at t r j > eps then begin
            let ratio = at t r rhs /. at t r j in
            if
              ratio < !best -. eps
              || (abs_float (ratio -. !best) <= eps
                 && (!leaving = -1 || basis.(r) < basis.(!leaving)))
            then begin
              best := ratio;
              leaving := r
            end
          end
        done;
        if !leaving = -1 then `Unbounded
        else begin
          pivot t ~ncol !leaving j;
          iterate (guard + 1)
        end
      end
    end
  in
  iterate 0

let check_rows ~n a =
  let last_row = Array.make n (-1) in
  Array.iteri
    (fun r row ->
      Array.iter
        (fun (j, _) ->
          if j < 0 || j >= n then invalid_arg "Lp.solve: column out of range";
          if last_row.(j) = r then invalid_arg "Lp.solve: column listed twice";
          last_row.(j) <- r)
        row)
    a

let solve ~a ~b ~c () =
  let m = Array.length a in
  let n = Array.length c in
  if Array.length b <> m then invalid_arg "Lp.solve: |b| <> rows of A";
  check_rows ~n a;
  let total = n + m in
  (* columns: n structural + m artificial *)
  let w = total + 1 in
  let tab : vec = Mem.zeroed Bigarray.float64 0.0 ((m + 1) * w) in
  let t =
    {
      tab;
      w;
      basis = Array.init m (fun r -> n + r);
      m;
      total;
      idx = Array.make w 0;
      rows = Array.make m 0;
    }
  in
  (* fill rows normalised to b >= 0, and the phase I objective (minimise the
     sum of artificials = the sum of rows) as column sums in row order *)
  let obj = m in
  for r = 0 to m - 1 do
    let neg = b.(r) < 0.0 in
    Array.iter
      (fun (j, v) ->
        let v = if neg then -.v else v in
        put t r j v;
        put t obj j (at t obj j +. v))
      a.(r);
    put t r (n + r) 1.0;
    put t r total (if neg then -.b.(r) else b.(r));
    put t obj total (at t obj total +. at t r total)
  done;
  for j = 0 to n - 1 do
    put t obj j (-.at t obj j)
  done;
  put t obj total (-.at t obj total);
  match simplex_tableau t with
  | `Unbounded -> Infeasible (* phase I is bounded; numerical trouble *)
  | `Optimal ->
      if at t obj total < -.(eps *. 1e3) -. 1e-6 then Infeasible
      else begin
        (* drive artificials out of the basis where possible *)
        for r = 0 to m - 1 do
          if t.basis.(r) >= n then begin
            let j = ref (-1) in
            (try
               for k = 0 to n - 1 do
                 if abs_float (at t r k) > eps *. 10.0 then begin
                   j := k;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !j >= 0 then pivot t ~ncol:(gather_column t !j) r !j
          end
        done;
        (* Phase II objective (artificials may no longer enter) *)
        for k = 0 to total do
          put t obj k (if k < n then c.(k) else 0.0)
        done;
        (* reduce objective row against basic columns *)
        for r = 0 to m - 1 do
          let bv = t.basis.(r) in
          if bv < n && abs_float (at t obj bv) > 0.0 then
            sub_scaled tab t.idx (gather t (r * w)) (obj * w) (at t obj bv) (r * w)
        done;
        match simplex_tableau ~allowed:n t with
        | `Unbounded -> Unbounded
        | `Optimal ->
            let x = Array.make n 0.0 in
            for r = 0 to m - 1 do
              if t.basis.(r) < n then x.(t.basis.(r)) <- at t r total
            done;
            (* clamp numerical negatives *)
            Array.iteri (fun i v -> if v < 0.0 then x.(i) <- 0.0) x;
            Optimal x
      end

let feasible_point ~n ~a ~b () =
  match solve ~a ~b ~c:(Array.make n 0.0) () with
  | Optimal x -> Some x
  | Infeasible | Unbounded -> None

let round_preserving_sum xs ~total =
  let n = Array.length xs in
  let floors = Array.map (fun x -> int_of_float (floor (x +. 1e-9))) xs in
  let remainders = Array.mapi (fun i x -> (x -. float_of_int floors.(i), i)) xs in
  let current = Array.fold_left ( + ) 0 floors in
  let deficit = total - current in
  let order = Array.copy remainders in
  Array.sort (fun (a, i) (b, j) -> match compare b a with 0 -> compare i j | c -> c) order;
  let out = Array.copy floors in
  if deficit >= 0 then begin
    (* spread the deficit by largest remainders, wrapping around when it
       exceeds the number of elements *)
    let left = ref deficit in
    while !left > 0 && n > 0 do
      for k = 0 to n - 1 do
        if !left > 0 then begin
          let _, i = order.(k) in
          out.(i) <- out.(i) + 1;
          decr left
        end
      done
    done
  end
  else begin
    (* too much mass: remove from the smallest remainders, keeping >= 0 *)
    let removed = ref 0 in
    let k = ref (n - 1) in
    while !removed < -deficit && !k >= 0 do
      let _, i = order.(!k) in
      if out.(i) > 0 then begin
        out.(i) <- out.(i) - 1;
        incr removed
      end
      else decr k
    done
  end;
  out
