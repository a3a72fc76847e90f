module Schema = Mirage_sql.Schema
module Rng = Mirage_util.Rng
module Col = Mirage_engine.Col

(* Bound-row groups (§4.3 "Arrange Values"): each group pins [n] rows to
   carry specific values in specific columns simultaneously.  A group cell
   whose parameter is an in/like literal maps to several values; such a
   group is split into one sub-group per value, sized by the value's row
   budget (their budgets sum to the group size by construction). *)
let generate ?(chunk_rows = max_int) ?(interrupt = fun () -> ()) ~rng ~table
    ~rows ~layouts ~bound ~param_values () =
  if chunk_rows < 1 then invalid_arg "Nonkey.generate: chunk_rows must be >= 1";
  (* chunked row scans: identical visit order to a single pass, with a
     cooperative poll between chunks — the draws and writes are unchanged,
     so streamed output is byte-identical to the monolithic path *)
  let scan_rows f =
    let lo = ref 0 in
    while !lo < rows do
      interrupt ();
      let hi = min rows (!lo + chunk_rows) in
      for i = !lo to hi - 1 do
        f i
      done;
      lo := hi
    done
  in
  let layout_of col =
    match List.assoc_opt col layouts with
    | Some l -> l
    | None -> invalid_arg (Printf.sprintf "Nonkey.generate: no layout for %s" col)
  in
  let counts =
    List.map (fun (col, l) -> (col, Array.copy l.Cdf.l_value_counts)) layouts
  in
  let counts_of col = List.assoc col counts in
  (* per-column value-domain ints; 0 marks a free slot (values are 1-based).
     Work vectors are off-heap Ivecs, so fact-table instantiation does not
     park one heap array per column. *)
  let columns =
    List.map
      (fun (c : Schema.column) -> (c.Schema.cname, Col.Ivec.make rows 0))
      table.Schema.nonkeys
  in
  let col_arr c = List.assoc c columns in
  let offset = ref 0 in
  let emit_group cells n =
    (* [cells]: (column, single value); write [n] rows at the cursor *)
    if n > 0 then begin
      if !offset + n > rows then
        invalid_arg "Nonkey.generate: bound rows exceed table size";
      List.iter
        (fun (col, v) ->
          if v < 1 then
            invalid_arg (Printf.sprintf "Nonkey.generate: bound cell %s unresolved" col);
          let cnt = counts_of col in
          if cnt.(v - 1) < n then
            invalid_arg
              (Printf.sprintf
                 "Nonkey.generate: bound group needs %d rows of %s=%d, only %d left" n
                 col v cnt.(v - 1));
          cnt.(v - 1) <- cnt.(v - 1) - n;
          let arr = col_arr col in
          for i = !offset to !offset + n - 1 do
            Col.Ivec.set arr i v
          done)
        cells;
      offset := !offset + n
    end
  in
  List.iter
    (fun (br : Ir.bound_rows) ->
      let cell_values =
        List.map
          (fun (col, param) ->
            match param_values param with
            | Some (_ :: _ as vs) -> (col, vs)
            | Some [] | None ->
                invalid_arg
                  (Printf.sprintf "Nonkey.generate: bound cell %s=%s unresolved" col
                     param))
          br.Ir.br_cells
      in
      let singles, multis =
        List.partition (fun (_, vs) -> List.length vs = 1) cell_values
      in
      let fixed = List.map (fun (c, vs) -> (c, List.hd vs)) singles in
      match multis with
      | [] -> emit_group fixed br.Ir.br_rows
      | [ (mcol, mvals) ] ->
          (* split across the multi-valued cell, bounded by each value's
             remaining budget *)
          let remaining = ref br.Ir.br_rows in
          List.iter
            (fun v ->
              if !remaining > 0 && v >= 1 then begin
                let budget = (counts_of mcol).(v - 1) in
                let n = min !remaining budget in
                emit_group ((mcol, v) :: fixed) n;
                remaining := !remaining - n
              end)
            mvals;
          if !remaining > 0 then
            invalid_arg
              (Printf.sprintf
                 "Nonkey.generate: bound group on %s short by %d rows" mcol !remaining)
      | _ :: _ :: _ ->
          invalid_arg
            "Nonkey.generate: more than one multi-valued cell in a bound group"
    )
    bound;
  (* shuffle the residual pool of every column into the free slots.  The
     free-slot positions are recomputed by a second ascending scan instead of
     materialising them (the old cons-list of indices cost ~24 bytes per free
     row), and the pool itself is an Ivec so it goes off-heap with the
     column. *)
  List.iter
    (fun (col, cnt) ->
      let arr = col_arr col in
      let nfree = ref 0 in
      scan_rows (fun i -> if Col.Ivec.unsafe_get arr i = 0 then incr nfree);
      let nfree = !nfree in
      let pool = Col.Ivec.make nfree 0 in
      let k = ref 0 in
      Array.iteri
        (fun vi c ->
          for _ = 1 to c do
            if !k >= nfree then
              invalid_arg
                (Printf.sprintf "Nonkey.generate: %s pool larger than free slots" col);
            Col.Ivec.set pool !k (vi + 1);
            incr k
          done)
        cnt;
      if !k <> nfree then
        invalid_arg
          (Printf.sprintf "Nonkey.generate: %s pool (%d) < free slots (%d)" col !k
             nfree);
      let col_rng = Rng.split rng in
      Rng.shuffle_swap col_rng nfree (fun i j ->
          let tmp = Col.Ivec.get pool i in
          Col.Ivec.set pool i (Col.Ivec.get pool j);
          Col.Ivec.set pool j tmp);
      let j = ref 0 in
      scan_rows (fun i ->
          if Col.Ivec.unsafe_get arr i = 0 then begin
            Col.Ivec.unsafe_set arr i (Col.Ivec.get pool !j);
            incr j
          end))
    counts;
  let pk = Col.init_ints rows (fun i -> i + 1) in
  (table.Schema.pk, pk)
  :: List.map (fun (col, arr) -> (col, Cdf.to_col (layout_of col) arr)) columns
