module Pred = Mirage_sql.Pred
module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Exec = Mirage_engine.Exec
module Rel = Mirage_engine.Rel
module Rng = Mirage_util.Rng
module Par = Mirage_par.Par
module Cp = Mirage_cp.Cp
module Int_ids = Mirage_engine.Int_ids

type stage_times = {
  mutable t_cs : float;
  mutable t_cp : float;
  mutable t_pf : float;
  mutable cp_solves : int;
  mutable cp_nodes : int;
  mutable cp_restarts : int;
  mutable cp_props : int;
  mutable batch_alloc_bytes : int;
      (* largest allocation volume of a single batch: the working set the
         paper's Fig. 14 trades off against CP rounds *)
}

let fresh_times () =
  { t_cs = 0.0; t_cp = 0.0; t_pf = 0.0; cp_solves = 0; cp_nodes = 0;
    cp_restarts = 0; cp_props = 0; batch_alloc_bytes = 0 }

(* fold [src] into [acc]: the overlap scheduler gives each edge task its own
   counter record (so concurrent edges never race on one) and merges them in
   topological edge order afterwards — same totals as the shared record the
   barrier path threads through every call *)
let add_times acc src =
  acc.t_cs <- acc.t_cs +. src.t_cs;
  acc.t_cp <- acc.t_cp +. src.t_cp;
  acc.t_pf <- acc.t_pf +. src.t_pf;
  acc.cp_solves <- acc.cp_solves + src.cp_solves;
  acc.cp_nodes <- acc.cp_nodes + src.cp_nodes;
  acc.cp_restarts <- acc.cp_restarts + src.cp_restarts;
  acc.cp_props <- acc.cp_props + src.cp_props;
  acc.batch_alloc_bytes <- max acc.batch_alloc_bytes src.batch_alloc_bytes

let now () = Unix.gettimeofday ()

(* Membership vectors are bitsets — 1 bit per row instead of the 8 bytes a
   [bool array] element costs, so the 2m child-view vectors of a wide edge
   stay negligible next to the table itself. *)
let membership ~db ~env ~table view =
  let n = Db.row_count db table in
  match view with
  | Ir.Cv_full t ->
      if t <> table then invalid_arg "Keygen.membership: table mismatch";
      let b = Col.Bitset.create n in
      for i = 0 to n - 1 do
        Col.Bitset.set b i
      done;
      b
  | Ir.Cv_select { cv_table; cv_pred } ->
      if cv_table <> table then invalid_arg "Keygen.membership: table mismatch";
      Exec.select_mask db ~env ~table cv_pred
  | Ir.Cv_subplan { cv_plan; cv_table } ->
      if cv_table <> table then invalid_arg "Keygen.membership: table mismatch";
      let rel = Exec.run db ~env cv_plan in
      let pk_col = (Schema.table (Db.schema db) table).Schema.pk in
      let pk_view = Rel.view rel (Rel.col_index rel pk_col) in
      let base = Db.col db table pk_col in
      let b = Col.Bitset.create n in
      (match base with
      | Col.Ints { nulls; _ } when pk_view.Rel.vcol == base ->
          (* Scan, select and every join type keep the base column as the
             view's [vcol] and put physical row ids in [vsel] (-1 for
             outer-join padding).  The PK is unique ([Nonkey.generate]
             writes [pk = i + 1]), so "PK(i) is in the result" is the same
             test as "i is in [vsel]": set the bits straight from the
             selection vector, no hash set, no probe.  A NULL PK (only a
             hand-built database has one) matches nothing, as in the hash
             path below. *)
          Array.iter
            (fun p ->
              if p >= 0
                 && match nulls with Some nb -> not (Col.Bitset.get nb p) | None -> true
              then Col.Bitset.set b p)
            pk_view.Rel.vsel
      | _ ->
          (* the view no longer points at the base column (a Project- or
             Aggregate-rooted subplan rebuilds its columns): match PK values *)
          let set = Rel.int_set rel pk_col in
          for i = 0 to n - 1 do
            match Col.get base i with
            | Value.Int v when Hashtbl.mem set v -> Col.Bitset.set b i
            | _ -> ()
          done);
      b

(* Exact proportional split of a remaining total across a batch:
   [alloc] rows of [total_left] are assigned to a batch holding
   [batch_view] of the view's [view_left] remaining rows, clamped so the
   rest stays feasible. *)
let split_alloc ~total_left ~view_left ~batch_view =
  if view_left = 0 then 0
  else begin
    let ideal = total_left * batch_view / view_left in
    let min_needed = max 0 (total_left - (view_left - batch_view)) in
    let alloc = max ideal min_needed in
    min alloc (min batch_view total_left)
  end

(* Rows [lo..hi] of [vec] grouped by value, values ascending and rows
   ascending within each group, by a counting sort: a flat {!Int_ids}
   table numbers the distinct values, a count per id sizes each group
   exactly, and only the distinct values are sorted. *)
let partition_rows vec lo hi =
  let n = max 0 (hi - lo + 1) in
  let ids = Int_ids.create 8 in
  let row_id = Array.init n (fun j -> Int_ids.add ids (Col.Ivec.unsafe_get vec (lo + j))) in
  let nd = Int_ids.length ids in
  let counts = Array.make nd 0 in
  Array.iter (fun id -> counts.(id) <- counts.(id) + 1) row_id;
  let order = Array.init nd Fun.id in
  Array.sort (fun a b -> Int.compare (Int_ids.key ids a) (Int_ids.key ids b)) order;
  (* id -> its group's rows and fill cursor *)
  let rows_of = Array.make nd [||] in
  let parts =
    Array.map
      (fun id ->
        rows_of.(id) <- Array.make counts.(id) 0;
        (Int_ids.key ids id, rows_of.(id)))
      order
  in
  let fill = Array.make nd 0 in
  Array.iteri
    (fun j id ->
      rows_of.(id).(fill.(id)) <- lo + j;
      fill.(id) <- fill.(id) + 1)
    row_id;
  parts

(* check that a subplan does not join on the FK column being populated *)
let rec subplan_uses_fk fk_col = function
  | Plan.Table _ -> false
  | Plan.Select (_, q) | Plan.Project { input = q; _ } | Plan.Aggregate { input = q; _ }
    ->
      subplan_uses_fk fk_col q
  | Plan.Join { fk_col = c; left; right; _ } ->
      c = fk_col || subplan_uses_fk fk_col left || subplan_uses_fk fk_col right

exception Key_error of string

(* proved-infeasible population system: carries the conflicting constraint
   sources (an IIS-style subset) so the driver can quarantine the offending
   queries and regenerate the rest *)
exception Key_conflict of string list * string

type failure = { kf_diag : Diag.t; kf_culprits : string list }

let edge_failure edge msg =
  {
    kf_diag =
      Diag.error ~table:edge.Ir.e_fk_table Diag.Keygen "%s.%s: %s"
        edge.Ir.e_fk_table edge.Ir.e_fk_col msg;
    kf_culprits = [];
  }

let non_integer_pk = "non-integer primary key"

let pk_reader ~db edge =
  let s_table = edge.Ir.e_pk_table in
  match Db.col db s_table (Schema.table (Db.schema db) s_table).Schema.pk with
  | Col.Ints { data; nulls }
    when Option.fold ~none:true ~some:(fun b -> Col.Bitset.count b = 0) nulls ->
      Ok (fun i -> Bigarray.Array1.unsafe_get data i)
  | _ -> Error (edge_failure edge non_integer_pk)

let populate_edge ?(lp_guide = true) ?(sparsify = true) ?(capacity_repair = true)
    ?(pool = Par.sequential) ?(interrupt = fun () -> ())
    ~rng ~db ~env ~edge ~constraints ~batch_size ~cp_max_nodes ~times () =
  try
    let s_table = edge.Ir.e_pk_table and t_table = edge.Ir.e_fk_table in
    (* per-edge counter snapshots, reported as an info diagnostic below *)
    let edge_solves0 = times.cp_solves in
    let edge_nodes0 = times.cp_nodes and edge_props0 = times.cp_props in
    let edge_tcp0 = times.t_cp in
    let n_s = Db.row_count db s_table and n_t = Db.row_count db t_table in
    let m = List.length constraints in
    if m > 60 then raise (Key_error "too many join constraints on one edge (max 60)");
    let constraints = Array.of_list constraints in
    (* --- CS: status vectors --------------------------------------------- *)
    let t0 = now () in
    Array.iter
      (fun jc ->
        let check = function
          | Ir.Cv_subplan { cv_plan; _ } ->
              if subplan_uses_fk edge.Ir.e_fk_col cv_plan then
                raise
                  (Key_error
                     (Printf.sprintf "constraint %s: child view depends on %s itself"
                        jc.Ir.jc_source edge.Ir.e_fk_col))
          | Ir.Cv_full _ | Ir.Cv_select _ -> ()
        in
        check jc.Ir.jc_left;
        check jc.Ir.jc_right)
      constraints;
    (* the 2m child-view membership vectors are independent read-only scans
       of the synthetic database — compute them as one parallel region, one
       task per vector (results land by index, so order is deterministic).
       Constraints of different queries often name the same upstream join:
       only the first vector of each (table, view) is computed, and the
       others share its bitset, which nothing writes after CS.  Sharing stays
       within the edge: later edges fill FK columns that the same subplan
       may join on. *)
    let views =
      Array.init (2 * m) (fun idx ->
          let jc = constraints.(idx / 2) in
          if idx land 1 = 0 then (s_table, jc.Ir.jc_left)
          else (t_table, jc.Ir.jc_right))
    in
    (* [first.(i)]: the lowest index naming the same (table, view) as [i] *)
    let first =
      Array.map
        (fun tv ->
          let rec find j = if views.(j) = tv then j else find (j + 1) in
          find 0)
        views
    in
    let computed =
      Par.init pool ~chunks:(2 * m) (2 * m) (fun idx ->
          if first.(idx) <> idx then None
          else
            let table, view = views.(idx) in
            Some (membership ~db ~env ~table view))
    in
    let member idx = Option.get computed.(first.(idx)) in
    let left_member = Array.init m (fun k -> member (2 * k)) in
    let right_member = Array.init m (fun k -> member ((2 * k) + 1)) in
    (* per-row work here is a handful of bit tests — with the default chunk
       count a small table pays more in queue wakeups than in vector
       building, so floor the chunks at [vec_grain] rows each (tiny regions
       collapse to one inline chunk; boundaries stay domain-independent).
       Status vectors are off-heap Ivecs, and disjoint-index writes are
       domain-safe. *)
    let vec_grain = 4096 in
    let status_vec member n =
      let v = Col.Ivec.make n 0 in
      Par.iter_chunks pool ~grain:vec_grain n (fun lo hi ->
          for i = lo to hi do
            let x = ref 0 in
            for k = 0 to m - 1 do
              if Col.Bitset.get member.(k) i then x := !x lor (1 lsl k)
            done;
            Col.Ivec.unsafe_set v i !x
          done);
      v
    in
    let s_vec = status_vec left_member n_s in
    let t_vec = status_vec right_member n_t in
    (* one pk reader, for the S pools and the unconstrained rows *)
    let pk_at =
      match pk_reader ~db edge with
      | Ok f -> f
      | Error _ -> raise (Key_error non_integer_pk)
    in
    (* S partitions: vector -> shuffled pk pool + allocation cursor.  Pools
       are Ivecs filled by a counting pass (no per-row cons cells) and sized
       exactly. *)
    let s_counts = Hashtbl.create 16 in
    for i = 0 to n_s - 1 do
      let v = Col.Ivec.unsafe_get s_vec i in
      Hashtbl.replace s_counts v
        (1 + Option.value ~default:0 (Hashtbl.find_opt s_counts v))
    done;
    let s_partitions =
      Hashtbl.fold (fun v c acc -> (v, c) :: acc) s_counts []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (v, c) -> (v, Col.Ivec.make c 0, ref 0))
      |> Array.of_list
    in
    let part_idx = Hashtbl.create 16 in
    Array.iteri (fun k (v, _, _) -> Hashtbl.replace part_idx v k) s_partitions;
    let fill = Array.make (Array.length s_partitions) 0 in
    for i = 0 to n_s - 1 do
      let k = Hashtbl.find part_idx (Col.Ivec.unsafe_get s_vec i) in
      let _, pks, _ = s_partitions.(k) in
      Col.Ivec.set pks fill.(k) (pk_at i);
      fill.(k) <- fill.(k) + 1
    done;
    (* Shuffle each pool in [s_counts] enumeration order: the historical
       code shuffled inside a Hashtbl.fold over a table built by the same
       key-insertion sequence, so iterating this table reproduces the exact
       RNG draw order — the committed goldens depend on it. *)
    Hashtbl.iter
      (fun v _ ->
        let _, pks, _ = s_partitions.(Hashtbl.find part_idx v) in
        Rng.shuffle_swap rng (Col.Ivec.length pks) (fun i j ->
            let tmp = Col.Ivec.get pks i in
            Col.Ivec.set pks i (Col.Ivec.get pks j);
            Col.Ivec.set pks j tmp))
      s_counts;
    times.t_cs <- times.t_cs +. (now () -. t0);
    (* total view sizes on the synthetic side *)
    let vr_total = Array.init m (fun k -> Col.Bitset.count right_member.(k)) in
    let vl_total = Array.init m (fun k -> Col.Bitset.count left_member.(k)) in
    (* §6: when sampling-based instantiation leaves a child view smaller than
       its constraint, resize the constraint to the largest satisfiable value
       — the relative error stays within the sampling bound δ. *)
    let resized = ref [] in
    let jcc_left =
      Array.mapi
        (fun k jc ->
          ref
            (Option.map
               (fun n ->
                 (* when the left view covers all of S, every right-view row
                    matches: jcc is forced to |V̂_r| *)
                 let n' =
                   if vl_total.(k) = n_s then vr_total.(k)
                   else min n vr_total.(k)
                 in
                 if n' <> n then
                   resized :=
                     Diag.warning ~table:t_table ~query:jc.Ir.jc_source
                       Diag.Keygen "jcc %d resized to %d" n n'
                     :: !resized;
                 n')
               jc.Ir.jc_jcc))
        constraints
    in
    let jdc_left =
      Array.mapi
        (fun k jc ->
          ref
            (Option.map
               (fun n ->
                 let cap =
                   match !(jcc_left.(k)) with
                   | Some jcc -> min jcc (min vl_total.(k) vr_total.(k))
                   | None -> min vl_total.(k) vr_total.(k)
                 in
                 let floor_1 =
                   (* matched pairs need at least one distinct PK *)
                   match !(jcc_left.(k)) with
                   | Some jcc when jcc > 0 -> 1
                   | _ -> 0
                 in
                 let n' = max floor_1 (min n cap) in
                 if n' <> n then
                   resized :=
                     Diag.warning ~table:t_table ~query:jc.Ir.jc_source
                       Diag.Keygen "jdc %d resized to %d" n n'
                     :: !resized;
                 n')
               jc.Ir.jc_jdc))
        constraints
    in
    let vr_left = Array.init m (fun k -> ref vr_total.(k)) in
    (* every row of T is covered by exactly one partition below, so the whole
       vector is overwritten before it is returned; as an Ivec, the FK
       column fills directly off-heap *)
    let fk = Col.Ivec.make n_t 0 in
    if n_s = 0 then raise (Key_error "referenced table is empty");
    (* --- batch loop ------------------------------------------------------ *)
    let n_batches = (n_t + batch_size - 1) / batch_size in
    for b = 0 to n_batches - 1 do
      interrupt ();
      let alloc0 = Gc.allocated_bytes () in
      let lo = b * batch_size and hi = min n_t ((b + 1) * batch_size) - 1 in
      (* T partitions restricted to the batch *)
      let t_partitions = partition_rows t_vec lo hi in
      (* batch share of each view and of each constraint *)
      let batch_vr =
        Array.init m (fun k -> Col.Bitset.count_range right_member.(k) lo (hi + 1))
      in
      let jcc_batch = Array.make m None and jdc_batch = Array.make m None in
      for k = 0 to m - 1 do
        (match !(jcc_left.(k)) with
        | Some left ->
            let a =
              split_alloc ~total_left:left ~view_left:!(vr_left.(k))
                ~batch_view:batch_vr.(k)
            in
            jcc_batch.(k) <- Some a
        | None -> ());
        match !(jdc_left.(k)) with
        | Some left -> (
            match jcc_batch.(k) with
            | Some jcc_b ->
                (* JDC rides along with the JCC share.  A batch carrying
                   matched pairs needs at least one distinct PK; the clamp may
                   overshoot the total slightly — this is the paper's
                   batch-induced error source (§8, Fig. 11 discussion). *)
                let jcc_total_left =
                  match !(jcc_left.(k)) with Some l -> l | None -> jcc_b
                in
                let ideal =
                  if jcc_total_left = 0 then 0
                  else (left * jcc_b) + (jcc_total_left / 2)
                in
                let ideal = if jcc_total_left = 0 then 0 else ideal / jcc_total_left in
                let lo = if jcc_b > 0 then 1 else 0 in
                let hi = jcc_b in
                let min_needed =
                  (* the rest of the view cannot absorb more than what is left *)
                  max 0 (left - (jcc_total_left - jcc_b))
                in
                let a = min hi (max lo (max ideal min_needed)) in
                jdc_batch.(k) <- Some a
            | None ->
                let a =
                  split_alloc ~total_left:left ~view_left:!(vr_left.(k))
                    ~batch_view:batch_vr.(k)
                in
                jdc_batch.(k) <- Some a)
        | None -> ()
      done;
      (* --- CP: build and solve the model ---------------------------------
         Two phases, mirroring how CP-SAT exploits structure: phase 1 decides
         the population counts x_ij (covers + JCC sums + aggregate JDC lower
         bounds); phase 2, with x fixed, decides the distinct counts d_ij
         (JDC sums + composability/expressibility bounds + coverability).
         This removes the x–d coupling from the search. *)
      let t1 = now () in
      let np_s = Array.length s_partitions and np_t = Array.length t_partitions in
      let jdc_pair i j =
        let sv, _, _ = s_partitions.(i) and tv, _ = t_partitions.(j) in
        let found = ref false in
        for k = 0 to m - 1 do
          if
            !(jdc_left.(k)) <> None
            && sv land (1 lsl k) <> 0
            && tv land (1 lsl k) <> 0
          then found := true
        done;
        !found
      in
      let pairs_of k =
        let bit v = v land (1 lsl k) <> 0 in
        List.concat_map
          (fun i ->
            let sv, _, _ = s_partitions.(i) in
            if bit sv then
              List.filter_map
                (fun j ->
                  let tv, _ = t_partitions.(j) in
                  if bit tv then Some (i, j) else None)
                (List.init np_t (fun j -> j))
            else [])
          (List.init np_s (fun i -> i))
      in
      (* ---- phase 1: x ----
         The model builder is parameterised over a per-constraint exclusion
         mask so the IIS-style deletion filter below can re-solve without
         individual annotations; the cover equalities are structural (they
         encode the batch partition sizes) and are always kept. *)
      let build_model1 excluded =
        let model1 = Cp.create () in
        let xs = Array.make_matrix np_s np_t None in
        for j = 0 to np_t - 1 do
          let tv, rows = t_partitions.(j) in
          if tv <> 0 then
            for i = 0 to np_s - 1 do
              xs.(i).(j) <-
                Some
                  (Cp.var model1 ~lo:0 ~hi:(Array.length rows))
            done
        done;
        for j = 0 to np_t - 1 do
          let tv, rows = t_partitions.(j) in
          if tv <> 0 then begin
            let terms =
              List.filter_map
                (fun i -> match xs.(i).(j) with Some x -> Some (1, x) | None -> None)
                (List.init np_s (fun i -> i))
            in
            Cp.linear_eq model1 terms (Array.length rows)
          end
        done;
        for k = 0 to m - 1 do
          if not excluded.(k) then begin
            let terms =
              List.filter_map
                (fun (i, j) -> Option.map (fun x -> (1, x)) xs.(i).(j))
                (pairs_of k)
            in
            (match jcc_batch.(k) with
            | Some target -> Cp.linear_eq model1 terms target
            | None -> ());
            match jdc_batch.(k) with
            | Some target ->
                (* matched pairs must at least reach the distinct count *)
                Cp.linear_le model1 (List.map (fun (c, v) -> (-c, v)) terms) (-target);
                (* pool-capacity awareness, as LP-only rows: the distinct PKs
                   drawable from S_i toward this view are at most
                   min(pool_i, Σ_{j∈Vr_k} x_ij); auxiliary y_{k,i} ≤ both with
                   Σ_i y_{k,i} ≥ jdc_k shapes the LP guide so phase 2 stays
                   feasible, without burdening the integer search *)
                let bit v = v land (1 lsl k) <> 0 in
                let ys = ref [] in
                for i = 0 to np_s - 1 do
                  let sv, pks, cursor = s_partitions.(i) in
                  if bit sv then begin
                    let pool = Col.Ivec.length pks - !cursor in
                    let row_terms =
                      List.filter_map
                        (fun j ->
                          let tv, _ = t_partitions.(j) in
                          if bit tv then Option.map (fun x -> (1, x)) xs.(i).(j)
                          else None)
                        (List.init np_t (fun j -> j))
                    in
                    if row_terms <> [] && pool > 0 then begin
                      let y =
                        Cp.var model1 ~aux:true ~lo:0 ~hi:pool
                      in
                      Cp.lp_linear_le model1
                        ((1, y) :: List.map (fun (c, v) -> (-c, v)) row_terms)
                        0;
                      ys := (1, y) :: !ys
                    end
                  end
                done;
                if !ys <> [] then
                  Cp.lp_linear_le model1
                    (List.map (fun (c, v) -> (-c, v)) !ys)
                    (-target)
            | None -> ()
          end
        done;
        (* LP-guide objective: keep population mass off JDC-view pairs so
           distinct-count capacity is not wasted (free pairs absorb it) *)
        let obj = ref [] in
        for i = 0 to np_s - 1 do
          for j = 0 to np_t - 1 do
            if jdc_pair i j then
              match xs.(i).(j) with Some x -> obj := (1, x) :: !obj | None -> ()
          done
        done;
        Cp.set_objective model1 !obj;
        (model1, xs)
      in
      let model1, xs = build_model1 (Array.make m false) in
      (* Soft fallback when the exact system is infeasible (overlapping view
         requirements can contradict each other on the synthetic joint
         distribution): an LP minimising the total JCC violation, with the
         covers kept hard and restored exactly by per-cover largest-remainder
         rounding.  Residual deviations are reported. *)
      let solve_x_soft () =
        let pair_list = ref [] in
        for j = 0 to np_t - 1 do
          let tv, _ = t_partitions.(j) in
          if tv <> 0 then
            for i = 0 to np_s - 1 do
              pair_list := (i, j) :: !pair_list
            done
        done;
        let pairs = Array.of_list (List.rev !pair_list) in
        let np = Array.length pairs in
        let index = Hashtbl.create np in
        Array.iteri (fun q (i, j) -> Hashtbl.replace index (i, j) q) pairs;
        let jccs =
          List.filter_map
            (fun k -> match jcc_batch.(k) with Some t -> Some (k, t) | None -> None)
            (List.init m (fun k -> k))
        in
        let n_slack = 2 * List.length jccs in
        let covers =
          List.filter_map
            (fun j ->
              let tv, rows = t_partitions.(j) in
              if tv <> 0 then Some (j, Array.length rows) else None)
            (List.init np_t (fun j -> j))
        in
        let c = Array.make (np + n_slack) 0.0 in
        let cover_rows =
          List.map
            (fun (j, _) ->
              let qs = ref [] in
              Array.iteri (fun q (_, j') -> if j' = j then qs := (q, 1.0) :: !qs) pairs;
              Array.of_list (List.rev !qs))
            covers
        in
        (* a pair listed twice by [pairs_of k] is one unit entry *)
        let in_row = Array.make np false in
        let jcc_rows =
          List.mapi
            (fun kk (k, _) ->
              let qs =
                List.filter_map
                  (fun p ->
                    match Hashtbl.find_opt index p with
                    | Some q when not in_row.(q) ->
                        in_row.(q) <- true;
                        Some (q, 1.0)
                    | _ -> None)
                  (pairs_of k)
              in
              List.iter (fun (q, _) -> in_row.(q) <- false) qs;
              (* Σx + s⁻ − s⁺ = target, minimise s⁻ + s⁺ *)
              c.(np + (2 * kk)) <- 1.0;
              c.(np + (2 * kk) + 1) <- 1.0;
              Array.of_list ((np + (2 * kk), 1.0) :: (np + (2 * kk) + 1, -1.0) :: qs))
            jccs
        in
        let a = Array.of_list (cover_rows @ jcc_rows) in
        let bvec =
          Array.of_list
            (List.map (fun (_, size) -> float_of_int size) covers
            @ List.map (fun (_, target) -> float_of_int target) jccs)
        in
        match Mirage_lp.Lp.solve ~a ~b:bvec ~c () with
        | Mirage_lp.Lp.Optimal x ->
            let xsol = Array.make_matrix np_s np_t 0 in
            List.iter
              (fun (j, size) ->
                let qidx =
                  Array.to_list pairs
                  |> List.mapi (fun q (i, j') -> (q, i, j'))
                  |> List.filter (fun (_, _, j') -> j' = j)
                in
                let vals = Array.of_list (List.map (fun (q, _, _) -> x.(q)) qidx) in
                let ints = Mirage_lp.Lp.round_preserving_sum vals ~total:size in
                List.iteri (fun idx (_, i, _) -> xsol.(i).(j) <- ints.(idx)) qidx)
              covers;
            (* report residual violations *)
            List.iter
              (fun (k, target) ->
                let s =
                  List.fold_left (fun acc (i, j) -> acc + xsol.(i).(j)) 0 (pairs_of k)
                in
                if s <> target then
                  resized :=
                    Diag.warning ~table:t_table
                      ~query:constraints.(k).Ir.jc_source Diag.Keygen
                      "jcc deviates by %d (soft fallback)" (s - target)
                    :: !resized)
              jccs;
            Some xsol
        | Mirage_lp.Lp.Infeasible | Mirage_lp.Lp.Unbounded -> None
      in
      let record_stats st =
        times.cp_solves <- times.cp_solves + 1;
        times.cp_nodes <- times.cp_nodes + st.Cp.st_nodes;
        times.cp_restarts <- times.cp_restarts + st.Cp.st_restarts;
        times.cp_props <- times.cp_props + st.Cp.st_props
      in
      let active_ks =
        List.filter
          (fun k -> jcc_batch.(k) <> None || jdc_batch.(k) <> None)
          (List.init m (fun k -> k))
      in
      (* IIS-style deletion filter (run only on a proved-Unsat system): drop
         one annotation at a time, cumulatively, and re-solve; an annotation
         whose removal stops the Unsat proof is load-bearing and stays in the
         conflict set.  An Unknown during filtering keeps the annotation
         (conservative: the result is a superset of an IIS). *)
      let conflict_culprits () =
        let excluded = Array.make m false in
        let budget = min cp_max_nodes 50_000 in
        List.iter
          (fun k ->
            excluded.(k) <- true;
            let mdl, _ = build_model1 excluded in
            match Cp.solve ~max_nodes:budget ~interrupt mdl with
            | Cp.Unsat, st -> record_stats st
            | (Cp.Sat _ | Cp.Unknown), st ->
                record_stats st;
                excluded.(k) <- false)
          active_ks;
        List.filter_map
          (fun k ->
            if excluded.(k) then None else Some constraints.(k).Ir.jc_source)
          active_ks
        |> List.sort_uniq compare
      in
      let xsol =
        match Cp.solve ~max_nodes:cp_max_nodes ~interrupt model1 with
        | Cp.Sat sol1, st ->
            record_stats st;
            let xsol = Array.make_matrix np_s np_t 0 in
            for i = 0 to np_s - 1 do
              for j = 0 to np_t - 1 do
                match xs.(i).(j) with Some v -> xsol.(i).(j) <- sol1 v | None -> ()
              done
            done;
            xsol
        | Cp.Unsat, st ->
            record_stats st;
            let culprits = conflict_culprits () in
            raise
              (Key_conflict
                 ( culprits,
                   Printf.sprintf
                     "population constraints proved infeasible (batch %d); \
                      conflicting annotations: %s"
                     b
                     (match culprits with
                     | [] -> "(none isolated)"
                     | cs -> String.concat ", " cs) ))
        | Cp.Unknown, st -> (
            record_stats st;
            match solve_x_soft () with
            | Some xsol -> xsol
            | None ->
                raise
                  (Key_conflict
                     ( List.sort_uniq compare
                         (List.map
                            (fun k -> constraints.(k).Ir.jc_source)
                            active_ks),
                       Printf.sprintf
                         "population CP unsolved within node budget (batch %d)" b
                     )))
      in
      (* JDC sparsification: a positive JDC pair consumes at least one
         distinct PK from S_i's pool, so shift population mass from JDC pairs
         onto JCC-signature-compatible non-JDC pairs in the same cover
         column.  This is the integral counterpart of the LP-guide objective
         and keeps distinct-count capacity for the views that need it. *)
      let jcc_signature sv tv =
        let s = ref 0 in
        for k = 0 to m - 1 do
          if jcc_batch.(k) <> None && sv land (1 lsl k) <> 0 && tv land (1 lsl k) <> 0
          then s := !s lor (1 lsl k)
        done;
        !s
      in
      let jdc_view_x_sum k =
        List.fold_left (fun acc (i, j) -> acc + xsol.(i).(j)) 0 (pairs_of k)
      in
      let pool_of i =
        let _, pks, cursor = s_partitions.(i) in
        Col.Ivec.length pks - !cursor
      in
      let view_x k i =
        let bit v = v land (1 lsl k) <> 0 in
        let sv, _, _ = s_partitions.(i) in
        if not (bit sv) then 0
        else begin
          let s = ref 0 in
          for j = 0 to np_t - 1 do
            let tv, _ = t_partitions.(j) in
            if bit tv then s := !s + xsol.(i).(j)
          done;
          !s
        end
      in
      let achievable k =
        let s = ref 0 in
        for i = 0 to np_s - 1 do
          s := !s + min (pool_of i) (view_x k i)
        done;
        !s
      in
      (* per-view health: (total reaches target, pool-capped capacity reaches
         target); moves must never turn a true into a false *)
      let view_state () =
        Array.init m (fun k ->
            match jdc_batch.(k) with
            | Some target ->
                (jdc_view_x_sum k >= target, achievable k >= target)
            | None -> (true, true))
      in
      let degraded before after =
        let bad = ref false in
        Array.iteri
          (fun k (t0, a0) ->
            let t1, a1 = after.(k) in
            if (t0 && not t1) || (a0 && not a1) then bad := true)
          before;
        !bad
      in
      for j = 0 to np_t - 1 do
        let tv, _ = t_partitions.(j) in
        if sparsify && tv <> 0 then
          for i = 0 to np_s - 1 do
            if xsol.(i).(j) > 0 && jdc_pair i j then begin
              let sv, _, _ = s_partitions.(i) in
              let want = jcc_signature sv tv in
              let target = ref (-1) in
              for i' = 0 to np_s - 1 do
                if !target = -1 && i' <> i then begin
                  let sv', _, _ = s_partitions.(i') in
                  if (not (jdc_pair i' j)) && jcc_signature sv' tv = want then
                    target := i'
                end
              done;
              match !target with
              | -1 -> ()
              | i' ->
                  (* tentatively move, then re-validate every JDC view's
                     matched-pair lower bound *)
                  let before = view_state () in
                  let moved = xsol.(i).(j) in
                  xsol.(i).(j) <- 0;
                  xsol.(i').(j) <- xsol.(i').(j) + moved;
                  (* the move must not degrade any JDC view's total or its
                     pool-capped achievability *)
                  if degraded before (view_state ()) then begin
                    xsol.(i).(j) <- moved;
                    xsol.(i').(j) <- xsol.(i').(j) - moved
                  end
            end
          done
      done;
      (* Capacity repair: a JDC view can draw at most
         Σ_i min(pool_i, Σ_{j∈view} x_ij) distinct PKs.  When that falls
         short of the target, shift x within a cover column from a
         pool-starved partition to a signature-compatible partition with
         spare pool, re-validating every view after each move. *)
      for k = 0 to m - 1 do
        match jdc_batch.(k) with
        | None -> ()
        | Some target ->
            let bit v = v land (1 lsl k) <> 0 in
            let guard = ref (if capacity_repair then 0 else 200) in
            while achievable k < target && !guard < 200 do
              incr guard;
              let moved = ref false in
              (* donor: surplus beyond its pool; receiver: spare pool *)
              for a = 0 to np_s - 1 do
                if (not !moved) && view_x k a > pool_of a then
                  for j = 0 to np_t - 1 do
                    let tv, _ = t_partitions.(j) in
                    let sva, _, _ = s_partitions.(a) in
                    if
                      (not !moved) && bit tv && bit sva && xsol.(a).(j) > 0
                    then
                      for b = 0 to np_s - 1 do
                        let svb, _, _ = s_partitions.(b) in
                        if
                          (not !moved) && b <> a && bit svb
                          && view_x k b < pool_of b
                          && jcc_signature sva tv = jcc_signature svb tv
                        then begin
                          let amount =
                            min xsol.(a).(j)
                              (min (view_x k a - pool_of a) (pool_of b - view_x k b))
                          in
                          if amount > 0 then begin
                            let before = view_state () in
                            xsol.(a).(j) <- xsol.(a).(j) - amount;
                            xsol.(b).(j) <- xsol.(b).(j) + amount;
                            if degraded before (view_state ()) then begin
                              (* undo: the move starved another view *)
                              xsol.(a).(j) <- xsol.(a).(j) + amount;
                              xsol.(b).(j) <- xsol.(b).(j) - amount
                            end
                            else moved := true
                          end
                        end
                      done
                  done
              done;
              (* 2-opt: when no signature-compatible single move exists,
                 exchange mass on two columns (a→b on j, b→a on j'), which
                 cancels the JCC effects; verified by snapshotting the sums *)
              if not !moved then begin
                let jcc_sums () =
                  Array.init m (fun k' ->
                      match jcc_batch.(k') with
                      | Some _ ->
                          List.fold_left
                            (fun acc (i, j) -> acc + xsol.(i).(j))
                            0 (pairs_of k')
                      | None -> 0)
                in
                for a = 0 to np_s - 1 do
                  if (not !moved) && view_x k a > pool_of a then
                    for j = 0 to np_t - 1 do
                      let tv_j, _ = t_partitions.(j) in
                      let sva, _, _ = s_partitions.(a) in
                      if (not !moved) && bit tv_j && bit sva && xsol.(a).(j) > 0 then
                        for b = 0 to np_s - 1 do
                          let svb, _, _ = s_partitions.(b) in
                          if (not !moved) && b <> a && bit svb && view_x k b < pool_of b
                          then
                            for j' = 0 to np_t - 1 do
                              if (not !moved) && j' <> j && xsol.(b).(j') > 0 then begin
                                let amount =
                                  min
                                    (min xsol.(a).(j) xsol.(b).(j'))
                                    (min (view_x k a - pool_of a)
                                       (pool_of b - view_x k b))
                                in
                                if amount > 0 then begin
                                  let before = view_state () in
                                  let sums0 = jcc_sums () in
                                  let ach0 = achievable k in
                                  xsol.(a).(j) <- xsol.(a).(j) - amount;
                                  xsol.(b).(j) <- xsol.(b).(j) + amount;
                                  xsol.(b).(j') <- xsol.(b).(j') - amount;
                                  xsol.(a).(j') <- xsol.(a).(j') + amount;
                                  if
                                    jcc_sums () <> sums0
                                    || degraded before (view_state ())
                                    || achievable k <= ach0
                                  then begin
                                    xsol.(a).(j) <- xsol.(a).(j) + amount;
                                    xsol.(b).(j) <- xsol.(b).(j) - amount;
                                    xsol.(b).(j') <- xsol.(b).(j') + amount;
                                    xsol.(a).(j') <- xsol.(a).(j') - amount
                                  end
                                  else moved := true
                                end
                              end
                            done
                        done
                    done
                done
              end;
              if not !moved then guard := 200
            done
      done;
      (* best-effort distinct counts when the exact CP is infeasible: start
         every positive JDC pair at one PK, clamp to pools, then walk the
         views adjusting toward their targets.  Residual deviations are
         reported (they are the analogue of the paper's bounded batch
         errors). *)
      let greedy_distinct () =
        let d = Array.make_matrix np_s np_t 0 in
        let used = Array.make np_s 0 in
        let pool i =
          let _, pks, cursor = s_partitions.(i) in
          Col.Ivec.length pks - !cursor
        in
        for i = 0 to np_s - 1 do
          for j = 0 to np_t - 1 do
            if jdc_pair i j && xsol.(i).(j) > 0 && used.(i) < pool i then begin
              d.(i).(j) <- 1;
              used.(i) <- used.(i) + 1
            end
          done
        done;
        for k = 0 to m - 1 do
          match jdc_batch.(k) with
          | None -> ()
          | Some target ->
              let view = List.filter (fun (i, j) -> jdc_pair i j) (pairs_of k) in
              let current () =
                List.fold_left (fun acc (i, j) -> acc + d.(i).(j)) 0 view
              in
              (* raise d where capacity remains *)
              let progress = ref true in
              while current () < target && !progress do
                progress := false;
                List.iter
                  (fun (i, j) ->
                    if
                      current () < target
                      && d.(i).(j) < xsol.(i).(j)
                      && used.(i) < pool i
                    then begin
                      d.(i).(j) <- d.(i).(j) + 1;
                      used.(i) <- used.(i) + 1;
                      progress := true
                    end)
                  view
              done;
              (* lower d where the view overshot (keeping the 1-per-positive
                 floor) *)
              let progress = ref true in
              while current () > target && !progress do
                progress := false;
                List.iter
                  (fun (i, j) ->
                    if current () > target && d.(i).(j) > 1 then begin
                      d.(i).(j) <- d.(i).(j) - 1;
                      used.(i) <- used.(i) - 1;
                      progress := true
                    end)
                  view
              done;
              let dev = current () - target in
              if dev <> 0 then
                resized :=
                  Diag.warning ~table:t_table
                    ~query:constraints.(k).Ir.jc_source Diag.Keygen
                    "jdc deviates by %d (best-effort fallback)" dev
                  :: !resized
        done;
        d
      in
      (* ---- phase 2: d (only when JDC constraints are present) ---- *)
      let dsol = Array.make_matrix np_s np_t None in
      let any_jdc = Array.exists (fun r -> r <> None) jdc_batch in
      if any_jdc then begin
        let model2 = Cp.create () in
        let ds = Array.make_matrix np_s np_t None in
        for i = 0 to np_s - 1 do
          for j = 0 to np_t - 1 do
            if jdc_pair i j then begin
              let _, pks, cursor = s_partitions.(i) in
              let x = xsol.(i).(j) in
              let hi = min x (Col.Ivec.length pks - !cursor) in
              let lo = min (if x > 0 then 1 else 0) hi in
              if hi >= 0 then
                ds.(i).(j) <-
                  Some (Cp.var model2 ~lo ~hi)
            end
          done
        done;
        for k = 0 to m - 1 do
          match jdc_batch.(k) with
          | Some target ->
              let terms =
                List.filter_map
                  (fun (i, j) -> Option.map (fun d -> (1, d)) ds.(i).(j))
                  (pairs_of k)
              in
              Cp.linear_eq model2 terms target
          | None -> ()
        done;
        for i = 0 to np_s - 1 do
          let _, pks, cursor = s_partitions.(i) in
          let terms =
            List.filter_map
              (fun j -> match ds.(i).(j) with Some d -> Some (1, d) | None -> None)
              (List.init np_t (fun j -> j))
          in
          if terms <> [] then Cp.linear_le model2 terms (Col.Ivec.length pks - !cursor)
        done;
        let apply_greedy () =
          let d = greedy_distinct () in
          for i = 0 to np_s - 1 do
            for j = 0 to np_t - 1 do
              if d.(i).(j) >= 1 then dsol.(i).(j) <- Some d.(i).(j)
            done
          done
        in
        match Cp.solve ~max_nodes:cp_max_nodes ~lp_guide model2 with
        | Cp.Sat sol2, st ->
            record_stats st;
            for i = 0 to np_s - 1 do
              for j = 0 to np_t - 1 do
                match ds.(i).(j) with
                | Some d -> dsol.(i).(j) <- Some (sol2 d)
                | None -> ()
              done
            done
        | (Cp.Unsat | Cp.Unknown), st ->
            record_stats st;
            apply_greedy ()
      end;
      times.t_cp <- times.t_cp +. (now () -. t1);
      (* --- PF: populate foreign keys -------------------------------------
         A sequential reservation pass walks the T-partitions in index order
         and claims distinct-PK slices from the (global, cross-batch)
         S-partition cursors, exactly as the sequential writer did; the
         fills — value materialisation, shuffle, writes into [fk] — then run
         as one parallel region, one task per T-partition, each driven by an
         RNG stream derived from the partition index.  T-partitions are
         disjoint row sets, so the writes are race-free, and stream-indexed
         RNGs make the output bit-identical for any domain count. *)
      let t2 = now () in
      let pf_rng = Rng.split rng in
      (* (pks, offset, d, x): emit x FKs; d >= 1 cycles the d fresh distinct
         PKs at [offset]; d = 0 cycles the partition's whole pool *)
      let plans =
        Array.init np_t (fun j ->
            let tv, _ = t_partitions.(j) in
            if tv = 0 then []
            else begin
              let segs = ref [] in
              for i = 0 to np_s - 1 do
                let x = xsol.(i).(j) in
                if x > 0 then begin
                  let _, pks, cursor = s_partitions.(i) in
                  match dsol.(i).(j) with
                  | Some d when d >= 1 ->
                      (* JDC pair: reserve exactly d fresh distinct PKs *)
                      if !cursor + d > Col.Ivec.length pks then
                        raise (Key_error "PK pool exhausted during allocation");
                      segs := (pks, !cursor, d, x) :: !segs;
                      cursor := !cursor + d
                  | Some _ | None ->
                      (* unconstrained (or pool-starved) pair: cycle over the
                         partition's pool for a natural spread *)
                      segs := (pks, 0, 0, x) :: !segs
                end
              done;
              List.rev !segs
            end)
      in
      Par.run pool np_t (fun j ->
        let rng_j = Rng.split ~stream:j pf_rng in
        let tv, rows = t_partitions.(j) in
        if tv = 0 then
          (* one draw per row, same sequence [Rng.pick] made on the alias *)
          Array.iter
            (fun r -> Col.Ivec.set fk r (pk_at (Rng.int rng_j n_s)))
            rows
        else begin
          let n_rows = Array.length rows in
          let total =
            List.fold_left (fun acc (_, _, _, x) -> acc + x) 0 plans.(j)
          in
          if total <> n_rows then
            raise (Key_error "internal: population does not cover partition");
          let values = Array.make n_rows 0 in
          let w = ref 0 in
          List.iter
            (fun (pks, off, d, x) ->
              let len = if d >= 1 then d else Col.Ivec.length pks in
              let base = if d >= 1 then off else 0 in
              for q = 0 to x - 1 do
                values.(!w) <- Col.Ivec.get pks (base + (q mod len));
                incr w
              done)
            plans.(j);
          Rng.shuffle rng_j values;
          Array.iteri (fun q r -> Col.Ivec.set fk r values.(q)) rows
        end);
      times.t_pf <- times.t_pf +. (now () -. t2);
      for k = 0 to m - 1 do
        (match (jcc_batch.(k), !(jcc_left.(k))) with
        | Some a, Some left -> jcc_left.(k) := Some (left - a)
        | _ -> ());
        (match (jdc_batch.(k), !(jdc_left.(k))) with
        | Some a, Some left -> jdc_left.(k) := Some (max 0 (left - a))
        | _ -> ());
        vr_left.(k) := !(vr_left.(k)) - batch_vr.(k)
      done;
      times.batch_alloc_bytes <-
        max times.batch_alloc_bytes
          (int_of_float (Gc.allocated_bytes () -. alloc0))
    done;
    (* per-edge CP accounting: solves, search effort, wall time — an Info
       diagnostic so perf triage does not need a debug build *)
    let summary =
      Diag.info ~table:t_table Diag.Cp
        "edge %s.%s: %d CP solves, %d nodes, %d propagations, %.3fs"
        t_table edge.Ir.e_fk_col
        (times.cp_solves - edge_solves0)
        (times.cp_nodes - edge_nodes0)
        (times.cp_props - edge_props0)
        (times.t_cp -. edge_tcp0)
    in
    Ok (fk, List.rev (summary :: !resized))
  with
  | Key_error msg -> Error (edge_failure edge msg)
  | Key_conflict (culprits, msg) ->
      Error
        {
          kf_diag =
            Diag.error ~table:edge.Ir.e_fk_table
              ?query:(match culprits with c :: _ -> Some c | [] -> None)
              ~hint:
                "relax one of the conflicting annotations, or rely on \
                 degraded mode to quarantine the offending query"
              Diag.Keygen "%s.%s: %s" edge.Ir.e_fk_table edge.Ir.e_fk_col msg;
          kf_culprits = culprits;
        }
