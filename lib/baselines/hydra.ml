module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Db = Mirage_engine.Db
module Rng = Mirage_util.Rng
module Toposort = Mirage_util.Toposort
module Plan = Mirage_relalg.Plan
module Workload = Mirage_core.Workload
module Extract = Mirage_core.Extract
module Ir = Mirage_core.Ir
module Keygen = Mirage_core.Keygen

let generate (w : Workload.t) ~ref_db ~prod_env ~seed =
  let t0 = Unix.gettimeofday () in
  let schema = w.Workload.w_schema in
  let rng = Rng.create seed in
  let supported_q, unsupported_q =
    List.partition
      (fun (q : Workload.query) -> Support.hydra_supports schema q.Workload.q_plan)
      w.Workload.w_queries
  in
  let supported = { w with Workload.w_queries = supported_q } in
  let extraction = Extract.run supported ~ref_db ~prod_env in
  let ir = extraction.Extract.ir in
  let db = Db.create schema in
  let columns_by_table = Hashtbl.create 16 in
  (* --- selections: region LP per table --------------------------------- *)
  List.iter
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      let n = Db.row_count ref_db tname in
      let sccs =
        List.filter (fun (s : Ir.scc) -> s.Ir.scc_table = tname) ir.Ir.sccs
      in
      let preds = Array.of_list (List.map (fun (s : Ir.scc) -> s.Ir.scc_pred) sccs) in
      let m = Array.length preds in
      let nonkey_names = List.map (fun (c : Schema.column) -> c.Schema.cname) tbl.Schema.nonkeys in
      let src = List.map (fun c -> (c, Db.column ref_db tname c)) nonkey_names in
      (* sign pattern of every production row over the predicates *)
      let region_of = Hashtbl.create 64 in
      for i = 0 to n - 1 do
        let lookup c =
          match List.assoc_opt c src with
          | Some a -> a.(i)
          | None -> Value.Null
        in
        let sig_ = ref 0 in
        for k = 0 to m - 1 do
          if Pred.eval ~env:prod_env lookup preds.(k) then sig_ := !sig_ lor (1 lsl k)
        done;
        let reps, count =
          try Hashtbl.find region_of !sig_ with Not_found -> (i, 0)
        in
        Hashtbl.replace region_of !sig_ (reps, count + 1)
      done;
      let regions =
        Hashtbl.fold (fun s (rep, count) acc -> (s, rep, count) :: acc) region_of []
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
        |> Array.of_list
      in
      let nr = Array.length regions in
      (* Hydra "divides query aware generation into several LP tasks ...
         processed independently and then combined into a single solution"
         (§7 of the paper): one LP task per source query over the shared
         region space; the merged (averaged) solution is what introduces its
         slender deviations. *)
      let sources =
        List.sort_uniq compare (List.map (fun (s : Ir.scc) -> s.Ir.scc_source) sccs)
      in
      (* one LP row per scc, over the regions whose signature has the scc's
         bit k, plus the all-regions row summing to n *)
      let region_row k =
        Array.of_list
          (List.filter_map
             (fun r ->
               let sig_, _, _ = regions.(r) in
               if sig_ land (1 lsl k) <> 0 then Some (r, 1.0) else None)
             (List.init nr Fun.id))
      in
      let feasible bits =
        let a =
          Array.of_list
            (List.map (fun (k, _) -> region_row k) bits
            @ [ Array.init nr (fun r -> (r, 1.0)) ])
        in
        let b =
          Array.of_list
            (List.map (fun (_, (s : Ir.scc)) -> float_of_int s.Ir.scc_rows) bits
            @ [ float_of_int n ])
        in
        Mirage_lp.Lp.feasible_point ~n:nr ~a ~b ()
      in
      let solve_group group =
        feasible
          (List.map
             (fun (s : Ir.scc) ->
               (* index of this scc among all sccs: its bit in the signature *)
               let rec find i = function
                 | [] -> -1
                 | s' :: rest -> if s' == s then i else find (i + 1) rest
               in
               (find 0 sccs, s))
             group)
      in
      let solutions =
        List.filter_map
          (fun src ->
            solve_group (List.filter (fun (s : Ir.scc) -> s.Ir.scc_source = src) sccs))
          sources
      in
      (* the combination step: Hydra reconciles the per-task solutions with
         the global system; we blend the joint solution (when one exists)
         with the task average, which leaves the paper's "slender
         deviations" *)
      let joint = feasible (List.mapi (fun k s -> (k, s)) sccs) in
      let sizes =
        match (solutions, joint) with
        | [], None -> Array.map (fun (_, _, c) -> c) regions
        | [], Some j -> Mirage_lp.Lp.round_preserving_sum j ~total:n
        | _ :: _, _ ->
            let avg =
              Array.init nr (fun r ->
                  List.fold_left (fun acc x -> acc +. x.(r)) 0.0 solutions
                  /. float_of_int (List.length solutions))
            in
            let merged =
              match joint with
              | Some j -> Array.init nr (fun r -> (0.8 *. j.(r)) +. (0.2 *. avg.(r)))
              | None -> avg
            in
            Mirage_lp.Lp.round_preserving_sum merged ~total:n
      in
      (* materialise: replicate a production representative per region *)
      let nonkeys =
        List.map (fun c -> (c, Array.make n Value.Null)) nonkey_names
      in
      let cursor = ref 0 in
      Array.iteri
        (fun r (_, rep, _) ->
          for _ = 1 to sizes.(r) do
            if !cursor < n then begin
              List.iter
                (fun (c, dst) -> dst.(!cursor) <- (List.assoc c src).(rep))
                nonkeys;
              incr cursor
            end
          done)
        regions;
      (* pad any rounding gap with the first representative *)
      while !cursor < n do
        List.iter
          (fun (c, dst) ->
            dst.(!cursor) <- (match regions with [||] -> Value.Null | _ ->
              let _, rep, _ = regions.(0) in
              (List.assoc c src).(rep)))
          nonkeys;
        incr cursor
      done;
      let pk = Array.init n (fun i -> Value.Int (i + 1)) in
      let fks =
        List.map
          (fun (f : Schema.fk) -> (f.Schema.fk_col, Array.make n Value.Null))
          tbl.Schema.fks
      in
      let cols = ((tbl.Schema.pk, pk) :: nonkeys) @ fks in
      Hashtbl.replace columns_by_table tname cols;
      Db.put db tname cols)
    (Schema.tables schema);
  (* --- joins: per-edge CP population (alignment) ------------------------ *)
  let edges =
    List.concat_map
      (fun (tbl : Schema.table) ->
        List.map
          (fun (f : Schema.fk) ->
            {
              Ir.e_pk_table = f.Schema.references;
              e_fk_table = tbl.Schema.tname;
              e_fk_col = f.Schema.fk_col;
            })
          tbl.Schema.fks)
      (Schema.tables schema)
  in
  let edge_id (e : Ir.edge) = e.Ir.e_fk_table ^ "." ^ e.Ir.e_fk_col in
  let order_edges =
    List.concat_map
      (fun e_b ->
        let cs = List.filter (fun jc -> jc.Ir.jc_edge = e_b) ir.Ir.joins in
        let uses_fk (jc : Ir.join_constraint) col =
          let rec plan_uses = function
            | Plan.Table _ -> false
            | Plan.Select (_, q) | Plan.Project { input = q; _ }
            | Plan.Aggregate { input = q; _ } ->
                plan_uses q
            | Plan.Join { fk_col = c; left; right; _ } ->
                c = col || plan_uses left || plan_uses right
          in
          let view_uses = function
            | Ir.Cv_subplan { cv_plan; _ } -> plan_uses cv_plan
            | Ir.Cv_full _ | Ir.Cv_select _ -> false
          in
          view_uses jc.Ir.jc_left || view_uses jc.Ir.jc_right
        in
        List.filter_map
          (fun e_a ->
            if e_a <> e_b && List.exists (fun jc -> uses_fk jc e_a.Ir.e_fk_col) cs
            then Some (edge_id e_a, edge_id e_b)
            else None)
          edges)
      edges
  in
  let sorted =
    Toposort.sort ~vertices:(List.map edge_id edges) ~edges:order_edges
  in
  let times = Keygen.fresh_times () in
  List.iter
    (fun id ->
      let edge = List.find (fun e -> edge_id e = id) edges in
      let constraints = List.filter (fun jc -> jc.Ir.jc_edge = edge) ir.Ir.joins in
      let t_table = edge.Ir.e_fk_table in
      let n_t = Db.row_count db t_table in
      let s_pks =
        Db.column db edge.Ir.e_pk_table (Schema.table schema edge.Ir.e_pk_table).Schema.pk
      in
      let fk =
        if constraints = [] then Array.init n_t (fun _ -> Rng.pick rng s_pks)
        else
          match
            Keygen.populate_edge ~rng:(Rng.split rng) ~db ~env:prod_env ~edge
              ~constraints ~batch_size:10_000_000 ~cp_max_nodes:500_000 ~times ()
          with
          | Ok (fk, _) ->
              Array.init (Mirage_engine.Col.Ivec.length fk) (fun i ->
                  Value.Int (Mirage_engine.Col.Ivec.get fk i))
          | Error _ -> Array.init n_t (fun _ -> Rng.pick rng s_pks)
      in
      let cols = Hashtbl.find columns_by_table t_table in
      let cols =
        List.map (fun (c, a) -> if c = edge.Ir.e_fk_col then (c, fk) else (c, a)) cols
      in
      Hashtbl.replace columns_by_table t_table cols;
      Db.put db t_table cols)
    sorted;
  {
    Types.b_db = db;
    b_env = prod_env;
    b_supported = List.map (fun (q : Workload.query) -> q.Workload.q_name) supported_q;
    b_unsupported =
      List.map (fun (q : Workload.query) -> q.Workload.q_name) unsupported_q;
    b_failed_edges = [];
    b_seconds = Unix.gettimeofday () -. t0;
  }
