module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Db = Mirage_engine.Db
module Rng = Mirage_util.Rng
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
      (fun (q : Workload.query) -> Support.touchstone_supports schema q.Workload.q_plan)
      w.Workload.w_queries
  in
  let supported = { w with Workload.w_queries = supported_q } in
  let extraction = Extract.run supported ~ref_db ~prod_env in
  let ir = extraction.Extract.ir in
  let db = Db.create schema in
  (* --- non-keys: i.i.d. bootstrap from the production columns ---------- *)
  let columns_by_table = Hashtbl.create 16 in
  List.iter
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      let n = Db.row_count ref_db tname in
      let trng = Rng.split rng in
      let nonkeys =
        List.map
          (fun (c : Schema.column) ->
            let src = Db.column ref_db tname c.Schema.cname in
            (c.Schema.cname, Array.init n (fun _ -> Rng.pick trng src)))
          tbl.Schema.nonkeys
      in
      let pk = Array.init n (fun i -> Value.Int (i + 1)) in
      let fks =
        List.map
          (fun (f : Schema.fk) -> (f.Schema.fk_col, Array.make n Value.Null))
          tbl.Schema.fks
      in
      let cols = ((tbl.Schema.pk, pk) :: nonkeys) @ fks in
      Hashtbl.replace columns_by_table tname cols;
      Db.put db tname cols)
    (Schema.tables schema)
  (* --- foreign keys: independent random marking per constraint --------- *);
  let failed_edges = ref [] in
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
  List.iter
    (fun (edge : Ir.edge) ->
      let s_table = edge.Ir.e_pk_table and t_table = edge.Ir.e_fk_table in
      let n_s = Db.row_count db s_table and n_t = Db.row_count db t_table in
      let constraints =
        List.filter (fun (jc : Ir.join_constraint) -> jc.Ir.jc_edge = edge) ir.Ir.joins
        |> List.filter (fun jc -> jc.Ir.jc_jcc <> None)
      in
      let m = List.length constraints in
      let fk = Array.make n_t Value.Null in
      let s_pks = Db.column db s_table (Schema.table schema s_table).Schema.pk in
      if m = 0 then
        Array.iteri (fun i _ -> fk.(i) <- Rng.pick rng s_pks) fk
      else begin
        (* membership on both sides, with no handler: an upstream edge that
           is not populated yet still holds its all-NULL FK column, which
           joins no row, and a collapsed edge still writes its FK column, so
           a failed upstream edge raises nothing here.  Anything membership
           raises is a real fault and propagates. *)
        let constraints = Array.of_list constraints in
        let member table view = Keygen.membership ~db ~env:prod_env ~table view in
        let left_member =
          Array.map (fun jc -> member s_table jc.Ir.jc_left) constraints
        in
        let right_member =
          Array.map (fun jc -> member t_table jc.Ir.jc_right) constraints
        in
        (* random marking with a common per-row level: row i matches
           constraint k iff u_i < jcc_k/|Vr_k|.  The shared level keeps
           equal-view constraints nested (Touchstone's k-round sampling finds
           such consistent schemes on small workloads); rows still end up
           infeasible exactly where overlapping constraints genuinely
           disagree, which is what makes the scheme collapse as the number of
           queries grows. *)
        let vr_size = Array.map Mirage_engine.Col.Bitset.count right_member in
        let marked = Array.make n_t 0 in
        let levels = Array.init n_t (fun _ -> Rng.float rng 1.0) in
        Array.iteri
          (fun k (jc : Ir.join_constraint) ->
            let target = match jc.Ir.jc_jcc with Some n -> n | None -> 0 in
            let p =
              if vr_size.(k) = 0 then 0.0
              else float_of_int target /. float_of_int vr_size.(k)
            in
            for i = 0 to n_t - 1 do
              if Mirage_engine.Col.Bitset.get right_member.(k) i && levels.(i) < p
              then marked.(i) <- marked.(i) lor (1 lsl k)
            done)
          constraints;
        (* candidate PKs per (marking, membership) signature *)
        let s_vec =
          Array.init n_s (fun i ->
              let v = ref 0 in
              for k = 0 to m - 1 do
                if Mirage_engine.Col.Bitset.get left_member.(k) i then
                  v := !v lor (1 lsl k)
              done;
              !v)
        in
        let cand_cache = Hashtbl.create 64 in
        let candidates want avoid =
          match Hashtbl.find_opt cand_cache (want, avoid) with
          | Some c -> c
          | None ->
              let c = ref [] in
              for i = 0 to n_s - 1 do
                if s_vec.(i) land want = want && s_vec.(i) land avoid = 0 then
                  c := s_pks.(i) :: !c
              done;
              let arr = Array.of_list !c in
              Hashtbl.replace cand_cache (want, avoid) arr;
              arr
        in
        let failures = ref 0 in
        for i = 0 to n_t - 1 do
          let member = ref 0 in
          for k = 0 to m - 1 do
            if Mirage_engine.Col.Bitset.get right_member.(k) i then
              member := !member lor (1 lsl k)
          done;
          let want = marked.(i) in
          let avoid = !member land lnot want in
          let cands = candidates want avoid in
          if Array.length cands > 0 then fk.(i) <- Rng.pick rng cands
          else begin
            incr failures;
            fk.(i) <- Rng.pick rng s_pks
          end
        done;
        (* the scheme collapses when a noticeable fraction of rows found no
           compatible key (overlapping constraints from too many queries) *)
        if 100 * !failures > 10 * n_t then
          failed_edges := edge.Ir.e_fk_col :: !failed_edges
      end;
      let cols = Hashtbl.find columns_by_table t_table in
      let cols =
        List.map (fun (c, a) -> if c = edge.Ir.e_fk_col then (c, fk) else (c, a)) cols
      in
      Hashtbl.replace columns_by_table t_table cols;
      Db.put db t_table cols)
    edges;
  let failed = List.sort_uniq compare !failed_edges in
  let collapsed =
    List.concat_map (fun col -> Types.queries_on_edge w col) failed
  in
  {
    Types.b_db = db;
    b_env = prod_env;
    b_supported =
      List.filter
        (fun n -> not (List.mem n collapsed))
        (List.map (fun (q : Workload.query) -> q.Workload.q_name) supported_q);
    b_unsupported =
      List.map (fun (q : Workload.query) -> q.Workload.q_name) unsupported_q
      @ collapsed;
    b_failed_edges = failed;
    b_seconds = Unix.gettimeofday () -. t0;
  }
