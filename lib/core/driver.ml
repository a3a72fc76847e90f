module Pred = Mirage_sql.Pred
module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Rng = Mirage_util.Rng
module Par = Mirage_par.Par
module Budget = Mirage_util.Budget
module Hoeffding = Mirage_util.Hoeffding
module Toposort = Mirage_util.Toposort

type config = {
  seed : int;
  batch_size : int;
  sample_size : int;
  cp_max_nodes : int;
  domains : int;
  acc_repair : bool;
  lp_guide : bool;
  sparsify : bool;
  capacity_repair : bool;
  guided_placement : bool;
  budget : Budget.limits;
      (** resource budget: heap watermark and wall-clock deadline.
          Breaches surface as a typed [Diag.Budget] error, never
          an uncaught exception or a wedged domain pool. *)
  chunk_rows : int option;
      (** row-scan step: with [Some c] every row scan of the generation
          stages proceeds [c] rows at a time, with budget polls between
          steps; [None] scans each table in one step.  Output is
          byte-identical either way — the step only changes where the run
          can be interrupted, never what is drawn. *)
  schedule : [ `Barrier | `Overlap ];
      (** keygen stage scheduling.  [`Overlap] (the default) runs the
          per-edge population as a dependency-aware task DAG on the pool:
          independent FK edges populate concurrently, and a table whose
          last edge committed can start exporting while other tables still
          generate.  [`Barrier] is the legacy strictly-sequential stage
          structure, kept as the differential oracle.  Every RNG stream is
          pre-sequenced at submission time, so the two schedules produce
          byte-identical databases for any domain count. *)
  on_table_ready : (Db.t -> string -> unit) option;
      (** called once per table as soon as every column of that table is
          final (its last FK edge committed; immediately for tables with
          no FK) — the hook that lets an exporter overlap rendering with
          the remaining tables' generation.  Runs as a pool task;
          exceptions it raises are swallowed by the driver (the caller's
          finish pass re-exports anything missing).  [None] disables it. *)
  on_attempt_abort : (unit -> unit) option;
      (** called when a generation attempt dies on an infeasible
          population system (before the quarantine retry, and before the
          final error when retries are exhausted), so a live exporter can
          drop shards written for the dead attempt.  Budget breaches do
          {e not} trigger it: a budget abort happens on a deterministic
          prefix of the final output, so its shards stay valid for
          [--resume]. *)
}

let default_config =
  {
    seed = 42;
    batch_size = 7_000_000;
    sample_size = Hoeffding.sample_size ~delta:0.001 ~alpha:0.999;
    cp_max_nodes = 100_000;
    domains = Par.default_domains ();
    acc_repair = true;
    lp_guide = true;
    sparsify = true;
    capacity_repair = true;
    guided_placement = true;
    budget = Budget.no_limits;
    chunk_rows = None;
    schedule = `Overlap;
    on_table_ready = None;
    on_attempt_abort = None;
  }

type timings = {
  t_extract : float;
  t_decouple : float;
  t_cdf : float;
  t_gd : float;
  t_acc : float;
  t_cs : float;
  t_cp : float;
  t_pf : float;
  t_total : float;
  t_cpu : float;
  domains_used : int;
  cp_solves : int;
  cp_nodes : int;
  cp_restarts : int;
  cp_props : int;
  cp_cache_hits : int;
  batch_alloc_bytes : int;
}

type result = {
  r_db : Db.t;
  r_env : Pred.Env.t;
  r_extraction : Extract.extraction;
  r_timings : timings;
  r_diags : Diag.t list;
  r_verdicts : Diag.verdict list;
}

let now () = Unix.gettimeofday ()

(* process CPU seconds across every domain, for [t_cpu]: wall − cpu
   divergence shows the parallel speedup *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* production value of a scalar parameter, for value sharing and placement *)
let param_key_fn prod_env p =
  match Pred.Env.find p prod_env with
  | Some (Pred.Env.Scalar v) -> Some v
  | Some (Pred.Env.Vlist _) | None -> None

(* edges that must be populated: every FK column in the schema *)
let all_edges schema =
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

let edge_id (e : Ir.edge) = e.Ir.e_fk_table ^ "." ^ e.Ir.e_fk_col

(* edge A must precede edge B when B's child-view subplans join on A's FK
   column *)
let edge_order_edges edges (joins : Ir.join_constraint list) =
  let uses_fk jc fk_col =
    let rec plan_uses = function
      | Plan.Table _ -> false
      | Plan.Select (_, q) | Plan.Project { input = q; _ }
      | Plan.Aggregate { input = q; _ } ->
          plan_uses q
      | Plan.Join { fk_col = c; left; right; _ } ->
          c = fk_col || plan_uses left || plan_uses right
    in
    let view_uses = function
      | Ir.Cv_subplan { cv_plan; _ } -> plan_uses cv_plan
      | Ir.Cv_full _ | Ir.Cv_select _ -> false
    in
    view_uses jc.Ir.jc_left || view_uses jc.Ir.jc_right
  in
  List.concat_map
    (fun e_b ->
      let constraints_b =
        List.filter (fun jc -> jc.Ir.jc_edge = e_b) joins
      in
      List.filter_map
        (fun e_a ->
          if
            e_a <> e_b
            && List.exists (fun jc -> uses_fk jc e_a.Ir.e_fk_col) constraints_b
          then Some (edge_id e_a, edge_id e_b)
          else None)
        edges)
    edges

(* constraints sourced from quarantined queries are removed from the IR
   before an attempt; the queries still replay, they just carry no
   cardinality guarantee *)
let filter_ir quarantined (ir : Ir.t) =
  if quarantined = [] then ir
  else
    let dropped src = List.mem (Diag.query_of_source src) quarantined in
    {
      ir with
      Ir.sccs =
        List.filter (fun (s : Ir.scc) -> not (dropped s.Ir.scc_source)) ir.Ir.sccs;
      joins =
        List.filter
          (fun (jc : Ir.join_constraint) -> not (dropped jc.Ir.jc_source))
          ir.Ir.joins;
    }

(* next query to quarantine: the one implicated by the most culprit
   constraints of the keygen failure, lexicographic-smallest on ties *)
let victim_query ~quarantined (f : Keygen.failure) =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun src ->
      let q = Diag.query_of_source src in
      if not (List.mem q quarantined) then
        Hashtbl.replace counts q
          (1 + try Hashtbl.find counts q with Not_found -> 0))
    f.Keygen.kf_culprits;
  Hashtbl.fold
    (fun q c best ->
      match best with
      | Some (bq, bc) when bc > c || (bc = c && bq <= q) -> best
      | Some _ | None -> Some (q, c))
    counts None
  |> Option.map fst

exception Keygen_failed of Keygen.failure

let generate_internal ~config (w : Workload.t) ~extraction ~t_extract
    ~elements_fallback ~prod_env ~init_diags =
  let schema = w.Workload.w_schema in
  (* one budget token for the whole run: stage boundaries poll it, and the
     keygen/CP layers poll it from inside their loops via [interrupt].  A
     breach raises [Budget.Exceeded], turned into a typed [Diag.Budget]
     error by the attempt loop below — parallel regions drain before
     re-raising, so no domain is left wedged and the resident pool stays
     usable for the next run. *)
  let budget = Budget.start config.budget in
  let t_start = now () -. t_extract in
  let cpu_start = cpu_now () in
  let full_ir = extraction.Extract.ir in
  (* fail fast on an IR or config that cannot drive generation at all *)
  let config_problems =
    match config.chunk_rows with
    | Some c when c < 1 ->
        [
          Diag.error ~hint:"pass a positive --chunk-rows (or None)"
            Diag.Validate "chunk_rows must be >= 1 (got %d)" c;
        ]
    | _ -> []
  in
  let card_problems =
    List.filter_map
      (fun (tbl : Schema.table) ->
        let t = tbl.Schema.tname in
        match List.assoc_opt t full_ir.Ir.table_cards with
        | None ->
            Some
              (Diag.error ~table:t
                 ~hint:"add a (rows ...) entry for every schema table"
                 Diag.Validate "no target row count for table %s" t)
        | Some n when n < 0 ->
            Some
              (Diag.error ~table:t Diag.Validate "negative row count %d for table %s" n t)
        | Some _ -> None)
      (Schema.tables schema)
  in
  match config_problems @ card_problems with
  | d :: _ -> Error d
  | [] ->
  (* one pool for the whole generation: CDF fan-out, per-table non-key
     instantiation, keygen CS/PF regions and retries all share its domains.
     The pool is the process-global resident one, shared across runs — no
     domain spawn/join on the generation path. *)
  let pool = Par.get ~domains:config.domains () in
  (* one generation attempt with the given queries quarantined; raises
     [Keygen_failed] on an infeasible population system so the retry loop
     can widen the quarantine *)
  let run_attempt quarantined =
    let diags = ref [] in
    let pushd d = diags := d :: !diags in
    let rng = Rng.create config.seed in
    let ir = filter_ir quarantined full_ir in
    let table_rows t = List.assoc t ir.Ir.table_cards in
    let dom t c =
      match List.assoc_opt (t, c) ir.Ir.column_cards with Some d -> max 1 d | None -> 1
    in
    (* --- 2. decouple LCCs ---------------------------------------------- *)
    let t0 = now () in
    let dec =
      Decouple.run schema ~dom ~table_rows ~param_key:(param_key_fn prod_env)
        ir.Ir.sccs
    in
    List.iter pushd dec.Decouple.skipped;
    let t_decouple = now () -. t0 in
    Budget.check budget;
    (* --- 3. per-column CDFs -------------------------------------------- *)
    let t0 = now () in
    let elements lit =
      (* prefer the elements collected by the workload parser (which also
         serve generation from a saved bundle); fall back to the production
         database *)
      let param_of = function
        | Pred.In { arg = Pred.Param p; _ } | Pred.Like { arg = Pred.Param p; _ } ->
            Some p
        | _ -> None
      in
      match param_of lit with
      | Some p when List.mem_assoc p ir.Ir.param_elements ->
          List.assoc p ir.Ir.param_elements
      | _ -> elements_fallback lit
    in
    let param_key = param_key_fn prod_env in
    let layouts_by_table = Hashtbl.create 16 in
    (* CDF fan-out: every (table, column) build is independent — run them as
       one parallel region in schema order; diagnostics are collected per
       job and merged sequentially in job order so their order (and the
       resulting bindings) never depends on the domain count *)
    let cdf_jobs =
      List.concat_map
        (fun (tbl : Schema.table) ->
          let tname = tbl.Schema.tname in
          let rows = table_rows tname in
          List.map (fun (c : Schema.column) -> (tname, rows, c)) tbl.Schema.nonkeys)
        (Schema.tables schema)
    in
    let build_layout (tname, rows, (c : Schema.column)) =
      let col = c.Schema.cname in
      let uccs =
        List.filter
          (fun (u : Ir.ucc) -> u.Ir.ucc_table = tname && u.Ir.ucc_col = col)
          dec.Decouple.uccs
      in
      let d = min (dom tname col) rows in
      if uccs = [] then
        (Cdf.default_layout ~table:tname ~col ~kind:c.Schema.kind ~dom:d ~rows, None)
      else
        match
          Cdf.build ~guided_placement:config.guided_placement ~table:tname
            ~col ~kind:c.Schema.kind ~dom:d ~rows ~uccs ~elements ~param_key
            ()
        with
        | Ok l -> (l, None)
        | Error msg ->
            let l =
              Cdf.default_layout ~table:tname ~col ~kind:c.Schema.kind ~dom:d
                ~rows
            in
            (* the degraded column's parameters still need bindings
               so replay does not crash; errors surface instead *)
            let fallback =
              List.filter_map
                (fun (u : Ir.ucc) ->
                  match u.Ir.ucc_lit with
                  | Pred.Cmp { arg = Pred.Param p; _ } ->
                      Some (p, Pred.Env.Scalar (l.Cdf.l_render 1))
                  | Pred.In { arg = Pred.Param p; _ } ->
                      Some (p, Pred.Env.Vlist [ l.Cdf.l_render 1 ])
                  | Pred.Like { arg = Pred.Param p; _ } ->
                      Some (p, Pred.Env.Scalar (Value.Str "%"))
                  | Pred.Cmp _ | Pred.In _ | Pred.Like _
                  | Pred.Arith_cmp _ ->
                      None)
                uccs
            in
            ({ l with Cdf.l_bindings = fallback }, Some msg)
    in
    let cdf_results = Par.map_list pool build_layout cdf_jobs in
    List.iter2
      (fun (tname, _, _) (_, degraded) ->
        match degraded with
        | None -> ()
        | Some msg ->
            pushd
              (Diag.warning ~table:tname Diag.Cdf
                 "%s (column degraded to default layout)" msg))
      cdf_jobs cdf_results;
    let layout_pairs =
      List.map2
        (fun (tname, _, (c : Schema.column)) (layout, _) ->
          (tname, (c.Schema.cname, layout)))
        cdf_jobs cdf_results
    in
    List.iter
      (fun (tbl : Schema.table) ->
        let tname = tbl.Schema.tname in
        Hashtbl.replace layouts_by_table tname
          (List.filter_map
             (fun (tn, pair) -> if tn = tname then Some pair else None)
             layout_pairs))
      (Schema.tables schema);
    let env = ref dec.Decouple.fixed_env in
    Hashtbl.iter
      (fun _ layouts ->
        List.iter
          (fun (_, l) ->
            List.iter
              (fun (p, b) -> env := Pred.Env.add p b !env)
              l.Cdf.l_bindings)
          layouts)
      layouts_by_table;
    let t_cdf = now () -. t0 in
    Budget.check budget;
    (* --- 4. non-key data (GD) ------------------------------------------ *)
    let t0 = now () in
    let db = Db.create schema in
    let columns_by_table = Hashtbl.create 16 in
    let param_values p =
      let prefix = p ^ "#" in
      let is_sub q =
        String.length q > String.length prefix
        && String.sub q 0 (String.length prefix) = prefix
      in
      let found = ref None in
      Hashtbl.iter
        (fun _ layouts ->
          List.iter
            (fun (_, l) ->
              if !found = None then
                match Cdf.lookup_param_card l p with
                | Some v -> found := Some [ v ]
                | None ->
                    let subs =
                      List.filter (fun (q, _) -> is_sub q) l.Cdf.l_param_card
                    in
                    if subs <> [] then
                      found :=
                        Some
                          (List.sort compare subs |> List.map snd
                          |> List.filter (fun v -> v >= 1)))
            layouts)
        layouts_by_table;
      !found
    in
    (* per-table fan-out: the RNG stream of every table is split off
       sequentially in schema order (exactly the sequence the sequential
       writer drew), then the instantiations run in parallel and the tables
       are committed to the database sequentially, again in schema order *)
    let gd_jobs =
      List.map (fun (tbl : Schema.table) -> (tbl, Rng.split rng)) (Schema.tables schema)
    in
    let gd_results =
      Par.map_list pool
        (fun ((tbl : Schema.table), rng_t) ->
          let tname = tbl.Schema.tname in
          let rows = table_rows tname in
          let layouts = Hashtbl.find layouts_by_table tname in
          let dropped = ref [] in
          let bound =
            List.filter
              (fun (b : Ir.bound_rows) ->
                b.Ir.br_table = tname && b.Ir.br_rows > 0
                &&
                (* a bound group is only usable when every cell's parameter got
                   a cardinality value (its column's layout was not degraded) *)
                let ok =
                  List.for_all
                    (fun (_, p) ->
                      match param_values p with Some (_ :: _) -> true | _ -> false)
                    b.Ir.br_cells
                in
                if not ok then dropped := b :: !dropped;
                ok)
              dec.Decouple.bound
          in
          let cols =
            Nonkey.generate ?chunk_rows:config.chunk_rows
              ~interrupt:(fun () -> Budget.check budget)
              ~rng:rng_t ~table:tbl ~rows ~layouts ~bound ~param_values ()
          in
          (* placeholder FK columns so the table is complete for the engine *)
          let cols =
            cols
            @ List.map
                (fun (f : Schema.fk) -> (f.Schema.fk_col, Col.const_null rows))
                tbl.Schema.fks
          in
          (tname, cols, List.rev !dropped))
        gd_jobs
    in
    List.iter
      (fun (tname, cols, dropped) ->
        List.iter
          (fun (b : Ir.bound_rows) ->
            pushd
              (Diag.warning ~table:tname ~query:b.Ir.br_source Diag.Nonkey
                 "bound group dropped (degraded column layout)"))
          dropped;
        Hashtbl.replace columns_by_table tname cols;
        Db.put_cols db tname cols)
      gd_results;
    let t_gd = now () -. t0 in
    Budget.check budget;
    (* --- 5. ACC parameters --------------------------------------------- *)
    let t0 = now () in
    let frozen_prefix_of table =
      List.fold_left
        (fun acc (b : Ir.bound_rows) ->
          if b.Ir.br_table = table then acc + b.Ir.br_rows else acc)
        0 dec.Decouple.bound
    in
    List.iter
      (fun (acc : Ir.acc) ->
        let p, b =
          Acc.instantiate ~repair:config.acc_repair
            ~frozen_prefix:(frozen_prefix_of acc.Ir.acc_table)
            ~interrupt:(fun () -> Budget.check budget)
            ~rng:(Rng.split rng) ~db ~sample_size:config.sample_size acc
        in
        env := Pred.Env.add p b !env)
      dec.Decouple.accs;
    let t_acc = now () -. t0 in
    Budget.check budget;
    (* --- 6. key generation (CS / CP / PF) ------------------------------- *)
    let times = Keygen.fresh_times () in
    let edges = all_edges schema in
    let order_edges = edge_order_edges edges ir.Ir.joins in
    let ids = List.map edge_id edges in
    let sorted_ids = Toposort.sort ~vertices:ids ~edges:order_edges in
    let edge_of_id id = List.find (fun e -> edge_id e = id) edges in
    let overlap = config.schedule = `Overlap in
    (* one edge's population.  [rng_e] is the exact RNG stream the
       sequential barrier walk would hand this edge — pre-sequenced by the
       caller, so the schedule decides only when the work runs, never what
       it draws. *)
    let edge_work ~rng_e ~times_e ~env_e edge constraints =
      let tname = edge.Ir.e_fk_table in
      let rows = table_rows tname in
      if constraints = [] then begin
        (* unconstrained FK: any primary key of the referenced table.
           The fill proceeds chunk-at-a-time under a chunk plan (same
           draw order as one pass, so same bytes), polling the budget
           between chunks. *)
        let step =
          match config.chunk_rows with Some c -> c | None -> max 1 rows
        in
        match Keygen.pk_reader ~db edge with
        | Ok pk_at ->
            let n = Db.row_count db edge.Ir.e_pk_table in
            let fk = Col.Ivec.make rows 0 in
            let lo = ref 0 in
            while !lo < rows do
              Budget.check budget;
              let hi = min rows (!lo + step) in
              for i = !lo to hi - 1 do
                Col.Ivec.unsafe_set fk i (pk_at (Rng.int rng_e n))
              done;
              lo := hi
            done;
            (Col.Ivec.to_col fk, [])
        | Error f -> raise (Keygen_failed f)
      end
      else
        match
          Keygen.populate_edge ~lp_guide:config.lp_guide
            ~sparsify:config.sparsify ~capacity_repair:config.capacity_repair
            ~pool ~interrupt:(fun () -> Budget.check budget)
            ~rng:rng_e ~db ~env:env_e ~edge ~constraints
            ~batch_size:config.batch_size ~cp_max_nodes:config.cp_max_nodes
            ~times:times_e ()
        with
        | Ok (fk, notices) -> (Col.Ivec.to_col fk, notices)
        | Error f -> raise (Keygen_failed f)
    in
    let commit_edge edge fk_col =
      let tname = edge.Ir.e_fk_table in
      let cols = Hashtbl.find columns_by_table tname in
      let cols =
        List.map
          (fun (c, a) -> if c = edge.Ir.e_fk_col then (c, fk_col) else (c, a))
          cols
      in
      Hashtbl.replace columns_by_table tname cols;
      Db.put_cols db tname cols
    in
    let constraints_of edge =
      List.filter (fun jc -> jc.Ir.jc_edge = edge) ir.Ir.joins
    in
    if not overlap then
      (* barrier schedule: edges strictly one after another in topological
         order, drawing from the shared RNG in place — the differential
         oracle the overlap path is tested against *)
      List.iter
        (fun id ->
          let edge = edge_of_id id in
          let constraints = constraints_of edge in
          let rng_e = if constraints = [] then rng else Rng.split rng in
          let fk_col, notices =
            edge_work ~rng_e ~times_e:times ~env_e:!env edge constraints
          in
          List.iter pushd notices;
          commit_edge edge fk_col)
        sorted_ids
    else begin
      (* overlap schedule: one pool task per edge.  The walk below visits
         edges in the same topological order as the barrier path and
         pre-sequences each task's RNG there — a constrained edge takes a
         split (one draw), an unconstrained edge takes a copy of the
         stream while the shared RNG skips the [rows] draws the fill will
         consume — so execution order cannot change a single byte.

         Scheduling is orchestrator-driven: a task is submitted only once
         every one of its dependencies (its [order_edges] predecessors,
         plus the previous edge of its own FK table — commits
         read-modify-write that table's column list) has been awaited.
         Task bodies therefore never block on other tasks, which makes
         [Future.await]'s queue-helping safe: nothing a blocked caller can
         pop depends on work suspended beneath it on the same stack.
         [await] synchronises through the pool mutex, so a committed
         dependency is fully visible to every task submitted after it. *)
      let env_e = !env in
      (* per edge id, in topo order: pre-sequenced RNG, private counter
         record, dependency set (deduplicated) *)
      let rng_of = Hashtbl.create 16 in
      let times_of = Hashtbl.create 16 in
      let deps_of = Hashtbl.create 16 in
      let last_seen = Hashtbl.create 8 in
      List.iter
        (fun id ->
          let edge = edge_of_id id in
          let constraints = constraints_of edge in
          let rng_e =
            if constraints = [] then begin
              let c = Rng.copy rng in
              Rng.skip rng (table_rows edge.Ir.e_fk_table);
              c
            end
            else Rng.split rng
          in
          Hashtbl.replace rng_of id rng_e;
          Hashtbl.replace times_of id (Keygen.fresh_times ());
          let deps =
            List.filter_map
              (fun (a, b) -> if b = id && a <> id then Some a else None)
              order_edges
            @
            match Hashtbl.find_opt last_seen edge.Ir.e_fk_table with
            | Some prev -> [ prev ]
            | None -> []
          in
          Hashtbl.replace deps_of id (List.sort_uniq compare deps);
          Hashtbl.replace last_seen edge.Ir.e_fk_table id)
        sorted_ids;
      let succs_of id =
        List.filter (fun s -> List.mem id (Hashtbl.find deps_of s)) sorted_ids
      in
      let futs = Hashtbl.create 16 in
      let submit id =
        let edge = edge_of_id id in
        let constraints = constraints_of edge in
        let rng_e = Hashtbl.find rng_of id in
        let times_e = Hashtbl.find times_of id in
        Hashtbl.replace futs id
          (Par.Future.submit pool (fun () ->
               let fk_col, notices =
                 edge_work ~rng_e ~times_e ~env_e edge constraints
               in
               commit_edge edge fk_col;
               notices))
      in
      (* a table is exportable the moment its last edge committed — or
         right now, if no edge writes into it (non-key data is final once
         ACC ran) *)
      let export_futs = ref [] in
      let edges_left = Hashtbl.create 8 in
      List.iter
        (fun id ->
          let t = (edge_of_id id).Ir.e_fk_table in
          Hashtbl.replace edges_left t
            (1 + Option.value ~default:0 (Hashtbl.find_opt edges_left t)))
        sorted_ids;
      let submit_export tname =
        match config.on_table_ready with
        | None -> ()
        | Some ready ->
            export_futs :=
              Par.Future.submit pool (fun () -> ready db tname) :: !export_futs
      in
      List.iter
        (fun (tbl : Schema.table) ->
          if not (Hashtbl.mem edges_left tbl.Schema.tname) then
            submit_export tbl.Schema.tname)
        (Schema.tables schema);
      let remaining = Hashtbl.create 16 in
      List.iter
        (fun id ->
          Hashtbl.replace remaining id (List.length (Hashtbl.find deps_of id)))
        sorted_ids;
      List.iter
        (fun id -> if Hashtbl.find remaining id = 0 then submit id)
        sorted_ids;
      (* collect in topological order: notices, per-edge counter merges and
         the winning error all replay exactly the barrier path's sequence.
         A failed edge stops further submissions (its dependents never
         run, as on the barrier path after a raise), but every submitted
         future — exports included — is awaited before re-raising, so the
         pool is fully drained for the quarantine retry. *)
      let first_err = ref None in
      List.iter
        (fun id ->
          match Hashtbl.find_opt futs id with
          | None -> () (* a dependency failed; never submitted *)
          | Some fut -> (
              match Par.Future.await fut with
              | notices ->
                  if !first_err = None then begin
                    Keygen.add_times times (Hashtbl.find times_of id);
                    List.iter pushd notices;
                    List.iter
                      (fun s ->
                        let left = Hashtbl.find remaining s - 1 in
                        Hashtbl.replace remaining s left;
                        if left = 0 then submit s)
                      (succs_of id);
                    let t = (edge_of_id id).Ir.e_fk_table in
                    let left = Hashtbl.find edges_left t - 1 in
                    Hashtbl.replace edges_left t left;
                    if left = 0 then submit_export t
                  end
              | exception e -> if !first_err = None then first_err := Some e))
        sorted_ids;
      (* Await every live export so the pool is drained, and drop what they
         raised: the [on_table_ready] contract (driver.mli) makes the hook
         best-effort.  [Scale_out.export_table] releases a failed table's
         claim before it re-raises, so the caller's finish pass exports
         that table again and a persistent failure surfaces there, typed
         (an I/O error exits 4, a budget breach 3).  Raising here instead
         would turn an export failure into a generation failure. *)
      List.iter
        (fun f -> try ignore (Par.Future.await f) with _ -> ())
        !export_futs;
      match !first_err with Some e -> raise e | None -> ()
    end;
    (* --- 7. close the environment -------------------------------------- *)
    List.iter
      (fun p ->
        if Pred.Env.find p !env = None then begin
          pushd
            (Diag.warning Diag.Driver "parameter %s left unbound; defaulting" p);
          env := Pred.Env.add p (Pred.Env.Scalar (Value.Int 1)) !env
        end)
      (Workload.param_names w);
    ( db,
      !env,
      (t_decouple, t_cdf, t_gd, t_acc, times),
      List.rev !diags )
  in
  (* degraded mode: on an infeasible population system, quarantine the most
     implicated query and regenerate; the remaining queries keep their exact
     guarantees.  At most one query per retry, at most one retry per query. *)
  let quarantine_diags = ref [] in
  let rec attempt quarantined tries =
    match run_attempt quarantined with
    | outcome -> Ok (outcome, quarantined)
    | exception Keygen_failed f -> (
        (* the dead attempt may already have live-exported finished tables;
           give the exporter a chance to drop that attempt's shards before
           the quarantine retry regenerates them (or the error surfaces) *)
        (match config.on_attempt_abort with
        | Some abort -> (
            (* a failing hook must not replace the keygen failure being
               handled: report it as a warning and go on to the retry *)
            try abort ()
            with e ->
              quarantine_diags :=
                Diag.warning Diag.Driver "attempt-abort hook failed: %s"
                  (Printexc.to_string e)
                :: !quarantine_diags)
        | None -> ());
        let fd = f.Keygen.kf_diag in
        if tries <= 0 then Error fd
        else
          match victim_query ~quarantined f with
          | None -> Error fd
          | Some q ->
              quarantine_diags :=
                Diag.error ~query:q
                  ~hint:
                    "fix or drop the conflicting annotations to restore \
                     exact generation for this query"
                  Diag.Driver "query %s quarantined: %s" q fd.Diag.d_message
                :: !quarantine_diags;
              attempt (q :: quarantined) (tries - 1))
    | exception Failure msg -> Error (Diag.error Diag.Driver "%s" msg)
    | exception Rewrite.Unsupported msg ->
        Error (Diag.error Diag.Extract "rewrite: %s" msg)
    | exception Budget.Exceeded r ->
        Error
          (Diag.error
             ~hint:
               "raise the budget (heap / deadline) or lower the \
                scale factor and rerun"
             Diag.Budget "%s" (Budget.describe r))
  in
  let outcome = attempt [] (List.length w.Workload.w_queries) in
  match outcome with
  | Error d -> Error d
  | Ok ((db, env, (t_decouple, t_cdf, t_gd, t_acc, times), diags), quarantined) ->
      let quarantine_diags = List.rev !quarantine_diags in
      let all_diags =
        init_diags @ extraction.Extract.diags @ quarantine_diags @ diags
      in
      let verdicts =
        List.map
          (fun (q : Workload.query) ->
            let name = q.Workload.q_name in
            let mentions d = Diag.base_query d = Some name in
            if List.mem name quarantined then
              {
                Diag.v_query = name;
                v_status = Diag.Quarantined;
                v_detail =
                  Option.map
                    (fun d -> d.Diag.d_message)
                    (List.find_opt mentions quarantine_diags);
              }
            else
              match
                List.find_opt mentions extraction.Extract.diags
              with
              | Some d ->
                  {
                    Diag.v_query = name;
                    v_status = Diag.Unsupported;
                    v_detail = Some d.Diag.d_message;
                  }
              | None -> (
                  match
                    List.find_opt
                      (fun d -> mentions d && d.Diag.d_severity <> Diag.Info)
                      diags
                  with
                  | Some d ->
                      {
                        Diag.v_query = name;
                        v_status = Diag.Degraded;
                        v_detail = Some d.Diag.d_message;
                      }
                  | None ->
                      {
                        Diag.v_query = name;
                        v_status = Diag.Exact;
                        v_detail = None;
                      }))
          w.Workload.w_queries
      in
      let t_total = now () -. t_start in
      Ok
        {
          r_db = db;
          r_env = env;
          r_extraction = extraction;
          r_timings =
            {
              t_extract;
              t_decouple;
              t_cdf;
              t_gd;
              t_acc;
              t_cs = times.Keygen.t_cs;
              t_cp = times.Keygen.t_cp;
              t_pf = times.Keygen.t_pf;
              t_total;
              t_cpu = cpu_now () -. cpu_start;
              domains_used = Par.size pool;
              cp_solves = times.Keygen.cp_solves;
              cp_nodes = times.Keygen.cp_nodes;
              cp_restarts = times.Keygen.cp_restarts;
              cp_props = times.Keygen.cp_props;
              cp_cache_hits = 0;
              batch_alloc_bytes = times.Keygen.batch_alloc_bytes;
            };
          r_diags = all_diags;
          r_verdicts = verdicts;
        }

let first_error diags =
  List.find_opt (fun d -> d.Diag.d_severity = Diag.Error) diags

let generate ?(config = default_config) (w : Workload.t) ~ref_db ~prod_env =
  let vdiags = Workload.validate w in
  match first_error vdiags with
  | Some d -> Error d
  | None -> (
      let t0 = now () in
      match Extract.run w ~ref_db ~prod_env with
      | extraction ->
          let t_extract = now () -. t0 in
          generate_internal ~config w ~extraction ~t_extract
            ~elements_fallback:
              (Extract.production_elements w.Workload.w_schema ref_db ~env:prod_env)
            ~prod_env ~init_diags:vdiags
      | exception Rewrite.Unsupported msg ->
          Error (Diag.error Diag.Extract "rewrite: %s" msg)
      | exception Invalid_argument msg ->
          Error (Diag.error Diag.Extract "%s" msg))

let generate_from_bundle ?(config = default_config) (b : Bundle.t) =
  (* generation from a saved constraint bundle: no production database —
     unresolved in/like elements simply have no production signal *)
  let vdiags = Bundle.validate b in
  match first_error vdiags with
  | Some d -> Error d
  | None ->
      let extraction =
        { Extract.ir = b.Bundle.b_ir; aqts = []; rewritten = []; diags = [] }
      in
      generate_internal ~config b.Bundle.b_workload ~extraction ~t_extract:0.0
        ~elements_fallback:(fun _ -> [])
        ~prod_env:b.Bundle.b_env ~init_diags:vdiags

let measure_errors r =
  Error.measure ~aqts:r.r_extraction.Extract.aqts ~db:r.r_db ~env:r.r_env
