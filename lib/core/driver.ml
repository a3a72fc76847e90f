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
  cp_max_nodes : int;
  domains : int;
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
  schedule : [ `Overlap ];
      (** keygen stage scheduling: the FK edges are populated one at a
          time in topological order, with only the per-table export
          overlapping them.  A field with one value, kept only because
          callers still set it. *)
  on_table_ready : (Db.t -> string -> unit) option;
      (** called once per table as soon as every column of that table is
          final (its last FK edge committed; immediately for tables with
          no FK) — the hook that lets an exporter overlap rendering with
          the remaining tables' generation.  Runs as a pool task; an
          exception it raises becomes a [Driver] warning (the caller's
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

(* ACC sample size: Hoeffding's bound for delta = 0.1%, alpha = 99.9% (§4.4) *)
let acc_sample_size = Hoeffding.sample_size ~delta:0.001 ~alpha:0.999

let default_config =
  {
    seed = 42;
    batch_size = 7_000_000;
    cp_max_nodes = 100_000;
    domains = Par.default_domains ();
    budget = Budget.no_limits;
    chunk_rows = None;
    schedule = `Overlap;
    on_table_ready = None;
    on_attempt_abort = None;
  }

type timings = {
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
  r_aqts : Mirage_relalg.Aqt.t list;
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

(* why generation cannot start, checked before any work: a config that
   cannot drive it, else the first error among the inputs' diagnostics *)
let first_problem config vdiags =
  if config.batch_size < 1 then
    Some
      (Diag.error ~hint:"pass a positive --batch" Diag.Validate
         "batch_size must be >= 1 (got %d)" config.batch_size)
  else
    match config.chunk_rows with
    | Some c when c < 1 ->
        Some
          (Diag.error ~hint:"pass a positive --chunk-rows (or None)"
             Diag.Validate "chunk_rows must be >= 1 (got %d)" c)
    | _ -> List.find_opt (fun d -> d.Diag.d_severity = Diag.Error) vdiags

(* the one generation body: it reads the constraints, the templates and the
   production parameters from a bundle, never a production database; the
   bundle carries the extraction's per-query failures *)
let generate_from_bundle ?(config = default_config) (b : Bundle.t) =
  let vdiags = Bundle.validate b in
  match first_problem config vdiags with
  | Some d -> Error d
  | None ->
      let w = b.Bundle.b_workload in
      (* production value of a scalar parameter, for value sharing and
         placement *)
      let param_key p = Pred.Env.find_scalar p b.Bundle.b_env in
      let schema = w.Workload.w_schema in
      (* one budget token for the whole run: stage boundaries poll it, and the
         keygen/CP layers poll it from inside their loops via [interrupt].  A
         breach raises [Budget.Exceeded], turned into a typed [Diag.Budget]
         error by the attempt loop below — parallel regions drain before
         re-raising, so no domain is left wedged and the resident pool stays
         usable for the next run. *)
      let budget = Budget.start config.budget in
      let t_start = now () in
      let cpu_start = cpu_now () in
      let full_ir = b.Bundle.b_ir in
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
          match List.assoc_opt (t, c) ir.Ir.column_cards with
          | Some d -> max 1 d
          | None -> 1
        in
        (* --- 2. decouple LCCs ---------------------------------------------- *)
        let t0 = now () in
        let dec =
          Decouple.run schema ~dom ~table_rows ~param_key ir.Ir.sccs
        in
        List.iter pushd dec.Decouple.skipped;
        let t_decouple = now () -. t0 in
        Budget.check budget;
        (* --- 3. per-column CDFs -------------------------------------------- *)
        let t0 = now () in
        (* the elements the workload parser collected for every IN/LIKE
           parameter of the selection constraints; a bundle carries them *)
        let elements = function
          | Pred.In { arg = Pred.Param p; _ } | Pred.Like { arg = Pred.Param p; _ } ->
              Option.value ~default:[] (List.assoc_opt p ir.Ir.param_elements)
          | _ -> []
        in
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
              Cdf.build ~table:tname ~col ~kind:c.Schema.kind ~dom:d ~rows ~uccs
                ~elements ~param_key ()
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
          List.map
            (fun (tbl : Schema.table) -> (tbl, Rng.split rng))
            (Schema.tables schema)
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
              Acc.instantiate ~frozen_prefix:(frozen_prefix_of acc.Ir.acc_table)
                ~interrupt:(fun () -> Budget.check budget)
                ~rng:(Rng.split rng) ~db ~sample_size:acc_sample_size acc
            in
            env := Pred.Env.add p b !env)
          dec.Decouple.accs;
        let t_acc = now () -. t0 in
        Budget.check budget;
        (* --- 6. key generation (CS / CP / PF) ------------------------------- *)
        let times = Keygen.fresh_times () in
        let edges = all_edges schema in
        let order_edges = edge_order_edges edges ir.Ir.joins in
        let sorted_edges =
          List.map
            (fun id -> List.find (fun e -> edge_id e = id) edges)
            (Toposort.sort ~vertices:(List.map edge_id edges) ~edges:order_edges)
        in
        (* one edge's population, drawing from the run's stream: a constrained
           edge takes one split, an unconstrained edge draws its [rows] keys
           straight from [rng] *)
        let edge_work edge constraints =
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
                    Col.Ivec.unsafe_set fk i (pk_at (Rng.int rng n))
                  done;
                  lo := hi
                done;
                (Col.Ivec.to_col fk, [])
            | Error f -> raise (Keygen_failed f)
          end
          else
            match
              Keygen.populate_edge ~pool ~interrupt:(fun () -> Budget.check budget)
                ~rng:(Rng.split rng) ~db ~env:!env ~edge ~constraints
                ~batch_size:config.batch_size ~cp_max_nodes:config.cp_max_nodes
                ~times ()
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
        (* a table is exportable the moment its last edge committed — or
           right now, if no edge writes into it (non-key data is final once
           ACC ran).  The export runs as a pool task beside the walk. *)
        let export_futs = ref [] in
        let edges_left = Hashtbl.create 8 in
        List.iter
          (fun (e : Ir.edge) ->
            let t = e.Ir.e_fk_table in
            Hashtbl.replace edges_left t
              (1 + Option.value ~default:0 (Hashtbl.find_opt edges_left t)))
          sorted_edges;
        let submit_export tname =
          match config.on_table_ready with
          | None -> ()
          | Some ready ->
              export_futs :=
                (tname, Par.Future.submit pool (fun () -> ready db tname))
                :: !export_futs
        in
        List.iter
          (fun (tbl : Schema.table) ->
            if not (Hashtbl.mem edges_left tbl.Schema.tname) then
              submit_export tbl.Schema.tname)
          (Schema.tables schema);
        (* the walk: one edge at a time in topological order, so every edge
           sees the committed FK columns its subplan views join on *)
        let walk () =
          List.iter
            (fun edge ->
              let fk_col, notices =
                edge_work edge
                  (List.filter (fun jc -> jc.Ir.jc_edge = edge) ir.Ir.joins)
              in
              commit_edge edge fk_col;
              List.iter pushd notices;
              let t = edge.Ir.e_fk_table in
              let left = Hashtbl.find edges_left t - 1 in
              Hashtbl.replace edges_left t left;
              if left = 0 then submit_export t)
            sorted_edges
        in
        (* Await every live export, also when the walk raised, so the pool is
           drained for the quarantine retry.  The [on_table_ready] hook is
           best-effort (driver.mli): [Scale_out.export_table] releases a failed
           table's claim before it re-raises, so the caller's finish pass
           exports that table again and a persistent failure surfaces there,
           typed (an I/O error exits 4, a budget breach 3).  What the hook
           raised is reported as a warning, not as a generation failure. *)
        let drain_exports () =
          List.iter
            (fun (tname, f) ->
              try Par.Future.await f
              with e ->
                pushd
                  (Diag.warning ~table:tname Diag.Driver "export hook failed: %s"
                     (Printexc.to_string e)))
            (List.rev !export_futs)
        in
        Fun.protect ~finally:drain_exports walk;
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
          let all_diags = vdiags @ b.Bundle.b_unsupported @ quarantine_diags @ diags in
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
                  match List.find_opt mentions b.Bundle.b_unsupported with
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
              r_aqts = [];
              r_timings =
                {
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

(* the production side composed with the generator: extract, carry the
   constraints across the bundle's text format, generate from the bundle *)
let generate ?(config = default_config) (w : Workload.t) ~ref_db ~prod_env =
  match first_problem config (Workload.validate w) with
  | Some d -> Error d
  | None -> (
      match Extract.run w ~ref_db ~prod_env with
      | exception Invalid_argument msg -> Error (Diag.error Diag.Extract "%s" msg)
      | ex -> (
          let aqts = ex.Extract.aqts in
          match Bundle.(of_string (to_string (of_extraction w ex ~prod_env))) with
          | Error m -> Error (Diag.error Diag.Bundle "%s" m)
          | Ok b ->
              Result.map
                (fun r -> { r with r_aqts = aqts })
                (generate_from_bundle ~config b)))

let measure_errors r = Error.measure ~aqts:r.r_aqts ~db:r.r_db ~env:r.r_env
