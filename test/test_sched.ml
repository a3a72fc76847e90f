(* Key-generation schedule (Driver.config.schedule): the topological edge
   walk with its overlapped per-table export must generate the database,
   parameters and CP solve count of the run written out for goldens/sched
   across domain counts and chunk sizes, for two workloads at two batch
   sizes each; the live export must survive a kill-and-resume and a
   quarantine retry; and Par.Future must never start a task before its
   dependencies complete (QCheck, randomized task latencies). *)

module Driver = Mirage_core.Driver
module Scale_out = Mirage_core.Scale_out
module Sink = Mirage_engine.Sink
module Db = Mirage_engine.Db
module Par = Mirage_par.Par
module Schema = Mirage_sql.Schema

let largest_table db =
  List.fold_left (fun m t -> max m (Db.row_count db t)) 1 (Shards.table_names db)

(* value digest over every column: rendered values, not Marshal bytes —
   chunked assembly may change physical string sharing without changing a
   single value, and the schedule contract is about values *)
let db_digest db =
  let b = Buffer.create 4096 in
  let acc = Buffer.create 256 in
  List.iter
    (fun (tbl : Schema.table) ->
      let t = tbl.Schema.tname in
      List.iter
        (fun c ->
          Buffer.clear b;
          Array.iter
            (fun v ->
              Buffer.add_string b (Mirage_sql.Value.to_string v);
              Buffer.add_char b '\x00')
            (Db.column db t c);
          Buffer.add_string acc (Digest.string (Buffer.contents b)))
        (Schema.column_names tbl))
    (Schema.tables (Db.schema db));
  Digest.to_hex (Digest.string (Buffer.contents acc))

(* one binding per line, as parameters.txt spells it *)
let param_lines env =
  List.map
    (fun (p, b) -> p ^ " = " ^ Mirage_sql.Pred.Env.binding_to_string b)
    (Mirage_sql.Pred.Env.bindings env)

let generate ?chunk_rows ?(domains = 1) ?(batch_size = 1_000_000)
    ?on_table_ready ?on_attempt_abort make ~sf =
  let workload, ref_db, prod_env = make ~sf ~seed:7 in
  let config =
    { Driver.default_config with
      seed = 42; batch_size; domains; chunk_rows; on_table_ready;
      on_attempt_abort }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok r -> r

(* a run's database digest, CP solve count and parameters *)
type pinned = { p_digest : string; p_solves : int; p_params : string list }

let outputs (r : Driver.result) =
  {
    p_digest = db_digest r.Driver.r_db;
    p_solves = r.Driver.r_timings.Driver.cp_solves;
    p_params = param_lines r.Driver.r_env;
  }

(* the monolithic 4-domain run at sf 0.05 (workload seed 7, generation
   seed 42), written out as sched/<workload>-batch<rows>.txt: its
   [outputs] one per line, and the row count of its largest table *)
let pinned name make ~batch_size =
  let r = generate ~domains:4 ~batch_size make ~sf:0.05 in
  let o = outputs r in
  Pinned.write
    (Printf.sprintf "sched/%s-batch%d.txt" name batch_size)
    (String.concat "\n"
       (("db_digest " ^ o.p_digest) :: Printf.sprintf "cp_solves %d" o.p_solves
       :: o.p_params)
    ^ "\n");
  (o, largest_table r.Driver.r_db)

(* --- the walk = pinned outputs ---------------------------------------------- *)

let check_pinned label p r =
  let o = outputs r in
  Alcotest.(check string) (label ^ ": db") p.p_digest o.p_digest;
  Alcotest.(check (list string)) (label ^ ": parameters") p.p_params o.p_params;
  Alcotest.(check int) (label ^ ": CP solves") p.p_solves o.p_solves

(* [small] is a second batch size: every constrained edge whose FK table
   holds at least three such batches fills in three or more *)
let test_sched_identity name make ~small () =
  let one_batch = pinned name make ~batch_size:1_000_000 in
  let multi_batch = pinned name make ~batch_size:small in
  Alcotest.(check bool)
    "small batches run more CP solves" true
    ((fst multi_batch).p_solves > (fst one_batch).p_solves);
  List.iter
    (fun (batch_size, (p, largest)) ->
      (* a non-dividing prime and a several-chunks-per-fact-table size, so
         row scans cross ragged chunk boundaries *)
      List.iter
        (fun chunk_rows ->
          List.iter
            (fun domains ->
              check_pinned
                (Printf.sprintf "batch=%d chunk=%d domains=%d" batch_size
                   chunk_rows domains)
                p
                (generate ~chunk_rows ~domains ~batch_size make ~sf:0.05))
            [ 1; 2; 4 ])
        [ 37; max 2 (largest / 3) ])
    [ (1_000_000, one_batch); (small, multi_batch) ]

(* --- CP solve count parity ------------------------------------------------- *)

(* the pinned CP solves, batch by batch, in every edge, with no chunking *)
let test_solve_parity () =
  check_pinned "tpch batch=300 domains=2"
    (fst (pinned "tpch" Mirage_workloads.Tpch.make ~batch_size:300))
    (generate ~domains:2 ~batch_size:300 Mirage_workloads.Tpch.make ~sf:0.05)

(* --- kill + resume through the live per-table export ------------------------ *)

let test_live_export_crash_resume () =
  let make = Mirage_workloads.Ssb.make and sf = 0.05 in
  let mono = generate make ~sf in
  check_pinned "monolithic" (fst (pinned "ssb" make ~batch_size:1_000_000)) mono;
  let dir_c = Shards.fresh_dir "mirage_sched_c" in
  let chunk_rows = max 1 (largest_table mono.Driver.r_db / 3) in
  let run_id = "sched-resume" in
  let pool = Par.get ~domains:2 () in
  let with_live ?backend ?(resume = false) f =
    let h =
      Scale_out.open_csv_export ~pool ?backend ~resume ~copies:1 ~chunk_rows
        ~dir:dir_c ~run_id ()
    in
    let r =
      generate ~domains:2 ~chunk_rows
        ~on_table_ready:(fun db tname -> Scale_out.export_table h ~db tname)
        ~on_attempt_abort:(fun () -> Scale_out.abort_csv_export h)
        make ~sf
    in
    f h r
  in
  (* run 1: the backend simulates a kill at the third shard commit.  Export
     tasks riding generation swallow the crash (releasing their claims), so
     the finish pass is where it must surface — exactly 2 shards committed. *)
  let crashed =
    let backend =
      Sink.faulty
        { Sink.no_faults with Sink.crash_after_shards = Some 2 }
        Sink.os_backend
    in
    with_live ~backend (fun h r ->
        match Scale_out.finish_csv_export h ~db:r.Driver.r_db with
        | _ -> false
        | exception Sink.Injected_crash _ -> true)
  in
  Alcotest.(check bool) "run 1 crashed" true crashed;
  (* run 2: same parameters, --resume; the committed prefix is skipped and
     the completed export is byte-identical to the reference renderer *)
  with_live ~resume:true (fun h r ->
      let rep = Scale_out.finish_csv_export h ~db:r.Driver.r_db in
      Alcotest.(check int) "committed prefix resumed" 2 rep.Scale_out.cr_resumed;
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: resumed live export = monolithic" t)
            true
            (String.equal
               (Reference.csv ~db:mono.Driver.r_db ~copies:1 t)
               (Shards.concat dir_c t)))
        (Shards.table_names r.Driver.r_db));
  Shards.rm_rf dir_c

(* --- live export across a quarantine retry ----------------------------------- *)

(* TPC-DS sf 0.1 at workload and generation seed 1: two attempts die on an
   infeasible population system before the third succeeds, each after the
   live export has already written shards for it.  Wired as the CLI wires
   it, the export must end holding exactly the final database: every
   table's shards (two tiles, so two shards each) concatenate to its
   reference render, and the manifest names only the shards on disk. *)
let test_live_export_quarantine () =
  let workload, ref_db, prod_env = Mirage_workloads.Tpcds.make ~sf:0.1 ~seed:1 in
  let dir = Shards.fresh_dir "mirage_sched_q" in
  let copies = 2 and chunk_rows = 1000 and run_id = "sched-quarantine" in
  let h =
    Scale_out.open_csv_export ~pool:(Par.get ~domains:2 ()) ~copies
      ~chunk_rows ~dir ~run_id ()
  in
  (* tables exported, and tables exported by the attempts that died *)
  let exported = Atomic.make 0 and dead_exports = ref 0 and aborts = ref 0 in
  let config =
    { Driver.default_config with
      seed = 1; domains = 2; chunk_rows = Some chunk_rows;
      on_table_ready =
        Some
          (fun db tname ->
            Scale_out.export_table h ~db tname;
            Atomic.incr exported);
      on_attempt_abort =
        Some
          (fun () ->
            incr aborts;
            dead_exports := Atomic.get exported;
            Scale_out.abort_csv_export h) }
  in
  let r =
    match Driver.generate ~config workload ~ref_db ~prod_env with
    | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
    | Ok r -> r
  in
  let db = r.Driver.r_db in
  let rep = Scale_out.finish_csv_export h ~db in
  Alcotest.(check int) "aborted attempts" 2 !aborts;
  Alcotest.(check bool) "dead attempts exported tables" true
    (!dead_exports > 0);
  Alcotest.(check (list string)) "quarantined queries"
    [ "tpcds_q14.4"; "tpcds_q14.5" ]
    (List.filter_map
       (fun (v : Mirage_core.Diag.verdict) ->
         if v.Mirage_core.Diag.v_status = Mirage_core.Diag.Quarantined then
           Some v.Mirage_core.Diag.v_query
         else None)
       r.Driver.r_verdicts);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: shards = reference render" t)
        true
        (String.equal (Reference.csv ~db ~copies t) (Shards.concat dir t)))
    (Shards.table_names db);
  let committed =
    List.map
      (fun (s : Sink.shard) -> s.Sink.sh_name)
      (Sink.completed (Sink.create ~resume:true ~dir ~run_id ()))
  in
  Alcotest.(check int) "manifest = report" rep.Scale_out.cr_shards
    (List.length committed);
  Alcotest.(check (list string)) "manifest = shards on disk"
    (List.sort compare committed)
    (List.sort compare
       (List.filter
          (fun f -> f <> Filename.basename (Sink.manifest_path ~dir))
          (Array.to_list (Sys.readdir dir))));
  Shards.rm_rf dir

(* --- QCheck: task-DAG ordering under randomized latencies ------------------- *)

(* test/dune has no unix dependency, so latency is a spin-wait; opaque to
   keep the loop from being optimised away *)
let spin n =
  let x = ref 0 in
  for _ = 1 to n * 20 do
    x := Sys.opaque_identity (!x + 1)
  done

(* a task DAG over Par.Future: a task is submitted only once every
   dependency's future has been awaited, so no queued task ever waits on
   upward work and the helping [await] cannot deadlock.  The property: every task runs exactly once and never starts
   before all of its dependencies finished, for random DAGs, random task
   latencies and random pool widths. *)
let qcheck_dag_ordering =
  QCheck.Test.make ~count:25
    ~name:"orchestrated task DAG respects dependencies under random latency"
    QCheck.(
      pair (int_range 2 14) (pair (int_range 1 4) (pair int (small_list (int_range 0 400)))))
    (fun (n, (domains, (seed, lats))) ->
      let rng = Random.State.make [| seed |] in
      (* deps.(i) ⊆ {0..i-1}: acyclic by construction, like topo-ordered
         FK edges *)
      let deps =
        Array.init n (fun i ->
            List.filter (fun _ -> Random.State.bool rng) (List.init i Fun.id))
      in
      let latency_of t =
        match lats with [] -> 0 | _ -> List.nth lats (t mod List.length lats)
      in
      let pool = Par.get ~domains () in
      let m = Mutex.create () in
      let finished = Array.make n false in
      let runs = Array.make n 0 in
      let violations = ref 0 in
      let futs = Hashtbl.create n in
      let remaining = Array.init n (fun i -> List.length deps.(i)) in
      let submit i =
        Hashtbl.replace futs i
          (Par.Future.submit pool (fun () ->
               Mutex.lock m;
               if not (List.for_all (fun d -> finished.(d)) deps.(i)) then
                 incr violations;
               runs.(i) <- runs.(i) + 1;
               Mutex.unlock m;
               spin (latency_of i);
               Mutex.lock m;
               finished.(i) <- true;
               Mutex.unlock m))
      in
      for i = 0 to n - 1 do
        if remaining.(i) = 0 then submit i
      done;
      for i = 0 to n - 1 do
        Par.Future.await (Hashtbl.find futs i);
        for j = i + 1 to n - 1 do
          if List.mem i deps.(j) then begin
            remaining.(j) <- remaining.(j) - 1;
            if remaining.(j) = 0 then submit j
          end
        done
      done;
      !violations = 0
      && Array.for_all (fun r -> r = 1) runs
      && Array.for_all Fun.id finished)

let () =
  Alcotest.run "sched"
    [
      ( "identity",
        [
          Alcotest.test_case
            "ssb overlap = barrier, chunks x domains 1/2/4" `Slow
            (* 60-row batches: 5 per lineorder edge (300 rows) *)
            (test_sched_identity "ssb" Mirage_workloads.Ssb.make ~small:60);
          Alcotest.test_case
            "tpch overlap = barrier, chunks x domains 1/2/4" `Slow
            (* 300-row batches: 10 per lineitem edge (3,000 rows), 3 per
               orders edge (750 rows) *)
            (test_sched_identity "tpch" Mirage_workloads.Tpch.make ~small:300);
        ] );
      ( "solves",
        [ Alcotest.test_case "CP solve count parity" `Slow test_solve_parity ] );
      ( "live-export",
        [
          Alcotest.test_case "kill+resume through the live export" `Slow
            test_live_export_crash_resume;
          Alcotest.test_case "live export across a quarantine retry" `Slow
            test_live_export_quarantine;
        ] );
      ( "dag",
        [ QCheck_alcotest.to_alcotest qcheck_dag_ordering ] );
    ]
