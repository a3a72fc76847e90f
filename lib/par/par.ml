(* Fixed-size domain pool.  Workers block on a mutex/condition-protected
   task queue; a parallel region pushes up to [size - 1] "runner" closures
   that drain a shared atomic index counter, and the caller runs the same
   runner inline, so a region always makes progress even when every worker
   is busy with an enclosing region (nested regions degrade gracefully).

   Pools are designed to be long-lived: a region that raises drains fully
   before re-raising in the caller, so the workers are back on the queue and
   the pool is immediately reusable — the process-global pools handed out by
   [get] survive failed runs. *)

type task = unit -> unit

type pool = {
  domains : int;  (* total width including the caller *)
  q : task Queue.t;
  m : Mutex.t;
  work : Condition.t;
  mutable stop : bool;
  mutable handles : unit Domain.t array;
}

let default_domains () = max 1 (min 8 (Domain.recommended_domain_count ()))

let rec worker pool =
  Mutex.lock pool.m;
  while Queue.is_empty pool.q && not pool.stop do
    Condition.wait pool.work pool.m
  done;
  if Queue.is_empty pool.q then Mutex.unlock pool.m (* stop *)
  else begin
    let t = Queue.pop pool.q in
    Mutex.unlock pool.m;
    t ();
    worker pool
  end

let create ?domains () =
  let domains =
    match domains with
    | Some d -> max 1 (min 64 d)
    | None -> default_domains ()
  in
  let pool =
    {
      domains;
      q = Queue.create ();
      m = Mutex.create ();
      work = Condition.create ();
      stop = false;
      handles = [||];
    }
  in
  if domains > 1 then
    pool.handles <-
      Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let sequential = create ~domains:1 ()

let size pool = pool.domains

let shutdown pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.m;
  Array.iter Domain.join pool.handles;
  pool.handles <- [||]

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* --- process-global persistent pools ----------------------------------------

   Spawning a domain costs hundreds of microseconds plus a minor-heap
   allocation per domain; paying it per generation run made every region
   shorter than ~10 ms a net loss.  [get] hands out one resident pool per
   width for the whole process — driver runs, CLI exports and repeated
   benchmark runs all share it, and a run that fails leaves it usable
   (regions drain before re-raising).  The pools are joined via [at_exit]. *)

let registry : (int, pool) Hashtbl.t = Hashtbl.create 4
let registry_m = Mutex.create ()
let registry_at_exit = ref false

let get ?domains () =
  let domains =
    match domains with
    | Some d -> max 1 (min 64 d)
    | None -> default_domains ()
  in
  if domains = 1 then sequential
  else begin
    Mutex.lock registry_m;
    let pool =
      match Hashtbl.find_opt registry domains with
      | Some p -> p
      | None ->
          let p = create ~domains () in
          Hashtbl.replace registry domains p;
          if not !registry_at_exit then begin
            registry_at_exit := true;
            at_exit (fun () ->
                Mutex.lock registry_m;
                let ps = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
                Hashtbl.reset registry;
                Mutex.unlock registry_m;
                List.iter shutdown ps)
          end;
          p
    in
    Mutex.unlock registry_m;
    pool
  end

let run pool n f =
  if n <= 0 then ()
  else if pool.domains = 1 || n = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let next = Atomic.make 0 in
    let left = Atomic.make n in
    let err = Atomic.make None in
    let fin_m = Mutex.create () and fin_c = Condition.create () in
    (* each runner drains the shared counter; task index, not arrival order,
       decides what work a call does, so scheduling cannot leak into results *)
    let rec runner () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (try f i
         with e -> ignore (Atomic.compare_and_set err None (Some e)));
        if Atomic.fetch_and_add left (-1) = 1 then begin
          Mutex.lock fin_m;
          Condition.signal fin_c;
          Mutex.unlock fin_m
        end;
        runner ()
      end
    in
    let helpers = min (pool.domains - 1) (n - 1) in
    Mutex.lock pool.m;
    for _ = 1 to helpers do
      Queue.push runner pool.q
    done;
    Condition.broadcast pool.work;
    Mutex.unlock pool.m;
    runner ();
    Mutex.lock fin_m;
    while Atomic.get left > 0 do
      Condition.wait fin_c fin_m
    done;
    Mutex.unlock fin_m;
    match Atomic.get err with Some e -> raise e | None -> ()
  end

let iter_chunks pool ?chunks ?(grain = 1) n f =
  if n > 0 then begin
    let chunks =
      match chunks with Some c -> max 1 c | None -> 4 * pool.domains
    in
    (* adaptive grain: never split finer than [grain] items per chunk, so a
       tiny region collapses to one (inline) chunk instead of paying queue
       wakeups that dwarf its work.  Chunk boundaries still depend only on
       [n], [chunks] and [grain] — never on the domain count. *)
    let nchunks = min (min n chunks) (max 1 (n / max 1 grain)) in
    let per = n / nchunks and rem = n mod nchunks in
    run pool nchunks (fun c ->
        let lo = (c * per) + min c rem in
        let hi = lo + per + (if c < rem then 1 else 0) - 1 in
        f lo hi)
  end

let init pool ?chunks ?grain n f =
  if n <= 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    iter_chunks pool ?chunks ?grain (n - 1) (fun lo hi ->
        for i = lo to hi do
          a.(i + 1) <- f (i + 1)
        done);
    a
  end

let map_chunks pool ?chunks ?grain f a =
  init pool ?chunks ?grain (Array.length a) (fun i -> f a.(i))

let map_list pool f l =
  let a = Array.of_list l in
  (* one task per element: list fan-out is used for coarse jobs *)
  let n = Array.length a in
  if n = 0 then []
  else begin
    let out = Array.make n (f a.(0)) in
    run pool (n - 1) (fun i -> out.(i + 1) <- f a.(i + 1));
    Array.to_list out
  end

(* --- futures ----------------------------------------------------------------

   A future is a single task submitted to the pool's queue whose completion
   is published under the pool mutex.  [await] never parks while the queue
   holds runnable work: a blocked caller pops and runs queued tasks itself
   ("helping"), so a DAG whose edges are awaits cannot deadlock the pool —
   in the worst case the caller executes the whole graph inline, exactly the
   sequential schedule.  On a width-1 pool [submit] runs the closure
   immediately, so futures degrade to direct calls in submission order.

   Determinism contract: the pool decides only *when* a task runs, never
   what it computes — every submitted closure must already own its inputs
   (its RNG stream, its row window), pre-sequenced by the submitter. *)

module Future = struct
  type 'a state = Pending | Done of 'a | Raised of exn

  type 'a t = { mutable st : 'a state; fpool : pool }

  let submit pool f =
    let fut = { st = Pending; fpool = pool } in
    let runner () =
      let r = try Done (f ()) with e -> Raised e in
      Mutex.lock pool.m;
      fut.st <- r;
      (* completion must wake awaiting callers, who share the workers'
         condition; workers woken spuriously re-check the queue and park *)
      Condition.broadcast pool.work;
      Mutex.unlock pool.m
    in
    if pool.domains = 1 then runner ()
    else begin
      Mutex.lock pool.m;
      Queue.push runner pool.q;
      Condition.signal pool.work;
      Mutex.unlock pool.m
    end;
    fut

  let await fut =
    (* always synchronise through the pool mutex, even when the state is
       already published: awaiting a dependency must also make the dep
       task's side effects (committed columns, cache entries) visible to
       this domain, which a racy read of [st] alone would not *)
    let pool = fut.fpool in
    let rec loop () =
      match fut.st with
      | Done v ->
          Mutex.unlock pool.m;
          v
      | Raised e ->
          Mutex.unlock pool.m;
          raise e
      | Pending ->
          if not (Queue.is_empty pool.q) then begin
            let t = Queue.pop pool.q in
            Mutex.unlock pool.m;
            t ();
            Mutex.lock pool.m
          end
          else Condition.wait pool.work pool.m;
          loop ()
    in
    Mutex.lock pool.m;
    loop ()
end
