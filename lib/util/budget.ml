type limits = { max_heap_mb : int option; deadline_s : float option }

let no_limits = { max_heap_mb = None; deadline_s = None }

type reason = Deadline of float | Heap of int

exception Exceeded of reason

type t = {
  lim : limits;
  t0 : float;
  (* first breach wins and is sticky: checks from other domains keep
     re-raising the same reason, so one trip cancels the whole region *)
  tripped : reason option Atomic.t;
}

let start lim = { lim; t0 = Unix.gettimeofday (); tripped = Atomic.make None }

let heap_mb () =
  (* quick_stat reads cached counters — cheap enough for per-node checks *)
  (Gc.quick_stat ()).Gc.heap_words / (1024 * 1024 / (Sys.word_size / 8))

let trip t reason =
  ignore (Atomic.compare_and_set t.tripped None (Some reason));
  (* re-read: a concurrent trip may have won the race *)
  match Atomic.get t.tripped with Some r -> raise (Exceeded r) | None -> ()

let check t =
  match Atomic.get t.tripped with
  | Some r -> raise (Exceeded r)
  | None ->
      (match t.lim.deadline_s with
      | Some d when Unix.gettimeofday () -. t.t0 > d -> trip t (Deadline d)
      | _ -> ());
      (match t.lim.max_heap_mb with
      | Some mb when heap_mb () > mb -> trip t (Heap mb)
      | _ -> ())

let describe = function
  | Deadline d -> Printf.sprintf "wall-clock deadline of %.1fs expired" d
  | Heap mb -> Printf.sprintf "heap watermark of %d MiB crossed" mb
