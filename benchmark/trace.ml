(* Benchmark-side tracing: spans recorded around the calls the benchmark makes
   into each layer, and a timing wrapper around the sink's file backend.
   Nothing here reaches inside the library; spans are kept in memory and
   written once, as Chrome trace-event JSON, when the benchmark ends. *)

module Sink = Mirage_engine.Sink

let now = Unix.gettimeofday

type span = {
  name : string;
  cat : string;
  tid : int;
  ts : float;
  dur : float;
  args : (string * Json.t) list;
}

let enabled = Atomic.make false
let lock = Mutex.create ()
let spans : span list ref = ref []

let record ?(args = []) ?tid ~cat name ~ts ~dur =
  if Atomic.get enabled then begin
    let tid = match tid with Some t -> t | None -> (Domain.self () :> int) in
    let s = { name; cat; tid; ts; dur; args } in
    Mutex.protect lock (fun () -> spans := s :: !spans)
  end

let span ?args ~cat name f =
  if not (Atomic.get enabled) then f ()
  else
    let ts = now () in
    Fun.protect ~finally:(fun () -> record ?args ~cat name ~ts ~dur:(now () -. ts)) f

(* --- sink backend timing ------------------------------------------------- *)

(* cumulative nanoseconds and call counts per file operation; atomics because
   shards commit from every pool domain *)
type sink_stats = {
  ns : int Atomic.t array;
  calls : int Atomic.t array;
  write_bytes : int Atomic.t;
}

let sink_ops = [| "open"; "write"; "close"; "rename" |]

let sink_stats () =
  {
    ns = Array.init 4 (fun _ -> Atomic.make 0);
    calls = Array.init 4 (fun _ -> Atomic.make 0);
    write_bytes = Atomic.make 0;
  }

let timed_backend st (b : Sink.backend) : Sink.backend =
  let timed i f =
    let t0 = now () in
    let r = f () in
    ignore (Atomic.fetch_and_add st.ns.(i) (int_of_float ((now () -. t0) *. 1e9)));
    Atomic.incr st.calls.(i);
    r
  in
  {
    b with
    Sink.bk_open = (fun p -> timed 0 (fun () -> b.Sink.bk_open p));
    bk_write =
      (fun f buf ~pos ~len ->
        let n = timed 1 (fun () -> b.Sink.bk_write f buf ~pos ~len) in
        ignore (Atomic.fetch_and_add st.write_bytes n);
        n);
    bk_close = (fun f -> timed 2 (fun () -> b.Sink.bk_close f));
    bk_rename = (fun ~src ~dst -> timed 3 (fun () -> b.Sink.bk_rename ~src ~dst));
  }

let op_seconds st i = float_of_int (Atomic.get st.ns.(i)) /. 1e9
let op_calls st i = float_of_int (Atomic.get st.calls.(i))

(* one summary span per sink operation type, each on its own lane, starting
   at the run's start and as long as that operation's total time *)
let record_sink_summary st ~ts =
  Array.iteri
    (fun i op ->
      record ~tid:(1000 + i) ~cat:"sink" ("sink " ^ op) ~ts ~dur:(op_seconds st i)
        ~args:[ ("calls", Json.Num (op_calls st i)) ])
    sink_ops

(* --- Chrome trace-event output ------------------------------------------- *)

let write_events path events =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc
        (Json.to_string ~indent:1
           (Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ])))

(* every span of this process, as process 1 named after the workload *)
let write_chrome path ~process =
  let all = List.rev !spans in
  let t0 = List.fold_left (fun m s -> Float.min m s.ts) infinity all in
  let us x = Json.Num (Float.round (x *. 1e6)) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.cat);
        ("ph", Json.Str "X");
        ("ts", us (s.ts -. t0));
        ("dur", us s.dur);
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int s.tid));
        ("args", Json.Obj s.args);
      ]
  in
  let name =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.0);
        ("args", Json.Obj [ ("name", Json.Str process) ]);
      ]
  in
  write_events path (name :: List.map event all)

(* one trace from several workloads' files: workload [i] becomes process
   [i + 1]; a file that is missing contributes nothing *)
let merge path files =
  let renumber p = function
    | Json.Obj kvs ->
        Json.Obj (List.map (fun (k, v) -> if k = "pid" then (k, Json.Num (float_of_int p)) else (k, v)) kvs)
    | j -> j
  in
  write_events path
    (List.concat
       (List.mapi
          (fun i f ->
            if Sys.file_exists f then
              List.map (renumber (i + 1)) (Json.to_list (Json.member "traceEvents" (Json.read_file f)))
            else [])
          files))
