exception Io_failure of string
exception Injected_crash of string

type file = Unix.file_descr

type backend = {
  bk_open : string -> file;
  bk_write : file -> Bytes.t -> pos:int -> len:int -> int;
  bk_close : file -> unit;
  bk_rename : src:string -> dst:string -> unit;
  bk_remove : string -> unit;
}

let io_msg op path e =
  Printf.sprintf "%s %s: %s" op path (Unix.error_message e)

let os_backend =
  {
    bk_open =
      (fun path ->
        try Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
        with Unix.Unix_error (e, _, _) -> raise (Io_failure (io_msg "open" path e)));
    bk_write =
      (fun fd b ~pos ~len ->
        try Unix.write fd b pos len
        with Unix.Unix_error (e, _, _) ->
          raise (Io_failure ("write: " ^ Unix.error_message e)));
    bk_close =
      (fun fd ->
        try Unix.close fd
        with Unix.Unix_error (e, _, _) ->
          raise (Io_failure ("close: " ^ Unix.error_message e)));
    bk_rename =
      (fun ~src ~dst ->
        try Unix.rename src dst
        with Unix.Unix_error (e, _, _) -> raise (Io_failure (io_msg "rename" src e)));
    bk_remove =
      (fun path ->
        try Unix.unlink path
        with Unix.Unix_error (e, _, _) -> raise (Io_failure (io_msg "remove" path e)));
  }

type fault = {
  enospc_after_bytes : int option;
  crash_after_shards : int option;
  short_writes : bool;
}

let no_faults =
  { enospc_after_bytes = None; crash_after_shards = None; short_writes = false }

let faulty f inner =
  (* counters are atomic so a fault wrapper threaded through domain-owned
     shard writers still trips once, at a well-defined global threshold *)
  let bytes = Atomic.make 0 and renames = Atomic.make 0 in
  {
    bk_open = inner.bk_open;
    bk_write =
      (fun fd b ~pos ~len ->
        (match f.enospc_after_bytes with
        | Some cap when Atomic.get bytes >= cap ->
            raise (Io_failure "write: no space left on device (injected)")
        | _ -> ());
        let len = if f.short_writes then max 1 (len / 2) else len in
        let n = inner.bk_write fd b ~pos ~len in
        ignore (Atomic.fetch_and_add bytes n);
        n);
    bk_close = inner.bk_close;
    bk_rename =
      (fun ~src ~dst ->
        (* claim the rename's ticket before renaming, so concurrent shard
           writers cannot both slip under the threshold: exactly [n] renames
           succeed *)
        (match f.crash_after_shards with
        | Some n ->
            let k = Atomic.fetch_and_add renames 1 in
            if k >= n then
              raise
                (Injected_crash
                   (Printf.sprintf "simulated kill before committing shard %d" k))
        | None -> ());
        inner.bk_rename ~src ~dst);
    bk_remove = inner.bk_remove;
  }

(* --- CRC-32 (IEEE 802.3) ---------------------------------------------------- *)

(* Slicing-by-8: [crc_tables.(k * 256 + b)] is the CRC of byte [b]
   followed by [k] zero bytes, so eight table reads, independent of each
   other, advance the CRC over eight input bytes. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let c = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- t.(c land 0xFF) lxor (c lsr 8)
       done
     done;
     t)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* the little-endian 32-bit word at [j], sign-extended: [tab] reads only
   its low byte of each shift *)
let[@inline] word b j =
  let w = get32u b j in
  Int32.to_int (if Sys.big_endian then swap32 w else w)

let crc32 ?(crc = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Sink.crc32";
  let t = Lazy.force crc_tables in
  let tab k x = Array.unsafe_get t ((k lsl 8) lor (x land 0xFF)) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let lo = !c lxor word b j and hi = word b (j + 4) in
    c :=
      tab 7 lo lxor tab 6 (lo lsr 8) lxor tab 5 (lo lsr 16) lxor tab 4 (lo lsr 24)
      lxor tab 3 hi lxor tab 2 (hi lsr 8) lxor tab 1 (hi lsr 16) lxor tab 0 (hi lsr 24);
    i := j + 8
  done;
  for j = !i to pos + len - 1 do
    c := tab 0 (!c lxor Char.code (Bytes.unsafe_get b j)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* --- directories ------------------------------------------------------------ *)

let mkdir_p dir =
  Mirage_util.Fsutil.mkdir_p ~fail:(fun m -> Io_failure m) dir

let remove_surplus ~dir name k =
  let rec go k =
    let path = Filename.concat dir (name k) in
    if Sys.file_exists path then begin
      (try Sys.remove path
       with Sys_error m ->
         raise (Io_failure ("cannot remove surplus shard: " ^ m)));
      go (k + 1)
    end
  in
  go k

(* --- manifest --------------------------------------------------------------- *)

type shard = {
  sh_name : string;
  sh_seq : int;
  sh_bytes : int;
  sh_raw : int;
  sh_crc : int;
}

type t = {
  dir : string;
  mpath : string;
  run_id : string;
  backend : backend;
  lock : Mutex.t;
      (* guards [committed], [order], [fresh_bytes], [next_seq] and manifest
         saves; domain-owned shard writers commit concurrently *)
  committed : (string, shard) Hashtbl.t;
  mutable order : shard list;  (* reverse commit order *)
  mutable complete : bool;
  resumed : int;
  mutable fresh_bytes : int;
  mutable next_seq : int;
}

let manifest_path ~dir = Filename.concat dir "MANIFEST.json"

(* manifest order IS concatenation order: shards sorted by [seq], the
   caller-assigned global position (table order, then shard index), so a
   multi-writer run records the same manifest as a serial one *)
let sorted_shards t =
  List.sort (fun a b -> compare a.sh_seq b.sh_seq) t.order

(* one shard per line so loading is simple field extraction.  Caller holds
   [t.lock]. *)
let save_manifest t =
  let path = t.mpath in
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out tmp in
     Printf.fprintf oc "{\"run_id\": \"%s\", \"complete\": %b, \"shards\": [\n"
       t.run_id t.complete;
     let shards = sorted_shards t in
     let last = List.length shards - 1 in
     List.iteri
       (fun i s ->
         Printf.fprintf oc
           "  {\"name\": \"%s\", \"seq\": %d, \"bytes\": %d, \"raw\": %d, \
            \"crc32\": \"%08x\"}%s\n"
           s.sh_name s.sh_seq s.sh_bytes s.sh_raw s.sh_crc
           (if i = last then "" else ","))
       shards;
     output_string oc "]}\n";
     close_out oc
   with Sys_error m -> raise (Io_failure ("manifest: " ^ m)));
  (* deliberately not routed through the backend: fault injection counts
     shard commits, and the manifest rename is not one *)
  try Sys.rename tmp path
  with Sys_error m -> raise (Io_failure ("manifest: " ^ m))

let string_field line key =
  let pat = "\"" ^ key ^ "\": \"" in
  match
    let plen = String.length pat in
    let rec find i =
      if i + plen > String.length line then None
      else if String.sub line i plen = pat then Some (i + plen)
      else find (i + 1)
    in
    find 0
  with
  | None -> None
  | Some start -> (
      match String.index_from_opt line start '"' with
      | Some stop -> Some (String.sub line start (stop - start))
      | None -> None)

let int_field line key =
  let pat = "\"" ^ key ^ "\": " in
  let plen = String.length pat in
  let rec find i =
    if i + plen > String.length line then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while
        !stop < String.length line
        && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr stop
      done;
      int_of_string_opt (String.sub line start (!stop - start))

(* the manifest's "%08x" CRC; anything else leaves the entry unparsed, so
   its shard counts as not completed and is rendered again *)
let hex32 h =
  if
    String.length h = 8
    && String.for_all
         (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
         h
  then int_of_string_opt ("0x" ^ h)
  else None

let load_manifest path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    let lines = List.rev !lines in
    match lines with
    | [] -> None
    | head :: _ ->
        Option.map
          (fun run_id ->
            let complete =
              let pat = "\"complete\": true" in
              let plen = String.length pat in
              let rec find i =
                i + plen <= String.length head
                && (String.sub head i plen = pat || find (i + 1))
              in
              find 0
            in
            (* an entry missing a field, or with one that does not parse,
               is not resumed: its shard is rendered again *)
            let shards =
              List.filter_map
                (fun line ->
                  match
                    ( string_field line "name",
                      int_field line "seq",
                      int_field line "bytes",
                      int_field line "raw",
                      Option.bind (string_field line "crc32") hex32 )
                  with
                  | Some sh_name, Some sh_seq, Some sh_bytes, Some sh_raw, Some sh_crc
                    ->
                      Some { sh_name; sh_seq; sh_bytes; sh_raw; sh_crc }
                  | _ -> None)
                lines
            in
            (run_id, complete, shards))
          (string_field head "run_id")
  end

let remove_stale_tmp dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let create ?(backend = os_backend) ?(resume = false) ?(manifest = "MANIFEST.json")
    ~dir ~run_id () =
  if String.exists (fun c -> c = '"' || c = '\n') run_id then
    invalid_arg "Sink.create: run_id must not contain quotes or newlines";
  mkdir_p dir;
  (* a temp file is by definition uncommitted work from a killed run *)
  remove_stale_tmp dir;
  let mpath = Filename.concat dir manifest in
  let loaded =
    if resume then
      match load_manifest mpath with
      | Some (id, complete, shards) when id = run_id ->
          (* trust only shards whose files survived with the recorded size;
             anything else is re-rendered (deterministically) *)
          Some
            ( complete,
              List.filter
                (fun s ->
                  let p = Filename.concat dir s.sh_name in
                  match Unix.stat p with
                  | { Unix.st_size; _ } -> st_size = s.sh_bytes
                  | exception Unix.Unix_error _ -> false)
                shards )
      | _ -> None
    else None
  in
  (if loaded = None && Sys.file_exists mpath then
     try Sys.remove mpath with Sys_error _ -> ());
  let complete, shards = Option.value ~default:(false, []) loaded in
  let committed = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace committed s.sh_name s) shards;
  {
    dir;
    mpath;
    run_id;
    backend;
    lock = Mutex.create ();
    committed;
    order = List.rev shards;
    complete;
    resumed = List.length shards;
    fresh_bytes = 0;
    next_seq =
      List.fold_left (fun acc s -> max acc (s.sh_seq + 1)) 0 shards;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let is_done t name = locked t (fun () -> Hashtbl.mem t.committed name)
let completed t = locked t (fun () -> sorted_shards t)
let resumed_shards t = t.resumed
let bytes_written t = locked t (fun () -> t.fresh_bytes)

(* --- shard writing ---------------------------------------------------------- *)

type writer = {
  w_file : file;
  w_backend : backend;
  mutable w_bytes : int;
  mutable w_raw : int;  (* -1: no wrapper reported, raw = bytes *)
  mutable w_crc : int;
}

let put w b ~pos ~len =
  let rec go pos len =
    if len > 0 then begin
      let n = w.w_backend.bk_write w.w_file b ~pos ~len in
      if n <= 0 then raise (Io_failure "write: no progress");
      go (pos + n) (len - n)
    end
  in
  go pos len;
  w.w_crc <- crc32 ~crc:w.w_crc b ~pos ~len;
  w.w_bytes <- w.w_bytes + len

let add_raw w n = w.w_raw <- (if w.w_raw < 0 then n else w.w_raw + n)

let write_shard t ?seq ~name body =
  if not (is_done t name) then begin
    let final = Filename.concat t.dir name in
    let tmp = final ^ ".tmp" in
    let file = t.backend.bk_open tmp in
    let w =
      { w_file = file; w_backend = t.backend; w_bytes = 0; w_raw = -1; w_crc = 0 }
    in
    (try
       body w;
       t.backend.bk_close file;
       t.backend.bk_rename ~src:tmp ~dst:final
     with
    | Injected_crash _ as e ->
        (* a real kill closes fds and leaves the temp file; do the same,
           and let the crash, not a close error, reach the caller *)
        (try t.backend.bk_close file with _ -> ());
        raise e
    | e ->
        (* best-effort cleanup: the original exception wins over a failing
           close, and a temp file that is already gone is the goal *)
        (try t.backend.bk_close file with _ -> ());
        (try t.backend.bk_remove tmp with _ -> ());
        raise e);
    locked t (fun () ->
        let sh_seq =
          match seq with
          | Some s -> s
          | None ->
              let s = t.next_seq in
              t.next_seq <- s + 1;
              s
        in
        t.next_seq <- max t.next_seq (sh_seq + 1);
        let s =
          {
            sh_name = name;
            sh_seq;
            sh_bytes = w.w_bytes;
            sh_raw = (if w.w_raw < 0 then w.w_bytes else w.w_raw);
            sh_crc = w.w_crc;
          }
        in
        Hashtbl.replace t.committed name s;
        t.order <- s :: t.order;
        t.fresh_bytes <- t.fresh_bytes + w.w_bytes;
        (* checkpoint after every commit: a crash between the shard rename and
           this save only costs re-rendering that one shard, which the atomic
           rename then replaces with identical bytes *)
        save_manifest t)
  end

let forget t names =
  locked t (fun () ->
      let dead = List.filter (fun n -> Hashtbl.mem t.committed n) names in
      if dead <> [] then begin
        List.iter
          (fun n ->
            Hashtbl.remove t.committed n;
            (* best effort: the shard leaves the manifest either way, and a
               file that is already gone is the goal *)
            try t.backend.bk_remove (Filename.concat t.dir n) with _ -> ())
          dead;
        t.order <- List.filter (fun s -> not (List.mem s.sh_name dead)) t.order;
        save_manifest t
      end)

let finish t =
  locked t (fun () ->
      t.complete <- true;
      save_manifest t)
