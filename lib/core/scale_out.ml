module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Render = Mirage_engine.Render
module Par = Mirage_par.Par

let cell_null nulls i =
  match nulls with Some b -> Col.Bitset.get b i | None -> false

(* key offset per column of [tbl] for tile [t]: pk shifts by t·|R|, each FK by
   t·|referenced table| *)
let key_offsets db (tbl : Schema.table) t =
  let n = Db.row_count db tbl.Schema.tname in
  (tbl.Schema.pk, t * n)
  :: List.map
       (fun (f : Schema.fk) ->
         (f.Schema.fk_col, t * Db.row_count db f.Schema.references))
       tbl.Schema.fks

(* --- line templates --------------------------------------------------------

   A tile differs from the base tile only at key cells (shifted by an integer
   per tile), so the base rows are rendered ONCE into [fixed] — every
   non-key cell, separator and newline, pre-escaped — leaving a splice point
   per non-null key cell.  Emitting tile [t] is then a strict alternation of
   memcpy (fragment i, ending at [ends.(i)]) and an in-place itoa of
   [base.(i) + t * per_tile.(which.(i))]: per-tile work is
   O(bytes + rows·key_cols) with no per-cell allocation, instead of
   re-rendering all O(rows·cols) cells through [string_of_int].

   Templates are immutable after construction and shared read-only by the
   export's shard workers. *)
type template = {
  fixed : Bytes.t;  (* all fixed fragments, concatenated in emit order *)
  ends : int array;  (* end offset in [fixed] of the fragment before splice i *)
  base : int array;  (* unshifted key value at splice i *)
  which : int array;  (* key slot of splice i, indexes [per_tile] *)
  per_tile : int array;  (* per key slot: key shift per tile *)
}

(* [?lo]/[?rows] restrict the template to a row window — chunked streaming
   builds one template per chunk, and concatenating the windows' emissions
   for a tile reproduces the whole-table template's bytes for that tile
   exactly (the window only bounds which base rows render; key shifts are
   still per whole-table tile) *)
let build_template ?(lo = 0) ?rows db (tbl : Schema.table) =
  let tname = tbl.Schema.tname in
  let n = Db.row_count db tname in
  let nrows = match rows with Some r -> r | None -> n - lo in
  let names = Schema.column_names tbl in
  (* key slots in key_offsets order; duplicate columns (a PK doubling as an
     FK) keep the first entry, matching the per-cell renderer's assoc lookup *)
  let slots = List.mapi (fun j (c, per) -> (c, (j, per))) (key_offsets db tbl 1) in
  let per_tile = Array.of_list (List.map (fun (_, (_, per)) -> per) slots) in
  let buf = Render.Buf.create (1 lsl 16) in
  let max_splices = nrows * Array.length per_tile in
  let s_end = Array.make max_splices 0
  and s_base = Array.make max_splices 0
  and s_which = Array.make max_splices 0 in
  let m = ref 0 in
  let splice which base =
    s_end.(!m) <- Render.Buf.length buf;
    s_base.(!m) <- base;
    s_which.(!m) <- which;
    incr m
  in
  (* one emitter per column, representation and key slot resolved once; key
     cells register a splice, everything else renders into the template *)
  let emitters =
    Array.of_list
      (List.map
         (fun c ->
           let col = Db.col db tname c in
           match (List.assoc_opt c slots, col) with
           | Some (j, _), Col.Ints { data; nulls } ->
               fun i -> if not (cell_null nulls i) then splice j data.{i}
           | _, Col.Ints { data; nulls } ->
               fun i -> if not (cell_null nulls i) then Render.Buf.itoa buf data.{i}
           | _, Col.Floats { data; nulls } ->
               fun i -> if not (cell_null nulls i) then Render.Buf.ftoa buf data.{i}
           | _, Col.Dict { codes; pool; nulls } ->
               let epool = Render.csv_pool pool in
               fun i ->
                 if not (cell_null nulls i) then
                   Render.Buf.add_string buf epool.(codes.{i}))
         names)
  in
  let ncols = Array.length emitters in
  for i = lo to lo + nrows - 1 do
    for c = 0 to ncols - 1 do
      if c > 0 then Render.Buf.add_char buf ',';
      emitters.(c) i
    done;
    Render.Buf.add_char buf '\n'
  done;
  {
    fixed = Render.Buf.to_bytes buf;
    ends = Array.sub s_end 0 !m;
    base = Array.sub s_base 0 !m;
    which = Array.sub s_which 0 !m;
    per_tile;
  }

(* splice one tile into [buf] (cleared first): memcpy fragments verbatim,
   re-render only the shifted keys *)
let emit_tile buf tpl ~tile =
  Render.Buf.clear buf;
  let m = Array.length tpl.base in
  let offs = Array.map (fun per -> tile * per) tpl.per_tile in
  let pos = ref 0 in
  for i = 0 to m - 1 do
    let e = Array.unsafe_get tpl.ends i in
    Render.Buf.add_subbytes buf tpl.fixed ~pos:!pos ~len:(e - !pos);
    pos := e;
    Render.Buf.itoa buf
      (Array.unsafe_get tpl.base i
      + Array.unsafe_get offs (Array.unsafe_get tpl.which i))
  done;
  Render.Buf.add_subbytes buf tpl.fixed ~pos:!pos
    ~len:(Bytes.length tpl.fixed - !pos)

let csv_header names = String.concat "," (List.map Render.csv_escape names)

(* --- crash-safe shard export --------------------------------------------------

   The templates' bytes go through the Sink layer shard-at-a-time: shard [k]
   of a table holds a contiguous run of tiles sized to [chunk_rows], shard 0
   additionally carries the header, so [cat table.csv.0 table.csv.1 ...] is
   the whole table's CSV.  An unbounded [chunk_rows] gives one shard per
   table.  Shards committed in the manifest are skipped without rendering —
   that, plus per-shard determinism, is what makes a resumed run
   byte-identical to an uninterrupted one. *)

module Sink = Mirage_engine.Sink
module Gz = Mirage_engine.Gz

type chunk_report = {
  cr_shards : int;
  cr_resumed : int;
  cr_bytes : int;
  cr_tables : (string * (int * int)) list;
}

let shard_name ?(compress = false) tname k =
  Printf.sprintf "%s.csv.%d%s" tname k (if compress then ".gz" else "")

(* table name of a committed shard: the prefix before ".csv." *)
let shard_table name =
  let n = String.length name in
  let rec find i =
    if i + 5 > n then n
    else if String.sub name i 5 = ".csv." then i
    else find (i + 1)
  in
  String.sub name 0 (find 0)

(* per-table (raw, on-disk) byte totals straight from the manifest — the CLI
   summary reads these instead of a second stat pass *)
let table_totals sink schema =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Sink.shard) ->
      let t = shard_table s.Sink.sh_name in
      let raw, disk =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl t)
      in
      Hashtbl.replace tbl t (raw + s.Sink.sh_raw, disk + s.Sink.sh_bytes))
    (Sink.completed sink);
  List.filter_map
    (fun (t : Schema.table) ->
      Option.map
        (fun b -> (t.Schema.tname, b))
        (Hashtbl.find_opt tbl t.Schema.tname))
    (Schema.tables schema)

(* run [body] with a payload writer: plain [Sink.put], or gzip-compressed
   with the raw byte count reported to the manifest *)
let with_payload ~compress w body =
  if not compress then
    body (fun b ~pos ~len -> Sink.put w b ~pos ~len)
  else begin
    let gz = Gz.create (fun b ~pos ~len -> Sink.put w b ~pos ~len) in
    body (fun b ~pos ~len ->
        Sink.add_raw w len;
        Gz.write gz b ~pos ~len);
    Gz.finish gz
  end

(* delete shards beyond [nshards] left by a previous run with a different
   chunk count (either compression form) — they would corrupt concatenation *)
let remove_surplus_shards ~dir tname nshards =
  List.iter
    (fun compress ->
      let j = ref nshards in
      while
        Sys.file_exists (Filename.concat dir (shard_name ~compress tname !j))
      do
        (try Sys.remove (Filename.concat dir (shard_name ~compress tname !j))
         with Sys_error _ -> ());
        incr j
      done)
    [ false; true ]

(* shard layout: tables in schema order, [tiles_per_shard] tiles per shard,
   global [seq] in concatenation order *)
type shard_unit = {
  u_table : Schema.table;
  u_name : string;
  u_seq : int;
  u_lo : int;  (* first tile *)
  u_tiles : int;
  u_header : bool;
}

let shard_units ~db ~copies ~chunk_rows ~compress schema =
  let seq = ref 0 in
  List.concat_map
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      let rows = Db.row_count db tname in
      (* [chunk_rows] may be [max_int], so neither ceiling forms a sum *)
      let tiles_per_shard = max 1 (chunk_rows / max 1 rows) in
      let nshards = Chunk_plan.ceil_div copies tiles_per_shard in
      List.init nshards (fun k ->
          let lo = k * tiles_per_shard in
          let s = !seq in
          incr seq;
          {
            u_table = tbl;
            u_name = shard_name ~compress tname k;
            u_seq = s;
            u_lo = lo;
            u_tiles = min copies (lo + tiles_per_shard) - lo;
            u_header = k = 0;
          }))
    (Schema.tables schema)

(* --- live (per-table) export: the one CSV writer -------------------------------

   The overlapped scheduler exports a table the moment its last FK edge
   commits, while other tables still generate.  A [live_export] is the
   shared state of such a run: the sink, the memoized shard layout, which
   tables have been claimed, and which shard names this generation attempt
   wrote (so an aborted attempt can retract exactly those).  [export_table]
   is idempotent and safe to call concurrently from pool tasks; all
   cross-call state is behind one mutex.

   Within one call the shard is the unit of parallelism: every worker slot
   owns a render buffer, claims the table's pending shards from an atomic
   counter, and streams each through its own [Sink.write_shard] (and its own
   gzip encoder), committing with the usual temp-file + rename + CRC
   protocol.  No serial drain sits between render, gzip and disk, so N
   domains compress N shards at once, while [seq] keeps the manifest in
   concatenation order: shard bytes, names and manifest are independent of
   the domain count.  Exporting a finished database is open + finish. *)

type live_export = {
  le_sink : Sink.t;
  le_pool : Par.pool;
  le_compress : bool;
  le_interrupt : unit -> unit;
  le_copies : int;
  le_chunk_rows : int;
  le_dir : string;
  le_m : Mutex.t;  (* guards the three mutable fields below *)
  mutable le_units : shard_unit list option;
      (* full shard layout, memoized at the first export: row counts are
         final once key generation starts, and the global [seq] needs every
         table's count *)
  le_claimed : (string, unit) Hashtbl.t;  (* tables exported (or in flight) *)
  mutable le_written : string list;  (* shards committed by this attempt *)
}

let le_locked h f =
  Mutex.lock h.le_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock h.le_m) f

let open_csv_export ?(pool = Par.sequential) ?backend ?(resume = false)
    ?(compress = false) ?(interrupt = fun () -> ()) ~copies ~chunk_rows ~dir
    ~run_id () =
  if copies < 1 then invalid_arg "Scale_out.open_csv_export: copies must be >= 1";
  if chunk_rows < 1 then
    invalid_arg "Scale_out.open_csv_export: chunk_rows must be >= 1";
  {
    le_sink = Sink.create ?backend ~resume ~dir ~run_id ();
    le_pool = pool;
    le_compress = compress;
    le_interrupt = interrupt;
    le_copies = copies;
    le_chunk_rows = chunk_rows;
    le_dir = dir;
    le_m = Mutex.create ();
    le_units = None;
    le_claimed = Hashtbl.create 8;
    le_written = [];
  }

let le_units h ~db =
  match h.le_units with
  | Some units -> units
  | None ->
      let units =
        shard_units ~db ~copies:h.le_copies ~chunk_rows:h.le_chunk_rows
          ~compress:h.le_compress (Db.schema db)
      in
      h.le_units <- Some units;
      units

(* render one shard into the sink from [buf], the worker's own buffer.
   [tpl] is the whole-table template when the table fits one chunk;
   otherwise [rows > chunk_rows] forces
   tiles_per_shard = 1, so the shard is exactly tile [u.u_lo], streamed
   through per-window templates built here: byte-for-byte what the
   whole-table template would emit, at O(chunk) resident bytes *)
let write_unit h ~db ~buf ~tpl u =
  let chunk_rows = h.le_chunk_rows and interrupt = h.le_interrupt in
  Sink.write_shard h.le_sink ~seq:u.u_seq ~name:u.u_name (fun w ->
      with_payload ~compress:h.le_compress w (fun put ->
          let put_buf () =
            put (Render.Buf.unsafe_bytes buf) ~pos:0 ~len:(Render.Buf.length buf)
          in
          if u.u_header then begin
            let hdr = csv_header (Schema.column_names u.u_table) ^ "\n" in
            put (Bytes.unsafe_of_string hdr) ~pos:0 ~len:(String.length hdr)
          end;
          match tpl with
          | Some tpl ->
              for tile = u.u_lo to u.u_lo + u.u_tiles - 1 do
                interrupt ();
                emit_tile buf tpl ~tile;
                put_buf ()
              done
          | None ->
              let rows = Db.row_count db u.u_table.Schema.tname in
              Array.iter
                (fun (lo, len) ->
                  interrupt ();
                  emit_tile buf (build_template ~lo ~rows:len db u.u_table)
                    ~tile:u.u_lo;
                  put_buf ())
                (Chunk_plan.ranges ~rows ~chunk_rows)))

let export_table h ~db tname =
  let claim =
    le_locked h (fun () ->
        if Hashtbl.mem h.le_claimed tname then None
        else begin
          Hashtbl.replace h.le_claimed tname ();
          Some
            (List.filter
               (fun u -> u.u_table.Schema.tname = tname)
               (le_units h ~db))
        end)
  in
  match claim with
  | None -> ()
  | Some units -> (
      let pending =
        Array.of_list
          (List.filter (fun u -> not (Sink.is_done h.le_sink u.u_name)) units)
      in
      let npending = Array.length pending in
      let rows = Db.row_count db tname in
      (* built once, before the region, and shared read-only by the workers *)
      let tpl =
        if npending > 0 && rows <= h.le_chunk_rows
        then Some (build_template db pending.(0).u_table)
        else None
      in
      let next = Atomic.make 0 and stopped = Atomic.make false in
      let worker _slot =
        let buf = Render.Buf.create (1 lsl 16) in
        try
          let rec claim () =
            let i = Atomic.fetch_and_add next 1 in
            if i < npending && not (Atomic.get stopped) then begin
              let u = pending.(i) in
              h.le_interrupt ();
              write_unit h ~db ~buf ~tpl u;
              le_locked h (fun () -> h.le_written <- u.u_name :: h.le_written);
              claim ()
            end
          in
          claim ()
        with e ->
          (* the first failure stops the other workers from claiming new
             shards; in-flight shards abort at their own interrupt poll or
             I/O error *)
          Atomic.set stopped true;
          raise e
      in
      match
        Par.run h.le_pool (min (Par.size h.le_pool) npending) worker;
        remove_surplus_shards ~dir:h.le_dir tname (List.length units)
      with
      | () -> ()
      | exception e ->
          (* release the claim so the finish pass retries the table; the
             shards already committed stay recorded for a possible abort *)
          le_locked h (fun () -> Hashtbl.remove h.le_claimed tname);
          raise e)

let abort_csv_export h =
  let names =
    le_locked h (fun () ->
        let names = h.le_written in
        h.le_written <- [];
        Hashtbl.reset h.le_claimed;
        names)
  in
  Sink.forget h.le_sink names

let finish_csv_export h ~db =
  let schema = Db.schema db in
  List.iter
    (fun (tbl : Schema.table) -> export_table h ~db tbl.Schema.tname)
    (Schema.tables schema);
  let units = le_locked h (fun () -> le_units h ~db) in
  Sink.finish h.le_sink;
  {
    cr_shards = List.length units;
    cr_resumed = Sink.resumed_shards h.le_sink;
    cr_bytes = Sink.bytes_written h.le_sink;
    cr_tables = table_totals h.le_sink schema;
  }

(* [copies] tiles of one stored column as a single typed column;
   [offset_of t] is the key shift of tile [t] (0 for non-key columns) *)
let tile_col ~copies ~offset_of col =
  let n = Col.length col in
  let total = copies * n in
  let tile_nulls nulls =
    Option.map
      (fun b ->
        let ob = Col.Bitset.create total in
        for t = 0 to copies - 1 do
          let base = t * n in
          for i = 0 to n - 1 do
            if Col.Bitset.get b i then Col.Bitset.set ob (base + i)
          done
        done;
        ob)
      nulls
  in
  (* tile [t] of [out] aliases rows [t*n, t*n + n) *)
  let tile out t = Bigarray.Array1.sub out (t * n) n in
  match col with
  | Col.Ints { data; nulls } ->
      let out = Col.alloc_int_big total in
      for t = 0 to copies - 1 do
        let off = offset_of t in
        if off = 0 then Bigarray.Array1.blit data (tile out t)
        else begin
          let base = t * n in
          for i = 0 to n - 1 do
            Bigarray.Array1.unsafe_set out (base + i)
              (Bigarray.Array1.unsafe_get data i + off)
          done
        end
      done;
      Col.Ints { data = out; nulls = tile_nulls nulls }
  | Col.Floats { data; nulls } ->
      let out = Col.alloc_float_big total in
      for t = 0 to copies - 1 do
        Bigarray.Array1.blit data (tile out t)
      done;
      Col.Floats { data = out; nulls = tile_nulls nulls }
  | Col.Dict { codes; pool; nulls } ->
      let out = Col.alloc_int_big total in
      for t = 0 to copies - 1 do
        Bigarray.Array1.blit codes (tile out t)
      done;
      Col.Dict { codes = out; pool; nulls = tile_nulls nulls }

let tile_db ~db ~copies =
  if copies < 1 then invalid_arg "Scale_out.tile_db: copies must be >= 1";
  let schema = Db.schema db in
  let out = Db.create schema in
  List.iter
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      let cols =
        List.map
          (fun c ->
            let col = Db.col db tname c in
            let offset_of =
              match List.assoc_opt c (key_offsets db tbl 1) with
              | Some per_tile -> fun t -> t * per_tile
              | None -> fun _ -> 0
            in
            (c, tile_col ~copies ~offset_of col))
          (Schema.column_names tbl)
      in
      Db.put_cols out tname cols)
    (Schema.tables schema);
  out

let scaled_rows db ~copies =
  List.map
    (fun (tbl : Schema.table) ->
      (tbl.Schema.tname, copies * Db.row_count db tbl.Schema.tname))
    (Schema.tables (Db.schema db))
