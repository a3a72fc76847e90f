(* Shared test plumbing for the shard export: scratch directories, a
   database's table names, exporting a finished database (open + finish of
   the live export) and reading a table's shards back. *)

module Scale_out = Mirage_core.Scale_out
module Schema = Mirage_sql.Schema
module Db = Mirage_engine.Db

(* a new empty directory under the system temp directory *)
let fresh_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Mirage_engine.Sink.mkdir_p base;
  base

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let table_names db =
  List.map (fun (t : Schema.table) -> t.Schema.tname) (Schema.tables (Db.schema db))

(* the whole export of a finished database; [chunk_rows] defaults to
   unbounded, one shard per table *)
let export ?pool ?backend ?resume ?compress ?interrupt ?(chunk_rows = max_int)
    ~db ~copies ~dir ~run_id () =
  Scale_out.finish_csv_export ~db
    (Scale_out.open_csv_export ?pool ?backend ?resume ?compress ?interrupt
       ~copies ~chunk_rows ~dir ~run_id ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* <t>.csv.0, <t>.csv.1, ... (or their .gz members) concatenated in index
   order, up to the first missing index *)
let concat ?(compress = false) dir tname =
  let path k =
    Filename.concat dir
      (Printf.sprintf "%s.csv.%d%s" tname k (if compress then ".gz" else ""))
  in
  let rec go k acc =
    if Sys.file_exists (path k) then go (k + 1) (read_file (path k) :: acc)
    else String.concat "" (List.rev acc)
  in
  go 0 []
