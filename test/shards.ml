(* Shared test plumbing for the shard export: exporting a finished database
   (open + finish of the live export) and reading a table's shards back. *)

module Scale_out = Mirage_core.Scale_out

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
