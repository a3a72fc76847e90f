(* The per-cell CSV renderer that the templated shard export replaced, kept
   as a sequential test oracle: every cell of every tile is re-rendered
   through allocating conversions, with each tile's keys shifted as tiling
   prescribes (the PK by t·|R|, each FK by t·|referenced table|).  Only the
   cell formatting policy is shared with the library (Render's float and
   escaping rules); the template, splice and shard logic under test is not.
   A table's output is its header plus [copies] tiles, i.e. what the
   concatenation of its shards must equal. *)

module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Render = Mirage_engine.Render

let cell_null nulls i =
  match nulls with Some b -> Col.Bitset.get b i | None -> false

(* per-column cell writer with the tile's key offset resolved once; key
   columns are integer, so only the [Ints] arm applies it *)
let cell_renderer buf ~offset col =
  match col with
  | Col.Ints { data; nulls } ->
      fun i ->
        if not (cell_null nulls i) then
          Buffer.add_string buf (string_of_int (data.{i} + offset))
  | Col.Floats { data; nulls } ->
      fun i ->
        if not (cell_null nulls i) then
          Buffer.add_string buf (Render.float_repr data.{i})
  | Col.Dict { codes; pool; nulls } ->
      fun i ->
        if not (cell_null nulls i) then
          Buffer.add_string buf (Render.csv_escape pool.(codes.{i}))

(* key shift per tile of each key column; a PK doubling as an FK keeps its
   PK shift (the first entry) *)
let key_shifts db (tbl : Schema.table) =
  (tbl.Schema.pk, Db.row_count db tbl.Schema.tname)
  :: List.map
       (fun (f : Schema.fk) ->
         (f.Schema.fk_col, Db.row_count db f.Schema.references))
       tbl.Schema.fks

(* header plus [copies] tiles of table [tname] *)
let csv ~db ~copies tname =
  if copies < 1 then invalid_arg "Reference.csv: copies must be >= 1";
  let tbl = Schema.table (Db.schema db) tname in
  let names = Schema.column_names tbl in
  let n = Db.row_count db tname in
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf (String.concat "," (List.map Render.csv_escape names));
  Buffer.add_char buf '\n';
  let shifts = key_shifts db tbl in
  for tile = 0 to copies - 1 do
    let renderers =
      Array.of_list
        (List.map
           (fun c ->
             let offset =
               match List.assoc_opt c shifts with
               | Some per -> tile * per
               | None -> 0
             in
             cell_renderer buf ~offset (Db.col db tname c))
           names)
    in
    for i = 0 to n - 1 do
      Array.iteri
        (fun c render ->
          if c > 0 then Buffer.add_char buf ',';
          render i)
        renderers;
      Buffer.add_char buf '\n'
    done
  done;
  Buffer.contents buf
