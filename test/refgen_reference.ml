(* [Refgen.build] as it was before it built typed columns, kept as a test
   oracle: every cell is a boxed [Value.t] (one [sprintf] per categorical
   string cell), and [Db.put] infers each column's representation with
   [Col.of_values].  [test_workloads] checks that the typed builder installs
   the same columns: constructor, dictionary pool order, codes, data and
   nulls. *)

module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Db = Mirage_engine.Db
module Rng = Mirage_util.Rng
module Refgen = Mirage_workloads.Refgen

type col_spec = Refgen.col_spec =
  | Uniform_int of int
  | Skewed_int of int * float
  | Date_int of int
  | Cat_string of string * int
  | Perm_string of string
  | Words_string of string array * int

let gen_value rng spec =
  match spec with
  | Uniform_int dom -> Value.Int (Rng.int_in rng 1 dom)
  | Skewed_int (dom, k) ->
      let u = Rng.float rng 1.0 in
      let v = 1 + int_of_float (float_of_int (dom - 1) *. (u ** k)) in
      Value.Int (min dom v)
  | Date_int days -> Value.Int (Rng.int_in rng 1 days)
  | Cat_string (prefix, dom) ->
      Value.Str (Printf.sprintf "%s#%05d" prefix (Rng.int_in rng 1 dom))
  | Perm_string prefix ->
      (* placeholder; handled positionally in [build] *)
      Value.Str (Printf.sprintf "%s#%05d" prefix 0)
  | Words_string (lexicon, n) ->
      let words = List.init n (fun _ -> Rng.pick rng lexicon) in
      Value.Str (String.concat " " words)

let build ~seed schema ~specs =
  let db = Db.create schema in
  let rng = Rng.create seed in
  (* populate in dependency order so FK pools exist *)
  let order =
    Mirage_util.Toposort.sort
      ~vertices:(List.map (fun (t : Schema.table) -> t.Schema.tname) (Schema.tables schema))
      ~edges:(Schema.referencing_edges schema)
  in
  List.iter
    (fun tname ->
      let tbl = Schema.table schema tname in
      let n = tbl.Schema.row_count in
      let trng = Rng.split rng in
      let table_specs = try List.assoc tname specs with Not_found -> [] in
      let pk = Array.init n (fun i -> Value.Int (i + 1)) in
      let nonkeys =
        List.map
          (fun (c : Schema.column) ->
            let spec =
              match List.assoc_opt c.Schema.cname table_specs with
              | Some s -> s
              | None -> Uniform_int c.Schema.domain_size
            in
            match spec with
            | Perm_string prefix ->
                (* one distinct value per row, e.g. nation/region names *)
                ( c.Schema.cname,
                  Array.init n (fun i ->
                      Value.Str (Printf.sprintf "%s#%05d" prefix (i + 1))) )
            | Uniform_int _ | Skewed_int _ | Date_int _ | Cat_string _
            | Words_string _ ->
                (c.Schema.cname, Array.init n (fun _ -> gen_value trng spec)))
          tbl.Schema.nonkeys
      in
      let fks =
        List.map
          (fun (f : Schema.fk) ->
            let target_rows = Db.row_count db f.Schema.references in
            ( f.Schema.fk_col,
              Array.init n (fun _ -> Value.Int (Rng.int_in trng 1 target_rows)) ))
          tbl.Schema.fks
      in
      Db.put db tname (((tbl.Schema.pk, pk) :: nonkeys) @ fks))
    order;
  db
