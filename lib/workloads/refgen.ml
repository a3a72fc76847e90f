module Schema = Mirage_sql.Schema
module Db = Mirage_engine.Db
module Col = Mirage_engine.Col
module Int_ids = Mirage_engine.Int_ids
module Rng = Mirage_util.Rng

type col_spec =
  | Uniform_int of int
  | Skewed_int of int * float
  | Date_int of int
  | Cat_string of string * int
  | Perm_string of string
  | Words_string of string array * int

let comment_lexicon =
  [|
    "special"; "requests"; "regular"; "deposits"; "pending"; "accounts";
    "express"; "packages"; "unusual"; "ideas"; "final"; "theodolites";
    "carefully"; "quickly"; "furiously"; "silent"; "bold"; "even";
  |]

let tag prefix i = Printf.sprintf "%s#%05d" prefix i

(* Distinct ints map to distinct tags, so coding each drawn int by its first
   occurrence gives the dictionary [Col.of_strings] builds from the tags,
   with one [sprintf] per distinct value. *)
let cat_col rng prefix dom n =
  let ids = Int_ids.create (min dom n) in
  let codes = Col.Ivec.init n (fun _ -> Int_ids.add ids (Rng.int_in rng 1 dom)) in
  let pool = Array.init (Int_ids.length ids) (fun id -> tag prefix (Int_ids.key ids id)) in
  Col.dict ~codes ~pool ()

(* one column, drawing its rows in order from [rng] *)
let gen_col rng spec n =
  match spec with
  | Uniform_int dom -> Col.init_ints n (fun _ -> Rng.int_in rng 1 dom)
  | Skewed_int (dom, k) ->
      Col.init_ints n (fun _ ->
          let u = Rng.float rng 1.0 in
          min dom (1 + int_of_float (float_of_int (dom - 1) *. (u ** k))))
  | Date_int days -> Col.init_ints n (fun _ -> Rng.int_in rng 1 days)
  | Cat_string (prefix, dom) -> cat_col rng prefix dom n
  | Perm_string prefix ->
      (* one distinct value per row, e.g. nation/region names *)
      Col.dict ~codes:(Col.Ivec.init n Fun.id) ~pool:(Array.init n (fun i -> tag prefix (i + 1))) ()
  | Words_string (lexicon, k) ->
      Col.of_strings
        (Array.init n (fun _ ->
             String.concat " " (List.init k (fun _ -> Rng.pick rng lexicon))))

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
      let pk = Col.init_ints n (fun i -> i + 1) in
      let nonkeys =
        List.map
          (fun (c : Schema.column) ->
            let spec =
              match List.assoc_opt c.Schema.cname table_specs with
              | Some s -> s
              | None -> Uniform_int c.Schema.domain_size
            in
            (c.Schema.cname, gen_col trng spec n))
          tbl.Schema.nonkeys
      in
      let fks =
        List.map
          (fun (f : Schema.fk) ->
            let target_rows = Db.row_count db f.Schema.references in
            (f.Schema.fk_col, Col.init_ints n (fun _ -> Rng.int_in trng 1 target_rows)))
          tbl.Schema.fks
      in
      Db.put_cols db tname (((tbl.Schema.pk, pk) :: nonkeys) @ fks))
    order;
  db
