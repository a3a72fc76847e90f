type kind = Kint | Kfloat | Kstring

type column = { cname : string; domain_size : int; kind : kind }

type fk = { fk_col : string; references : string }

type table = {
  tname : string;
  pk : string;
  nonkeys : column list;
  fks : fk list;
  row_count : int;
}

type t = { list : table list; by_name : (string, table) Hashtbl.t }

let column_names tbl =
  (tbl.pk :: List.map (fun c -> c.cname) tbl.nonkeys)
  @ List.map (fun f -> f.fk_col) tbl.fks

let make tables =
  let by_name = Hashtbl.create (List.length tables) in
  List.iter
    (fun tbl ->
      if Hashtbl.mem by_name tbl.tname then
        invalid_arg (Printf.sprintf "Schema.make: duplicate table %s" tbl.tname);
      if tbl.row_count <= 0 then
        invalid_arg (Printf.sprintf "Schema.make: %s has non-positive row count" tbl.tname);
      let cols = column_names tbl in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun c ->
          if Hashtbl.mem seen c then
            invalid_arg
              (Printf.sprintf "Schema.make: duplicate column %s.%s" tbl.tname c);
          Hashtbl.add seen c ())
        cols;
      List.iter
        (fun c ->
          if c.domain_size <= 0 then
            invalid_arg
              (Printf.sprintf "Schema.make: %s.%s has non-positive domain" tbl.tname
                 c.cname))
        tbl.nonkeys;
      Hashtbl.add by_name tbl.tname tbl)
    tables;
  List.iter
    (fun tbl ->
      List.iter
        (fun f ->
          if not (Hashtbl.mem by_name f.references) then
            invalid_arg
              (Printf.sprintf "Schema.make: %s.%s references unknown table %s"
                 tbl.tname f.fk_col f.references))
        tbl.fks)
    tables;
  { list = tables; by_name }

let tables t = t.list

let table_opt t name = Hashtbl.find_opt t.by_name name

let table t name =
  match table_opt t name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Schema.table: unknown table %s" name)

let mem t name = Hashtbl.mem t.by_name name

let nonkey tbl name =
  match List.find_opt (fun c -> c.cname = name) tbl.nonkeys with
  | Some c -> c
  | None ->
      invalid_arg (Printf.sprintf "Schema.nonkey: %s has no non-key column %s" tbl.tname name)

let is_pk tbl name = tbl.pk = name
let is_fk tbl name = List.exists (fun f -> f.fk_col = name) tbl.fks

let fk tbl name =
  match List.find_opt (fun f -> f.fk_col = name) tbl.fks with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Schema.fk: %s has no foreign key %s" tbl.tname name)

let referencing_edges t =
  List.concat_map
    (fun tbl -> List.map (fun f -> (f.references, tbl.tname)) tbl.fks)
    t.list

let scale t f =
  let scale_count n = max 1 (int_of_float (float_of_int n *. f)) in
  make
    (List.map (fun tbl -> { tbl with row_count = scale_count tbl.row_count }) t.list)
