module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value

type table_data = {
  tschema : Schema.table;
  nrows : int;
  cols : (string, Col.t) Hashtbl.t;
}

type t = { db_schema : Schema.t; tables : (string, table_data) Hashtbl.t }

let create db_schema = { db_schema; tables = Hashtbl.create 16 }

let schema t = t.db_schema

let put_cols t tname cols =
  let tschema = Schema.table t.db_schema tname in
  let expected = Schema.column_names tschema in
  let provided = List.map fst cols in
  List.iter
    (fun c ->
      if not (List.mem c provided) then
        invalid_arg (Printf.sprintf "Db.put: missing column %s.%s" tname c))
    expected;
  let nrows =
    match cols with
    | [] -> 0
    | (_, a) :: _ -> Col.length a
  in
  List.iter
    (fun (c, a) ->
      if Col.length a <> nrows then
        invalid_arg (Printf.sprintf "Db.put: ragged column %s.%s" tname c))
    cols;
  let tbl = Hashtbl.create (List.length cols) in
  List.iter (fun (c, a) -> Hashtbl.replace tbl c a) cols;
  Hashtbl.replace t.tables tname { tschema; nrows; cols = tbl }

let put t tname cols =
  put_cols t tname (List.map (fun (c, a) -> (c, Col.of_values a)) cols)

let data t tname =
  match Hashtbl.find_opt t.tables tname with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Db: table %s not populated" tname)

let row_count t tname =
  match Hashtbl.find_opt t.tables tname with
  | Some d -> d.nrows
  | None -> 0

let col t tname cname =
  let d = data t tname in
  match Hashtbl.find_opt d.cols cname with
  | Some c -> c
  | None ->
      invalid_arg (Printf.sprintf "Db.column: unknown column %s.%s" tname cname)

let column t tname cname = Col.to_values (col t tname cname)

let replace_col t tname cname c =
  let d = data t tname in
  if not (Hashtbl.mem d.cols cname) then
    invalid_arg (Printf.sprintf "Db.column: unknown column %s.%s" tname cname);
  if Col.length c <> d.nrows then
    invalid_arg (Printf.sprintf "Db.put: ragged column %s.%s" tname cname);
  Hashtbl.replace d.cols cname c

let has_table t tname = Hashtbl.mem t.tables tname

(* NULL counts as one more value.  Dictionary codes index a pool, so a flag
   per pool entry counts them; ints get dense ids from [Int_ids].  Floats,
   which the reference generator never makes, keep a hash table, whose
   [compare] equality makes -0.0 equal 0.0 and every NaN one value. *)
let distinct_count t tname cname =
  (* [f i] on every non-NULL row; then 1 if some row is NULL, else 0 *)
  let non_null n nulls f =
    let has_null = ref 0 in
    for i = 0 to n - 1 do
      match nulls with
      | Some b when Col.Bitset.get b i -> has_null := 1
      | _ -> f i
    done;
    !has_null
  in
  match col t tname cname with
  | Col.Ints { data; nulls } ->
      let n = Bigarray.Array1.dim data in
      let ids = Int_ids.create (min n 65536) in
      let null = non_null n nulls (fun i -> ignore (Int_ids.add ids data.{i})) in
      Int_ids.length ids + null
  | Col.Floats { data; nulls } ->
      let seen = Hashtbl.create 64 in
      let null =
        non_null (Bigarray.Array1.dim data) nulls (fun i -> Hashtbl.replace seen data.{i} ())
      in
      Hashtbl.length seen + null
  | Col.Dict { codes; pool; nulls } ->
      let seen = Bytes.make (Array.length pool) '\000' and count = ref 0 in
      let null =
        non_null (Bigarray.Array1.dim codes) nulls (fun i ->
            if Bytes.get seen codes.{i} = '\000' then begin
              Bytes.set seen codes.{i} '\001';
              incr count
            end)
      in
      !count + null

let to_csv t tname =
  let d = data t tname in
  let names = Schema.column_names d.tschema in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," names);
  Buffer.add_char buf '\n';
  let cols = Array.of_list (List.map (fun c -> Hashtbl.find d.cols c) names) in
  let ncols = Array.length cols in
  for i = 0 to d.nrows - 1 do
    for ci = 0 to ncols - 1 do
      if ci > 0 then Buffer.add_char buf ',';
      Col.add_csv_cell buf cols.(ci) i
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* Per-kind column builder for [load_csv]: parses straight into the typed
   representation, so a loaded table costs the same as a generated one. *)
type builder =
  | Bint of int array
  | Bfloat of float array
  | Bstr of string array

let load_csv t tname csv =
  let tschema = Schema.table t.db_schema tname in
  let names = Schema.column_names tschema in
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> invalid_arg "Db.load_csv: empty input"
  | header :: rows ->
      if String.split_on_char ',' header <> names then
        invalid_arg (Printf.sprintf "Db.load_csv: header mismatch for %s" tname);
      let kind_of c =
        if Schema.is_pk tschema c || Schema.is_fk tschema c then Schema.Kint
        else (Schema.nonkey tschema c).Schema.kind
      in
      let names_a = Array.of_list names in
      let ncols = Array.length names_a in
      let kinds = Array.map kind_of names_a in
      let n = List.length rows in
      let builders =
        Array.map
          (function
            | Schema.Kint -> Bint (Array.make n 0)
            | Schema.Kfloat -> Bfloat (Array.make n 0.0)
            | Schema.Kstring -> Bstr (Array.make n ""))
          kinds
      in
      let nulls = Array.map (fun _ -> None) kinds in
      List.iteri
        (fun r line ->
          let cells = String.split_on_char ',' line in
          if List.length cells <> ncols then
            invalid_arg
              (Printf.sprintf "Db.load_csv: ragged row %d in %s" r tname);
          List.iteri
            (fun ci cell ->
              if cell = "" then begin
                let b =
                  match nulls.(ci) with
                  | Some b -> b
                  | None ->
                      let b = Col.Bitset.create n in
                      nulls.(ci) <- Some b;
                      b
                in
                Col.Bitset.set b r
              end
              else
                match builders.(ci) with
                | Bint arr -> (
                    match int_of_string_opt cell with
                    | Some v -> arr.(r) <- v
                    | None ->
                        invalid_arg
                          (Printf.sprintf "Db.load_csv: bad int %S in %s" cell
                             tname))
                | Bfloat arr -> (
                    match float_of_string_opt cell with
                    | Some v -> arr.(r) <- v
                    | None ->
                        invalid_arg
                          (Printf.sprintf "Db.load_csv: bad float %S in %s"
                             cell tname))
                | Bstr arr -> arr.(r) <- cell)
            cells)
        rows;
      let cols =
        List.mapi
          (fun ci name ->
            let nulls = nulls.(ci) in
            ( name,
              match builders.(ci) with
              | Bint arr -> Col.of_ints ?nulls arr
              | Bfloat arr -> Col.of_floats ?nulls arr
              | Bstr arr -> Col.of_strings ?nulls arr ))
          names
      in
      put_cols t tname cols

let iter_rows t tname f =
  let d = data t tname in
  let lookup i c =
    match Hashtbl.find_opt d.cols c with
    | Some a -> Col.get a i
    | None ->
        invalid_arg
          (Printf.sprintf "Db.iter_rows: unknown column %s.%s" tname c)
  in
  for i = 0 to d.nrows - 1 do
    f i (lookup i)
  done
