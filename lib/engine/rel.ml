module Value = Mirage_sql.Value

type view = { vname : string; vcol : Col.t; vsel : int array }

type t = { rcard : int; views : view array }

let card t = t.rcard

let identity_sel n = Array.init n (fun i -> i)

let of_cols cols =
  match cols with
  | [] -> { rcard = 0; views = [||] }
  | (_, c0) :: _ ->
      let n = Col.length c0 in
      List.iter
        (fun (name, c) ->
          if Col.length c <> n then
            invalid_arg (Printf.sprintf "Rel.of_cols: ragged column %s" name))
        cols;
      let sel = identity_sel n in
      {
        rcard = n;
        views =
          Array.of_list
            (List.map (fun (name, c) -> { vname = name; vcol = c; vsel = sel })
               cols);
      }

let of_rows names rows =
  let n = Array.length rows in
  let sel = identity_sel n in
  let views =
    Array.mapi
      (fun ci name ->
        let vals = Array.map (fun row -> row.(ci)) rows in
        { vname = name; vcol = Col.of_values vals; vsel = sel })
      names
  in
  { rcard = n; views }

let col_index t name =
  let n = Array.length t.views in
  let rec go i =
    if i >= n then
      invalid_arg (Printf.sprintf "Rel.col_index: unknown column %s" name)
    else if t.views.(i).vname = name then i
    else go (i + 1)
  in
  go 0

let view t i = t.views.(i)

let get_view v i =
  let p = v.vsel.(i) in
  if p < 0 then Value.Null else Col.get v.vcol p

let rows t =
  let width = Array.length t.views in
  Array.init t.rcard (fun i ->
      Array.init width (fun ci -> get_view t.views.(ci) i))

(* Restrict to the given logical rows (in the given order), composing
   selection vectors.  Physically shared input sel arrays stay shared in the
   output: composition is cached by physical equality. *)
let select t keep =
  let cache = ref [] in
  let compose sel =
    let rec find = function
      | [] ->
          let composed =
            Array.map (fun i -> if i < 0 then -1 else sel.(i)) keep
          in
          cache := (sel, composed) :: !cache;
          composed
      | (s, c) :: rest -> if s == sel then c else find rest
    in
    find !cache
  in
  {
    rcard = Array.length keep;
    views =
      Array.map (fun v -> { v with vsel = compose v.vsel }) t.views;
  }

let column_values t name =
  let v = t.views.(col_index t name) in
  Array.init t.rcard (get_view v)

let distinct_on t names =
  let vs = List.map (fun n -> t.views.(col_index t n)) names in
  let seen = Hashtbl.create t.rcard in
  let out = ref [] in
  for i = 0 to t.rcard - 1 do
    let key = List.map (fun v -> get_view v i) vs in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := Array.of_list key :: !out
    end
  done;
  of_rows (Array.of_list names) (Array.of_list (List.rev !out))

let distinct_count_on t names =
  let vs = List.map (fun n -> t.views.(col_index t n)) names in
  let seen = Hashtbl.create t.rcard in
  for i = 0 to t.rcard - 1 do
    let key = List.map (fun v -> get_view v i) vs in
    Hashtbl.replace seen key ()
  done;
  Hashtbl.length seen

let int_set t name =
  let v = t.views.(col_index t name) in
  let set = Hashtbl.create t.rcard in
  (match v.vcol with
  | Col.Ints { data; nulls } ->
      Array.iter
        (fun p ->
          if p >= 0 then
            match nulls with
            | Some b when Col.Bitset.get b p -> ()
            | _ -> Hashtbl.replace set data.{p} ())
        v.vsel
  | _ ->
      for i = 0 to t.rcard - 1 do
        match get_view v i with
        | Value.Int x -> Hashtbl.replace set x ()
        | _ -> ()
      done);
  set
