type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

let rank = function Null -> 0 | Int _ -> 1 | Float _ -> 2 | Str _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let cmp_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Int x, Int y -> Some (Stdlib.compare x y)
  | Float x, Float y -> Some (Stdlib.compare x y)
  | Int x, Float y -> Some (Stdlib.compare (float_of_int x) y)
  | Float x, Int y -> Some (Stdlib.compare x (float_of_int y))
  | Str x, Str y -> Some (String.compare x y)
  | _ -> None

(* an [Int] hashes as its float image, so values that {!compare} equates
   ([Int 1] and [Float 1.0]) hash alike *)
let hash = function
  | Null -> 0
  | Int x -> Hashtbl.hash (float_of_int x)
  | Float x -> Hashtbl.hash x
  | Str s -> Hashtbl.hash s

(* the shortest [%g] digits that read back as [x], in fixed notation *)
let float_digits x =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then (p, s) else shortest (p + 1)
  in
  let p, s = shortest 1 in
  match String.index_opt s 'e' with
  | None -> s
  | Some i ->
      let e = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      Printf.sprintf "%.*f" (max 0 (p - 1 - e)) x

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  (* a '.' keeps a whole float a float when it is read back *)
  | Float x -> if Float.is_integer x then float_digits x ^ "." else float_digits x
  | Str s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let pp ppf v = Fmt.string ppf (to_string v)

let to_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | Null | Str _ -> None
