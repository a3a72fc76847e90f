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

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Int x -> Fmt.int ppf x
  | Float x -> Fmt.float ppf x
  | Str s -> Fmt.pf ppf "'%s'" s

let to_string v = Fmt.str "%a" pp v

let to_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | Null | Str _ -> None
