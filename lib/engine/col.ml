module Value = Mirage_sql.Value

type int_big = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type float_big = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type byte_big = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* spill directory: the env var seeds the default, the CLI flag overrides
   via [set_big_dir] — read per allocation so a change applies to every
   subsequent payload *)
let big_dir_ref = ref (Sys.getenv_opt "MIRAGE_BIG_DIR")
let big_dir () = !big_dir_ref
let set_big_dir d = big_dir_ref := d

(* File-backed allocation: an unlinked temp file under the spill directory
   keeps the pages evictable by the kernel (dirty pages write back to the
   file instead of pinning swap), and unlinking immediately means a crash
   leaks nothing. *)
let big_file_seq = Atomic.make 0

let map_spill kind dir n =
  let path =
    Filename.concat dir
      (Printf.sprintf "mirage-big-%d-%d.tmp" (Unix.getpid ())
         (Atomic.fetch_and_add big_file_seq 1))
  in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o600 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Unix.close fd)
    (fun () -> Mirage_util.Mem.map_fd kind ~shared:true fd n)

(* every payload is off the OCaml heap — the GC neither scans nor compacts
   it.  From [Mem.mapped_min_bytes] a payload spills under the spill
   directory when one is set; otherwise, or when the spill file cannot be
   mapped, it is [Mem.zeroed]. *)
let alloc_big : type a b. (a, b) Bigarray.kind -> a -> int ->
                (a, b, Bigarray.c_layout) Bigarray.Array1.t =
 fun kind zero n ->
  let n = max n 0 in
  let spilled =
    if n * Bigarray.kind_size_in_bytes kind < Mirage_util.Mem.mapped_min_bytes then None
    else
      Option.bind !big_dir_ref (fun dir ->
          match map_spill kind dir n with
          | ba -> Some ba
          | exception (Unix.Unix_error _ | Sys_error _) -> None)
  in
  match spilled with Some ba -> ba | None -> Mirage_util.Mem.zeroed kind zero n

let alloc_int_big n : int_big = alloc_big Bigarray.int 0 n
let alloc_float_big n : float_big = alloc_big Bigarray.float64 0.0 n

module Bitset = struct
  type t = { bits : byte_big; len : int }

  let create len = { bits = alloc_big Bigarray.int8_unsigned 0 ((len + 7) lsr 3); len }

  let set b i =
    let byte = i lsr 3 in
    Bigarray.Array1.unsafe_set b.bits byte
      (Bigarray.Array1.unsafe_get b.bits byte lor (1 lsl (i land 7)))

  let clear b i =
    let byte = i lsr 3 in
    Bigarray.Array1.unsafe_set b.bits byte
      (Bigarray.Array1.unsafe_get b.bits byte land lnot (1 lsl (i land 7)))

  let get b i = Bigarray.Array1.unsafe_get b.bits (i lsr 3) land (1 lsl (i land 7)) <> 0
  let length b = b.len

  (* set bits per byte value *)
  let popcount = String.init 256 (fun x ->
      let rec bits x = if x = 0 then 0 else (x land 1) + bits (x lsr 1) in
      Char.chr (bits x))

  (* set bits in [lo, hi): whole bytes through the popcount table, the
     partial bytes at either end one bit at a time *)
  let count_range b lo hi =
    let n = ref 0 in
    let bit_by_bit lo hi =
      for i = lo to hi - 1 do
        if get b i then incr n
      done
    in
    let first = (lo + 7) lsr 3 and last = hi lsr 3 in
    if first >= last then bit_by_bit lo hi
    else begin
      bit_by_bit lo (first lsl 3);
      for byte = first to last - 1 do
        n := !n + Char.code (String.unsafe_get popcount (Bigarray.Array1.unsafe_get b.bits byte))
      done;
      bit_by_bit (last lsl 3) hi
    end;
    !n

  let count b = count_range b 0 b.len
end

type t =
  | Ints of { data : int_big; nulls : Bitset.t option }
  | Floats of { data : float_big; nulls : Bitset.t option }
  | Dict of { codes : int_big; pool : string array; nulls : Bitset.t option }

type col = t

module Ivec = struct
  type t = int_big

  let make n v =
    let ba = alloc_int_big n in
    if v <> 0 then Bigarray.Array1.fill ba v;
    ba

  (* the annotation keeps the element kind static, so the store compiles
     inline rather than to the generic C accessor *)
  let init n f : t =
    let ba = alloc_int_big n in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set ba i (f i)
    done;
    ba

  let length = Bigarray.Array1.dim
  let get (t : t) i = Bigarray.Array1.get t i
  let set (t : t) i v = Bigarray.Array1.set t i v
  let unsafe_get (t : t) i = Bigarray.Array1.unsafe_get t i
  let unsafe_set (t : t) i v = Bigarray.Array1.unsafe_set t i v
  let to_col ?nulls data : col = Ints { data; nulls }
  let to_array (t : t) = Array.init (length t) (Bigarray.Array1.unsafe_get t)
end

let length = function
  | Ints { data; _ } -> Bigarray.Array1.dim data
  | Floats { data; _ } -> Bigarray.Array1.dim data
  | Dict { codes; _ } -> Bigarray.Array1.dim codes

let null_at nulls i =
  match nulls with None -> false | Some b -> Bitset.get b i

let is_null t i =
  match t with
  | Ints { nulls; _ } | Floats { nulls; _ } | Dict { nulls; _ } -> null_at nulls i

let get t i =
  match t with
  | Ints { data; nulls } ->
      if null_at nulls i then Value.Null else Value.Int data.{i}
  | Floats { data; nulls } ->
      if null_at nulls i then Value.Null else Value.Float data.{i}
  | Dict { codes; pool; nulls } ->
      if null_at nulls i then Value.Null else Value.Str pool.(codes.{i})

let float_at t i =
  match t with
  | Ints { data; nulls } ->
      if null_at nulls i then None else Some (float_of_int data.{i})
  | Floats { data; nulls } ->
      if null_at nulls i then None else Some data.{i}
  | Dict _ -> None

let init_ints ?nulls n f = Ints { data = Ivec.init n f; nulls }
let init_floats ?nulls n f =
  let data = alloc_float_big n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set data i (f i)
  done;
  Floats { data; nulls }
let of_ints ?nulls a = init_ints ?nulls (Array.length a) (Array.unsafe_get a)
let of_floats ?nulls a = init_floats ?nulls (Array.length a) (Array.unsafe_get a)
let dict ?nulls ~codes ~pool () = Dict { codes; pool; nulls }

let of_strings ?nulls strs =
  let tbl = Hashtbl.create (min 256 (Array.length strs + 1)) in
  let rev_pool = ref [] and next = ref 0 in
  let code s =
    match Hashtbl.find_opt tbl s with
    | Some c -> c
    | None ->
        let c = !next in
        Hashtbl.add tbl s c;
        rev_pool := s :: !rev_pool;
        incr next;
        c
  in
  let codes = Ivec.init (Array.length strs) (fun i -> code strs.(i)) in
  Dict { codes; pool = Array.of_list (List.rev !rev_pool); nulls }

let const_null n =
  let b = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.set b i
  done;
  Ints { data = alloc_int_big n; nulls = Some b }

let of_values vs =
  let n = Array.length vs in
  let n_null = ref 0
  and n_int = ref 0
  and n_float = ref 0
  and n_str = ref 0 in
  Array.iter
    (function
      | Value.Null -> incr n_null
      | Value.Int _ -> incr n_int
      | Value.Float _ -> incr n_float
      | Value.Str _ -> incr n_str)
    vs;
  let nulls =
    if !n_null = 0 then None
    else begin
      let b = Bitset.create n in
      Array.iteri (fun i v -> if v = Value.Null then Bitset.set b i) vs;
      Some b
    end
  in
  if !n_int + !n_null = n && !n_int > 0 then
    init_ints ?nulls n (fun i -> match vs.(i) with Value.Int x -> x | _ -> 0)
  else if !n_float + !n_null = n && !n_float > 0 then
    init_floats ?nulls n (fun i -> match vs.(i) with Value.Float x -> x | _ -> 0.0)
  else if !n_str + !n_null = n && !n_str > 0 then
    of_strings ?nulls (Array.map (function Value.Str s -> s | _ -> "") vs)
  else if !n_null = n then const_null n
  else invalid_arg "Col.of_values: values of more than one kind"

let to_values t = Array.init (length t) (get t)

let equal a b =
  let n = length a in
  n = length b
  &&
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    if not (Value.equal (get a !i) (get b !i)) then ok := false;
    incr i
  done;
  !ok

let add_csv_cell buf t i =
  match t with
  | Ints { data; nulls } ->
      if not (null_at nulls i) then
        Buffer.add_string buf (string_of_int data.{i})
  | Floats { data; nulls } ->
      if not (null_at nulls i) then
        Buffer.add_string buf (Render.float_repr data.{i})
  | Dict { codes; pool; nulls } ->
      if not (null_at nulls i) then
        Buffer.add_string buf (Render.csv_escape pool.(codes.{i}))
