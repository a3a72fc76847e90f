type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 finaliser *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split ?stream t =
  match stream with
  | None -> { state = next_int64 t }
  | Some i ->
      (* pure function of (parent state, stream index): the parent does NOT
         advance, so shard [i] of a parallel region gets the same stream no
         matter how many shards run, in what order, or on how many domains *)
      let z = Int64.add t.state (Int64.mul (Int64.of_int (i + 1)) golden_gamma) in
      { state = mix64 z }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the OCaml int stays non-negative *)
  let r = Int64.to_int (Int64.logand (next_int64 t) 0x3FFFFFFFFFFFFFFFL) in
  r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (r /. 9007199254740992.0)


let shuffle_swap t n swap =
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    if j <> i then swap i j
  done

let shuffle t arr =
  shuffle_swap t (Array.length arr) (fun i j ->
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  if k * 3 >= n then begin
    (* dense case: shuffle a full index array and take a prefix *)
    let all = Array.init n (fun i -> i) in
    shuffle t all;
    Array.sub all 0 k
  end else begin
    (* sparse case: rejection sampling into a hash set *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
