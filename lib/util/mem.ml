(* Payloads of at least this size are mapped rather than malloc'd.  Mapped
   pages are the kernel's zero pages until written, and they do not pace the
   GC: the runtime counts malloc'd Bigarray bytes toward its
   major-collection speed, which cost about 50% more major collections on
   TPC-H sf 4 once every column was a Bigarray.  Smaller payloads are
   malloc'd, so a CP-batch vector or a small bitmap costs no mapping of its
   own. *)
let mapped_min_bytes = 1 lsl 20

let map_fd kind ~shared fd n =
  Bigarray.array1_of_genarray (Unix.map_file fd kind Bigarray.c_layout shared [| n |])

let zeroed : type a b. (a, b) Bigarray.kind -> a -> int ->
             (a, b, Bigarray.c_layout) Bigarray.Array1.t =
 fun kind zero n ->
  let n = max n 0 in
  let malloced () =
    let ba = Bigarray.Array1.create kind Bigarray.c_layout n in
    (* malloc'd pages are not zeroed; mapped pages are *)
    Bigarray.Array1.fill ba zero;
    ba
  in
  if n * Bigarray.kind_size_in_bytes kind < mapped_min_bytes then malloced ()
  else
    try
      let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> map_fd kind ~shared:false fd n)
    with Unix.Unix_error _ | Sys_error _ -> malloced ()
