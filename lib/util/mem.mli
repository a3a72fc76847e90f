(** The zero-filled off-heap vectors that column payloads and the LP
    tableau live in.  Memory is measured as process RSS, which sees them;
    the OCaml heap does not. *)

val mapped_min_bytes : int
(** Payloads of at least this many bytes (1 MiB) are mapped rather than
    malloc'd. *)

val map_fd :
  ('a, 'b) Bigarray.kind -> shared:bool -> Unix.file_descr -> int ->
  ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t
(** [map_fd kind ~shared fd n] maps [n] elements of [fd] ([Unix.map_file]). *)

val zeroed :
  ('a, 'b) Bigarray.kind -> 'a -> int -> ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t
(** [zeroed kind zero n]: an off-heap vector of [n] elements, all [zero].
    Under {!mapped_min_bytes} it is malloc'd and filled.  From there it is
    mapped privately from [/dev/zero]: a page becomes resident only when
    written, the mapping goes back to the OS when the vector is collected,
    and it does not pace the GC's major slices the way malloc'd Bigarray
    bytes do.  A mapping that fails falls back to malloc. *)
