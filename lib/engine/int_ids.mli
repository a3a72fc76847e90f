(** Dense ids for int keys.

    Each distinct key gets the next id, [0], [1], ..., in order of first
    {!add}.  The table is flat: a power-of-two array of ids probed
    linearly from a multiplicative hash of the key, and the keys by id.  It
    doubles when half full, so a probe stays short, and it allocates
    nothing per key.  Every int is a valid key, [min_int] and [max_int]
    included, and keys that agree in their low bits spread over the
    table. *)

type t

val create : int -> t
(** [create n]: an empty table that holds [n] keys without growing. *)

val add : t -> int -> int
(** The key's id, assigning the next one if the key is new. *)

val find : t -> int -> int
(** The key's id, or [-1] if it was never added. *)

val length : t -> int
(** Number of distinct keys added. *)

val key : t -> int -> int
(** [key t id]: the key that got [id]. *)
