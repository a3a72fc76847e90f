(** Pure-OCaml streaming gzip encoder (RFC 1951 DEFLATE + RFC 1952 framing).

    Fixed-Huffman blocks over an LZ77 hash-chain greedy matcher: each 64 KB
    input chunk becomes one non-final DEFLATE block (the matcher window is
    the chunk, so distances never exceed the 32 KB limit), and {!finish}
    closes the stream with an empty final block plus the CRC-32 / ISIZE
    trailer.  CSV text compresses ~2–3x; dynamic-Huffman would buy a few
    more percent at a much larger constant cost.

    The output bytes are a pure function of the input bytes: how the input
    is sliced into {!write} calls never changes them, and golden digests in
    the test suite pin them.  An encoder is single-owner state; the chunked
    export runs one encoder per shard, so several domains compress
    different shards at once.

    The encoder pushes compressed bytes through the callback given to
    {!create}, so it wraps any byte sink — in particular a {!Sink.writer} —
    without buffering the whole member.  Output produced by several
    encoders concatenated in order is a valid multi-member gzip file
    ([gzip -d] decompresses the concatenation), which is what keeps
    sharded [.csv.N.gz] outputs concatenation-equal to the uncompressed
    export after decompression. *)

type t

val create : (Bytes.t -> pos:int -> len:int -> unit) -> t
(** Start a gzip member.  The callback must consume the whole range it is
    given before returning: the buffer is the encoder's own and is reused
    for the next output. *)

val write : t -> Bytes.t -> pos:int -> len:int -> unit
(** Feed uncompressed bytes.  Compressed output is pushed to the callback
    as 64 KB chunks fill. *)

val finish : t -> unit
(** Flush the last partial chunk, close the DEFLATE stream and push the
    gzip trailer.  The encoder must not be used afterwards. *)
