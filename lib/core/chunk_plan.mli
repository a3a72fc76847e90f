(** Row-window slicing for streamed generation and export.

    A table of [rows] rows is cut into fixed-size chunks: chunk [i] covers
    rows [[i·chunk_rows, min((i+1)·chunk_rows, rows))].  The layout is a
    pure function of [(rows, chunk_rows)] — independent of domain count,
    budget interrupts and resume points — which is what makes the streamed
    pipeline byte-identical to the monolithic one: every stage visits the
    same rows in the same order, merely yielding between chunks instead of
    after the whole table.  {!Scale_out}'s export builds its per-window
    templates over these ranges. *)

val ranges : rows:int -> chunk_rows:int -> (int * int) array
(** [(lo, len)] per chunk, in row order: ⌈rows / chunk_rows⌉ chunks, the
    last one possibly short.  [rows <= 0] yields no chunks.  Safe for any
    [chunk_rows] up to [max_int] (the ceiling is computed without the
    overflowing [rows + chunk_rows - 1]).
    @raise Invalid_argument when [chunk_rows < 1]. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is ⌈a / b⌉ for [a >= 0] and [b >= 1], without forming
    [a + b - 1], so [b] may be [max_int]. *)
