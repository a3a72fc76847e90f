(** The columnar arithmetic kernel.

    Evaluates an arithmetic expression ({!Mirage_sql.Pred.arith}) over the
    logical rows of column views one node at a time, {!block} rows per
    pass: each leaf loads its column into a float vector plus a NULL
    bitmap, and each binary node combines two such vectors in place.  No
    row allocates a closure call or a [float option].  Every row sees the
    same float operations in the same order as
    {!Mirage_sql.Pred.eval_arith} over the boxed row, so values are
    bit-identical, and NULL exactly where it returns [None]: a NULL row
    ([-1] in a selection vector), a NULL or non-numeric cell (every row of
    a dictionary column), a NULL operand, or a zero divisor ([-0.0]
    included).

    [Exec]'s [Arith_cmp] literals and [Acc]'s result views both run it. *)

type t

val block : int
(** Rows per pass over the expression tree.  Intermediate results live in
    buffers of this many rows, whatever the number of rows evaluated. *)

val create :
  capacity:int -> (string -> Col.t * int array option) -> Mirage_sql.Pred.arith -> t
(** [create ~capacity leaf e] compiles [e], with room for [capacity]
    results.  [leaf c] resolves column [c] once, to its stored column and a
    selection vector (logical row [r] reads physical row [sel.(r)], [-1] is
    a NULL row; [None] is the identity). *)

val run : t -> src:int -> dst:int -> len:int -> unit
(** [run t ~src ~dst ~len] evaluates logical rows [src .. src + len - 1]
    into result positions [dst .. dst + len - 1], reading the resolved
    columns' current contents (they may have been mutated in place). *)

val eval :
  rows:int -> (string -> Col.t * int array option) -> Mirage_sql.Pred.arith -> t
(** [create ~capacity:rows], then logical rows [0 .. rows - 1] into
    positions [0 .. rows - 1]. *)

val values : t -> Col.float_big
(** The result per position; meaningless on NULL positions. *)

val nulls : t -> Col.Bitset.t
(** Set bits are NULL positions. *)

val is_null : t -> int -> bool
