(** Intermediate relations: columnar views.

    A relation is a set of named column views sharing a logical row order.
    Each view pairs a typed {!Col.t} with a selection vector [vsel]: logical
    row [i] lives at physical row [vsel.(i)] of [vcol], and [vsel.(i) = -1]
    marks a NULL row (outer-join padding).  Operators that only drop or
    reorder rows (filters, joins) compose selection vectors and never copy
    column data; selection arrays are physically shared between views that
    select from the same side, and {!select} preserves that sharing. *)

type view = {
  vname : string;
  vcol : Col.t;
  vsel : int array;  (** physical row per logical row; -1 = NULL row *)
}

type t = { rcard : int; views : view array }

val card : t -> int

val of_cols : (string * Col.t) list -> t
(** Relation over whole columns (identity selection, shared across views).
    @raise Invalid_argument on ragged column lengths. *)

val of_rows : string array -> Mirage_sql.Value.t array array -> t
(** Build from [Value.t] row tuples (kind inference per column via
    {!Col.of_values}, so each column holds values of one kind); used for
    aggregate/projection outputs and tests.
    @raise Invalid_argument on a column that mixes value kinds. *)

val col_index : t -> string -> int
(** @raise Invalid_argument on unknown column. *)

val view : t -> int -> view
val get_view : view -> int -> Mirage_sql.Value.t
(** The value at a logical row of one view. *)

val select : t -> int array -> t
(** [select t keep] keeps logical rows [keep] (in that order); entries of
    [-1] become NULL rows.  O(|keep| · distinct sel arrays). *)

val distinct_on : t -> string list -> t
(** Duplicate-eliminating projection onto the named columns. *)

val int_set : t -> string -> (int, unit) Hashtbl.t
(** The set of [Int] values in a column; non-int values are ignored. *)

(**/**)

(* The membership oracle of test_core "membership forms" and its QCheck
   property. *)
val column_values : t -> string -> Mirage_sql.Value.t array
(** Extracted (copied) column. *)

(* Tested by test_engine "distinct". *)
val distinct_count_on : t -> string list -> int

(* Tested by test_engine "aggregate groups", "aggregate global" and "outer join
   null padding". *)
val rows : t -> Mirage_sql.Value.t array array
(** Row-major [Value.t] materialisation (tests and debugging). *)
