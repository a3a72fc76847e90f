(** Per-column distribution construction and parameter instantiation
    (§4.2) plus the derived value multiset used for data generation (§4.3).

    All bookkeeping is in exact integer row counts over the normalised
    cardinality space [\[1, dom\]] (Theorem 6.1's zero-error argument relies
    on this).  The pipeline:

    + normalise every UCC to an [F]-anchor ([A ≤ p] with a cumulative row
      count) or [E]-items ([A = p] with an exact row count; [in]/[like]
      literals expand to one item per element / per matching value, with
      production element counts supplied by the caller);
    + sort [F]-anchors, merge equal cumulative counts (equal parameters),
      split the cardinality space into ranges;
    + bin-pack [E]-items into ranges (best-fit decreasing, with the paper's
      fallback of reusing an equal-count parameter's value);
    + distribute the domain's unique values over ranges and instantiate every
      parameter as its position in the value order.

    String columns render value [v] as ["v%08d"] (order-preserving) and
    [like]-groups append ["_g<id>_"] suffixes matched by ["%_g<id>_%"]
    patterns, so equality, ranges, IN and LIKE can coexist on one column. *)

type layout = {
  l_table : string;
  l_col : string;
  l_kind : Mirage_sql.Schema.kind;
  l_dom : int;
  l_rows : int;
  l_value_counts : int array;  (** index [v-1] = rows carrying value [v]; sums to [l_rows] *)
  l_param_card : (string * int) list;
      (** cardinality value per parameter (0 = outside the domain);
          [in]/[like] sub-parameters appear as ["p#i"] *)
  l_bindings : (string * Mirage_sql.Pred.Env.binding) list;
      (** final parameter bindings in rendered (value-space) form *)
  l_render : int -> Mirage_sql.Value.t;  (** value renderer incl. like-groups *)
}

val build :
  table:string ->
  col:string ->
  kind:Mirage_sql.Schema.kind ->
  dom:int ->
  rows:int ->
  uccs:Ir.ucc list ->
  elements:(Mirage_sql.Pred.literal -> (Mirage_sql.Value.t * int) list) ->
  param_key:(string -> Mirage_sql.Value.t option) ->
  unit ->
  (layout, string) result
(** [elements lit] returns the production elements of an [in] literal (one
    per list element) or the matching distinct values of a [like] literal,
    as (production value, row count) pairs; never called for comparison
    literals.  [param_key p] is the production value bound to a scalar
    parameter.  Production values serve two purposes: items sharing a value
    and a row count may share one synthetic value (the paper's reuse
    fallback), and integer production values guide equality items into the
    range the production data placed them in, which keeps tightly-packed
    columns feasible.  The guide applies whenever every range boundary
    carries an integer production value and those values increase with the
    cumulative counts.  An item the guide cannot place (no guide, no
    integer production value, or no room left in its range) goes best-fit
    decreasing. *)

val default_layout :
  table:string ->
  col:string ->
  kind:Mirage_sql.Schema.kind ->
  dom:int ->
  rows:int ->
  layout
(** Unconstrained column: uniform counts over the domain. *)

val impossible_string : string
(** A LIKE pattern that matches no value a layout renders: printable, with
    no wildcard ([%], [_]) and no quote, so it survives every exporter, and
    not of the ["v%08d"] shape of rendered strings.  Bound to a LIKE
    parameter that must select nothing, and to a NOT LIKE parameter that
    must select everything. *)

val lookup_param_card : layout -> string -> int option

val to_col : layout -> Mirage_engine.Col.Ivec.t -> Mirage_engine.Col.t
(** Render a whole column of value-domain ints ([1..dom], as produced by
    {!Nonkey}) into typed storage: [Kint] columns alias the vector's storage
    (zero-copy), [Kfloat] become flat float columns, [Kstring]
    dictionary-encode with one rendered string per distinct value. *)
