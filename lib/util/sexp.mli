(** Minimal s-expressions, used to serialise constraint bundles so the
    generation side never needs the production database itself. *)

type t = Atom of string | List of t list

val to_string : t -> string
(** Atoms containing whitespace, parens, quotes or empty atoms are quoted
    with ["..."] and backslash escapes. *)

val of_string_many : string -> (t list, string) result
(** Parses a sequence of top-level s-expressions. *)

val atom : t -> (string, string) result
val list : t -> (t list, string) result

(**/**)

(* Tested by test_util "round trip cases", "errors" and "sexp print/parse round
   trip". *)
val of_string : string -> (t, string) result
(** Parses a single s-expression (surrounding whitespace allowed). *)
