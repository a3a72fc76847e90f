(** Recursive-descent parser for the predicate language used by examples and
    the CLI.  Grammar (case-insensitive keywords):

    {v
    pred   := conj ('or' conj)*
    conj   := atom ('and' atom)*
    atom   := 'not' atom | '(' pred ')' | comparison
    comparison :=
        expr cmpop operand
      | ident 'not'? 'in' operand
      | ident 'not'? 'like' operand
    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ident | number | '(' expr ')'
    operand:= '$' ident | literal | '(' (literal (',' literal)* )? ')'
    literal:= number | string
    cmpop  := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
    v}

    A [number] with a decimal point is a float, and has no exponent.  A
    [string] is single-quoted; two quotes in a row inside it stand for one.
    This is the literal spelling {!Value.pp} writes.
    An [expr] consisting of a single column becomes a unary comparison; any
    compound arithmetic expression becomes an arithmetic predicate, which is
    only legal with an inequality comparator (as in the paper). *)

exception Parse_error of string

val pred : string -> Pred.t
(** @raise Parse_error on malformed input. *)

val pred_opt : string -> (Pred.t, string) result

val binding : string -> Pred.Env.binding
(** A parameter's value: one literal, or a parenthesised list of them —
    [operand] without ['$'], as {!Pred.Env.binding_to_string} writes it.
    @raise Parse_error on anything else. *)
