(** Parser and printer for the XPath fragment XP{[],*,//}.

    Grammar (the paper's rule/query language):
    {v
      path      ::= ('/' | '//') step (('/' | '//') step)*
      step      ::= ('*' | name) predicate*
      predicate ::= '[' relpath (op literal)? ']'
      relpath   ::= '//'? step (('/' | '//') step)*
      op        ::= '=' | '!=' | '<' | '<=' | '>' | '>='
      literal   ::= number | 'string' | "string" | bareword
    v}
    The bareword [USER] denotes the subject variable. *)

exception Error of string * int
(** [(reason, offset)] *)

val path : string -> Ast.t
(** @raise Error on a syntax error. *)

val to_string : Ast.t -> string
(** Inverse of {!path}: [path (to_string p)] equals [p]. *)

val pp : Format.formatter -> Ast.t -> unit
