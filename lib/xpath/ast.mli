(** Abstract syntax of the XPath fragment XP{[],*,//} used by the paper:
    node tests, child axis [/], descendant-or-self axis [//], wildcards [*]
    and predicates [\[...\]] comparing the string value of a relative path to
    a literal.

    The distinguished literal [USER] denotes the subject evaluating the
    policy and is substituted by {!resolve_user} before evaluation. *)

type axis =
  | Child  (** [/step] *)
  | Descendant  (** [//step]: any proper descendant of the context node *)

type test = Name of string | Wildcard

type comparison = Eq | Neq | Lt | Le | Gt | Ge

type literal =
  | Number of float
  | String of string
  | User  (** the [USER] variable of the paper's rule examples *)

type step = { axis : axis; test : test; predicates : predicate list }

and predicate = {
  path : step list;  (** non-empty relative path; first step's axis applies *)
  condition : (comparison * literal) option;
      (** [None] is an existence test, e.g. [\[Protocol\]] *)
}

type t = { steps : step list }
(** An absolute path; the first step's axis is the leading [/] or [//]. *)

val name : string -> test
val path : step list -> t

val resolve_user : user:string -> t -> t
(** Replace every [User] literal by [String user]. *)

val predicate_is_linear : predicate -> bool
(** No nested predicates inside the predicate path (the form supported by the
    streaming Access Rule Automata; the DOM oracle supports nesting). *)

val is_linear : t -> bool
(** All predicates of all steps are linear. *)

val compare_values : comparison -> string -> literal -> bool
(** [compare_values op node_value lit] — the paper's value comparison: both
    sides numeric when the literal is a {!Number} (an unparseable node value
    satisfies nothing), byte-wise string comparison otherwise. The node value
    is whitespace-trimmed first.
    @raise Invalid_argument on an unresolved [User] literal. *)

val equal : t -> t -> bool
val size : t -> int
(** Total number of steps, including predicate paths (a complexity measure
    for benchmarks). *)
