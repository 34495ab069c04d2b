(** A small streaming (pull) XML parser.

    Supports the fragment needed by the paper's pipeline: elements,
    attributes, text, CDATA sections, character/predefined entity references,
    comments and processing instructions (skipped), and a single root
    element. Namespaces are not interpreted (prefixed names are plain tags),
    and DOCTYPE declarations are skipped without being validated. *)

exception Malformed of string * int
(** [Malformed (reason, offset)] — raised on ill-formed input; [offset] is a
    byte position in the input string. *)

type cursor

val cursor : ?strip_whitespace:bool -> string -> cursor
(** [cursor s] starts parsing document [s]. When [strip_whitespace] is true
    (default false), text events consisting only of XML whitespace are not
    reported. *)

val next : cursor -> Event.t option
(** Pull the next event; [None] after the root element has been closed.
    @raise Malformed on ill-formed input. *)

val events : ?strip_whitespace:bool -> string -> Event.t list
(** Whole-document convenience wrapper around {!cursor}/{!next}.
    @raise Malformed on ill-formed input. *)

val events_result :
  ?strip_whitespace:bool -> string -> (Event.t list, string * int) result
(** {!events} as a [result] — the trust-boundary entry point for untrusted
    document bytes: never raises, [Error (reason, offset)] mirrors
    {!Malformed}. *)

val fold :
  ?strip_whitespace:bool -> string -> init:'a -> f:('a -> Event.t -> 'a) -> 'a

