(** Reference (non-streaming) evaluator of the XPath fragment over in-memory
    trees. It defines the semantics that the streaming Access Rule Automata
    must reproduce; the access-control oracle and the test suites are built
    on it.

    Semantics notes:
    - an absolute path starting with [/] matches from the document root; one
      starting with [//] can match any element, including the root;
    - [//] between steps selects proper descendants;
    - a predicate holds if some node reached by its relative path satisfies
      the optional comparison, where a node's value is its concatenated
      descendant text (see {!Xmlac_xml.Tree.text_content}). *)

type node_id = int list
(** A node's position: child indexes (among all children, text nodes
    included) from the root element, which is []. Lexicographic order of ids
    is document order. *)

val compare_id : node_id -> node_id -> int
val is_ancestor : node_id -> node_id -> bool
(** [is_ancestor a b]: [a] is a proper ancestor of [b]. *)

val ancestors : node_id -> node_id list
(** Proper ancestors, outermost first (root [[]] first); [[]] has none. *)

val node_at : Xmlac_xml.Tree.t -> node_id -> Xmlac_xml.Tree.t option

val select : Ast.t -> Xmlac_xml.Tree.t -> node_id list
(** Element nodes matched by an absolute path, in document order, without
    duplicates. [USER] literals must have been resolved. *)

val select_filtered :
  filter:(node_id -> bool) -> Ast.t -> Xmlac_xml.Tree.t -> node_id list
(** Like {!select}, but every step (navigational or inside a predicate) may
    only match a node accepted by [filter]. Used to evaluate queries over
    an authorized view: denied elements cannot be named by any step. Node
    values for comparisons remain the original text content. *)

val matches : Ast.t -> Xmlac_xml.Tree.t -> node_id -> bool
(** Whether the node at [node_id] is matched by the path. *)

