(** Three-valued delivery conditions.

    The delivery of a document node may depend on {e pending predicates}
    (paper Section 5): a predicate instance whose outcome is unknown when
    the node is parsed. Each such instance is an {!atom}; the node's
    delivery condition is an expression over atoms, evaluated in Kleene
    three-valued logic. An atom is resolved exactly once: to [true], to
    [false] (when its anchor scope closes unsatisfied), or — for query
    predicates, which range over the {e authorized view} — to another
    expression (the delivery condition of the node that satisfied it). *)

type atom
type t

type value = True | False | Unknown

val tru : t
val fls : t

val atom : unit -> atom
(** A fresh unresolved atom. *)

val atom_expr : atom -> t
val is_resolved : atom -> bool

val resolve : atom -> t -> unit
(** Resolve an atom (no-op if already resolved — the first resolution wins,
    matching "an instance of the predicate was found true elsewhere"). *)

val conj : t list -> t
val disj : t list -> t
val neg : t -> t

val eval : t -> value
(** Kleene evaluation under the current atom resolutions. *)

val decided : t -> bool option
(** [Some b] once {!eval} is no longer [Unknown]. *)

val pp : Format.formatter -> t -> unit
