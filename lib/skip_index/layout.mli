(** The five storage layouts compared in the paper's Figure 8.

    - [Nc]: the original, non-compressed XML text;
    - [Tc]: dictionary-compressed tags, explicit closing markers;
    - [Tcs]: [Tc] + subtree sizes (closing tags dropped, skipping possible);
    - [Tcsb]: [Tcs] + a descendant-tag bitmap per intermediate element;
    - [Tcsbr]: the recursive variant of [Tcsb] — the {e Skip index}: tag
      codes, bitmaps and sizes are all encoded relative to the parent
      element's descendant-tag set and subtree size. *)

type t = Nc | Tc | Tcs | Tcsb | Tcsbr

val all : t list
val to_string : t -> string
val of_string : string -> t option
val to_byte : t -> int
val of_byte : int -> t option

val has_sizes : t -> bool
(** Whether subtrees can be skipped without parsing them. *)

val recursive : t -> bool
