(** Merkle hash tree over the fragments of a chunk (paper Appendix A,
    Figure F1). The terminal — untrusted but cooperative — computes the
    hashes of the fragments the SOE does not read and the internal nodes
    derivable from them; the SOE hashes only the fragments it actually
    reads and recombines up to the root, which it compares against the
    decrypted ChunkDigest.

    The fragment count of a chunk must be a power of two. Internal nodes
    hash the concatenation of their children's hashes. *)

type node = { level : int; index : int }
(** [level] 0 is the leaves; the root of a tree over [m] leaves is at level
    [log2 m], index 0. [index] counts nodes left to right within a level. *)

val root_of_leaves : string array -> string
(** Full recomputation (used when building the document).
    @raise Invalid_argument if the length is not a positive power of 2. *)

val sibling_cover : leaf_count:int -> lo:int -> hi:int -> node list
(** The internal/leaf nodes whose hashes the terminal must supply so that a
    verifier knowing only leaves [lo..hi] (inclusive) can recompute the
    root: for every ancestor of the known range, the sibling subtrees not
    overlapping it. Returned in a deterministic order. *)

val root_from_cover :
  leaf_count:int ->
  known:(int * string) list ->
  supplied:(node * string) list ->
  string option
(** Recompute the root from the known leaf hashes [(index, hash)] and the
    terminal-supplied cover. [None] if the cover is incomplete. *)

val root_from_group :
  leaf_count:int -> (int * string * string list) list -> string option
(** One recombination for several known leaves of a tree: each
    [(index, leaf_hash, siblings)] carries a leaf and the digests of its
    one-leaf cover, in [sibling_cover ~lo:index ~hi:index] order. Supplied
    nodes whose subtree holds a known leaf are dropped before
    {!root_from_cover} runs, so every known leaf is hashed into the root:
    a leaf must not hide behind a digest the terminal supplied for another
    member of the group. For a one-leaf group this is the per-path
    {!root_from_cover}. [None] if the covers are incomplete.
    @raise Invalid_argument if a sibling list's length differs from its
    cover's. *)

val node_hash : string array -> node -> string
(** Hash of an arbitrary tree node, recomputed from all leaves (terminal
    side). *)
