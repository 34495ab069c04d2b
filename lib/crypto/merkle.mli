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

val tree : string array -> string array
(** Every node digest of the tree over [m] leaves, in heap layout: an
    array of [2m] slots where node 1 is the root, the children of node [k]
    are [2k] and [2k + 1], and leaf [i] is node [m + i] (slot 0 is unused).
    Costs the same [m - 1] combines as {!root_of_leaves}. This is the
    terminal's node table: {!Secure_container.chunk_tree} keeps one per
    chunk, shared by every reader of the container, so it must not be
    mutated. @raise Invalid_argument if the length is not a positive
    power of 2. *)

val siblings : string array -> fragment:int -> string list
(** The sibling digests of leaf [fragment] read out of a {!tree}, in
    [sibling_cover ~lo:fragment ~hi:fragment] order — what a terminal
    answers to a sibling request, by lookup alone.
    @raise Invalid_argument if [fragment] is not a leaf of the tree. *)

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
    one-leaf cover, in [sibling_cover ~lo:index ~hi:index] order. It works
    in {!tree}'s heap layout: the known leaves are placed and their
    ancestors marked, a member's sibling digest is placed only where no
    known leaf lies below it, and the rest is combined bottom-up, so every
    known leaf is hashed into the root: a leaf must not hide behind a
    digest the terminal supplied for another member of the group. Which
    nodes are present is kept in flags, never read from a digest's
    value. For a one-leaf group this is the per-path {!root_from_cover},
    which stays as its test oracle. [None] if the covers are incomplete.
    @raise Invalid_argument if a sibling list's length differs from its
    cover's, or a leaf index is out of range. *)

val node_hash : string array -> node -> string
(** Hash of an arbitrary tree node, recomputed from all leaves: the
    reference the tests check {!tree}, {!siblings} and the covers against.
    No terminal calls it; terminals read their node tables. *)
