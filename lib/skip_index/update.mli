(** Document updates over the Skip index (paper Section 4.1, "Updating the
    document").

    The recursive encoding makes updates non-local: changing a subtree
    changes its ancestors' SubtreeSize fields; crossing a power of two
    changes field widths in whole regions, and a tag-dictionary change
    re-encodes everything. This module applies an update and {e measures}
    that propagation. For the layouts that record sizes (TCS, TCSB, TCSBR)
    the new encoding is {e spliced}: the old encoding is walked down the
    edit path with the decoder's header reader
    ({!Decoder.read_element_header}) and skips, only the new subtree is
    encoded,
    and the path's headers are rebuilt — together with the children's
    headers of any ancestor whose size crosses a power of two or whose
    descendant-tag set changes, iterated to the encoder's least size
    fixpoint — while every other byte is copied. TC, a tag entering or
    leaving the dictionary, and a change of a document-wide field width
    fall back to re-encoding the whole tree ({!update_encoded_reference}),
    which stays the oracle: both paths give the same bytes. The byte diff
    against the old encoding tells how much of the document an in-place
    updater — and the re-encryption of the secure container — would have
    to touch. *)

type path = int list
(** Child indexes among {e all} children (elements and texts), from the
    root; [] designates the root element. *)

type operation =
  | Replace_subtree of path * Xmlac_xml.Tree.t
  | Insert_child of path * int * Xmlac_xml.Tree.t
      (** [Insert_child (parent, i, node)]: insert before child [i] of the
          element at [parent]; [i] may equal the child count (append). *)
  | Delete_subtree of path
  | Set_text of path * string
      (** Replace the text node at [path] (which must address a text). *)

val apply_to_tree : Xmlac_xml.Tree.t -> operation -> Xmlac_xml.Tree.t
(** Reference semantics. @raise Invalid_argument on a dangling path, on
    deleting the root, or on a kind mismatch. *)

type cost = {
  old_bytes : int;
  new_bytes : int;
  unchanged_prefix : int;  (** leading bytes identical in both encodings *)
  unchanged_suffix : int;  (** trailing identical bytes (non-overlapping) *)
  rewritten_bytes : int;
      (** bytes of the new encoding that differ from the old one at the same
          absolute position (plus appended bytes): with position-bound
          encryption this is exactly what must be re-encrypted — a shifted
          tail counts in full, a truncated tail costs nothing *)
  chunks_to_reencrypt : int;  (** container chunks covering those bytes *)
  chunks_dirty : int list;
      (** the chunks themselves, sorted ascending — the exact set an
          incremental re-encryptor
          ({!Xmlac_crypto.Secure_container.reencrypt}) rewrites *)
  dictionary_changed : bool;  (** a tag entered or left the dictionary *)
}

val update_encoded :
  ?chunk_size:int ->
  layout:Layout.t ->
  string ->
  operation ->
  string * cost
(** Apply [operation] to an encoded document; returns the new encoding and
    the update cost. [chunk_size] (default 2048) only affects
    [chunks_to_reencrypt]. The splice expects a canonical encoding, i.e.
    one {!Encoder.encode} produced (every container payload is); other
    well-formed encodings are spliced as they stand. It reads only the
    headers along the edit path (and the removed subtree), so corruption
    elsewhere is copied, not detected: validate with
    {!Decoder.events_result} where the input is untrusted.
    @raise Invalid_argument as {!apply_to_tree}, or on the NC layout;
    @raise Error.Error ([Corrupt]) on malformed bytes it reads. *)

val update_encoded_reference :
  ?chunk_size:int ->
  layout:Layout.t ->
  string ->
  operation ->
  string * cost
(** The same update by decoding the whole tree, applying {!apply_to_tree}
    and re-encoding with {!Encoder.encode}: the oracle the splice is
    tested against, and its fallback. *)

val splice : layout:Layout.t -> string -> operation -> string option
(** The splice alone: [None] where {!update_encoded} falls back to
    re-encoding. @raise Invalid_argument as {!apply_to_tree}. *)

val decode_tree : string -> Xmlac_xml.Tree.t
(** Decode a whole encoded document back to a tree (any layout but NC). *)
