(** Streaming Skip-index decoder (paper Section 4.1, "Decoding the document
    structure"). The decoder keeps an internal SkipStack holding, for every
    open element, its descendant-tag set and subtree size, and exposes:

    - the usual open/text/close event stream;
    - [descendant_tags], the {e DescTag} information the evaluator's
      [SkipSubtree] decision needs;
    - [skip], which jumps over the content of the current element without
      reading (hence, in the encrypted setting, without transferring or
      decrypting) a single byte of it;
    - [subtree_handle]/[read_subtree], random re-entry into a previously
      skipped subtree — used to deliver pending parts (Section 5).

    The byte source is abstract so the same decoder runs over a plain
    in-memory string or over the SOE's decrypting, integrity-checking
    channel. *)

type source = { read : pos:int -> len:int -> string; length : int }

val source_of_string : string -> source

type t

val of_source : source -> t
(** Reads and validates the header. @raise Error.Error ([Corrupt]) on
    malformed input or on the NC layout (which has no binary body; parse
    its XML text directly instead). *)

val of_string : string -> t

val events_result : string -> (Xmlac_xml.Event.t list, Error.t) result
(** Decode a whole document. The decoder's trust-boundary contract: for any
    byte string — hostile, truncated, bit-flipped — this returns either the
    event stream or [Error (Corrupt _)]; it never raises. *)

val layout : t -> Layout.t
val dict : t -> Dict.t
val header : t -> Encoder.header

(** Skip accounting: how much of the encoded document was jumped over
    versus decoded, the Section 7 currency. Counters are always on (a
    record-field bump per event/skip); sub-decoders created by
    {!read_subtree}/{!read_range} charge the parent decoder's record, so
    pending-delivery readback is visible in the same snapshot. *)
type stats = {
  mutable events_decoded : int;
  mutable subtree_skips : int;
  mutable rest_skips : int;
  mutable bytes_skipped : int;
  mutable readback_subtrees : int;
  mutable readback_bytes : int;
}

val fresh_stats : unit -> stats
val stats : t -> stats
val stats_metrics : stats -> Xmlac_obs.Metrics.t

val next : t -> Xmlac_xml.Event.t option
(** Next event; [None] once the root element has been closed.
    @raise Error.Error ([Corrupt]) on malformed bytes: truncated body,
    out-of-range tag or size fields, close markers with no open element.
    The emitted stream is always balanced (every [Start] eventually gets
    its [End]) unless that exception cuts it short. *)

val descendant_tags : t -> string list option
(** After a [Start] event: the tags that can appear below the element just
    opened ([None] when the layout does not record bitmaps, or for the
    instant after non-[Start] events). *)

val can_skip : t -> bool
(** Whether the layout records subtree sizes. *)

val skip : t -> unit
(** Immediately after a [Start] event: jump over the whole content of the
    element just opened; the matching [End] event is still delivered by the
    following [next]. @raise Invalid_argument if the layout cannot skip or
    if not positioned right after a [Start]. *)

val position : t -> int
(** Current absolute byte position in the encoded document (monotone except
    across {!skip}/{!read_subtree}). *)

type subtree_handle
(** Captured right after a [Start] event; identifies the element's content
    byte range plus the decoding context needed to re-enter it later. *)

val subtree_handle : t -> subtree_handle
(** @raise Invalid_argument if not right after a [Start], or if the layout
    does not record sizes. *)

val handle_tag : subtree_handle -> string
val handle_size : subtree_handle -> int

val read_subtree : t -> subtree_handle -> Xmlac_xml.Event.t list
(** Decode the full subtree (including its own [Start]/[End] events) from a
    handle, through the same byte source, without disturbing the main
    cursor. *)

type range_handle
(** A byte range of consecutive sibling nodes inside an open element —
    captured before skipping the {e remaining} content of that element
    (the paper triggers skipping decisions on close events too). *)

val rest_handle : t -> range_handle option
(** The remaining unread content of the innermost open element. [None] when
    no element is open or when the layout records no sizes. *)

val range_size : range_handle -> int

val skip_rest : t -> unit
(** Jump to the end of the innermost open element's content; the matching
    [End] is delivered by the following {!next}. @raise Invalid_argument
    when the layout cannot skip. *)

val read_range : t -> range_handle -> Xmlac_xml.Event.t list
(** Decode the nodes of a captured range (no enclosing element events). *)

(** {2 Element headers}

    The header rules on their own, for readers that walk an encoding
    without a decoder ({!Update}'s splice): the writing side is
    {!Encoder.write_header}. *)

type frame = {
  tag : string;
  tag_index : int;  (** in the dictionary; -1 for {!body_frame} *)
  set : int array;
      (** descendant tags, sorted; [[||]] for a leaf, and when the layout
          records no bitmaps *)
  has_set : bool;  (** false when the layout records no bitmaps *)
  size : int;  (** content size in bytes; -1 when unknown (TC) *)
  content_start : int;
}
(** An element's header fields and where its content starts. *)

val body_frame : Encoder.header -> full_set:int array -> frame
(** The root's parent: every tag ([full_set], the dictionary indexes in
    order) and the body's extent. *)

val read_element_header :
  Bitio.Reader.t ->
  Encoder.header ->
  Dict.t ->
  full_set:int array ->
  parent:frame ->
  kind:int ->
  frame
(** Read the header of an element whose 2-bit kind has just been read,
    inside [parent], and align to its content: the tag (from the parent's
    set under TCSBR, the dictionary otherwise), the size (at the parent's
    width under TCSBR, the document-wide width under TCS/TCSB) and the
    bitmap. @raise Error.Error ([Corrupt]) on an empty dictionary or set,
    an out-of-range tag, or a size overrunning the parent. *)
