(** Skip-index encoder (paper Section 4.1): turns an XML tree into the
    compact byte encoding of one of the five {!Layout} variants. The
    encoding is what gets encrypted into the secure container; its byte
    positions are what subtree skipping operates on.

    For the recursive layout (TCSBR), the width of every metadata field of
    an element is derived from its parent's descendant-tag set and subtree
    size; mutually dependent sizes are resolved by a global fixpoint
    (sizes only grow across iterations, so it converges).

    Attributes are not representable (the paper treats them as elements and
    "does not further discuss" them): use
    {!Xmlac_xml.Tree.map_tags}-style preprocessing to fold them into child
    elements first. @raise Invalid_argument on a tree with attributes. *)

val encode : layout:Layout.t -> Xmlac_xml.Tree.t -> string
(** Full encoded document: header (magic, layout, tag dictionary, body
    length) followed by the body. @raise Error.Error
    ([Encode_failure]) if the size fixpoint fails to converge — never
    expected in practice (sizes grow monotonically and are bounded), kept
    as a typed safety net. *)

val encode_result :
  layout:Layout.t -> Xmlac_xml.Tree.t -> (string, Error.t) result
(** {!encode} with the fixpoint safety net surfaced as a [result]. *)

type header = {
  layout : Layout.t;
  dict : Dict.t option;  (** [None] for the NC layout *)
  element_count : int;
  body_start : int;  (** byte offset of the body *)
  body_size : int;
}

val read_header : Bitio.Reader.t -> header
(** @raise Error.Error ([Corrupt]) on a malformed header: bad magic,
    unknown layout, truncated dictionary, or size/count fields inconsistent
    with the source length. *)

(** {2 Building blocks for {!Update}'s splice}

    The splice re-encodes only an edited subtree and the headers around it.
    These expose the encoder's own field-width, size and bitmap rules so
    that the spliced bytes are the ones {!encode} would write; the splice
    reads headers with {!Decoder.read_element_header}. *)

val header_length :
  Layout.t ->
  dict_size:int ->
  global_size_width:int ->
  parent_set_size:int ->
  parent_size:int ->
  intermediate:bool ->
  int
(** Byte length of an element header under the given parent context: the
    parent's descendant-tag set size and content size (TCSBR), or the
    dictionary size and the document-wide size width (TCS, TCSB). *)

val write_header :
  Bitio.Writer.t ->
  Layout.t ->
  dict_size:int ->
  global_size_width:int ->
  parent_set:int array ->
  parent_size:int ->
  tag:int ->
  desctag:int array ->
  intermediate:bool ->
  size:int ->
  unit
(** Write one element header (kind, tag code, content size, bitmap),
    aligned. Sets are sorted arrays of dictionary indices; [desctag] is
    only read by the bitmap layouts. *)

type fragment =
  | Element_fragment of {
      tag : int;
      desctag : int array;
      size : int;  (** content size, at the encoder's least fixpoint *)
      content : string;  (** the encoded children *)
    }
  | Text_fragment of string  (** the text node's whole encoding *)

val encode_fragment :
  layout:Layout.t ->
  dict:Dict.t ->
  global_size_width:int ->
  Xmlac_xml.Tree.t ->
  fragment option
(** Encode a subtree for splicing into a document that uses [dict]. An
    element's content does not depend on its parent, so only its header is
    left to the caller. [global_size_width] is the document's size-field
    width under TCS/TCSB (ignored by TCSBR); [None] when the subtree's own
    size needs a wider field, i.e. the document-wide width must change.
    @raise Invalid_argument on attributes; @raise Not_found on a tag
    missing from [dict]. *)
