(** Length-prefixed framing: every message on the wire is a big-endian
    [u32] payload length followed by the payload. Zero-length and oversized
    frames are rejected before any allocation proportional to the claimed
    length beyond the limit. *)

val header_bytes : int

val max_payload_default : int
(** What a {e client} will accept in a reply (1 MiB — must hold a chunk
    plus slack). *)

val max_request_payload : int
(** What a {e server} will accept in a request (4 KiB — requests are tiny;
    anything bigger is hostile). *)

val encode : string -> string
(** Prepend the length header. @raise Invalid_argument on an empty
    payload (programming error, not wire input). *)

val read : ?max_payload:int -> Transport.t -> string
(** Read one frame. End-of-stream before the first header byte raises a
    [Transport] error (clean close); end-of-stream anywhere later, an empty
    frame, or a length above [max_payload] raise a [Frame] error. *)

val write : Transport.t -> string -> unit

val split : ?max_payload:int -> string -> off:int -> string * int
(** Pure frame extraction from a buffer (used by the in-process loopback
    and the fuzz boundary): returns the payload and the offset just past
    it. Raises the same [Frame] errors as {!read}. *)

val mux_overhead : int
(** Extra bytes a mux frame carries over a plain one (the u32 session
    id). *)

val span_overhead : int
(** Further bytes a {e traced} mux frame carries (the u64 span id). *)

val encode_mux : sid:int -> ?span:int -> string -> string
(** XWTP v1.2 multiplexed frame:
    [u32 (4 + |payload|)][u32 sid][payload]. Used once a hello exchange
    has granted mux on the connection. With [?span] (trace propagation
    negotiated at the connection's probe hello), the traced shape
    [u32 len][u32 sid][u64 span][payload] is emitted instead — span 0
    means "no span"; whether frames are traced is a connection-wide
    agreement, never a per-frame flag.
    @raise Invalid_argument on an empty payload or an out-of-range
    session or span id. *)

val read_mux :
  ?max_payload:int -> ?traced:bool -> Transport.t -> int * int * string
(** Read one mux frame and return [(sid, span, payload)]; [span] is [0]
    unless [traced] (the connection negotiated trace propagation) and the
    peer stamped one. [max_payload] bounds the payload, not the prefix. A
    frame too short to carry its prefix and payload raises a [Frame]
    error, like any truncation. *)
