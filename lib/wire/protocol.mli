(** The SOE ↔ terminal message vocabulary (one message per frame payload).

    Every exchange the in-process channel performs against a container has a
    request/response pair here: fragment ciphertext ranges and whole-chunk
    ciphertext, encrypted chunk digests, intermediate SHA-1 states of
    fragment prefixes, Merkle sibling digests, and the metadata handshake.

    The first payload byte is the opcode (requests [0x01]–[0x07], responses
    [0x81]–[0x87], error [0xFF]); integers are big-endian. Both decoders
    treat their input as hostile — the server reads requests from an
    arbitrary client, the client reads responses from an adversarial
    terminal — and reject every structural violation with a typed
    [{!Error.Wire} (Protocol _)]. *)

module C = Xmlac_crypto.Secure_container

val version : int
(** The one protocol version this build speaks (3, XWTP v1.3: named
    containers, session multiplexing, trace propagation, batching, and
    the [Sync] delta exchange). Both hellos carry it, and both decoders
    refuse any other. *)

val hello_magic : string

val max_container_id : int
(** Decode-time cap on a hello's container-id length. *)

val max_trace_id : int
(** Decode-time cap on the trace id a hello may carry (64) — trace ids
    are short correlation tokens, not payloads. *)

val hash_state_wire_bytes : int
(** 92: every [Hash_state] reply is zero-padded to the worst-case serialized
    SHA-1 mid-state, so the wire cost of a hash state is the same constant
    the in-process channel charges. *)

val max_siblings : int
(** Decode-time cap on a [Siblings] reply (bounds hostile allocation). *)

val max_batch : int
(** Cap on the number of sub-requests one [Batch] frame may carry. *)

type metadata = {
  scheme : C.scheme;
  chunk_size : int;
  fragment_size : int;
  payload_length : int;
  chunk_count : int;
  integrity : bool;
      (** whether the published scheme supports verification at all — [false]
          exactly for ECB, making the paper's silent verify-downgrade an
          explicit, visible property of the handshake *)
  mux : bool;
      (** whether this connection multiplexes sessions — granted when a
          plain connection's hello requests it, and set in every reply
          inside a multiplexed connection; never granted by the in-process
          loopback *)
  trace : bool;
      (** whether the terminal accepted the hello's trace id and will link
          its server-side spans to it. Granted only when the hello carried
          a trace id. *)
  generation : int;
      (** publication generation of the bound container — what a mirror
          compares its local generation against before issuing a [Sync] *)
  key_epoch : int;
      (** document-key epoch of the bound container: an SOE holding a
          license of an older epoch can refuse before fetching anything *)
}

type request =
  | Hello of { container : string; mux : bool; trace : string }
      (** Encodes {!version}, a flags byte (bit 0: request mux; bit 1:
          trace id present) and the target container id (at most
          {!max_container_id} bytes; [""] selects the terminal's default).
          A non-empty [trace] (at most {!max_trace_id} bytes) follows the
          container as a u8-length string. *)
  | Get_fragment of { chunk : int; fragment : int; lo : int; hi : int }
      (** ciphertext bytes [\[lo, hi)] of one fragment *)
  | Get_chunk of { chunk : int }  (** whole-chunk ciphertext (CBC schemes) *)
  | Get_digest of { chunk : int }  (** the encrypted 24-byte digest blob *)
  | Get_hash_state of { chunk : int; fragment : int; upto : int }
      (** SHA-1 state after hashing the leaf ids and cipher [\[0, upto)] *)
  | Get_siblings of { chunk : int; fragment : int }
      (** Merkle sibling digests for a one-leaf cover, in
          {!Xmlac_crypto.Merkle.sibling_cover} order *)
  | Batch of request list
      (** several data requests in one frame (at most {!max_batch}; nested
          [Batch], [Hello], [Bye] and [Get_stats] are rejected by both
          codecs) *)
  | Get_stats
      (** ask the terminal for a telemetry snapshot ({!Stats_reply}).
          Admin-plane only: terminals answer it exclusively on loopback
          transports and reject it with [err_unsupported] elsewhere, so
          remote tenants cannot harvest cross-tenant traffic shapes. Not
          batchable. *)
  | Sync of { have_gen : int }
      (** "I hold generation [have_gen] of the bound container; send me
          what changed since." Answered with {!Sync_delta} (an encoded
          chunk delta, see [Xmlac_dissem.Delta]), {!Sync_uptodate} when
          [have_gen] is current, or [err_out_of_range] when the terminal
          cannot bridge the gap (the mirror then falls back to a full
          fetch). Not batchable (a delta reply can dwarf every other
          response kind). *)
  | Bye

type response =
  | Hello_ok of metadata
      (** Encodes {!version} and every metadata field. Bit 1 of its flags
          byte once advertised [Batch] support, which every terminal now
          has: encoders always set it and decoders ignore it. *)
  | Fragment of string
  | Chunk of string
  | Digest of string
  | Hash_state of string
  | Siblings of string list
  | Batched of response list
      (** replies to a [Batch], in request order; individual failures
          travel as per-item [Err] values *)
  | Stats_reply of string
      (** the telemetry snapshot as a JSON document (schema
          ["xwtp.telemetry.v1"], see {!Telemetry.to_json}); opaque to the
          protocol layer. Not batchable. *)
  | Sync_delta of string
      (** the encoded chunk delta bridging the requested generation to the
          current one; opaque to the protocol layer (decoded and applied by
          [Xmlac_dissem.Delta]). Not batchable. *)
  | Sync_uptodate  (** the mirror's generation is already current *)
  | Bye_ok
  | Err of { code : int; message : string }

val err_bad_request : int
val err_out_of_range : int
val err_unsupported : int
val err_internal : int

val err_busy : int
(** Admission-control rejection: the terminal is at its session cap. The
    client maps this code to the retryable {!Error.Busy}. *)

val encode_request : request -> string
val encode_response : response -> string

val decode_request : string -> request
(** @raise Error.Wire ([Protocol _]) on malformed input, a hello of
    another {!version} included; never any other exception. *)

val decode_response : string -> response
(** @raise Error.Wire ([Protocol _]) on malformed input, a hello reply of
    another {!version} included; never any other exception. *)

val metadata_of_container : C.t -> metadata
(** What a terminal advertises for a published container. *)

val metadata_geometry : metadata -> (C.t, string) result
(** Validate advertised metadata (integrity-flag consistency, container
    geometry via
    {!Xmlac_crypto.Secure_container.geometry}) and build the header-only
    container view the SOE decrypts against. *)
