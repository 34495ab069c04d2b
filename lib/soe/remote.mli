(** A remote terminal session: the SOE end of a wire connection to an
    {!Xmlac_wire.Server}-backed terminal (in-process loopback, Unix-domain
    socket, or TCP).

    The handshake metadata is hostile input: it is validated through
    {!Xmlac_wire.Protocol.metadata_geometry} before any request is issued,
    and [expect_scheme] lets the caller pin the integrity scheme so a
    terminal cannot silently downgrade (e.g. advertise ECB for a document
    published under ECB-MHT — the license tells the user which scheme they
    unlocked, so a mismatch is an attack, not a configuration). *)

type t

val connect :
  ?config:Xmlac_wire.Client.config ->
  ?container:string ->
  ?trace_id:string ->
  ?expect_scheme:Xmlac_crypto.Secure_container.scheme ->
  (unit -> Xmlac_wire.Transport.t) ->
  t
(** Connect, handshake, validate the advertised geometry. [container]
    names the published container to bind on a multi-tenant terminal
    (overrides [config.container]).
    [trace_id] (overrides [config.trace]) offers trace propagation in the
    hello; see {!Xmlac_wire.Client.config}.
    @raise Xmlac_wire.Error.Wire ([Handshake _]) when the terminal's story
    is unacceptable. *)

val terminal : t -> Channel.terminal
val metadata : t -> Xmlac_wire.Protocol.metadata

val trace_granted : t -> bool
(** Whether the terminal granted the offered trace id (always [false]
    when none was offered). *)

val trace_id : t -> string
(** The trace id this session's wire connection offers ([""] when
    untraced). *)

val fetch_stats : t -> string
(** Admin plane: the terminal's telemetry snapshot as JSON (schema
    {!Xmlac_wire.Telemetry.schema}); only served on local transports. *)

val geometry : t -> Xmlac_crypto.Secure_container.t
(** The validated header-only container view. *)

val wire_stats : t -> Xmlac_wire.Stats.t

val source :
  ?verify:bool ->
  t ->
  key:Xmlac_crypto.Des.Triple.key ->
  Channel.counters ->
  Xmlac_skip_index.Decoder.source
(** {!Channel.source_of_terminal} over this remote terminal — the same
    evaluator-facing interface, verification included, as the in-process
    channel. Each channel window that needs two or more fetches sends
    them as one [Batch] frame (counted in the client's
    [batched_requests]); a window asks at most
    {!Xmlac_wire.Protocol.max_batch} fetches, so it never splits. Payload
    accounting is per item, so the local/remote [bytes_to_soe] =
    [payload_bytes] equality still holds. *)

val close : t -> unit
