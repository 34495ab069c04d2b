(** Client side of session multiplexing: many SOE sessions over one
    terminal connection.

    {!connect} probes the terminal with a mux-requesting hello; {!session}
    then yields virtual transports — one fresh session id each — over the
    shared connection. Plug them into {!Client.connect} as the connector
    and the whole per-session client stack (handshake, retry, batching,
    accounting) works unchanged.

    Demultiplexing is leader/follower among the session threads
    themselves (no dedicated reader thread); writes of distinct sessions
    are serialized so mux frames never interleave. A dead mux connection
    fails every open session with a retryable transport error, and the
    next {!session} call re-probes. *)

type t

val connect : ?max_payload:int -> ?trace:string -> (unit -> Transport.t) -> t
(** Probe the terminal once. Raises {!Error.Wire} like any connect would —
    the retryable [Busy] when the terminal is at its session cap, and
    [Handshake] when it refuses the probe or answers it without granting
    multiplexing (as the in-process loopback does). A non-empty [trace]
    (at most {!Protocol.max_trace_id} bytes) is offered in the probe
    hello; when the terminal grants it the whole connection switches to
    traced mux framing, every frame carrying the writing thread's current
    {!Xmlac_obs.Context} span id so the terminal can parent its server
    spans under the client's request spans.
    @raise Invalid_argument when [trace] exceeds the cap. *)

val session : t -> unit -> Transport.t
(** A connector for one SOE session: a fresh session id on the shared mux
    connection (re-probing if the previous connection died). Closing the
    returned transport retires only that session.
    @raise Invalid_argument once the endpoint is {!close}d. *)

val close : t -> unit
(** Tear down the shared connection, failing any open session. The
    endpoint stays closed: a later {!session} raises [Invalid_argument]. *)
