(** The terminal server: a runtime registry of published containers served
    to concurrent SOE sessions. The terminal holds only ciphertext — no
    keys, no plaintext — so everything here is computable by the adversary
    too; the server's job is availability and byte-accounting, not
    secrecy.

    Sessions address a container by id in their hello ([""] selects the
    default: the first-ever publication). A hello may also request session
    multiplexing, switching the connection to session-id framing so many
    SOE sessions share one socket. The server keeps no cache of its own:
    a sibling request is a lookup in the container's per-chunk Merkle node
    table ({!Xmlac_crypto.Secure_container.chunk_tree}), which every
    session bound to that container value and the next generation's
    unchanged chunks share, and a [Sync] is answered by encoding the delta
    afresh. Every table read and fill takes one server-wide tree lock. A
    request that finds its table present counts a cache hit for its
    tenant, one that builds it a miss, in {!telemetry_snapshot} — the
    terminal's only accounting.

    Request handling is {e total}: malformed frames and out-of-range or
    scheme-inappropriate requests produce [Err] replies (or end the
    session), never an exception escaping a session thread. *)

type t

val create : unit -> t
(** An empty registry. *)

val make : Xmlac_crypto.Secure_container.t -> t
(** [create] plus [publish ~id:"default"] — the single-container shape
    every pre-fleet call site expects. *)

val publish :
  ?revoked:string list ->
  t ->
  id:string ->
  Xmlac_crypto.Secure_container.t ->
  unit
(** Publish (or atomically replace) a container under [id]. Replacing
    keeps the id's position in {!container_ids} and gives it a fresh
    publication number (the tenant's generation in telemetry). [revoked]
    seeds the cumulative revocation list served with this id's deltas
    (e.g. when seeding a terminal with a post-rotation container).
    @raise Invalid_argument on an empty or over-long id. *)

val apply_delta :
  t ->
  id:string ->
  Xmlac_dissem.Delta.t ->
  (Xmlac_crypto.Secure_container.t, string) result
(** Advance [id]'s container by a chunk delta (the registry republish
    path): validates and grafts via {!Xmlac_dissem.Delta.apply}, replaces
    the entry in place, and adopts the delta's revocation list. Unlike
    {!publish}, it keeps the publication number, and the advanced
    container carries the node tables of the chunks the delta leaves
    untouched (a rewritten chunk's table is built on its first sibling
    request). Subsequent [Sync]s are answered from the new generation —
    sessions already bound keep serving their immutable snapshot. A delta
    that {!Xmlac_dissem.Delta.apply} refuses leaves the entry as it was.
    Returns the advanced container. *)

val unpublish : t -> id:string -> bool
(** Remove [id] from the registry; [false] when it was not published.
    Sessions already bound to it keep serving from their binding until
    they say [Bye]; new hellos for it are refused. *)

val container_ids : t -> string list
(** Published ids in publish order (head = default). *)

val metadata : t -> Protocol.metadata
(** The default container's metadata.
    @raise Invalid_argument when nothing is published. *)

val metadata_of : t -> string -> Protocol.metadata option

val telemetry_snapshot : t -> Telemetry.view
(** Consistent telemetry snapshot, with the published-container count —
    exactly what a [Get_stats] frame returns. *)

val handle_frame : t -> string -> string * bool
(** Serve one raw frame payload (hostile bytes allowed) on a fresh
    in-process session bound to the default container: decode, handle,
    encode. The flag is [true] when the session should close (after
    [Bye]). Never raises — undecodable requests, a hello of another
    protocol version included, get an [Err] reply. *)

val serve_connection : ?max_mux_sessions:int -> t -> Transport.t -> unit
(** Run one connection to completion: read frames, reply, stop on [Bye]
    or when the peer goes away. A hello requesting mux switches the
    connection to multiplexed framing, where each session id binds its own
    container, [Bye] retires one session, and at most [max_mux_sessions]
    (default 256) sessions may be open at once — excess hellos get a typed
    busy rejection. A hello carrying a trace id is granted trace linkage:
    the server emits [server.request] spans tied to that trace, and (under
    mux) the connection switches to traced framing whose per-frame span
    ids become the spans' parents. Feeds the server's telemetry. *)

val loopback_connector : t -> unit -> Transport.t
(** A fresh in-process connection per call: requests are served
    synchronously inside the client's write, replies drain from a
    per-connection outbox. Hermetic (no sockets or threads) but exercises
    the full encode/frame/decode path on both sides. Plain-framed only —
    a hello requesting mux is answered without the grant, which a
    {!Mux.connect} probe refuses; trace ids are granted, with
    [server.request] spans parented on the client's ambient span (the
    serving happens on the client's own thread). *)

val serve :
  ?max_sessions:int ->
  ?domains:int ->
  ?timeout_s:float ->
  ?stop:bool ref ->
  t ->
  Transport.listener ->
  unit
(** Accept loop, one thread per connection, at most [max_sessions]
    (default 64) concurrent. Admission never blocks the acceptor: a
    connection past the cap gets its opening frame read, a typed
    [err_busy] reply (which clients map to the retryable {!Error.Busy}),
    and a close. With [domains > 1], that many acceptor domains race over
    one non-blocking listener and dispatch connection threads — one
    accept path per core for fleet-scale churn. Polls the listener so it
    can notice a flipped [stop] flag (or a closed listener) within
    ~0.2 s; returns once stopped and all in-flight sessions (and
    rejections) have finished. *)
