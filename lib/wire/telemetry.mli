(** Server-side fleet telemetry.

    A terminal keeps one registry per server: global admission/mux
    counters plus, per tenant (container id), session and request counts,
    node-table hits and misses, reply bytes, and a service-time
    histogram.
    Connection threads never lock the registry per request — each
    connection observes into a private {!acc} and merges it in under the
    registry mutex every few dozen requests and at connection end, so the
    hot path stays lock-free.

    A {!snapshot} is plain data that round-trips through JSON (schema
    {!schema}); it is what the admin-plane [Stats] frame carries and what
    [xtop] renders. The decoder treats its input as hostile — a Stats
    reply travels the same wire as everything else. *)

val schema : string
(** ["xwtp.telemetry.v1"] — pinned in every snapshot document. *)

val flush_every : int
(** Requests a connection accumulates before merging into the registry. *)

(** {2 Registry} *)

type t

val create : unit -> t

val connection_admitted : t -> unit
val connection_closed : t -> unit
val busy_rejected : t -> unit
val mux_opened : t -> unit
val mux_retired : t -> unit

val republished : t -> unit
(** A container was replaced in place via a chunk delta ([apply_delta]). *)

val sync_served : t -> uptodate:bool -> bytes:int -> unit
(** One answered [Sync]: whether the peer was already current, and how
    many encoded delta bytes went out ([0] when up to date). *)

(** {2 Connection-local accumulator} *)

type acc

val acc : t -> acc
(** A private accumulator for one connection thread. Not thread-safe —
    exactly one thread may use it. *)

val session : acc -> tenant:string -> generation:int -> unit
(** A session bound to [tenant] at publication [generation] made its first
    data request. *)

val record :
  acc ->
  tenant:string ->
  ok:bool ->
  reply_bytes:int ->
  cache_hits:int ->
  cache_misses:int ->
  service_s:float ->
  unit
(** One served request for [tenant]: outcome, reply size, service wall
    time, and its node-table lookups — a hit when the container already
    held the table, a miss when the terminal had to build it. Flushes to
    the registry automatically every {!flush_every} records. *)

val flush : acc -> unit
(** Merge everything pending into the registry — call at connection end
    (and before serving a [Get_stats], so the snapshot covers the asking
    connection's own traffic). *)

(** {2 Snapshot} *)

type service_summary = {
  sv_count : int;
  sv_mean_s : float;
  sv_p50_s : float;
  sv_p95_s : float;
  sv_p99_s : float;
  sv_max_s : float;
}

type tenant_view = {
  tv_id : string;
  tv_generation : int;
  tv_sessions : int;
  tv_requests : int;
  tv_errors : int;
  tv_cache_hits : int;
  tv_cache_misses : int;
  tv_reply_bytes : int;
  tv_service : service_summary;
}

type server_view = {
  sr_admitted : int;
  sr_active : int;
  sr_busy_rejections : int;
  sr_mux_opened : int;
  sr_mux_retired : int;
  sr_requests : int;
  sr_republishes : int;
  sr_syncs : int;
  sr_sync_uptodate : int;
  sr_delta_bytes : int;
      (** dissemination plane: delta republishes accepted, [Sync]s
          answered (of which already-up-to-date), encoded delta bytes
          served. Encoded in every snapshot; absent in pre-dissemination
          documents, where they decode as 0. *)
  sr_cache_hits : int;
  sr_cache_misses : int;
      (** the tenants' [tv_cache_hits] and [tv_cache_misses] summed *)
  sr_containers : int;
}

type view = { server : server_view; tenants : tenant_view list }

val snapshot : t -> containers:int -> view
(** Consistent copy under the registry mutex; tenants sorted by id. The
    server-wide cache hits and misses are the tenants' sums; the
    published-container count is passed in by the server. *)

(** {2 JSON codec} *)

val to_json : view -> Xmlac_obs.Json.t
val to_string : view -> string

val of_json : Xmlac_obs.Json.t -> (view, string) result
val of_string : string -> (view, string) result
(** Hostile-input decoder: any structural violation (wrong schema,
    missing field, negative counter) is a typed [Error], never an
    exception. *)
