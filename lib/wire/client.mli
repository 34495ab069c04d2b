(** The SOE side of a terminal connection.

    The client treats the terminal as an adversary: every reply is decoded
    and length-checked before use, transient faults (broken frames,
    undecodable replies, dead or stalled connections) get a bounded
    retry-with-reconnect — sound because every request is an idempotent
    read of immutable published data — and anything that survives retries
    surfaces as a typed {!Error.Wire}. Cryptographic verification of the
    delivered bytes is {e not} done here: that is the channel's job, and
    its failures ([Integrity_failure]) are terminal — never retried, since
    a mismatching digest is an attack (or corruption), not weather. *)

type config = {
  attempts : int;  (** total tries per request (default 3) *)
  backoff_s : float;
      (** base delay of the decorrelated-jitter backoff between retries
          (default 0.05 s; 0 disables sleeping, for tests) *)
  backoff_cap_s : float;
      (** ceiling on each individual delay {e and} on the cumulative sleep
          of one retry sequence (default 1 s) — bounds how long a request
          can stall before its final attempt *)
  retry_seed : int;
      (** seed of the deterministic jitter stream; seed each client of a
          fleet differently so their retries de-synchronize *)
  max_payload : int;  (** largest acceptable reply frame *)
  container : string;
      (** container id the handshake binds to ([""] = terminal default) *)
  trace : string;
      (** trace id offered in the hello ([""], the default, disables
          tracing; at most {!Protocol.max_trace_id} bytes). Each request
          runs in a ["wire.request"] span tied to this trace (emitted only
          while a {!Xmlac_obs.Trace} sink is installed). *)
}

val default_config : config

val backoff_schedule : config -> float list
(** The exact sleeps (in seconds) a retry sequence under [config] performs
    between attempts, in order — pure and deterministic in [retry_seed].
    Each element lies in [[backoff_s, backoff_cap_s]], except that the
    last non-zero sleep may be truncated below [backoff_s] to whatever
    remains of the cumulative budget, and every element after the budget
    is spent is 0; the sum never exceeds [backoff_cap_s]. *)

type t

val connect : ?config:config -> (unit -> Transport.t) -> t
(** Connect and send one hello at {!Protocol.version} (retried like any
    request). A busy rejection surfaces as the retryable {!Error.Busy};
    any other refusal — an unknown container, or a terminal that does not
    speak this version — as a [Handshake] error, with no second hello.
    The connector is kept for transparent reconnects; on reconnect the
    terminal must advertise byte-identical metadata or the client refuses
    with a [Handshake] error. *)

val metadata : t -> Protocol.metadata

val trace_granted : t -> bool
(** Whether the terminal granted the configured trace id ([false] when
    none was configured). *)

val trace : t -> string
(** The trace id this connection offers in its hellos ([config.trace]). *)

val stats : t -> Stats.t

val response_kind : Protocol.response -> string
(** Human-readable response-kind label, for error messages of callers
    that pattern-match replies themselves (e.g. batch consumers). *)

val fetch_stats : t -> string
(** Admin plane: the terminal's telemetry snapshot as a JSON document
    (schema {!Telemetry.schema}). Served only on local transports — a
    remote terminal answers with [err_unsupported], surfacing here as a
    [Server] error. *)

val fetch_fragment :
  t -> chunk:int -> fragment:int -> lo:int -> hi:int -> string
(** Ciphertext bytes [\[lo, hi)] of a fragment, as served — the caller
    validates the length against what it asked for. *)

val fetch_chunk : t -> chunk:int -> string
val fetch_digest : t -> chunk:int -> string

val fetch_hash_state : t -> chunk:int -> fragment:int -> upto:int -> string
(** Serialized SHA-1 state of the fragment prefix; charged to
    [payload_bytes] at the constant padded wire size. *)

val fetch_siblings : t -> chunk:int -> fragment:int -> string list
(** Merkle sibling digests in {!Xmlac_crypto.Merkle.sibling_cover} order. *)

val sync : t -> have_gen:int -> [ `Delta of string | `Uptodate ]
(** Dissemination plane: ask the terminal for what changed
    since generation [have_gen] of the bound container. [`Delta d] is an
    encoded chunk delta — opaque here; decode and apply it with
    [Xmlac_dissem.Delta] (or use [Mirror], which drives the whole sync
    loop). A terminal that cannot bridge the gap (a lineage republished
    from scratch) answers [err_out_of_range], surfacing as a [Server]
    error; the caller falls back to a full fetch. Counted in
    {!Stats.t.syncs} / {!Stats.t.sync_delta_bytes}. *)

val fetch_batch : t -> Protocol.request list -> Protocol.response list
(** Send several data requests as one [Batch] frame and return the replies
    in request order. Each item is checked and charged by the same rule
    as the typed fetches above, so [payload_bytes] matches the equivalent
    individual fetches exactly; [batched_requests] counts the frame. A
    per-item [Err] raises a [Server] error; a count or kind mismatch is a
    [Protocol] fault, retried like a desynchronized typed fetch. The
    caller keeps batches within {!Protocol.max_batch}, which the encoder
    enforces. *)

val close : t -> unit
(** Best-effort [Bye], then drop the connection. Idempotent. *)
