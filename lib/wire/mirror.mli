(** A syncing replica of one published container (the dissemination
    terminal): holds a local ciphertext copy and keeps it current against
    an origin terminal with chunk deltas, falling back to a full fetch
    when the origin cannot bridge the gap.

    The mirror is an untrusted component like any terminal — it never
    holds keys, and a hostile origin can at worst make it store garbage
    the SOE's digest checks will reject at read time. What {!sync} {e
    does} validate is structure: a delta that fails
    [Xmlac_dissem.Delta.apply]'s rules raises a typed protocol error
    instead of corrupting the local copy. *)

module C = Xmlac_crypto.Secure_container

type t

type outcome =
  | Uptodate  (** local generation already current *)
  | Applied of {
      from_gen : int;
      to_gen : int;
      delta_bytes : int;
      revoked : string list;
    }
      (** a delta moved the local copy forward; [delta_bytes] is the
          encoded delta size (what the wire paid), [revoked] the
          cumulative revocation list it carried *)
  | Refetched of { to_gen : int; bytes : int }
      (** the origin could not bridge our generation (a lineage
          republished from scratch): full fetch, [bytes] of chunk/digest
          payload *)

val fetch : ?config:Client.config -> (unit -> Transport.t) -> t
(** Bootstrap a mirror by fetching the origin's container in full
    (chunks and digests, in [Batch] frames).
    The connector is kept for later {!sync}s. *)

val of_container : ?config:Client.config -> (unit -> Transport.t) -> C.t -> t
(** Adopt an existing local copy (e.g. read back from a spool file) and
    sync it against the origin from now on. *)

val container : t -> C.t
(** The current local copy — serialize with
    {!Xmlac_crypto.Secure_container.to_bytes}, republish into a local
    [Server], or decrypt with a licensed SOE. *)

val generation : t -> int

val revoked : t -> string list
(** Cumulative revocation list carried by the last applied delta (empty
    until one arrives — full fetches do not transport revocations). *)

val sync : t -> outcome
(** One sync round trip: ask the origin for changes since our generation
    and advance the local copy. Falls back to a full fetch (on a fresh
    client, since the origin's metadata changed) when the origin answers
    out-of-range, or the reconnect handshake refuses the changed
    metadata. @raise Error.Wire on transport failure or a
    structurally invalid delta. *)

val stats : t -> Stats.t
(** The underlying client's wire counters ([syncs], [sync_delta_bytes],
    [payload_bytes], ...). Survives the fresh-client fallback: counters
    are carried over. *)

val close : t -> unit
