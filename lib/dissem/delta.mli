(** Chunk deltas: the dissemination unit bridging one container generation
    to a later one (the "Safe Data Sharing and Data Dissemination on Smart
    Devices" follow-up to the paper's one-shot publication model).

    A delta is ciphertext-level — a terminal or mirror applies it without
    any key material; content authenticity stays with the SOE's encrypted
    chunk digests, checked at read time as always. It carries:

    - the target geometry (scheme, sizes, new payload length) and the
      [from_gen -> to_gen] generation span plus the key epoch;
    - {e full entries} for every chunk rewritten after [from_gen]
      (version, ciphertext, encrypted digest);
    - {e reseals} — fresh encrypted digests for untouched chunks, needed
      because every digest binds the header geometry and the payload
      length usually changes with an update (24 bytes per chunk, payload
      re-encryption never);
    - the cumulative revocation list of subjects whose licenses were
      voided by key rotations up to [to_gen].

    Both directions treat their input as hostile: {!decode} is total with
    typed [Error]s and allocation caps, {!apply} re-validates every
    structural rule before grafting. *)

module C = Xmlac_crypto.Secure_container

type t = {
  scheme : C.scheme;
  chunk_size : int;
  fragment_size : int;
  from_gen : int;
  to_gen : int;
  key_epoch : int;
  payload_len : int;  (** payload length at [to_gen] *)
  revoked : string list;
      (** cumulative list of revoked subjects as of [to_gen] *)
  full : (int * int * string * string) list;
      (** (chunk, version, ciphertext, encrypted digest blob) — digest
          [""] under ECB *)
  reseals : (int * string) list;
      (** (chunk, encrypted digest blob) for untouched chunks *)
}

val chunk_count : t -> int
(** Chunk count of the target geometry. *)

val wire_bytes : t -> int
(** Size of {!encode}'s output — what a [Sync_delta] reply pays. *)

val of_container : from_gen:int -> ?revoked:string list -> C.t -> t
(** The delta bridging [from_gen] to the container's current generation,
    computed from the per-chunk version vector alone: full entries for
    every chunk with [chunk_version > from_gen], reseals for the rest.
    This is what a server answers a [Sync] with — it needs no history
    beyond the current container. @raise Invalid_argument if [from_gen]
    exceeds the container's generation, or the container carries no
    ciphertext (a geometry-only view). *)

val encode : t -> string
(** Serialized delta (magic ["XDLT1"]). *)

val decode : string -> (t, string) result
(** Parse untrusted delta bytes; total, never raises. *)

val apply : C.t -> t -> (C.t, string) result
(** Graft the delta onto a container at exactly [from_gen]: geometry must
    match, the generation span must be forward, every full entry's version
    must lie in [(from_gen, to_gen\]] (a delta never rewinds a chunk), and
    a key-epoch change must cover every chunk (a rotation rewrites
    everything). On success the result is at [to_gen] / [key_epoch] and
    serializes as [XACR2]. *)
