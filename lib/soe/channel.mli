(** The terminal ↔ SOE channel.

    The untrusted terminal holds the encrypted container and serves the SOE
    byte ranges of the payload. Depending on the container's integrity
    scheme the SOE fetches fragments, Merkle sibling digests, intermediate
    hash states or whole chunks, decrypts what it needs, and verifies every
    byte before the evaluator sees it (Section 6 / Appendix A).

    The terminal is an abstract set of fetch operations ({!terminal}):
    {!local_terminal} answers from a container in the same process (the
    historical simulation), while {!Remote} builds one backed by the wire
    protocol. The SOE side is identical either way — including its byte
    accounting, so local and remote runs of the same query tally the same
    [bytes_to_soe].

    Reads are processed as a pipeline of fixed-size windows, all on the
    calling domain. A window first builds its units in order against the
    caches: every cache lookup and insert happens here, and each unit
    records what it lacks (a fragment suffix, hash state, siblings, the
    chunk digest, or a whole chunk). It then {e fetches}: one batched
    round trip for two or more fetches when the terminal supports it, one
    call per fetch otherwise, absorbing and charging the replies in
    request order. Then it {e computes} (hashing and block decryption per
    unit in order, then one Merkle reconstruction per chunk) and
    {e commits} (verdicts, counter charges and output delivery, again in
    unit order; the first failing unit raises).

    Every exchange is tallied in {!counters}; the {!Cost_model} turns the
    tallies into simulated seconds. The cryptography is real: tampering with
    the container makes reads raise {!Xmlac_crypto.Secure_container.Integrity_failure}. *)

type counters = {
  mutable bytes_to_soe : int;  (** payload + digest + hash-state bytes sent *)
  mutable bytes_decrypted : int;
  mutable bytes_hashed : int;  (** hashed inside the SOE *)
  mutable blocks_decrypted : int;
      (** cipher blocks, incl. digests: 8-byte 3DES blocks for the paper
          schemes, 16-byte AES blocks for [Aes_ctr] *)
  mutable digests_decrypted : int;
  mutable hashes_verified : int;  (** integrity comparisons that passed *)
  mutable fragment_fetches : int;
  mutable chunk_fetches : int;
  mutable engine_batched_blocks : int;
      (** blocks decrypted through the bitsliced kernel, in runs of at
          least {!Xmlac_crypto.Modes.batch_threshold} blocks (0 under
          AES-CTR); deterministic like all other counters, because
          batching depends only on run lengths *)
  mutable engine_merkle_groups : int;
      (** chunk-grouped Merkle recombinations: one per chunk with extended
          fragments in a window (ECB-MHT only) *)
  mutable verify_requested : bool;  (** what the caller asked for *)
  mutable verify_active : bool;
      (** what actually ran: [false] under ECB even when requested, since
          the scheme carries no digests — the downgrade is recorded here
          (and in the remote handshake) instead of happening silently *)
  cache : Lru.stats;
      (** hit/miss/evicted across the session's SOE caches (fragment,
          chunk, digest); deterministic, so gate-checked like the byte
          counters *)
  crypto_hist : Xmlac_obs.Histogram.t;
      (** wall-time of each decrypt+verify unit — a chunk fetch or a
          fragment suffix extension; the ["wall_crypto_*"] metrics are
          exempt from perf gating *)
}

val fresh_counters : unit -> counters

val metrics : counters -> Xmlac_obs.Metrics.t
(** Snapshot as named metrics (for [--stats] summaries and bench records),
    including the [wall_crypto] histogram and the [verify_requested] /
    [verify_active] flags as 0/1 gauges.

    When a {!Xmlac_obs.Trace} sink is installed, the channel also emits a
    [prov.chunk] event for every integrity comparison (Merkle root or
    chunk digest), carrying the verdict — the chunk records of the
    provenance trace. *)

val cache_metrics : counters -> Xmlac_obs.Metrics.t
(** The {!Lru.stats} snapshot as [hits] / [misses] / [evicted] metrics
    (emitted by sessions under a ["cache."] prefix). *)

type slice = { s_data : string; s_off : int }
(** A served byte range as a view into a larger buffer: the bytes start at
    [s_off] in [s_data]. Lets the in-process terminal serve fragment ranges
    without copying; the channel validates that enough bytes follow
    [s_off] before trusting the view. *)

type fetch_req =
  | Fetch_fragment of { chunk : int; fragment : int; lo : int; hi : int }
  | Fetch_chunk of { chunk : int }
  | Fetch_digest of { chunk : int }
  | Fetch_hash_state of { chunk : int; fragment : int; upto : int }
  | Fetch_siblings of { chunk : int; fragment : int }
      (** A fetch the channel can coalesce into a batched round trip;
          mirrors the individual operations below. *)

type fetch_reply = Bytes_reply of string | List_reply of string list

type terminal = {
  t_container : Xmlac_crypto.Secure_container.t;
      (** for the local terminal, the full container; for a remote one, the
          header-only geometry from the (validated) handshake *)
  fetch_fragment : chunk:int -> fragment:int -> lo:int -> hi:int -> slice;
      (** ciphertext bytes [\[lo, hi)] of one fragment, as a {!slice} view *)
  fetch_chunk : chunk:int -> string;  (** whole-chunk ciphertext *)
  fetch_digest : chunk:int -> string;  (** the encrypted digest blob *)
  fetch_hash_state : chunk:int -> fragment:int -> upto:int -> string;
      (** serialized SHA-1 state after the leaf ids and cipher [\[0, upto)] *)
  fetch_siblings : chunk:int -> fragment:int -> string list;
      (** Merkle sibling digests for a one-leaf cover, in
          {!Xmlac_crypto.Merkle.sibling_cover} order *)
  fetch_many : (fetch_req list -> fetch_reply list) option;
      (** several fetches answered in one round trip, replies in request
          order; [None] when the terminal has no round trip to save (the
          in-process terminal). The channel passes one window's fetches:
          two or more, and at most 64 (16 units of at most four). *)
}
(** What the SOE asks of a terminal. Nothing a terminal returns is trusted:
    the channel validates every length and verifies cryptographically
    before use, so a hostile implementation can cause at most a typed
    failure. *)

val local_terminal : Xmlac_crypto.Secure_container.t -> terminal
(** The in-process terminal: serves the container directly (fragment reads
    are zero-copy {!slice} views into chunk ciphertext) and reads sibling
    digests out of the container's per-chunk node tables
    ({!Xmlac_crypto.Secure_container.chunk_tree}). It keeps no state of
    its own: a table is built on the first request for its chunk, or was
    kept by [encrypt] or carried from the previous generation, and every
    terminal on the same container value reuses it — a terminal is an
    ordinary computer and caches freely. Fills write the container, so a
    container shared across domains needs its tables filled on one domain
    at a time. [fetch_many] is [None] — there is no round trip to save. *)

val frag_cache_capacity : int
(** Fragments the SOE-side fragment cache holds: 8, about a 2 KB working
    set, the paper's smart-card scale. The CBC schemes' chunk cache holds
    one decrypted chunk, the paper's model of chunk-at-a-time CBC. *)

val source_of_terminal :
  ?verify:bool ->
  ?engine:Xmlac_crypto.Engine.t ->
  terminal:terminal ->
  key:Xmlac_crypto.Des.Triple.key ->
  counters ->
  Xmlac_skip_index.Decoder.source
(** A byte source over the terminal's decrypted payload. [verify] defaults
    to true (forced to false for the ECB scheme, which carries no digests —
    recorded in [counters.verify_active]). [engine] is ignored: it stays
    only for the end-to-end benchmark's call.

    Block runs at or above {!Xmlac_crypto.Modes.batch_threshold} decrypt
    through the bitsliced DES kernel ({!Xmlac_crypto.Modes.of_triple_des_fast});
    shorter runs take its scalar path. Under ECB-MHT each window verifies
    one Merkle root per chunk it extends, over all of that chunk's extended
    fragments ({!Xmlac_crypto.Merkle.root_from_group}), so a mismatch is
    attributed to the first extended fragment of the failing chunk's
    window group rather than the precise fragment.

    The source is poisoned by the first exception that escapes a read —
    an [Integrity_failure], or a fetch the terminal failed: every later
    read re-raises it, so nothing the failed window left cached is ever
    served. A failed verification aborts the session; it is not a
    recoverable read error.

    Scheme behaviours:
    - ECB: fetch + decrypt only the 8-byte-aligned blocks covering a read;
    - ECB-MHT: fetch + decrypt covering fragments; verify each against the
      chunk's Merkle root using terminal-supplied sibling digests;
    - CBC-SHAC: fetch a whole chunk's ciphertext once, hash it inside the
      SOE against the decrypted digest, then decrypt only requested blocks;
    - CBC-SHA: fetch and decrypt a whole chunk, then hash its plaintext;
    - AES-CTR: like CBC-SHA on the fetch side (whole-chunk units) with a
      SHA-256 ciphertext digest and 16-byte cipher blocks. *)

val source :
  ?verify:bool ->
  container:Xmlac_crypto.Secure_container.t ->
  key:Xmlac_crypto.Des.Triple.key ->
  counters ->
  Xmlac_skip_index.Decoder.source
(** [source_of_terminal] over [local_terminal container]. *)
