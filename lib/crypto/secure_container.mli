(** The encrypted document container (paper Section 6 and Appendix A).

    A payload (here: a skip-index-encoded XML document) is split into
    {e chunks} (default 2 KB), divided into {e fragments} (default 256 B),
    themselves made of 8-byte cipher {e blocks}. Four schemes are compared
    in the paper's Figure 11, plus one modern addition:

    - [Ecb]: positional-ECB encryption, no integrity (confidentiality only);
    - [Cbc_sha]: CBC per chunk + SHA-1 digest of the {e plaintext} chunk —
      verifying any byte forces the SOE to fetch and decrypt the whole chunk;
    - [Cbc_shac]: CBC + SHA-1 digest of the {e ciphertext} chunk — the SOE
      hashes ciphertext from the accessed position to the chunk end, the
      terminal supplying the intermediate hash state of the prefix;
    - [Ecb_mht]: the paper's scheme — positional ECB + a Merkle hash tree
      over ciphertext fragments, allowing verified random access at
      fragment granularity;
    - [Aes_ctr]: AES-128-CTR + SHA-256 ciphertext digest — the post-paper
      scheme proving the stack is scheme-agnostic end to end. The keystream
      is addressed by absolute document offset (byte-granular random
      access, like positional ECB without the alignment rules), the chunk
      digest is SHA-256 over ciphertext, and its 32-byte blob is
      CTR-encrypted in the same disjoint position space the DES schemes
      use. Key material is derived from the container's 24-byte key, so
      licenses and rotation stay cipher-blind.

    Chunk digests embed the chunk index, and every digest is encrypted, so
    block/chunk substitutions and tampering are detectable by the SOE. *)

type scheme = Ecb | Cbc_sha | Cbc_shac | Ecb_mht | Aes_ctr

val scheme_to_string : scheme -> string
val scheme_of_string : string -> scheme option
val all_schemes : scheme list

val digest_blob_size_for : scheme -> int
(** Encrypted digest blob size as serialized and sent over the wire: 0 for
    [Ecb], 24 (SHA-1 padded to DES blocks) for the paper schemes, 32 for
    [Aes_ctr] (CTR needs no padding). *)

type t

val chunk_size : t -> int
val fragment_size : t -> int
val fragments_per_chunk : t -> int
val scheme : t -> scheme
val payload_length : t -> int
(** Length of the original plaintext payload in bytes. *)

val chunk_count : t -> int
val ciphertext_bytes : t -> int
(** Total encrypted payload size (excludes digests). *)

val generation : t -> int
(** Publication generation: 0 for a freshly encrypted container, bumped by
    one per (incremental) republication. A generation-0, epoch-0 container
    serializes in the original [XACR1] layout; anything else as [XACR2]. *)

val key_epoch : t -> int
(** Document-key epoch: bumped on key rotation (revocation). Licenses carry
    the epoch their key belongs to; a pre-rotation license fails typed. *)

val chunk_version : t -> int -> int
(** The generation at which chunk [i] was last rewritten ([<= generation]).
    The per-chunk version vector is what lets a server compute the delta
    against any older generation from the current container alone. *)

val digest_bytes : t -> int
(** Total size of the (encrypted) chunk digests. *)

val encrypt :
  ?chunk_size:int ->
  ?fragment_size:int ->
  ?generation:int ->
  ?key_epoch:int ->
  scheme:scheme ->
  key:Des.Triple.key ->
  string ->
  t
(** Build a container. [chunk_size] (default 2048) must be a multiple of
    [fragment_size] (default 256) with a power-of-two ratio; both must be
    multiples of 8. [generation] and [key_epoch] default to 0 (a pristine
    publication); a key rotation republishes with both bumped.

    Positional-ECB payloads (ECB, ECB-MHT) are encrypted run by run in the
    position space through the bitsliced kernel
    ({!Modes.of_triple_des_fast_encrypt}), so consecutive chunks share
    full 63-block passes; the digest blobs of a run are encrypted together
    in the same way. The bytes equal those of the scalar cipher. CBC stays
    scalar (its chaining is serial), and AES-CTR needs no DES. *)

val reencrypt :
  t ->
  key:Des.Triple.key ->
  old_payload:string ->
  payload:string ->
  t * int list
(** Incremental republication: produce the container of [payload] at
    generation [generation t + 1], re-encrypting {e only} the chunks whose
    padded plaintext differs from [old_payload]'s at the same absolute
    position (plus appended chunks, plus the last surviving chunk on a
    shrink) — the same rule [Skip_index.Update] uses to predict
    [chunks_to_reencrypt]. Unchanged chunks physically reuse the old
    ciphertext strings and node tables ({!chunk_tree}): under ECB-MHT a
    reseal recomputes no fragment hash, and the new container's terminals
    start with the old one's tables. Returns the new container and the
    sorted rewritten-chunk list. When the payload length changes, clean
    chunks are resealed (digest-only rewrite) because every digest binds
    the header geometry. Dirty chunks are found in one pass over both
    payloads, and runs of consecutive dirty chunks are encrypted as in
    {!encrypt}. @raise Invalid_argument if [old_payload] does not match
    [payload_length t], or on a ciphertext-less geometry view. *)

val to_bytes : t -> string
(** Serialized container (header + chunks), as stored on the server /
    untrusted terminal. Generation-0, epoch-0 containers serialize as
    [XACR1] (byte-compatible with pre-versioning builds); versioned state
    promotes the stream to [XACR2] (generation + key epoch in the header,
    a version word before every chunk). *)

val of_bytes : string -> t
(** Parse a serialized container without verifying anything (the terminal
    side). Reads both [XACR1] and [XACR2]. @raise Corrupt on malformed
    headers — including oversized or negative (integer-overflowed) payload
    lengths, which would otherwise surface as out-of-bounds accesses
    during decryption. A well-formed magic from a {e newer} writer
    ([XACR3]..[XACR9]) fails with the distinct, actionable
    ["unsupported container version ..."] rather than ["bad magic"]. *)

val of_bytes_result : string -> (t, string) result
(** {!of_bytes} as a [result]; never raises. *)

val geometry :
  ?generation:int ->
  ?key_epoch:int ->
  scheme:scheme ->
  chunk_size:int ->
  fragment_size:int ->
  payload_length:int ->
  chunk_count:int ->
  unit ->
  (t, string) result
(** A header-only container view for the SOE end of a remote session: the
    geometry an untrusted terminal advertises in its wire handshake,
    validated with the same rules as {!of_bytes} (plus plausibility caps on
    the allocation-controlling [chunk_count]). The value carries no
    ciphertext — payload bytes only ever reach the SOE through the wire,
    via {!decrypt_digest_blob} and {!decrypt_chunk_cipher}. *)

val patch :
  t ->
  payload_length:int ->
  generation:int ->
  key_epoch:int ->
  full:(int * int * string * string) list ->
  reseals:(int * string) list ->
  (t, string) result
(** Keyless republication (the terminal/mirror side of delta sync): graft
    [full] entries [(chunk, version, ciphertext, encrypted digest)] and
    [reseals] [(chunk, encrypted digest)] onto [t], extending or
    truncating to [payload_length]'s geometry and moving to [generation] /
    [key_epoch]. Chunks not named keep their ciphertext, digest and
    version, and a kept chunk keeps its node table ({!chunk_tree}); a
    grafted chunk starts without one. Structural rules are re-validated
    (sizes, hole-freedom, monotone generation/epoch, versions bounded by
    [generation]), so a hostile delta yields [Error], never an
    inconsistent container; content authenticity stays with the SOE's
    digest checks. *)

(** {2 Terminal-side accessors (no secrets involved)} *)

val chunk_ciphertext : t -> int -> string
(** Encrypted payload of a chunk (without its digest). The last chunk is
    padded to a whole number of fragments. *)

val encrypted_digest : t -> int -> string
(** The encrypted digest blob of a chunk ("" for [Ecb]). *)

val fragment_ciphertext : t -> chunk:int -> fragment:int -> string

val chunk_tree : t -> int -> string array
(** The Merkle node table of chunk [i] ({!Merkle.tree} over its fragment
    leaf hashes), which a terminal reads sibling digests from
    ({!Merkle.siblings}). Tables are never serialized: {!encrypt} and
    {!reencrypt} keep the tables they hash under ECB-MHT, {!reencrypt} and
    {!patch} carry the table of every chunk whose ciphertext they keep
    (a leaf hash binds the chunk index, the fragment index and the
    ciphertext, not the header), and {!patch} and {!substitute_block} drop
    the table of every chunk they replace. A parsed or grafted chunk's
    table is built here on first use and kept in the container value, so
    every terminal on that value, and the next generation's unchanged
    chunks, share one hashing. A fill writes the container: when one
    container value is shared across domains, every read and fill of its
    tables takes one lock (the wire server's tree lock). The table is
    shared and must not be mutated. *)

val has_chunk_tree : t -> int -> bool
(** Whether the container already holds chunk [i]'s node table, so that
    {!chunk_tree} is a lookup rather than a build. Read under the same
    lock as {!chunk_tree} when the container is shared across domains. *)

val hash_state : t -> chunk:int -> fragment:int -> upto:int -> string
(** The serialized SHA-1 state ({!Sha1.export_state}) after the first
    [upto] ciphertext bytes of a fragment's leaf hash — what a terminal
    answers a hash-state request with. Feeding the rest of the fragment
    and finalizing yields the fragment's leaf digest. Terminal-side: no
    secrets involved. *)

val substitute_block : t -> chunk:int -> block:int -> string -> t
(** Tamper helper for tests: replace one 8-byte ciphertext block (the
    chunk's node table is dropped with its old ciphertext). *)

(** {2 SOE-side primitives (hold the key)} *)

val decrypt_digest : t -> key:Des.Triple.key -> int -> string
(** Decrypt the chunk digest of chunk [i]: 20 bytes (SHA-1) under the
    digest-bearing DES schemes, 32 (SHA-256) under [Aes_ctr]. *)

val decrypt_digest_blob :
  scheme:scheme -> key:Des.Triple.key -> chunk:int -> string -> string
(** Like {!decrypt_digest}, but taking the encrypted blob itself (as served
    by a remote terminal). @raise Integrity_failure if the blob is not
    exactly [digest_blob_size_for scheme] bytes. *)

val expected_digest_of_plain : t -> chunk:int -> plain:string -> string
val expected_digest_of_cipher : t -> chunk:int -> cipher:string -> string
val fragment_leaf_hash_sub :
  t -> chunk:int -> fragment:int -> cipher:string -> pos:int -> len:int -> string
(** A fragment's Merkle leaf hash — over its chunk and fragment ids and
    its ciphertext — read at [\[pos, pos + len)] of a larger ciphertext
    buffer (typically the whole chunk), so callers iterating a chunk's
    fragments need not cut per-fragment copies. *)

val seal_root : t -> chunk:int -> root:string -> string
(** The stored ECB-MHT chunk digest: the Merkle root hashed together with
    the container geometry (scheme, chunk/fragment sizes, payload length),
    so header tampering is detected like payload tampering. *)

val decrypt_chunk_cipher :
  ?ctx:Modes.cipher ->
  t ->
  key:Des.Triple.key ->
  chunk:int ->
  cipher:string ->
  string
(** Decrypt a full chunk's payload (positional ECB or CBC according to the
    scheme) from the chunk ciphertext itself (as served by a remote
    terminal); the caller strips padding via {!payload_length}.
    @raise Integrity_failure if [cipher] is not exactly [chunk_size t]
    bytes. *)

val decrypt_chunk_cipher_into :
  ?ctx:Modes.cipher ->
  t ->
  key:Des.Triple.key ->
  chunk:int ->
  cipher:string ->
  dst:Bytes.t ->
  unit
(** In-place variant of {!decrypt_chunk_cipher}: decrypts the whole chunk
    into the first [chunk_size t] bytes of [dst] without allocating a
    result string, so a session can reuse one plaintext buffer per chunk.
    The optional [?ctx] cipher context (for the DES-block schemes) lets a
    session pass the cipher it built once — the bitsliced
    {!Modes.of_triple_des_fast} — instead of a scalar one per chunk; it
    must wrap the same [key].
    @raise Invalid_argument if [dst] is smaller than [chunk_size t]. *)

val decrypt_fragment :
  t -> key:Des.Triple.key -> chunk:int -> fragment:int -> cipher:string -> string
(** Decrypt one fragment given its ciphertext. Only valid for the ECB-based
    schemes (random access); @raise Invalid_argument for CBC schemes. *)

val decrypt_all : t -> key:Des.Triple.key -> verify:bool -> string
(** Whole-document decryption (and digest verification when [verify]);
    returns the payload. @raise Integrity_failure when a digest check
    fails. *)

exception Integrity_failure of string
(** A digest check failed: the container was tampered with (or the wrong
    key was used). A {e typed rejection}, part of the security contract. *)

exception Corrupt of string
(** The container bytes are structurally malformed (parsing-time rejection,
    before any cryptography runs). *)
