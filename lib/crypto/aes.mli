(** AES-128 (FIPS 197) in CTR mode — the block cipher behind the fifth
    container scheme (AES-CTR + SHA-256). Encryption only: CTR uses the
    forward cipher in both directions, and the keystream is addressed by
    absolute byte offset so decryption has the same byte-granular random
    access the positional DES modes give the SOE. Pinned by the FIPS-197
    known-answer vector in the test suite. *)

val block_size : int
(** 16 bytes. *)

type key
(** Expanded 11-round key schedule. Immutable once built: safe to share
    across domains. *)

val expand : string -> key
(** [expand k] expands a 16-byte key.
    @raise Invalid_argument if [k] is not 16 bytes. *)

val encrypt_block : key -> string -> string
(** Single-block ECB encryption of exactly 16 bytes (used by the FIPS-197
    known-answer test; CTR traffic goes through {!ctr_xor_into}). *)

val ctr_xor_into :
  key ->
  nonce:string ->
  src:string ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  len:int ->
  stream_pos:int ->
  unit
(** XOR [len] bytes of [src] with the CTR keystream starting at absolute
    keystream byte offset [stream_pos] (counter block i = 8-byte [nonce]
    ‖ 64-bit big-endian i). Encryption and decryption are the same
    operation. @raise Invalid_argument on a bad range or an 8-byte nonce
    violation. *)

val ctr_transform : key -> nonce:string -> stream_pos:int -> string -> string
(** Allocating convenience wrapper over {!ctr_xor_into}. *)
