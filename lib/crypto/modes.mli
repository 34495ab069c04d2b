(** Block-cipher modes of operation used by the paper (Appendix A):

    - plain ECB — leaks equal blocks, kept as the insecure baseline;
    - CBC — the classic alternative, penalizing random access;
    - positional ECB — the paper's scheme: each 8-byte block is XORed with
      its absolute position in the document before ECB encryption, so equal
      plaintexts yield different ciphertexts while any block remains
      independently decryptable. *)

type cipher = {
  encrypt : int64 -> int64;
  decrypt : int64 -> int64;
  decrypt_blocks :
    (src:string ->
    src_pos:int ->
    dst:Bytes.t ->
    dst_pos:int ->
    nblocks:int ->
    unit)
    option;
      (** Optional batched raw-ECB-direction decrypt kernel. When present,
          the [_into] decrypt functions hand whole runs of blocks to it in
          one call and apply the mode XOR (CBC chaining, positional masks)
          as a bytewise second pass — this is how the bitsliced DES kernel
          plugs in without the modes knowing about lanes. *)
  encrypt_blocks : (Bytes.t -> pos:int -> nblocks:int -> unit) option;
      (** Its encrypting twin, in place: {!positional_encrypt_in_place}
          applies the positional masks first, then hands the run to it. *)
}

val of_triple_des : Des.Triple.key -> cipher

val of_triple_des_fast : Des.Triple.key -> cipher
(** The cipher every SOE session decrypts with: {!of_triple_des} plus the
    bitsliced batch kernel ({!Bitslice_des}) for decrypt runs of at least
    {!batch_threshold} blocks; shorter runs and encryption stay on the
    scalar path. Byte-for-byte interchangeable with {!of_triple_des},
    which the kernel differential in the test suite uses as its
    oracle. *)

val of_triple_des_fast_encrypt : Des.Triple.key -> cipher
(** The publisher's cipher: {!of_triple_des} plus the same kernel under an
    EDE-encrypt schedule, for long runs of {!positional_encrypt_in_place};
    short runs, CBC encryption (whose chaining is serial) and every
    decryption stay on the scalar path. Byte-for-byte interchangeable with
    {!of_triple_des}. *)

val batch_threshold : int
(** Minimum run length (in blocks) at which the [_into] decryptors and
    {!positional_encrypt_in_place} hand a run to the batch kernel instead
    of the scalar loop — the kernel's break-even point. Exposed so callers
    can account batched work deterministically. *)

val ecb_encrypt : cipher -> string -> string
(** @raise Invalid_argument if the length is not a multiple of 8. *)

val ecb_decrypt : cipher -> string -> string

val cbc_encrypt : cipher -> iv:int64 -> string -> string
val cbc_decrypt : cipher -> iv:int64 -> string -> string

val positional_encrypt : cipher -> base:int -> string -> string
(** [base] is the absolute byte offset of the buffer's first byte in the
    document; it must be 8-byte aligned. *)

val positional_encrypt_in_place :
  cipher -> base:int -> Bytes.t -> pos:int -> len:int -> unit
(** Encrypt [len] bytes of plaintext at [pos] in place; [base] is the
    absolute document offset of [buf.[pos]] and must be 8-byte aligned,
    [len] a multiple of 8. Runs of at least {!batch_threshold} blocks go
    through the cipher's [encrypt_blocks] kernel when it has one.
    @raise Invalid_argument on misalignment or an out-of-bounds range. *)

val cbc_encrypt_into :
  cipher ->
  iv:int64 ->
  src:string ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  len:int ->
  unit
(** {!cbc_encrypt} of [len] bytes of [src] at [src_pos] straight into
    [dst], scalar (each block chains on the previous ciphertext). *)

val positional_decrypt : cipher -> base:int -> string -> string

val positional_decrypt_sub :
  cipher -> base:int -> string -> pos:int -> len:int -> string
(** Decrypt [len] bytes at [pos] inside a ciphertext buffer whose first byte
    has absolute offset [base]; [pos] and [len] must be 8-byte aligned —
    this is the random access the positional scheme enables. *)

val ecb_decrypt_into :
  cipher ->
  src:string ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  len:int ->
  unit
(** Decrypt [len] bytes of [src] at [src_pos] straight into [dst] at
    [dst_pos], with no intermediate allocation. [len] must be a multiple
    of 8. [src] and [dst] must not be the same buffer (the batched path
    reads [src] after writing [dst]).
    @raise Invalid_argument on misalignment, an out-of-bounds range, or
    an aliased [src]/[dst]. *)

val cbc_decrypt_into :
  cipher ->
  iv:int64 ->
  src:string ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  len:int ->
  unit
(** CBC counterpart of {!ecb_decrypt_into}. [src_pos] must be 8-byte
    aligned within the chunk ciphertext: the chaining value for the first
    block is [iv] when [src_pos = 0] and the previous cipher block (read
    from [src] at [src_pos - 8]) otherwise, so a chunk can be decrypted in
    independent slices. *)

val positional_decrypt_into :
  cipher ->
  base:int ->
  src:string ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  len:int ->
  unit
(** Positional counterpart of {!ecb_decrypt_into}. [base] is the absolute
    document offset of [src.[src_pos]] (not of the buffer start) and must
    be 8-byte aligned. *)

val pad : string -> string
(** ISO/IEC 7816-4: append 0x80 then zeros up to a multiple of 8 (always
    appends at least one byte). *)

val unpad : string -> string
(** @raise Invalid_argument on malformed padding. *)
