(** Bitsliced 3DES: 63 blocks per pass over 63-bit native-int lanes, with
    machine-generated S-box circuits (see gen/). This is the fast engine's
    DES kernel — byte-for-byte equal to {!Des.Triple.decrypt_block} and
    {!Des.Triple.encrypt_block} applied blockwise, differential-tested in
    the test suite. A pass does not depend on the direction: the schedule
    decides it, so the same kernel decrypts on the SOE read side (through
    {!Modes.of_triple_des_fast}) and encrypts on the publisher's write side
    (through {!Modes.of_triple_des_fast_encrypt}). *)

val blocks_per_pass : int
(** 63 — one block per usable native-int lane bit. *)

type schedule
(** Precomputed per-session lane masks (48 rounds x 48 bits, in EDE order
    for one direction). Immutable once built: safe to share across worker
    domains. *)

val decrypt_schedule : Des.Triple.key -> schedule
(** EDE decryption: k3 reversed, k2 forward, k1 reversed. *)

val encrypt_schedule : Des.Triple.key -> schedule
(** EDE encryption: k1 forward, k2 reversed, k3 forward. *)

val crypt_blocks :
  schedule ->
  src:string ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  nblocks:int ->
  unit
(** Raw-ECB [nblocks] 8-byte blocks in the schedule's direction; mode XORs
    (CBC chaining, positional masks) are applied by {!Modes} around it.
    @raise Invalid_argument on an out-of-bounds range. *)

val crypt_blocks_in_place :
  schedule -> Bytes.t -> pos:int -> nblocks:int -> unit
(** {!crypt_blocks} with [buf] as both source and destination. *)
