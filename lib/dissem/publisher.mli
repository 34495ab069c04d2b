(** The publisher's side of dissemination: the long-lived state behind one
    published document — the current container, the plaintext payload it
    encrypts, the master secret the per-epoch document keys derive from,
    and the cumulative revocation list.

    Keys are {e derived}, never stored per epoch: epoch [e]'s Triple-DES
    key is the first 24 bytes of
    [SHA1(master || be64 e || "\001") || SHA1(master || be64 e || "\002")],
    so rotating is just bumping the epoch — old keys remain recomputable
    for audit but are never handed out again, and a license minted for an
    old epoch cannot decrypt material rewritten after the rotation.

    {!update} is the incremental-republication path: only chunks whose
    padded plaintext changed are re-encrypted
    ({!Xmlac_crypto.Secure_container.reencrypt}), and the returned
    {!Delta.t} bridges exactly one generation. {!rotate} is the revocation
    path: a full re-encryption under the next epoch's key, with the newly
    revoked subjects appended to the cumulative list carried by every
    subsequent delta. *)

module C = Xmlac_crypto.Secure_container

type t

val create :
  ?chunk_size:int ->
  ?fragment_size:int ->
  scheme:C.scheme ->
  master:string ->
  string ->
  t
(** [create ~scheme ~master payload] publishes [payload] at generation 0,
    key epoch 0. [master] is the publisher's secret (any non-empty
    string); chunk/fragment sizes as in
    {!Xmlac_crypto.Secure_container.encrypt}.
    @raise Invalid_argument on an empty master secret. *)

val update : t -> payload:string -> Delta.t * int list
(** Republish with a new payload: re-encrypts only the dirty chunks,
    bumps the generation, and returns the one-generation delta plus the
    sorted list of chunks actually rewritten (what
    [Skip_index.Update.cost.chunks_dirty] predicts). *)

val rotate : t -> revoke:string list -> Delta.t
(** Rotate the document key: bump the epoch, re-encrypt {e every} chunk of
    the current payload under the new epoch's key, append [revoke] to the
    cumulative revocation list, and return the (full-coverage) delta.
    Licenses of earlier epochs can no longer decrypt anything written
    after this point. *)

val container : t -> C.t
val payload : t -> string
val generation : t -> int
val epoch : t -> int

val revoked : t -> string list
(** Cumulative revocation list, oldest first. *)

val key : t -> Xmlac_crypto.Des.Triple.key
(** The current epoch's document key (for local decryption / licensing). *)

val epoch_key_bytes : master:string -> epoch:int -> string
(** The derivation itself, exposed for tests and for re-minting a license
    against a specific epoch. *)
