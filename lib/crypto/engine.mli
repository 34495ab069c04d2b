(** The SOE's one crypto path, as a type. Every session decrypts through
    the bitsliced 3DES kernel ({!Modes.of_triple_des_fast}) and verifies
    Merkle roots once per chunk group ({!Merkle.root_from_group}). This
    type stays only because the end-to-end benchmark passes [~engine:Fast]
    to [Xmlac_soe.Channel.source_of_terminal], which ignores it. *)

type t = Fast
