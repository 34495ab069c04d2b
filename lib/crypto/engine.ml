(* Every SOE session decrypts through the bitsliced kernel and verifies
   Merkle roots in chunk groups; there is no second path to select. The
   type stays only for the end-to-end benchmark's
   [Channel.source_of_terminal ~engine:Fast] call, which the channel
   ignores. *)

type t = Fast
