module C = Xmlac_crypto.Secure_container
module Sha1 = Xmlac_crypto.Sha1
module Des = Xmlac_crypto.Des

type t = {
  master : string;
  mutable container : C.t;
  mutable payload : string;
  mutable revoked : string list; (* oldest first *)
}

let be64 v =
  String.init 8 (fun i -> Char.chr ((v lsr (8 * (7 - i))) land 0xFF))

(* Epoch keys are derived, not stored: two domain-separated SHA-1 outputs
   give 40 bytes, of which the first 24 form the Triple-DES key
   (k1 || k2 || k3). *)
let epoch_key_bytes ~master ~epoch =
  let half tag = Sha1.digest (master ^ be64 epoch ^ tag) in
  String.sub (half "\001" ^ half "\002") 0 24

let key_for master epoch =
  Des.Triple.key_of_string (epoch_key_bytes ~master ~epoch)

let create ?chunk_size ?fragment_size ~scheme ~master payload =
  if master = "" then invalid_arg "Publisher.create: empty master secret";
  let container =
    C.encrypt ?chunk_size ?fragment_size ~scheme ~key:(key_for master 0)
      payload
  in
  { master; container; payload; revoked = [] }

let container t = t.container
let payload t = t.payload
let generation t = C.generation t.container
let epoch t = C.key_epoch t.container
let revoked t = t.revoked
let key t = key_for t.master (epoch t)

let update t ~payload =
  let from_gen = generation t in
  let container, rewritten =
    C.reencrypt t.container ~key:(key t) ~old_payload:t.payload ~payload
  in
  t.container <- container;
  t.payload <- payload;
  (Delta.of_container ~from_gen ~revoked:t.revoked container, rewritten)

let rotate t ~revoke =
  let from_gen = generation t in
  let next_epoch = epoch t + 1 in
  (* a rotation rewrites everything: every chunk's ciphertext now depends
     on the new epoch's key, so the delta necessarily has full coverage *)
  let container =
    C.encrypt ~chunk_size:(C.chunk_size t.container)
      ~fragment_size:(C.fragment_size t.container)
      ~generation:(from_gen + 1) ~key_epoch:next_epoch
      ~scheme:(C.scheme t.container)
      ~key:(key_for t.master next_epoch)
      t.payload
  in
  t.container <- container;
  t.revoked <- t.revoked @ List.filter (fun s -> s <> "") revoke;
  Delta.of_container ~from_gen ~revoked:t.revoked container
