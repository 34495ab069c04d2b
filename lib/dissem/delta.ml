module C = Xmlac_crypto.Secure_container

type t = {
  scheme : C.scheme;
  chunk_size : int;
  fragment_size : int;
  from_gen : int;
  to_gen : int;
  key_epoch : int;
  payload_len : int;
  revoked : string list;
  full : (int * int * string * string) list;
  reseals : (int * string) list;
}

let magic = "XDLT1"

(* Decode-time caps: a delta arrives over the wire from an untrusted
   terminal (or is read back from a spool file an untrusted terminal
   wrote), so every count that controls allocation is bounded well above
   any plausible document but far below an allocation bomb. *)
let max_chunk_entries = 1 lsl 22
let max_revoked = 4096
let max_subject = 255

let scheme_byte = function
  | C.Ecb -> 0
  | C.Cbc_sha -> 1
  | C.Cbc_shac -> 2
  | C.Ecb_mht -> 3
  | C.Aes_ctr -> 4

let scheme_of_byte = function
  | 0 -> Some C.Ecb
  | 1 -> Some C.Cbc_sha
  | 2 -> Some C.Cbc_shac
  | 3 -> Some C.Ecb_mht
  | 4 -> Some C.Aes_ctr
  | _ -> None

let chunk_count t = max 1 ((t.payload_len + t.chunk_size - 1) / t.chunk_size)

let of_container ~from_gen ?(revoked = []) c =
  let gen = C.generation c in
  if from_gen < 0 || from_gen > gen then
    invalid_arg
      (Printf.sprintf "Delta.of_container: from_gen %d outside [0, %d]"
         from_gen gen);
  let n = C.chunk_count c in
  if n > 0 && C.chunk_ciphertext c 0 = "" then
    invalid_arg "Delta.of_container: geometry-only container view";
  let digests = C.scheme c <> C.Ecb in
  let full = ref [] and reseals = ref [] in
  for i = n - 1 downto 0 do
    let v = C.chunk_version c i in
    if v > from_gen then
      full :=
        (i, v, C.chunk_ciphertext c i, C.encrypted_digest c i) :: !full
    else if digests then
      (* the digest binds the payload length, which usually moves with an
         update: always reissue clean-chunk seals so the receiver never
         holds a digest for a geometry it no longer has *)
      reseals := (i, C.encrypted_digest c i) :: !reseals
  done;
  {
    scheme = C.scheme c;
    chunk_size = C.chunk_size c;
    fragment_size = C.fragment_size c;
    from_gen;
    to_gen = gen;
    key_epoch = C.key_epoch c;
    payload_len = C.payload_length c;
    revoked;
    full = !full;
    reseals = !reseals;
  }

let be_bytes value width =
  String.init width (fun i ->
      Char.chr ((value lsr (8 * (width - 1 - i))) land 0xFF))

let encode t =
  let b = Buffer.create (4096 + (List.length t.full * (t.chunk_size + 40))) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr (scheme_byte t.scheme));
  Buffer.add_string b (be_bytes t.chunk_size 4);
  Buffer.add_string b (be_bytes t.fragment_size 4);
  Buffer.add_string b (be_bytes t.from_gen 8);
  Buffer.add_string b (be_bytes t.to_gen 8);
  Buffer.add_string b (be_bytes t.key_epoch 2);
  Buffer.add_string b (be_bytes t.payload_len 8);
  Buffer.add_string b (be_bytes (List.length t.revoked) 2);
  List.iter
    (fun s ->
      Buffer.add_string b (be_bytes (String.length s) 2);
      Buffer.add_string b s)
    t.revoked;
  Buffer.add_string b (be_bytes (List.length t.full) 4);
  List.iter
    (fun (i, version, cipher, digest) ->
      Buffer.add_string b (be_bytes i 4);
      Buffer.add_string b (be_bytes version 8);
      Buffer.add_string b cipher;
      Buffer.add_string b digest)
    t.full;
  Buffer.add_string b (be_bytes (List.length t.reseals) 4);
  List.iter
    (fun (i, digest) ->
      Buffer.add_string b (be_bytes i 4);
      Buffer.add_string b digest)
    t.reseals;
  Buffer.contents b

let wire_bytes t = String.length (encode t)

let decode s =
  let exception Reject of string in
  let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt in
  let pos = ref 0 in
  let need n =
    if n < 0 || !pos + n > String.length s then reject "truncated delta"
  in
  let u width =
    need width;
    let v = ref 0 in
    for i = !pos to !pos + width - 1 do
      v := (!v lsl 8) lor Char.code s.[i]
    done;
    pos := !pos + width;
    !v
  in
  let str n =
    need n;
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  try
    if str (String.length magic) <> magic then reject "bad delta magic";
    let scheme =
      match scheme_of_byte (u 1) with
      | Some sc -> sc
      | None -> reject "bad scheme byte"
    in
    let chunk_size = u 4 in
    let fragment_size = u 4 in
    let from_gen = u 8 in
    let to_gen = u 8 in
    let key_epoch = u 2 in
    let payload_len = u 8 in
    if chunk_size <= 0 || fragment_size <= 0 then reject "bad sizes";
    if payload_len < 0 || from_gen < 0 || to_gen < 0 then
      reject "negative field";
    if to_gen <= from_gen then reject "non-forward generation span";
    let blob = C.digest_blob_size_for scheme in
    let nrevoked = u 2 in
    if nrevoked > max_revoked then reject "implausible revocation count";
    let revoked =
      List.init nrevoked (fun _ ->
          let len = u 2 in
          if len > max_subject then reject "implausible subject length";
          str len)
    in
    let nfull = u 4 in
    if
      nfull > max_chunk_entries
      || nfull * (4 + 8 + chunk_size + blob) > String.length s - !pos
    then reject "implausible full-entry count";
    let full =
      List.init nfull (fun _ ->
          let i = u 4 in
          let version = u 8 in
          let cipher = str chunk_size in
          let digest = str blob in
          (i, version, cipher, digest))
    in
    let nreseals = u 4 in
    if
      nreseals > max_chunk_entries
      || nreseals * (4 + blob) > String.length s - !pos
    then reject "implausible reseal count";
    let reseals =
      List.init nreseals (fun _ ->
          let i = u 4 in
          let digest = str blob in
          (i, digest))
    in
    if !pos <> String.length s then reject "trailing bytes after delta";
    Ok
      {
        scheme;
        chunk_size;
        fragment_size;
        from_gen;
        to_gen;
        key_epoch;
        payload_len;
        revoked;
        full;
        reseals;
      }
  with Reject msg -> Error msg

let apply c t =
  if C.scheme c <> t.scheme then Error "delta scheme mismatch"
  else if C.chunk_size c <> t.chunk_size || C.fragment_size c <> t.fragment_size
  then Error "delta geometry mismatch"
  else if C.generation c <> t.from_gen then
    Error
      (Printf.sprintf "delta bridges generation %d but container holds %d"
         t.from_gen (C.generation c))
  else if t.to_gen <= t.from_gen then Error "non-forward generation span"
  else
    match
      List.find_opt (fun (_, v, _, _) -> v <= t.from_gen || v > t.to_gen) t.full
    with
    | Some (i, v, _, _) ->
        (* a delta carries only chunks rewritten inside its span: an older
           version would rewind the receiver's chunk *)
        Error
          (Printf.sprintf "chunk %d version %d outside the span (%d, %d]" i v
             t.from_gen t.to_gen)
    | None when t.key_epoch <> C.key_epoch c ->
        (* a key rotation re-encrypts the whole document: accepting a
           partial epoch-crossing delta would splice ciphertext of two
           different keys into one container *)
        let n = chunk_count t in
        let covered = Array.make n false in
        List.iter
          (fun (i, _, _, _) -> if i >= 0 && i < n then covered.(i) <- true)
          t.full;
        if Array.for_all Fun.id covered then
          C.patch c ~payload_length:t.payload_len ~generation:t.to_gen
            ~key_epoch:t.key_epoch ~full:t.full ~reseals:t.reseals
        else Error "key-epoch change without full chunk coverage"
    | None ->
        C.patch c ~payload_length:t.payload_len ~generation:t.to_gen
          ~key_epoch:t.key_epoch ~full:t.full ~reseals:t.reseals
