type scheme = Ecb | Cbc_sha | Cbc_shac | Ecb_mht | Aes_ctr

exception Integrity_failure of string
exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let scheme_to_string = function
  | Ecb -> "ECB"
  | Cbc_sha -> "CBC-SHA"
  | Cbc_shac -> "CBC-SHAC"
  | Ecb_mht -> "ECB-MHT"
  | Aes_ctr -> "AES-CTR"

let scheme_of_string = function
  | "ECB" -> Some Ecb
  | "CBC-SHA" -> Some Cbc_sha
  | "CBC-SHAC" -> Some Cbc_shac
  | "ECB-MHT" -> Some Ecb_mht
  | "AES-CTR" -> Some Aes_ctr
  | _ -> None

let all_schemes = [ Ecb; Cbc_sha; Cbc_shac; Ecb_mht; Aes_ctr ]

let scheme_byte = function
  | Ecb -> 0
  | Cbc_sha -> 1
  | Cbc_shac -> 2
  | Ecb_mht -> 3
  | Aes_ctr -> 4

let scheme_of_byte = function
  | 0 -> Ecb
  | 1 -> Cbc_sha
  | 2 -> Cbc_shac
  | 3 -> Ecb_mht
  | 4 -> Aes_ctr
  | b -> corrupt "unknown scheme byte %d" b

type t = {
  scheme : scheme;
  chunk_size : int;
  fragment_size : int;
  payload_len : int;
  chunks : string array;  (* ciphertext, each exactly chunk_size bytes *)
  digests : string array;  (* encrypted digest blobs, "" for Ecb *)
  generation : int;  (* bumped once per (incremental) republication *)
  key_epoch : int;  (* bumped on document-key rotation *)
  versions : int array;  (* generation at which each chunk was last rewritten *)
  trees : string array array;
      (* per-chunk Merkle node table ({!Merkle.tree} over the chunk's
         fragment leaf hashes; [[||]] until built). Never serialized.
         [encrypt] and [reencrypt] fill it as they hash; [reencrypt] and
         [patch] carry it with the ciphertext they keep, as a leaf hash
         binds the chunk index, the fragment index and the ciphertext,
         never the header; [patch] and [substitute_block] drop it with the
         ciphertext they replace; [chunk_tree] builds a missing one. So a
         publisher reseals a clean chunk with one small hash, and every
         terminal on a container value (and on the generations after it)
         shares one hashing per chunk and reads siblings by lookup. *)
}

let chunk_size t = t.chunk_size
let fragment_size t = t.fragment_size
let fragments_per_chunk t = t.chunk_size / t.fragment_size
let scheme t = t.scheme
let payload_length t = t.payload_len
let chunk_count t = Array.length t.chunks
let ciphertext_bytes t = Array.length t.chunks * t.chunk_size

let digest_bytes t =
  Array.fold_left (fun acc d -> acc + String.length d) 0 t.digests

(* Encrypted digests live in a disjoint position space so their blocks can
   never be confused with payload blocks. *)
let digest_blob_size = 24 (* 20-byte SHA-1 padded to three DES blocks *)

(* Per-scheme digest geometry. The DES schemes carry a SHA-1 digest padded
   to DES blocks; AES-CTR carries a SHA-256 digest raw (CTR needs no block
   alignment). Every size-dependent structure — wire frames, dissemination
   deltas, channel cost counters — derives from this function. *)
let digest_blob_size_for = function
  | Ecb -> 0
  | Cbc_sha | Cbc_shac | Ecb_mht -> digest_blob_size
  | Aes_ctr -> Sha256.digest_size

let digest_position_base scheme chunk =
  (1 lsl 40) + (chunk * digest_blob_size_for scheme)

(* The AES-CTR scheme derives its key material from the container's 3DES
   key so every key-handling surface (licenses, rotation, the XLIC format)
   stays scheme-agnostic: they move 24 bytes of raw material and never
   learn which cipher consumes it. *)
let aes_material key =
  let raw = Des.Triple.bytes key in
  let ak =
    Aes.expand (String.sub (Sha256.digest ("xmlac:aes-ctr:key:" ^ raw)) 0 16)
  in
  let nonce =
    String.sub (Sha256.digest ("xmlac:aes-ctr:nonce:" ^ raw)) 0 8
  in
  (ak, nonce)

let magic = "XACR1"
let magic_v2 = "XACR2"
let header_size = String.length magic + 1 + 4 + 4 + 8

(* v2 adds generation (8) and key epoch (2) to the header, and prefixes every
   chunk with its 8-byte version (the generation that last rewrote it). *)
let header_size_v2 = header_size + 8 + 2

let generation t = t.generation
let key_epoch t = t.key_epoch
let chunk_version t i = t.versions.(i)

let be_bytes value width =
  String.init width (fun i -> Char.chr ((value lsr (8 * (width - 1 - i))) land 0xFF))

let be_value s pos width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* Every digest binds the container geometry, so header tampering (e.g.
   truncating the payload length) is detected like any other corruption. *)
let header_tag t =
  be_bytes (scheme_byte t.scheme) 1
  ^ be_bytes t.chunk_size 4 ^ be_bytes t.fragment_size 4
  ^ be_bytes t.payload_len 8

let chunk_digest_sub t ~chunk data ~pos ~len =
  (* fed incrementally: concatenating would copy the whole chunk per digest *)
  match t.scheme with
  | Aes_ctr ->
      let ctx = Sha256.init () in
      Sha256.feed ctx (header_tag t);
      Sha256.feed ctx (be_bytes chunk 8);
      Sha256.feed_sub ctx data ~pos ~len;
      Sha256.finalize ctx
  | _ ->
      let ctx = Sha1.init () in
      Sha1.feed ctx (header_tag t);
      Sha1.feed ctx (be_bytes chunk 8);
      Sha1.feed_sub ctx data ~pos ~len;
      Sha1.finalize ctx

let chunk_payload_digest t ~chunk ~data =
  chunk_digest_sub t ~chunk data ~pos:0 ~len:(String.length data)

let expected_digest_of_plain t ~chunk ~plain = chunk_payload_digest t ~chunk ~data:plain
let expected_digest_of_cipher t ~chunk ~cipher = chunk_payload_digest t ~chunk ~data:cipher

let fragment_leaf_hash_sub t ~chunk ~fragment ~cipher ~pos ~len =
  ignore t;
  let ctx = Sha1.init () in
  Sha1.feed ctx (be_bytes chunk 4);
  Sha1.feed ctx (be_bytes fragment 4);
  Sha1.feed_sub ctx cipher ~pos ~len;
  Sha1.finalize ctx

let seal_root t ~chunk ~root = chunk_payload_digest t ~chunk ~data:root

let mht_leaves t ~chunk ~cipher =
  Array.init (fragments_per_chunk t) (fun i ->
      fragment_leaf_hash_sub t ~chunk ~fragment:i ~cipher
        ~pos:(i * t.fragment_size) ~len:t.fragment_size)

(* The node table of chunk [i], built from its ciphertext on first use. A
   fill is one array write of a finished table; callers that share a
   container across domains fill under a lock (the server's cache
   mutex). *)
let chunk_tree t i =
  match t.trees.(i) with
  | [||] ->
      let tree = Merkle.tree (mht_leaves t ~chunk:i ~cipher:t.chunks.(i)) in
      t.trees.(i) <- tree;
      tree
  | tree -> tree

(* The padded plaintext of chunk [i] as a (buffer, offset) view: every
   chunk but a short last one reads the payload in place; only that one
   is padded, into a chunk-sized copy. *)
let plain_view t payload i =
  let base = i * t.chunk_size in
  if base + t.chunk_size <= String.length payload then (payload, base)
  else begin
    let b = Bytes.make t.chunk_size '\000' in
    Bytes.blit_string payload base b 0 (String.length payload - base);
    (Bytes.unsafe_to_string b, 0)
  end

(* Clear digest of a chunk; under ECB-MHT the root comes from the
   chunk's node table, so resealing a chunk whose table was carried costs
   one small hash, not a tree rebuild. *)
let chunk_digest t ~chunk ~payload =
  match t.scheme with
  | Ecb -> ""
  | Cbc_sha ->
      let data, pos = plain_view t payload chunk in
      chunk_digest_sub t ~chunk data ~pos ~len:t.chunk_size
  | Cbc_shac | Aes_ctr ->
      expected_digest_of_cipher t ~chunk ~cipher:t.chunks.(chunk)
  | Ecb_mht -> seal_root t ~chunk ~root:(chunk_tree t chunk).(1)

(* Blob-taking variant: over the wire the digest arrives from an untrusted
   terminal, so its size is validated as an integrity property, not assumed. *)
let decrypt_digest_blob ~scheme ~key ~chunk blob =
  let expected = digest_blob_size_for scheme in
  if String.length blob <> expected then
    raise
      (Integrity_failure
         (Printf.sprintf "chunk %d: digest blob of %d bytes, expected %d" chunk
            (String.length blob) expected));
  match scheme with
  | Aes_ctr ->
      let ak, nonce = aes_material key in
      Aes.ctr_transform ak ~nonce
        ~stream_pos:(digest_position_base scheme chunk)
        blob
  | _ ->
      let plain =
        Modes.positional_decrypt (Modes.of_triple_des key)
          ~base:(digest_position_base scheme chunk)
          blob
      in
      String.sub plain 0 Sha1.digest_size

let decrypt_digest t ~key chunk =
  match t.digests.(chunk) with
  | "" -> invalid_arg "Secure_container.decrypt_digest: scheme has no digests"
  | blob -> decrypt_digest_blob ~scheme:t.scheme ~key ~chunk blob

(* Positional-ECB blocks are bound to absolute offsets, which run on across
   chunk boundaries, so a run of consecutive chunks is one range of the
   position space. It is encrypted a segment at a time — whole 63-block
   kernel passes — through a bounded scratch buffer, and scattered into
   the chunks; bytes past the payload's end are the zero padding. *)
let segment_bytes = 8 * Bitslice_des.blocks_per_pass * 16

let encrypt_positional_run t ~cipher ~payload ~first ~last =
  let cs = t.chunk_size in
  let out = Array.init (last - first + 1) (fun _ -> Bytes.create cs) in
  let lo = first * cs and hi = (last + 1) * cs in
  let scratch = Bytes.create (min segment_bytes (hi - lo)) in
  let pos = ref lo in
  while !pos < hi do
    let len = min (Bytes.length scratch) (hi - !pos) in
    let avail = max 0 (min len (String.length payload - !pos)) in
    if avail > 0 then Bytes.blit_string payload !pos scratch 0 avail;
    Bytes.fill scratch avail (len - avail) '\000';
    Modes.positional_encrypt_in_place cipher ~base:!pos scratch ~pos:0 ~len;
    let off = ref 0 in
    while !off < len do
      let at = !pos + !off in
      let n = min (cs - (at mod cs)) (len - !off) in
      Bytes.blit scratch !off out.((at / cs) - first) (at mod cs) n;
      off := !off + n
    done;
    pos := !pos + len
  done;
  Array.iteri (fun k b -> t.chunks.(first + k) <- Bytes.unsafe_to_string b) out

(* Payload ciphertext of the chunks [first..last]. CBC chains within a
   chunk and AES-CTR needs no kernel: both go chunk by chunk. *)
let encrypt_run t ~key ~cipher ~payload ~first ~last =
  let per_chunk f =
    for i = first to last do
      let src, src_pos = plain_view t payload i in
      let dst = Bytes.create t.chunk_size in
      f i ~src ~src_pos ~dst;
      t.chunks.(i) <- Bytes.unsafe_to_string dst
    done
  in
  match t.scheme with
  | Ecb | Ecb_mht -> encrypt_positional_run t ~cipher ~payload ~first ~last
  | Cbc_sha | Cbc_shac ->
      per_chunk (fun i ~src ~src_pos ~dst ->
          Modes.cbc_encrypt_into cipher ~iv:(Int64.of_int i) ~src ~src_pos ~dst
            ~dst_pos:0 ~len:t.chunk_size)
  | Aes_ctr ->
      let ak, nonce = aes_material key in
      per_chunk (fun i ~src ~src_pos ~dst ->
          Aes.ctr_xor_into ak ~nonce ~src ~src_pos ~dst ~dst_pos:0
            ~len:t.chunk_size ~stream_pos:(i * t.chunk_size))

(* [f first last] for every run of consecutive flagged chunks. *)
let iter_runs flags f =
  let n = Array.length flags in
  let i = ref 0 in
  while !i < n do
    if not flags.(!i) then incr i
    else begin
      let first = !i in
      while !i < n && flags.(!i) do
        incr i
      done;
      f first (!i - 1)
    end
  done

(* Seal the chunks [first..last]. Consecutive chunks' digest blobs are
   consecutive in the digest position space, so they are encrypted
   together: one kernel run (and, for AES-CTR, one key derivation) instead
   of one small encryption per chunk. A DES blob is the digest zero-padded
   to three blocks. *)
let seal_run t ~key ~cipher ~payload ~first ~last =
  let blob = digest_blob_size_for t.scheme in
  if blob > 0 then begin
    let buf = Bytes.make ((last - first + 1) * blob) '\000' in
    for i = first to last do
      let d = chunk_digest t ~chunk:i ~payload in
      Bytes.blit_string d 0 buf ((i - first) * blob) (String.length d)
    done;
    let base = digest_position_base t.scheme first in
    (match t.scheme with
    | Aes_ctr ->
        let ak, nonce = aes_material key in
        Aes.ctr_xor_into ak ~nonce ~src:(Bytes.to_string buf) ~src_pos:0
          ~dst:buf ~dst_pos:0 ~len:(Bytes.length buf) ~stream_pos:base
    | _ ->
        Modes.positional_encrypt_in_place cipher ~base buf ~pos:0
          ~len:(Bytes.length buf));
    for i = first to last do
      t.digests.(i) <- Bytes.sub_string buf ((i - first) * blob) blob
    done
  end

let encrypt ?(chunk_size = 2048) ?(fragment_size = 256) ?(generation = 0)
    ?(key_epoch = 0) ~scheme ~key payload =
  if chunk_size mod 8 <> 0 || fragment_size mod 8 <> 0 then
    invalid_arg "Secure_container.encrypt: sizes must be multiples of 8";
  if chunk_size mod fragment_size <> 0
     || not (is_power_of_two (chunk_size / fragment_size)) then
    invalid_arg
      "Secure_container.encrypt: chunk/fragment ratio must be a power of two";
  if generation < 0 || key_epoch < 0 || key_epoch > 0xFFFF then
    invalid_arg "Secure_container.encrypt: bad generation or key epoch";
  let payload_len = String.length payload in
  let nchunks = max 1 ((payload_len + chunk_size - 1) / chunk_size) in
  let t =
    {
      scheme;
      chunk_size;
      fragment_size;
      payload_len;
      chunks = Array.make nchunks "";
      digests = Array.make nchunks "";
      generation;
      key_epoch;
      versions = Array.make nchunks generation;
      trees = Array.make nchunks [||];
    }
  in
  let cipher = Modes.of_triple_des_fast_encrypt key in
  encrypt_run t ~key ~cipher ~payload ~first:0 ~last:(nchunks - 1);
  seal_run t ~key ~cipher ~payload ~first:0 ~last:(nchunks - 1);
  t

(* Whether chunk [i]'s zero-padded plaintext differs between two payloads:
   words over the part both payloads cover, bytes over the rest. *)
let chunk_differs ~chunk_size a b i =
  let lo = i * chunk_size and hi = (i + 1) * chunk_size in
  let la = String.length a and lb = String.length b in
  let byte s l j = if j < l then String.unsafe_get s j else '\000' in
  let both = max lo (min hi (min la lb)) in
  let j = ref lo and diff = ref false in
  while (not !diff) && !j + 8 <= both do
    if String.get_int64_ne a !j <> String.get_int64_ne b !j then diff := true;
    j := !j + 8
  done;
  while (not !diff) && !j < hi do
    if byte a la !j <> byte b lb !j then diff := true;
    incr j
  done;
  !diff

(* Incremental republication: re-encrypt only the chunks whose padded
   plaintext actually moved, reuse everything else physically, and bump the
   generation. Returns the new container and the (sorted) list of rewritten
   chunks — by construction the chunks [Skip_index.Update] predicts.

   When the payload length changes, every chunk digest changes too (the
   digest binds the header, and the header binds the payload length): clean
   chunks are {e resealed} — their ciphertext, and for ECB-MHT their node
   tables, are reused — which is hashing work only, never payload
   re-encryption. *)
let reencrypt t ~key ~old_payload ~payload =
  if String.length old_payload <> t.payload_len then
    invalid_arg "Secure_container.reencrypt: old payload length mismatch";
  if Array.exists (fun c -> c = "") t.chunks then
    invalid_arg "Secure_container.reencrypt: container has no ciphertext";
  let chunk_size = t.chunk_size in
  let old_len = t.payload_len and new_len = String.length payload in
  let old_chunks = Array.length t.chunks in
  let nchunks = max 1 ((new_len + chunk_size - 1) / chunk_size) in
  let generation = t.generation + 1 in
  let dirty =
    Array.init nchunks (fun i ->
        i >= old_chunks || chunk_differs ~chunk_size old_payload payload i)
  in
  (* shrinking truncates trailing chunks: the last surviving chunk is
     re-sealed even when its bytes happen to be unchanged (mirrors the
     [Update] cost rule, so predicted and actual chunk sets coincide) *)
  if new_len < old_len && new_len > 0 then dirty.((new_len - 1) / chunk_size) <- true;
  let t' =
    {
      t with
      payload_len = new_len;
      chunks = Array.make nchunks "";
      digests = Array.make nchunks "";
      generation;
      versions = Array.make nchunks generation;
      trees = Array.make nchunks [||];
    }
  in
  let cipher = Modes.of_triple_des_fast_encrypt key in
  iter_runs dirty (fun first last ->
      encrypt_run t' ~key ~cipher ~payload ~first ~last);
  let rewritten = ref [] in
  for i = nchunks - 1 downto 0 do
    if dirty.(i) then rewritten := i :: !rewritten
    else begin
      (* physical reuse: unchanged ciphertext (and node table) are the
         same values, so a delta only ever carries dirty chunks *)
      t'.chunks.(i) <- t.chunks.(i);
      t'.trees.(i) <- t.trees.(i);
      t'.versions.(i) <- t.versions.(i);
      t'.digests.(i) <- t.digests.(i)
    end
  done;
  (* a length change reseals every chunk, clean ones included *)
  if new_len <> old_len then
    seal_run t' ~key ~cipher ~payload ~first:0 ~last:(nchunks - 1)
  else
    iter_runs dirty (fun first last ->
        seal_run t' ~key ~cipher ~payload ~first ~last);
  (t', !rewritten)

(* A pristine (generation 0, epoch 0) container serializes in the original
   XACR1 layout, so every byte stream the seed produced is still produced;
   any versioned state promotes the stream to XACR2. *)
let is_v1 t =
  t.generation = 0 && t.key_epoch = 0 && Array.for_all (( = ) 0) t.versions

let to_bytes t =
  let v1 = is_v1 t in
  let per_chunk_version = if v1 then 0 else 8 in
  let b =
    Buffer.create
      ((if v1 then header_size else header_size_v2)
      + ciphertext_bytes t + digest_bytes t
      + (Array.length t.chunks * per_chunk_version))
  in
  Buffer.add_string b (if v1 then magic else magic_v2);
  Buffer.add_char b (Char.chr (scheme_byte t.scheme));
  Buffer.add_string b (be_bytes t.chunk_size 4);
  Buffer.add_string b (be_bytes t.fragment_size 4);
  Buffer.add_string b (be_bytes t.payload_len 8);
  if not v1 then begin
    Buffer.add_string b (be_bytes t.generation 8);
    Buffer.add_string b (be_bytes t.key_epoch 2)
  end;
  Array.iteri
    (fun i chunk ->
      if not v1 then Buffer.add_string b (be_bytes t.versions.(i) 8);
      Buffer.add_string b chunk;
      Buffer.add_string b t.digests.(i))
    t.chunks;
  Buffer.contents b

let of_bytes s =
  let magic_len = String.length magic in
  if String.length s < magic_len then corrupt "truncated header";
  let version =
    match String.sub s 0 magic_len with
    | m when m = magic -> 1
    | m when m = magic_v2 -> 2
    | m when String.sub m 0 4 = "XACR" && m.[4] > '2' && m.[4] <= '9' ->
        (* a container from a future writer, not garbage: tell the operator
           to upgrade rather than claiming the file is corrupt *)
        corrupt "unsupported container version %c (this build reads up to 2)"
          m.[4]
    | _ -> corrupt "bad magic"
  in
  let hsize = if version = 1 then header_size else header_size_v2 in
  if String.length s < hsize then corrupt "truncated header";
  let scheme = scheme_of_byte (Char.code s.[magic_len]) in
  let chunk_size = be_value s 6 4 in
  let fragment_size = be_value s 10 4 in
  let payload_len = be_value s 14 8 in
  if
    chunk_size <= 0 || fragment_size <= 0
    || chunk_size mod 8 <> 0 || fragment_size mod 8 <> 0
    || chunk_size mod fragment_size <> 0
    || not (is_power_of_two (chunk_size / fragment_size))
  then corrupt "bad chunk/fragment sizes";
  (* an 8-byte field can overflow the OCaml integer into a negative value,
     and the payload can never exceed its own container: both would
     otherwise turn into out-of-bounds accesses during decryption *)
  if payload_len < 0 || payload_len > String.length s then
    corrupt "implausible payload length";
  let generation = if version = 1 then 0 else be_value s 22 8 in
  let key_epoch = if version = 1 then 0 else be_value s 30 2 in
  if generation < 0 then corrupt "implausible generation";
  let nchunks = max 1 ((payload_len + chunk_size - 1) / chunk_size) in
  let blob = digest_blob_size_for scheme in
  let version_bytes = if version = 1 then 0 else 8 in
  let stride = version_bytes + chunk_size + blob in
  let expected = hsize + (nchunks * stride) in
  if String.length s <> expected then corrupt "bad total length";
  let versions =
    Array.init nchunks (fun i ->
        if version = 1 then 0
        else begin
          let v = be_value s (hsize + (i * stride)) 8 in
          if v < 0 || v > generation then
            corrupt "chunk %d version exceeds generation" i;
          v
        end)
  in
  let chunks =
    Array.init nchunks (fun i ->
        String.sub s (hsize + (i * stride) + version_bytes) chunk_size)
  in
  let digests =
    Array.init nchunks (fun i ->
        if blob = 0 then ""
        else
          String.sub s
            (hsize + (i * stride) + version_bytes + chunk_size)
            blob)
  in
  {
    scheme;
    chunk_size;
    fragment_size;
    payload_len;
    chunks;
    digests;
    generation;
    key_epoch;
    versions;
    trees = Array.make nchunks [||];
  }

let of_bytes_result s =
  match of_bytes s with t -> Ok t | exception Corrupt msg -> Error msg

(* Caps on remotely-advertised geometry: a terminal's handshake is hostile
   input, and [geometry] allocates [chunk_count] array slots, so both are
   bounded well above any plausible document. *)
let max_remote_chunks = 1 lsl 22

let geometry ?(generation = 0) ?(key_epoch = 0) ~scheme ~chunk_size
    ~fragment_size ~payload_length ~chunk_count () =
  if
    chunk_size <= 0 || fragment_size <= 0
    || chunk_size mod 8 <> 0
    || fragment_size mod 8 <> 0
    || chunk_size mod fragment_size <> 0
    || not (is_power_of_two (chunk_size / fragment_size))
  then Error "bad chunk/fragment sizes"
  else if payload_length < 0 then Error "negative payload length"
  else if chunk_count <> max 1 ((payload_length + chunk_size - 1) / chunk_size)
  then Error "chunk count disagrees with payload length"
  else if chunk_count > max_remote_chunks then Error "implausible chunk count"
  else if generation < 0 || key_epoch < 0 || key_epoch > 0xFFFF then
    Error "bad generation or key epoch"
  else
    Ok
      {
        scheme;
        chunk_size;
        fragment_size;
        payload_len = payload_length;
        chunks = Array.make chunk_count "";
        digests = Array.make chunk_count "";
        generation;
        key_epoch;
        versions = Array.make chunk_count 0;
        trees = Array.make chunk_count [||];
      }

(* Keyless republication: graft new ciphertext/digest material onto an
   existing container view. This is what a terminal (mirror) does when it
   applies a chunk delta — no secrets involved, the SOE's digest checks
   remain the integrity boundary. Every structural rule of [of_bytes] is
   re-validated so a hostile delta cannot forge an inconsistent container. *)
let patch t ~payload_length ~generation ~key_epoch ~full ~reseals =
  let exception Reject of string in
  let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt in
  try
    let chunk_size = t.chunk_size in
    let blob = digest_blob_size_for t.scheme in
    if payload_length < 0 then reject "negative payload length";
    if generation < t.generation then
      reject "generation %d moves backwards from %d" generation t.generation;
    if key_epoch < t.key_epoch || key_epoch > 0xFFFF then
      reject "key epoch %d moves backwards from %d" key_epoch t.key_epoch;
    let nchunks = max 1 ((payload_length + chunk_size - 1) / chunk_size) in
    if nchunks > max_remote_chunks then reject "implausible chunk count";
    let old_n = Array.length t.chunks in
    let chunks = Array.make nchunks "" in
    let digests = Array.make nchunks "" in
    let versions = Array.make nchunks 0 in
    let trees = Array.make nchunks [||] in
    let carried = min old_n nchunks in
    Array.blit t.chunks 0 chunks 0 carried;
    Array.blit t.digests 0 digests 0 carried;
    Array.blit t.versions 0 versions 0 carried;
    Array.blit t.trees 0 trees 0 carried;
    List.iter
      (fun (i, version, cipher, digest) ->
        if i < 0 || i >= nchunks then reject "chunk %d outside new geometry" i;
        if String.length cipher <> chunk_size then
          reject "chunk %d ciphertext of %d bytes, expected %d" i
            (String.length cipher) chunk_size;
        if String.length digest <> blob then
          reject "chunk %d digest blob of %d bytes, expected %d" i
            (String.length digest) blob;
        if version < 0 || version > generation then
          reject "chunk %d version %d exceeds generation %d" i version generation;
        chunks.(i) <- cipher;
        digests.(i) <- digest;
        versions.(i) <- version;
        trees.(i) <- [||])
      full;
    List.iter
      (fun (i, digest) ->
        if i < 0 || i >= nchunks then reject "reseal %d outside new geometry" i;
        if blob = 0 then reject "reseal under a digest-less scheme";
        if String.length digest <> blob then
          reject "reseal %d digest blob of %d bytes, expected %d" i
            (String.length digest) blob;
        digests.(i) <- digest)
      reseals;
    Array.iteri
      (fun i c -> if c = "" then reject "chunk %d has no ciphertext" i)
      chunks;
    Ok
      {
        t with
        payload_len = payload_length;
        chunks;
        digests;
        generation;
        key_epoch;
        versions;
        trees;
      }
  with Reject msg -> Error msg

let chunk_ciphertext t i = t.chunks.(i)
let encrypted_digest t i = t.digests.(i)

let fragment_ciphertext t ~chunk ~fragment =
  String.sub t.chunks.(chunk) (fragment * t.fragment_size) t.fragment_size

let substitute_block t ~chunk ~block replacement =
  if String.length replacement <> 8 then
    invalid_arg "Secure_container.substitute_block: need 8 bytes";
  let chunks = Array.copy t.chunks in
  let b = Bytes.of_string chunks.(chunk) in
  Bytes.blit_string replacement 0 b (8 * block) 8;
  chunks.(chunk) <- Bytes.to_string b;
  let trees = Array.copy t.trees in
  trees.(chunk) <- [||];
  { t with chunks; trees }

let decrypt_chunk_cipher_into ?ctx t ~key ~chunk ~cipher ~dst =
  if String.length cipher <> t.chunk_size then
    raise
      (Integrity_failure
         (Printf.sprintf "chunk %d: ciphertext of %d bytes, expected %d" chunk
            (String.length cipher) t.chunk_size));
  if Bytes.length dst < t.chunk_size then
    invalid_arg "Secure_container.decrypt_chunk_cipher_into: destination too small";
  match t.scheme with
  | Aes_ctr ->
      let ak, nonce = aes_material key in
      Aes.ctr_xor_into ak ~nonce ~src:cipher ~src_pos:0 ~dst ~dst_pos:0
        ~len:t.chunk_size ~stream_pos:(chunk * t.chunk_size)
  | _ -> (
      (* a session passes its bitsliced cipher in, built once instead of
         per chunk *)
      let c = match ctx with Some c -> c | None -> Modes.of_triple_des key in
      match t.scheme with
      | Ecb | Ecb_mht ->
          Modes.positional_decrypt_into c ~base:(chunk * t.chunk_size)
            ~src:cipher ~src_pos:0 ~dst ~dst_pos:0 ~len:t.chunk_size
      | Cbc_sha | Cbc_shac ->
          Modes.cbc_decrypt_into c ~iv:(Int64.of_int chunk) ~src:cipher
            ~src_pos:0 ~dst ~dst_pos:0 ~len:t.chunk_size
      | Aes_ctr -> assert false)

let decrypt_chunk_cipher ?ctx t ~key ~chunk ~cipher =
  let dst = Bytes.create t.chunk_size in
  decrypt_chunk_cipher_into ?ctx t ~key ~chunk ~cipher ~dst;
  Bytes.unsafe_to_string dst

let decrypt_fragment t ~key ~chunk ~fragment ~cipher =
  match t.scheme with
  | Cbc_sha | Cbc_shac ->
      invalid_arg "Secure_container.decrypt_fragment: CBC has no random access"
  | Ecb | Ecb_mht ->
      Modes.positional_decrypt (Modes.of_triple_des key)
        ~base:((chunk * t.chunk_size) + (fragment * t.fragment_size))
        cipher
  | Aes_ctr ->
      let ak, nonce = aes_material key in
      Aes.ctr_transform ak ~nonce
        ~stream_pos:((chunk * t.chunk_size) + (fragment * t.fragment_size))
        cipher

let verify_chunk t ~key i ~plain =
  let expected =
    match t.scheme with
    | Ecb -> None (* no digests to check *)
    | Cbc_sha -> Some (expected_digest_of_plain t ~chunk:i ~plain)
    | Cbc_shac | Aes_ctr ->
        Some (expected_digest_of_cipher t ~chunk:i ~cipher:t.chunks.(i))
    | Ecb_mht ->
        (* the key holder recomputes the tree, never reads the table *)
        let leaves = mht_leaves t ~chunk:i ~cipher:t.chunks.(i) in
        Some (seal_root t ~chunk:i ~root:(Merkle.root_of_leaves leaves))
  in
  match expected with
  | None -> ()
  | Some expected ->
      (* constant-time: the decrypted digest derives from the key *)
      if not (Ct.equal expected (decrypt_digest t ~key i)) then
        raise (Integrity_failure (Printf.sprintf "chunk %d digest mismatch" i))

let decrypt_all t ~key ~verify =
  let b = Buffer.create (ciphertext_bytes t) in
  (* one kernel cipher per call, so every whole-chunk run goes through the
     bitsliced kernel (AES-CTR ignores it) *)
  let ctx = Modes.of_triple_des_fast key in
  for i = 0 to chunk_count t - 1 do
    let plain =
      decrypt_chunk_cipher ~ctx t ~key ~chunk:i ~cipher:t.chunks.(i)
    in
    if verify then verify_chunk t ~key i ~plain;
    Buffer.add_string b plain
  done;
  String.sub (Buffer.contents b) 0 t.payload_len
