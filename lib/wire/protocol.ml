module C = Xmlac_crypto.Secure_container

let version = 3
let hello_magic = "XWTP"

let max_container_id = 255
(* decode-time cap on a hello's container-id length (bounds hostile
   allocation; ids are short human-chosen names) *)

let max_trace_id = 64
(* cap on the trace id a hello may carry: trace ids are short correlation
   tokens ("fleet-client-17"), and the u8 length field bounds hostile
   allocation at decode time *)

let hash_state_wire_bytes = 92
(* worst-case serialized SHA-1 mid-state (29 fixed + 63 pending); every
   Hash_state reply is zero-padded to this size so the wire cost of a hash
   state is a constant, matching the channel's accounting *)

let max_siblings = 64
(* a cover for one leaf has [log2 frags_per_chunk] nodes; 64 covers any
   plausible geometry and bounds hostile allocation *)

let max_batch = 64
(* decode-time cap on sub-requests in one Batch frame; also keeps a
   worst-case Batched reply (64 chunk ciphertexts) under the client's
   default 1 MiB frame cap for any plausible geometry *)

type metadata = {
  scheme : C.scheme;
  chunk_size : int;
  fragment_size : int;
  payload_length : int;
  chunk_count : int;
  integrity : bool;  (* whether the scheme supports verification at all *)
  mux : bool;  (* whether this connection multiplexes sessions *)
  trace : bool;
      (* whether the terminal accepted the hello's trace id and will link
         its own spans to it — granted only when the hello carried one *)
  generation : int;
      (* publication generation of the bound container: what a mirror
         compares its own generation against to decide whether to Sync *)
  key_epoch : int;
      (* document-key epoch of the bound container: lets an SOE refuse a
         stale license before fetching anything *)
}

type request =
  | Hello of { container : string; mux : bool; trace : string }
  | Get_fragment of { chunk : int; fragment : int; lo : int; hi : int }
  | Get_chunk of { chunk : int }
  | Get_digest of { chunk : int }
  | Get_hash_state of { chunk : int; fragment : int; upto : int }
  | Get_siblings of { chunk : int; fragment : int }
  | Batch of request list
  | Get_stats
  | Sync of { have_gen : int }
  | Bye

type response =
  | Hello_ok of metadata
  | Fragment of string
  | Chunk of string
  | Digest of string
  | Hash_state of string
  | Siblings of string list
  | Batched of response list
  | Stats_reply of string
  | Sync_delta of string
  | Sync_uptodate
  | Bye_ok
  | Err of { code : int; message : string }

let err_bad_request = 1
let err_out_of_range = 2
let err_unsupported = 3
let err_internal = 4
let err_busy = 5

let scheme_code = function
  | C.Ecb -> 0
  | C.Cbc_sha -> 1
  | C.Cbc_shac -> 2
  | C.Ecb_mht -> 3
  | C.Aes_ctr -> 4

let scheme_of_code = function
  | 0 -> Some C.Ecb
  | 1 -> Some C.Cbc_sha
  | 2 -> Some C.Cbc_shac
  | 3 -> Some C.Ecb_mht
  | 4 -> Some C.Aes_ctr
  | _ -> None

(* {2 Encoding} *)

let add_u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Protocol: u8 out of range";
  Buffer.add_char b (Char.chr v)

let add_u16 b v =
  if v < 0 || v > 0xFFFF then invalid_arg "Protocol: u16 out of range";
  Buffer.add_uint16_be b v

let add_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Protocol: u32 out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let add_u64 b v =
  if v < 0 then invalid_arg "Protocol: u64 out of range";
  Buffer.add_int64_be b (Int64.of_int v)

let rec encode_request req =
  let b = Buffer.create 16 in
  (match req with
  | Hello { container; mux; trace } ->
      if String.length container > max_container_id then
        invalid_arg "Protocol: container id too long";
      if String.length trace > max_trace_id then
        invalid_arg "Protocol: trace id too long";
      add_u8 b 0x01;
      Buffer.add_string b hello_magic;
      add_u16 b version;
      (* flag bit 1: a u8-length trace id follows the container *)
      add_u8 b ((if mux then 1 else 0) lor if trace <> "" then 2 else 0);
      add_u16 b (String.length container);
      Buffer.add_string b container;
      if trace <> "" then begin
        add_u8 b (String.length trace);
        Buffer.add_string b trace
      end
  | Get_fragment { chunk; fragment; lo; hi } ->
      add_u8 b 0x02;
      add_u32 b chunk;
      add_u16 b fragment;
      add_u16 b lo;
      add_u16 b hi
  | Get_chunk { chunk } ->
      add_u8 b 0x03;
      add_u32 b chunk
  | Get_digest { chunk } ->
      add_u8 b 0x04;
      add_u32 b chunk
  | Get_hash_state { chunk; fragment; upto } ->
      add_u8 b 0x05;
      add_u32 b chunk;
      add_u16 b fragment;
      add_u16 b upto
  | Get_siblings { chunk; fragment } ->
      add_u8 b 0x06;
      add_u32 b chunk;
      add_u16 b fragment
  | Batch subs ->
      let n = List.length subs in
      if n < 1 || n > max_batch then
        invalid_arg "Protocol: batch size out of range";
      add_u8 b 0x08;
      add_u16 b n;
      List.iter
        (fun sub ->
          (match sub with
          | Hello _ | Bye | Batch _ | Get_stats | Sync _ ->
              invalid_arg "Protocol: request cannot be batched"
          | _ -> ());
          let encoded = encode_request sub in
          add_u16 b (String.length encoded);
          Buffer.add_string b encoded)
        subs
  | Get_stats -> add_u8 b 0x0A
  | Sync { have_gen } ->
      add_u8 b 0x0B;
      add_u64 b have_gen
  | Bye -> add_u8 b 0x07);
  Buffer.contents b

let rec encode_response resp =
  let b = Buffer.create 64 in
  (match resp with
  | Hello_ok m ->
      add_u8 b 0x81;
      add_u16 b version;
      add_u8 b (scheme_code m.scheme);
      add_u32 b m.chunk_size;
      add_u32 b m.fragment_size;
      add_u64 b m.payload_length;
      add_u32 b m.chunk_count;
      (* bit 1 once advertised Batch support, which every terminal has *)
      add_u8 b
        ((if m.integrity then 1 else 0)
        lor 2
        lor (if m.mux then 4 else 0)
        lor if m.trace then 8 else 0);
      add_u64 b m.generation;
      add_u16 b m.key_epoch
  | Fragment cipher ->
      add_u8 b 0x82;
      Buffer.add_string b cipher
  | Chunk cipher ->
      add_u8 b 0x83;
      Buffer.add_string b cipher
  | Digest blob ->
      add_u8 b 0x84;
      Buffer.add_string b blob
  | Hash_state state ->
      let n = String.length state in
      if n > hash_state_wire_bytes then
        invalid_arg "Protocol: hash state larger than wire size";
      add_u8 b 0x85;
      add_u16 b n;
      Buffer.add_string b state;
      Buffer.add_string b (String.make (hash_state_wire_bytes - n) '\000')
  | Siblings digests ->
      add_u8 b 0x86;
      add_u16 b (List.length digests);
      List.iter
        (fun d ->
          if String.length d <> 20 then
            invalid_arg "Protocol: sibling digest must be 20 bytes";
          Buffer.add_string b d)
        digests
  | Batched subs ->
      let n = List.length subs in
      if n < 1 || n > max_batch then
        invalid_arg "Protocol: batch size out of range";
      add_u8 b 0x88;
      add_u16 b n;
      List.iter
        (fun sub ->
          (match sub with
          | Hello_ok _ | Bye_ok | Batched _ | Stats_reply _ | Sync_delta _
          | Sync_uptodate ->
              invalid_arg "Protocol: response cannot be batched"
          | _ -> ());
          let encoded = encode_response sub in
          add_u32 b (String.length encoded);
          Buffer.add_string b encoded)
        subs
  | Stats_reply json ->
      add_u8 b 0x89;
      Buffer.add_string b json
  | Sync_delta delta ->
      add_u8 b 0x8A;
      Buffer.add_string b delta
  | Sync_uptodate -> add_u8 b 0x8B
  | Bye_ok -> add_u8 b 0x87
  | Err { code; message } ->
      add_u8 b 0xFF;
      add_u16 b code;
      Buffer.add_string b message);
  Buffer.contents b

(* {2 Decoding}

   Both decoders face untrusted input: the server decodes requests from an
   arbitrary client, the client decodes responses from an adversarial
   terminal. Every structural violation becomes a typed [Protocol]
   error. *)

exception Bad of string

type cursor = { data : string; mutable pos : int }

let need cur n what =
  if cur.pos + n > String.length cur.data then
    raise (Bad (Printf.sprintf "truncated %s" what))

let u8 cur what =
  need cur 1 what;
  let v = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  v

let u16 cur what =
  need cur 2 what;
  let v = String.get_uint16_be cur.data cur.pos in
  cur.pos <- cur.pos + 2;
  v

let u32 cur what =
  need cur 4 what;
  let v = Int32.to_int (String.get_int32_be cur.data cur.pos) land 0xFFFFFFFF in
  cur.pos <- cur.pos + 4;
  v

let u64 cur what =
  need cur 8 what;
  let v = String.get_int64_be cur.data cur.pos in
  cur.pos <- cur.pos + 8;
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Bad (Printf.sprintf "%s out of range" what));
  Int64.to_int v

let take cur n what =
  need cur n what;
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

let rest cur =
  let s =
    String.sub cur.data cur.pos (String.length cur.data - cur.pos)
  in
  cur.pos <- String.length cur.data;
  s

let finish cur what =
  if cur.pos <> String.length cur.data then
    raise
      (Bad
         (Printf.sprintf "%d trailing bytes after %s"
            (String.length cur.data - cur.pos)
            what))

(* both hellos carry the version; a peer speaking another is refused *)
let check_version cur what =
  let v = u16 cur what in
  if v <> version then
    raise
      (Bad
         (Printf.sprintf "protocol version %d, this build speaks %d" v version))

let decode payload ~what f =
  if String.length payload = 0 then Error.protocolf "empty %s" what;
  let cur = { data = payload; pos = 0 } in
  let opcode = u8 cur "opcode" in
  match f cur opcode with
  | v -> v
  | exception Bad msg -> Error.protocolf "%s: %s" what msg

let rec decode_request payload =
  decode payload ~what:"request" @@ fun cur opcode ->
  match opcode with
  | 0x08 ->
      let count = u16 cur "batch count" in
      if count < 1 || count > max_batch then
        raise (Bad (Printf.sprintf "batch of %d requests exceeds limit %d"
                      count max_batch));
      let subs = ref [] in
      for _ = 1 to count do
        let len = u16 cur "batched request length" in
        let sub_payload = take cur len "batched request" in
        match decode_request sub_payload with
        | Hello _ | Bye | Batch _ | Get_stats | Sync _ ->
            raise (Bad "request cannot be batched")
        | sub -> subs := sub :: !subs
      done;
      finish cur "batch request";
      Batch (List.rev !subs)
  | 0x01 ->
      let magic = take cur 4 "hello magic" in
      if magic <> hello_magic then raise (Bad "bad hello magic");
      check_version cur "hello version";
      let flags = u8 cur "hello flags" in
      if flags land lnot 3 <> 0 then
        raise (Bad (Printf.sprintf "unknown hello flag bits 0x%02x" flags));
      let len = u16 cur "container id length" in
      if len > max_container_id then
        raise
          (Bad
             (Printf.sprintf "container id of %d bytes exceeds limit %d" len
                max_container_id));
      let container = take cur len "container id" in
      let trace =
        if flags land 2 = 0 then ""
        else begin
          let tlen = u8 cur "trace id length" in
          if tlen = 0 || tlen > max_trace_id then
            raise
              (Bad
                 (Printf.sprintf "trace id of %d bytes outside 1..%d" tlen
                    max_trace_id));
          take cur tlen "trace id"
        end
      in
      finish cur "hello";
      Hello { container; mux = flags land 1 = 1; trace }
  | 0x02 ->
      let chunk = u32 cur "chunk index" in
      let fragment = u16 cur "fragment index" in
      let lo = u16 cur "fragment lo" in
      let hi = u16 cur "fragment hi" in
      finish cur "fragment request";
      if lo >= hi then raise (Bad "empty fragment range");
      Get_fragment { chunk; fragment; lo; hi }
  | 0x03 ->
      let chunk = u32 cur "chunk index" in
      finish cur "chunk request";
      Get_chunk { chunk }
  | 0x04 ->
      let chunk = u32 cur "chunk index" in
      finish cur "digest request";
      Get_digest { chunk }
  | 0x05 ->
      let chunk = u32 cur "chunk index" in
      let fragment = u16 cur "fragment index" in
      let upto = u16 cur "hash state upto" in
      finish cur "hash state request";
      Get_hash_state { chunk; fragment; upto }
  | 0x06 ->
      let chunk = u32 cur "chunk index" in
      let fragment = u16 cur "fragment index" in
      finish cur "siblings request";
      Get_siblings { chunk; fragment }
  | 0x0A ->
      finish cur "stats request";
      Get_stats
  | 0x0B ->
      let have_gen = u64 cur "sync generation" in
      finish cur "sync request";
      Sync { have_gen }
  | 0x07 ->
      finish cur "bye";
      Bye
  | op -> raise (Bad (Printf.sprintf "unknown request opcode 0x%02x" op))

let rec decode_response payload =
  decode payload ~what:"response" @@ fun cur opcode ->
  match opcode with
  | 0x88 ->
      let count = u16 cur "batch count" in
      if count < 1 || count > max_batch then
        raise (Bad (Printf.sprintf "batch of %d responses exceeds limit %d"
                      count max_batch));
      let subs = ref [] in
      for _ = 1 to count do
        let len = u32 cur "batched response length" in
        let sub_payload = take cur len "batched response" in
        match decode_response sub_payload with
        | Hello_ok _ | Bye_ok | Batched _ | Stats_reply _ | Sync_delta _
        | Sync_uptodate ->
            raise (Bad "response cannot be batched")
        | sub -> subs := sub :: !subs
      done;
      finish cur "batch response";
      Batched (List.rev !subs)
  | 0x81 ->
      check_version cur "metadata version";
      let scheme_byte = u8 cur "scheme" in
      let chunk_size = u32 cur "chunk size" in
      let fragment_size = u32 cur "fragment size" in
      let payload_length = u64 cur "payload length" in
      let chunk_count = u32 cur "chunk count" in
      let flags = u8 cur "flags" in
      let generation = u64 cur "generation" in
      let key_epoch = u16 cur "key epoch" in
      finish cur "hello reply";
      let scheme =
        match scheme_of_code scheme_byte with
        | Some s -> s
        | None -> raise (Bad (Printf.sprintf "unknown scheme %d" scheme_byte))
      in
      if flags land lnot 15 <> 0 then
        raise (Bad (Printf.sprintf "unknown flag bits 0x%02x" flags));
      Hello_ok
        {
          scheme;
          chunk_size;
          fragment_size;
          payload_length;
          chunk_count;
          integrity = flags land 1 = 1;
          mux = flags land 4 = 4;
          trace = flags land 8 = 8;
          generation;
          key_epoch;
        }
  | 0x82 -> Fragment (rest cur)
  | 0x83 -> Chunk (rest cur)
  | 0x84 -> Digest (rest cur)
  | 0x85 ->
      let n = u16 cur "hash state length" in
      if n > hash_state_wire_bytes then
        raise (Bad (Printf.sprintf "hash state length %d exceeds %d" n
                      hash_state_wire_bytes));
      let padded = take cur hash_state_wire_bytes "hash state" in
      finish cur "hash state reply";
      Hash_state (String.sub padded 0 n)
  | 0x86 ->
      let count = u16 cur "sibling count" in
      if count > max_siblings then
        raise (Bad (Printf.sprintf "%d siblings exceeds limit %d" count
                      max_siblings));
      let digests = ref [] in
      for _ = 1 to count do
        digests := take cur 20 "sibling digest" :: !digests
      done;
      finish cur "siblings reply";
      Siblings (List.rev !digests)
  | 0x89 -> Stats_reply (rest cur)
  | 0x8A -> Sync_delta (rest cur)
  | 0x8B ->
      finish cur "sync up-to-date reply";
      Sync_uptodate
  | 0x87 ->
      finish cur "bye reply";
      Bye_ok
  | 0xFF ->
      let code = u16 cur "error code" in
      let message = rest cur in
      Err { code; message }
  | op -> raise (Bad (Printf.sprintf "unknown response opcode 0x%02x" op))

(* {2 Metadata} *)

let metadata_of_container container =
  {
    scheme = C.scheme container;
    chunk_size = C.chunk_size container;
    fragment_size = C.fragment_size container;
    payload_length = C.payload_length container;
    chunk_count = C.chunk_count container;
    integrity = C.scheme container <> C.Ecb;
    mux = false;
    trace = false;
    generation = C.generation container;
    key_epoch = C.key_epoch container;
  }

let metadata_geometry m =
  if m.integrity <> (m.scheme <> C.Ecb) then
    Error "terminal integrity flag contradicts its scheme"
  else
    C.geometry ~generation:m.generation ~key_epoch:m.key_epoch ~scheme:m.scheme
      ~chunk_size:m.chunk_size ~fragment_size:m.fragment_size
      ~payload_length:m.payload_length ~chunk_count:m.chunk_count ()
