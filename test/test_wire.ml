(* Tests for the remote-terminal subsystem: protocol codecs under hostile
   bytes, loopback and socket equivalence with the in-process channel, the
   reply tamper matrix, fault injection with retry, and concurrent
   sessions against one server. *)

open Xmlac_soe
module Wire = Xmlac_wire
module Container = Xmlac_crypto.Secure_container
module Layout = Xmlac_skip_index.Layout
module Hospital = Xmlac_workload.Hospital
module Profiles = Xmlac_workload.Profiles

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let hospital =
  Hospital.generate ~seed:11
    ~config:{ Hospital.default_config with folders = 6 }
    ()

let cfg scheme =
  let c = Session.default_config ~scheme () in
  (* small chunks so even the 6-folder document spans several *)
  { c with Session.chunk_size = 512; fragment_size = 64 }

let events_string (m : Session.measurement) =
  Xmlac_xml.Writer.events_to_string m.Session.events

let wire_stats (m : Session.measurement) =
  match m.Session.wire with
  | Some w -> w
  | None -> Alcotest.fail "remote measurement carries no wire stats"

(* Protocol codecs -------------------------------------------------------- *)

let sample_requests =
  [
    Wire.Protocol.Hello { container = ""; mux = false; trace = "" };
    Wire.Protocol.Hello { container = "records"; mux = true; trace = "" };
    Wire.Protocol.Hello
      { container = "records"; mux = true; trace = "client-42" };
    Wire.Protocol.Hello
      {
        container = "";
        mux = false;
        trace = String.make Wire.Protocol.max_trace_id 't';
      };
    Wire.Protocol.Get_fragment { chunk = 3; fragment = 7; lo = 8; hi = 64 };
    Wire.Protocol.Get_chunk { chunk = 0 };
    Wire.Protocol.Get_digest { chunk = 12 };
    Wire.Protocol.Get_hash_state { chunk = 1; fragment = 2; upto = 56 };
    Wire.Protocol.Get_siblings { chunk = 9; fragment = 0 };
    Wire.Protocol.Get_stats;
    Wire.Protocol.Batch
      [
        Wire.Protocol.Get_fragment { chunk = 1; fragment = 0; lo = 0; hi = 64 };
        Wire.Protocol.Get_digest { chunk = 1 };
        Wire.Protocol.Get_siblings { chunk = 1; fragment = 0 };
      ];
    Wire.Protocol.Bye;
  ]

let sample_responses =
  [
    Wire.Protocol.Hello_ok
      {
        Wire.Protocol.scheme = Container.Ecb_mht;
        chunk_size = 512;
        fragment_size = 64;
        payload_length = 5000;
        chunk_count = 10;
        integrity = true;
        mux = false;
        trace = false;
        generation = 0;
        key_epoch = 0;
      };
    Wire.Protocol.Hello_ok
      {
        Wire.Protocol.scheme = Container.Cbc_sha;
        chunk_size = 512;
        fragment_size = 64;
        payload_length = 5000;
        chunk_count = 10;
        integrity = true;
        mux = true;
        trace = true;
        generation = 0;
        key_epoch = 0;
      };
    Wire.Protocol.Hello_ok
      {
        Wire.Protocol.scheme = Container.Ecb_mht;
        chunk_size = 512;
        fragment_size = 64;
        payload_length = 5000;
        chunk_count = 10;
        integrity = true;
        mux = false;
        trace = false;
        generation = 7;
        key_epoch = 2;
      };
    Wire.Protocol.Fragment (String.make 56 '\x42');
    Wire.Protocol.Chunk (String.make 512 '\x17');
    Wire.Protocol.Digest (String.make 24 '\x99');
    Wire.Protocol.Hash_state (String.make 29 '\x01');
    Wire.Protocol.Siblings [ String.make 20 'a'; String.make 20 'b' ];
    Wire.Protocol.Batched
      [
        Wire.Protocol.Fragment (String.make 64 '\x31');
        Wire.Protocol.Digest (String.make 24 '\x07');
        Wire.Protocol.Err { code = 2; message = "fragment 9 out of range" };
      ];
    Wire.Protocol.Bye_ok;
    Wire.Protocol.Stats_reply "{\"schema\":\"xwtp.telemetry.v1\"}";
    Wire.Protocol.Err { code = 2; message = "chunk 99 out of range" };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let again = Wire.Protocol.(decode_request (encode_request req)) in
      check bool_t "request roundtrips" true (req = again))
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let again = Wire.Protocol.(decode_response (encode_response resp)) in
      check bool_t "response roundtrips" true (resp = again))
    sample_responses

(* Any byte string fed to the decoders (or the frame splitter) yields a
   value or a typed wire error; nothing else may escape. *)
let decoders_total =
  QCheck.Test.make ~count:500 ~name:"decoders are total on hostile bytes"
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let probe f = match f s with _ -> true | exception Wire.Error.Wire _ -> true in
      probe Wire.Protocol.decode_request
      && probe Wire.Protocol.decode_response
      && (match Wire.Frame.split s ~off:0 with
         | _ -> true
         | exception Wire.Error.Wire _ -> true))

let test_hash_state_padding () =
  (* every encoded hash-state reply has the same size on the wire, whatever
     the serialized state length — the constant the channel charges *)
  let sizes =
    List.map
      (fun n ->
        String.length
          (Wire.Protocol.encode_response
             (Wire.Protocol.Hash_state (String.make n 'x'))))
      [ 29; 40; 92 ]
  in
  (match sizes with
  | a :: rest -> List.iter (fun b -> check int_t "constant size" a b) rest
  | [] -> ());
  match
    Wire.Protocol.(
      decode_response (encode_response (Hash_state (String.make 37 'q'))))
  with
  | Wire.Protocol.Hash_state s -> check int_t "unpadded on decode" 37 (String.length s)
  | _ -> Alcotest.fail "hash state did not roundtrip"

let test_metadata_geometry_rejects () =
  let meta chunk_count payload_length =
    {
      Wire.Protocol.scheme = Container.Ecb_mht;
      chunk_size = 512;
      fragment_size = 64;
      payload_length;
      chunk_count;
      integrity = true;
      mux = false;
      trace = false;
      generation = 0;
      key_epoch = 0;
    }
  in
  (match Wire.Protocol.metadata_geometry (meta 10 (10 * 512)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "honest metadata rejected: %s" e);
  let rejected m = Result.is_error (Wire.Protocol.metadata_geometry m) in
  check bool_t "allocation bomb rejected" true
    (rejected (meta ((1 lsl 22) + 1) (((1 lsl 22) + 1) * 512)));
  check bool_t "count/length disagreement rejected" true (rejected (meta 3 100));
  check bool_t "lying integrity flag rejected" true
    (rejected { (meta 1 100) with Wire.Protocol.integrity = false })

(* The server is total on hostile request frames: any payload gets a reply
   (or closes the session), never an exception. *)
let shared_server =
  lazy
    (let published =
       Session.publish (cfg Container.Ecb_mht) ~layout:Layout.Tcsbr hospital
     in
     Wire.Server.make published.Session.container)

let server_total =
  QCheck.Test.make ~count:500 ~name:"server handles hostile request frames"
    QCheck.(string_of_size Gen.(0 -- 32))
    (fun s ->
      QCheck.assume (String.length s > 0);
      let server = Lazy.force shared_server in
      let reply, _closing = Wire.Server.handle_frame server s in
      match Wire.Protocol.decode_response reply with
      | _ -> true
      | exception Wire.Error.Wire _ -> false)

(* The hello layouts are fixed: the version field reads 3, the reply
   always carries generation and key epoch, and bit 1 of its flags is
   always set. *)
let test_hello_layout_pinned () =
  let hello =
    Wire.Protocol.encode_request
      (Wire.Protocol.Hello { container = "doc"; mux = true; trace = "" })
  in
  check Alcotest.string "hello bytes" "\x01XWTP\x00\x03\x01\x00\x03doc" hello;
  let reply =
    Wire.Protocol.encode_response
      (Wire.Protocol.Hello_ok
         {
           Wire.Protocol.scheme = Container.Ecb_mht;
           chunk_size = 512;
           fragment_size = 64;
           payload_length = 5000;
           chunk_count = 10;
           integrity = true;
           mux = false;
           trace = false;
           generation = 7;
           key_epoch = 2;
         })
  in
  check int_t "hello reply length" 35 (String.length reply);
  check int_t "reply version field" Wire.Protocol.version
    (String.get_uint16_be reply 1);
  check int_t "reply flags: integrity and the always-set bit 1" 0x03
    (Char.code reply.[24])

(* Both decoders refuse a hello of any other version with a typed error. *)
let test_other_versions_refused () =
  let with_version v s =
    let b = Bytes.of_string s in
    Bytes.set_uint16_be b (if s.[0] = '\x01' then 5 else 1) v;
    Bytes.to_string b
  in
  let hello =
    Wire.Protocol.encode_request
      (Wire.Protocol.Hello { container = ""; mux = false; trace = "" })
  in
  let reply =
    Wire.Protocol.encode_response
      (Wire.Protocol.Hello_ok
         (Wire.Server.metadata (Lazy.force shared_server)))
  in
  List.iter
    (fun v ->
      (match Wire.Protocol.decode_request (with_version v hello) with
      | _ -> Alcotest.failf "hello of version %d decoded" v
      | exception Wire.Error.Wire (Wire.Error.Protocol _) -> ());
      match Wire.Protocol.decode_response (with_version v reply) with
      | _ -> Alcotest.failf "hello reply of version %d decoded" v
      | exception Wire.Error.Wire (Wire.Error.Protocol _) -> ())
    [ 0; 1; 2; 4; 0xFFFF ];
  (* the short form older clients sent stops after the version *)
  match Wire.Protocol.decode_request "\x01XWTP\x00\x01" with
  | _ -> Alcotest.fail "short-form hello decoded"
  | exception Wire.Error.Wire (Wire.Error.Protocol _) -> ()

(* Loopback equivalence --------------------------------------------------- *)

let loopback_remote ?config:ccfg published =
  let server = Wire.Server.make published.Session.container in
  Remote.connect ?config:ccfg (Wire.Server.loopback_connector server)

let test_loopback_equivalence scheme () =
  let cfg = cfg scheme in
  let published = Session.publish cfg ~layout:Layout.Tcsbr hospital in
  let policy = Profiles.doctor ~user:"dr00" in
  let local = Session.evaluate cfg published policy in
  let remote = loopback_remote published in
  let m = Session.evaluate_remote cfg remote policy in
  let meta = Remote.metadata remote in
  Remote.close remote;
  check Alcotest.string "byte-identical output" (events_string local)
    (events_string m);
  check int_t "bytes_to_soe identical to in-process channel"
    local.Session.counters.Channel.bytes_to_soe
    m.Session.counters.Channel.bytes_to_soe;
  let w = wire_stats m in
  check int_t "wire payload bytes == channel bytes_to_soe"
    m.Session.counters.Channel.bytes_to_soe w.Wire.Stats.payload_bytes;
  check bool_t "no retries on an honest terminal" true (w.Wire.Stats.retries = 0);
  check bool_t "verify_requested recorded" true
    m.Session.counters.Channel.verify_requested;
  check bool_t "verify_active reflects the scheme"
    (scheme <> Container.Ecb)
    m.Session.counters.Channel.verify_active;
  check bool_t "handshake advertises integrity honestly"
    (scheme <> Container.Ecb)
    meta.Wire.Protocol.integrity

let test_random_pairs () =
  (* >= 25 random document/policy pairs, schemes rotating, each compared
     byte-for-byte against the in-process channel *)
  let pairs = ref 0 in
  for seed = 0 to 8 do
    let doc =
      Hospital.generate ~seed
        ~config:{ Hospital.default_config with folders = 3 + (seed mod 3) }
        ()
    in
    let policies =
      [
        Profiles.secretary;
        Profiles.doctor ~user:"dr00";
        Xmlac_workload.Rule_gen.generate ~seed doc;
      ]
    in
    List.iteri
      (fun i policy ->
        let scheme =
          List.nth Container.all_schemes ((seed + i) mod 4)
        in
        let cfg = cfg scheme in
        let published = Session.publish cfg ~layout:Layout.Tcsbr doc in
        let local = Session.evaluate cfg published policy in
        let remote = loopback_remote published in
        let m = Session.evaluate_remote cfg remote policy in
        Remote.close remote;
        if not (String.equal (events_string local) (events_string m)) then
          Alcotest.failf "seed %d policy %d (%s): remote diverges from local"
            seed i
            (Container.scheme_to_string scheme);
        let w = wire_stats m in
        if w.Wire.Stats.payload_bytes
           <> m.Session.counters.Channel.bytes_to_soe
        then
          Alcotest.failf
            "seed %d policy %d (%s): wire payload %d <> channel bytes %d" seed
            i
            (Container.scheme_to_string scheme)
            w.Wire.Stats.payload_bytes
            m.Session.counters.Channel.bytes_to_soe;
        incr pairs)
      policies
  done;
  check bool_t "at least 25 pairs exercised" true (!pairs >= 25)

(* Batch (XWTP v1.1 request coalescing) ----------------------------------- *)

let test_batch_codec_limits () =
  let sub = Wire.Protocol.Get_chunk { chunk = 0 } in
  let rejected req =
    match Wire.Protocol.encode_request req with
    | (_ : string) -> false
    | exception Invalid_argument _ -> true
  in
  check bool_t "empty batch rejected" true (rejected (Wire.Protocol.Batch []));
  check bool_t "oversized batch rejected" true
    (rejected
       (Wire.Protocol.Batch
          (List.init (Wire.Protocol.max_batch + 1) (fun _ -> sub))));
  check bool_t "full batch accepted" false
    (rejected
       (Wire.Protocol.Batch (List.init Wire.Protocol.max_batch (fun _ -> sub))));
  check bool_t "nested batch rejected" true
    (rejected (Wire.Protocol.Batch [ Wire.Protocol.Batch [ sub ] ]));
  check bool_t "Hello cannot be batched" true
    (rejected
       (Wire.Protocol.Batch
          [
            Wire.Protocol.Hello { container = ""; mux = false; trace = "" };
          ]));
  check bool_t "Get_stats cannot be batched" true
    (rejected (Wire.Protocol.Batch [ Wire.Protocol.Get_stats ]));
  (* a hostile frame smuggling a batched Hello must be rejected at decode *)
  let smuggled =
    let sub_bytes =
      Wire.Protocol.encode_request
        (Wire.Protocol.Hello { container = ""; mux = false; trace = "" })
    in
    let b = Buffer.create 16 in
    Buffer.add_char b '\x08';
    Buffer.add_string b "\x00\x01";
    Buffer.add_char b (Char.chr (String.length sub_bytes lsr 8));
    Buffer.add_char b (Char.chr (String.length sub_bytes land 0xFF));
    Buffer.add_string b sub_bytes;
    Buffer.contents b
  in
  match Wire.Protocol.decode_request smuggled with
  | _ -> Alcotest.fail "batched Hello decoded"
  | exception Wire.Error.Wire _ -> ()

let test_fetch_batch_equivalence () =
  let published =
    Session.publish (cfg Container.Ecb_mht) ~layout:Layout.Tcsbr hospital
  in
  let server = Wire.Server.make published.Session.container in
  let single = Wire.Client.connect (Wire.Server.loopback_connector server) in
  let batcher = Wire.Client.connect (Wire.Server.loopback_connector server) in
  let frag =
    Wire.Client.fetch_fragment single ~chunk:0 ~fragment:1 ~lo:0 ~hi:64
  in
  let digest = Wire.Client.fetch_digest single ~chunk:0 in
  let sibs = Wire.Client.fetch_siblings single ~chunk:0 ~fragment:1 in
  let replies =
    Wire.Client.fetch_batch batcher
      [
        Wire.Protocol.Get_fragment { chunk = 0; fragment = 1; lo = 0; hi = 64 };
        Wire.Protocol.Get_digest { chunk = 0 };
        Wire.Protocol.Get_siblings { chunk = 0; fragment = 1 };
      ]
  in
  (match replies with
  | [ Wire.Protocol.Fragment f; Wire.Protocol.Digest d; Wire.Protocol.Siblings s ]
    ->
      check Alcotest.string "batched fragment = individual fetch" frag f;
      check Alcotest.string "batched digest = individual fetch" digest d;
      check bool_t "batched siblings = individual fetch" true (sibs = s)
  | _ -> Alcotest.fail "unexpected batched reply shape");
  let ss = Wire.Client.stats single and sb = Wire.Client.stats batcher in
  check int_t "one Batch frame counted" 1 sb.Wire.Stats.batched_requests;
  check int_t "per-item payload accounting matches individual fetches"
    ss.Wire.Stats.payload_bytes sb.Wire.Stats.payload_bytes;
  check bool_t "batch saves round trips" true
    (sb.Wire.Stats.requests < ss.Wire.Stats.requests);
  Wire.Client.close single;
  Wire.Client.close batcher

(* a remote session's windows coalesce their fetches into Batch frames,
   and the view stays byte-identical to the local one *)
let test_remote_session_batches_prefetches () =
  let cfg0 = cfg Container.Ecb_mht in
  let published = Session.publish cfg0 ~layout:Layout.Tcsbr hospital in
  let policy = Profiles.doctor ~user:"dr00" in
  let local = Session.evaluate cfg0 published policy in
  let remote = loopback_remote published in
  let m = Session.evaluate_remote cfg0 remote policy in
  Remote.close remote;
  check Alcotest.string "byte-identical to the local view"
    (events_string local) (events_string m);
  check bool_t "prefetch coalesced requests into Batch frames" true
    ((wire_stats m).Wire.Stats.batched_requests > 0)

(* The worst-case window. With one fragment per chunk, every ECB-MHT unit
   asks for a fragment suffix, a hash state, siblings and a chunk digest,
   so a 16-unit window fills one Batch of exactly [Protocol.max_batch]
   sub-requests; CBC-SHA units ask for a chunk and a digest. A read over
   21 fragments sends a full window, then one of 5 units. *)
let test_worst_case_window () =
  let key = Xmlac_crypto.Des.Triple.key_of_string "0123456789abcdefFEDCBA98" in
  let payload = String.init (24 * 256) (fun i -> Char.chr ((i * 37) mod 251)) in
  List.iter
    (fun (scheme, expected) ->
      let name = Container.scheme_to_string scheme in
      let container =
        Container.encrypt ~chunk_size:256 ~fragment_size:256 ~scheme ~key
          payload
      in
      let server = Wire.Server.make container in
      let batches = ref [] in
      let connector () =
        let inner = Wire.Server.loopback_connector server () in
        let write frame =
          let h = Wire.Frame.header_bytes in
          (match
             Wire.Protocol.decode_request
               (String.sub frame h (String.length frame - h))
           with
          | Wire.Protocol.Batch subs -> batches := List.length subs :: !batches
          | _ -> ());
          Wire.Transport.write inner frame
        in
        Wire.Transport.make ~read:(Wire.Transport.read inner) ~write
          ~close:(fun () -> Wire.Transport.close inner)
          ~peer:"loopback+batch-count" ()
      in
      let remote = Remote.connect connector in
      let src = Remote.source remote ~key (Channel.fresh_counters ()) in
      let pos = 100 and len = 20 * 256 in
      let view = src.Xmlac_skip_index.Decoder.read ~pos ~len in
      Remote.close remote;
      let local = Channel.source ~container ~key (Channel.fresh_counters ()) in
      check Alcotest.string (name ^ ": view = local read")
        (local.Xmlac_skip_index.Decoder.read ~pos ~len)
        view;
      check (Alcotest.list int_t)
        (name ^ ": one Batch per window")
        expected (List.rev !batches))
    [
      (Container.Ecb_mht, [ Wire.Protocol.max_batch; 5 * 4 ]);
      (Container.Cbc_sha, [ 16 * 2; 5 * 2 ]);
    ]

let test_out_of_range_is_server_error () =
  let published =
    Session.publish (cfg Container.Ecb_mht) ~layout:Layout.Tcsbr hospital
  in
  let server = Wire.Server.make published.Session.container in
  let client =
    Wire.Client.connect (Wire.Server.loopback_connector server)
  in
  (match Wire.Client.fetch_chunk client ~chunk:99999 with
  | _ -> Alcotest.fail "out-of-range chunk was served"
  | exception Wire.Error.Wire (Wire.Error.Server { code; _ }) ->
      check int_t "out-of-range error code" Wire.Protocol.err_out_of_range code);
  Wire.Client.close client

(* Tamper matrix ---------------------------------------------------------- *)

let flip i s =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.unsafe_to_string b

let drop_last n s = String.sub s 0 (String.length s - n)

(* Wrap a loopback connection so every reply payload passes through
   [mutate_frame], which returns the raw frame to deliver. *)
let mutating_connector server mutate_frame () =
  let inner = Wire.Server.loopback_connector server () in
  let pending = ref "" in
  let pos = ref 0 in
  let read buf off len =
    if !pos >= String.length !pending then begin
      let payload = Wire.Frame.read inner in
      pending := mutate_frame payload;
      pos := 0
    end;
    let avail = String.length !pending - !pos in
    let n = min len avail in
    Bytes.blit_string !pending !pos buf off n;
    pos := !pos + n;
    n
  in
  Wire.Transport.make ~read
    ~write:(fun s -> Wire.Transport.write inner s)
    ~close:(fun () -> Wire.Transport.close inner)
    ~peer:"loopback+tamper" ()

(* mutate the payload of replies with opcode [op], reframe everything;
   replies riding inside a Batched (0x88) frame are tampered in place, so
   the matrix covers the prefetch path exactly like individual fetches *)
let rec mutate_payload op f payload =
  if String.length payload = 0 then payload
  else if Char.code payload.[0] = op then f payload
  else if Char.code payload.[0] = 0x88 then begin
    let u32 s pos =
      (Char.code s.[pos] lsl 24)
      lor (Char.code s.[pos + 1] lsl 16)
      lor (Char.code s.[pos + 2] lsl 8)
      lor Char.code s.[pos + 3]
    in
    let buf = Buffer.create (String.length payload) in
    Buffer.add_string buf (String.sub payload 0 3) (* opcode + u16 count *);
    let pos = ref 3 in
    while !pos + 4 <= String.length payload do
      let len = u32 payload !pos in
      let sub = String.sub payload (!pos + 4) len in
      let sub' = mutate_payload op f sub in
      let n = String.length sub' in
      Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
      Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
      Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
      Buffer.add_char buf (Char.chr (n land 0xFF));
      Buffer.add_string buf sub';
      pos := !pos + 4 + len
    done;
    Buffer.contents buf
  end
  else payload

let target op f payload = Wire.Frame.encode (mutate_payload op f payload)

let tamper_matrix =
  [
    (* name, scheme, frame mutation *)
    ("fragment bytes", Container.Ecb_mht, target 0x82 (flip 1));
    ("fragment short", Container.Ecb_mht, target 0x82 (drop_last 1));
    ("chunk bytes", Container.Cbc_shac, target 0x83 (flip 9));
    ("chunk plaintext digest", Container.Cbc_sha, target 0x83 (flip 9));
    ("chunk length", Container.Cbc_sha, target 0x83 (drop_last 8));
    ("digest blob", Container.Ecb_mht, target 0x84 (flip 1));
    ("digest short", Container.Cbc_sha, target 0x84 (drop_last 1));
    ("hash state bytes", Container.Ecb_mht, target 0x85 (flip 4));
    ("hash state length field", Container.Ecb_mht, target 0x85 (flip 2));
    (* serialized total no longer matches the buffered fill — used to trip
       an assert inside SHA-1 finalization instead of a typed error *)
    ( "hash state total desync",
      Container.Ecb_mht,
      target 0x85 (fun p ->
          let b = Bytes.of_string p in
          Bytes.set b 30 (Char.chr (Char.code p.[30] lxor 0x01));
          Bytes.unsafe_to_string b) );
    ("hash state fill desync", Container.Ecb_mht, target 0x85 (flip 31));
    ("sibling digest", Container.Ecb_mht, target 0x86 (flip 3));
    ("sibling count field", Container.Ecb_mht, target 0x86 (flip 2));
    ( "sibling cover shrunk",
      Container.Ecb_mht,
      target 0x86 (fun p ->
          (* patch the count down by one and drop the last digest: decodes
             fine, but the cover no longer matches what the SOE computed *)
          let b = Bytes.of_string (drop_last 20 p) in
          let count = Char.code p.[2] - 1 in
          Bytes.set b 2 (Char.chr count);
          Bytes.unsafe_to_string b) );
    ("frame header", Container.Ecb_mht, fun p -> flip 0 (Wire.Frame.encode p));
    ("hello scheme byte", Container.Cbc_shac, target 0x81 (flip 3));
  ]

let test_tamper_matrix () =
  List.iter
    (fun (name, scheme, mutate_frame) ->
      let cfg = cfg scheme in
      let published = Session.publish cfg ~layout:Layout.Tcsbr hospital in
      let server = Wire.Server.make published.Session.container in
      let ccfg = { Wire.Client.default_config with backoff_s = 0. } in
      match
        let remote =
          Remote.connect ~config:ccfg (mutating_connector server mutate_frame)
        in
        Session.evaluate_remote cfg remote Profiles.secretary
      with
      | _ -> Alcotest.failf "%s: tampered reply went unnoticed" name
      | exception Container.Integrity_failure _ -> ()
      | exception Wire.Error.Wire _ -> ()
      (* anything else escapes and fails the test run *))
    tamper_matrix

let test_integrity_failure_not_retried () =
  (* a cryptographic mismatch must surface immediately — zero retries *)
  let cfg = cfg Container.Ecb_mht in
  let published = Session.publish cfg ~layout:Layout.Tcsbr hospital in
  let server = Wire.Server.make published.Session.container in
  let remote =
    Remote.connect
      ~config:{ Wire.Client.default_config with backoff_s = 0. }
      (mutating_connector server (target 0x82 (flip 1)))
  in
  (match Session.evaluate_remote cfg remote Profiles.secretary with
  | _ -> Alcotest.fail "tampered fragment went unnoticed"
  | exception Container.Integrity_failure _ -> ()
  | exception Wire.Error.Wire _ ->
      Alcotest.fail "integrity violation surfaced as a wire error");
  let w = Remote.wire_stats remote in
  check int_t "no retries for an integrity failure" 0 w.Wire.Stats.retries

(* Fault injection -------------------------------------------------------- *)

let test_transient_fault_retried () =
  (* the first connection stalls; the retry reconnects and succeeds *)
  let cfg = cfg Container.Ecb_mht in
  let published = Session.publish cfg ~layout:Layout.Tcsbr hospital in
  let local = Session.evaluate cfg published Profiles.secretary in
  let server = Wire.Server.make published.Session.container in
  let first = ref true in
  let connector () =
    let inner = Wire.Server.loopback_connector server () in
    if !first then begin
      first := false;
      let t, _ =
        Wire.Fault.wrap
          ~rng:(fun _ -> 0)
          ~plan:{ Wire.Fault.probability = 1.0; kinds = [ Wire.Fault.Stall ] }
          inner
      in
      t
    end
    else inner
  in
  let remote =
    Remote.connect
      ~config:{ Wire.Client.default_config with backoff_s = 0. }
      connector
  in
  let m = Session.evaluate_remote cfg remote Profiles.secretary in
  Remote.close remote;
  check Alcotest.string "output correct after retry" (events_string local)
    (events_string m);
  let w = wire_stats m in
  check bool_t "the stall was retried" true (w.Wire.Stats.retries >= 1);
  check bool_t "with a reconnect" true (w.Wire.Stats.reconnects >= 1)

let test_persistent_stall_is_typed () =
  let cfg = cfg Container.Ecb_mht in
  let published = Session.publish cfg ~layout:Layout.Tcsbr hospital in
  let server = Wire.Server.make published.Session.container in
  let connector () =
    let t, _ =
      Wire.Fault.wrap
        ~rng:(fun _ -> 0)
        ~plan:{ Wire.Fault.probability = 1.0; kinds = [ Wire.Fault.Stall ] }
        (Wire.Server.loopback_connector server ())
    in
    t
  in
  match
    Remote.connect
      ~config:{ Wire.Client.default_config with backoff_s = 0. }
      connector
  with
  | _ -> Alcotest.fail "connect succeeded through a permanent stall"
  | exception Wire.Error.Wire (Wire.Error.Transport _) -> ()
  | exception Wire.Error.Wire e ->
      Alcotest.failf "expected a transport error, got: %s" (Wire.Error.to_string e)

let test_fault_sweep () =
  (* adversarial sweep: random faults of every kind; each run either
     produces byte-identical verified output or a typed error *)
  let cfg = cfg Container.Ecb_mht in
  let published = Session.publish cfg ~layout:Layout.Tcsbr hospital in
  let reference =
    events_string (Session.evaluate cfg published Profiles.secretary)
  in
  let server = Wire.Server.make published.Session.container in
  let survived = ref 0 and rejected = ref 0 in
  (* 100 seeds: survival is a statistical property (a run survives only
     when no fault lands in verified data), and the deterministic fault
     stream shifts whenever reply shapes change — a wide sweep keeps the
     assertion meaningful across protocol evolution *)
  for seed = 0 to 99 do
    let prng = Xmlac_workload.Prng.make ~seed in
    let rng n = Xmlac_workload.Prng.int prng n in
    let connector () =
      let t, _ =
        Wire.Fault.wrap ~rng
          ~plan:{ Wire.Fault.probability = 0.2; kinds = Wire.Fault.all_kinds }
          (Wire.Server.loopback_connector server ())
      in
      t
    in
    let ccfg =
      { Wire.Client.default_config with backoff_s = 0.; attempts = 4 }
    in
    match
      let remote = Remote.connect ~config:ccfg connector in
      let m = Session.evaluate_remote cfg remote Profiles.secretary in
      Remote.close remote;
      m
    with
    | m ->
        incr survived;
        if not (String.equal reference (events_string m)) then
          Alcotest.failf "seed %d: faults corrupted verified output" seed
    | exception Wire.Error.Wire _ -> incr rejected
    | exception Container.Integrity_failure _ -> incr rejected
  done;
  check int_t "every seed accounted for" 100 (!survived + !rejected);
  check bool_t "some runs survive their faults" true (!survived > 0)

(* Concurrency and sockets ------------------------------------------------ *)

let test_concurrent_sessions () =
  let cfg = cfg Container.Ecb_mht in
  let published = Session.publish cfg ~layout:Layout.Tcsbr hospital in
  let expected =
    events_string (Session.evaluate cfg published Profiles.secretary)
  in
  let server = Wire.Server.make published.Session.container in
  let n = 8 in
  let results = Array.make n "" in
  let failures = Array.make n None in
  let worker i =
    try
      let remote = Remote.connect (Wire.Server.loopback_connector server) in
      let m = Session.evaluate_remote cfg remote Profiles.secretary in
      Remote.close remote;
      results.(i) <- events_string m
    with e -> failures.(i) <- Some e
  in
  let threads = List.init n (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  Array.iteri
    (fun i -> function
      | Some e -> Alcotest.failf "session %d failed: %s" i (Printexc.to_string e)
      | None -> ())
    failures;
  Array.iteri
    (fun i r ->
      if not (String.equal expected r) then
        Alcotest.failf "session %d diverges from the reference output" i)
    results;
  let tel = (Wire.Server.telemetry_snapshot server).Wire.Telemetry.server in
  check bool_t "server tallied the sessions" true
    (tel.Wire.Telemetry.sr_requests > n)

let socket_equivalence addr () =
  let cfg = cfg Container.Ecb_mht in
  let published = Session.publish cfg ~layout:Layout.Tcsbr hospital in
  let expected =
    events_string (Session.evaluate cfg published Profiles.secretary)
  in
  let server = Wire.Server.make published.Session.container in
  let listener = Wire.Transport.listen addr in
  let stop = ref false in
  let server_thread =
    Thread.create (fun () -> Wire.Server.serve ~stop server listener) ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      Thread.join server_thread;
      Wire.Transport.close_listener listener)
    (fun () ->
      let bound = Wire.Transport.bound_addr listener in
      let remote = Remote.connect (fun () -> Wire.Transport.connect bound) in
      let m = Session.evaluate_remote cfg remote Profiles.secretary in
      Remote.close remote;
      check Alcotest.string "socket output identical" expected (events_string m);
      let w = wire_stats m in
      check int_t "socket payload bytes == channel bytes"
        m.Session.counters.Channel.bytes_to_soe w.Wire.Stats.payload_bytes)

let test_unix_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmlac-wire-test-%d.sock" (Unix.getpid ()))
  in
  socket_equivalence (Wire.Transport.Unix_socket path) ();
  check bool_t "socket file removed on shutdown" false (Sys.file_exists path)

let test_tcp_socket () =
  socket_equivalence (Wire.Transport.Tcp ("127.0.0.1", 0)) ()

(* [n] concurrent ECB-MHT Secretary sessions, each on its own TCP
   connection, against [server] run with two acceptor domains racing over
   one listener. Returns each session's view once [serve] has returned
   with every domain joined. *)
let race_two_domains server n =
  let listener = Wire.Transport.listen (Wire.Transport.Tcp ("127.0.0.1", 0)) in
  let stop = ref false in
  let served = ref None in
  let server_thread =
    Thread.create
      (fun () ->
        served :=
          Some
            (match Wire.Server.serve ~domains:2 ~stop server listener with
            | () -> Ok ()
            | exception e -> Error e))
      ()
  in
  let bound = Wire.Transport.bound_addr listener in
  let results = Array.make n "" in
  let failures = Array.make n None in
  let worker i =
    try
      let r = Remote.connect (fun () -> Wire.Transport.connect bound) in
      let m =
        Session.evaluate_remote (cfg Container.Ecb_mht) r Profiles.secretary
      in
      Remote.close r;
      results.(i) <- events_string m
    with e -> failures.(i) <- Some e
  in
  List.iter Thread.join (List.init n (Thread.create worker));
  stop := true;
  Thread.join server_thread;
  Wire.Transport.close_listener listener;
  (match !served with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "serve raised %s" (Printexc.to_string e)
  | None -> Alcotest.fail "serve did not return");
  Array.iteri
    (fun i -> function
      | Some e ->
          Alcotest.failf "session %d failed: %s" i (Printexc.to_string e)
      | None -> ())
    failures;
  results

let local_secretary_view published =
  events_string
    (Session.evaluate (cfg Container.Ecb_mht) published Profiles.secretary)

(* Two acceptor domains race over one listener: concurrent sessions are each
   served byte-identical to the local view, and once stopped, [serve]
   returns with every domain joined and no session left active. *)
let test_two_acceptor_domains () =
  let published =
    Session.publish (cfg Container.Ecb_mht) ~layout:Layout.Tcsbr hospital
  in
  let expected = local_secretary_view published in
  let server = Wire.Server.make published.Session.container in
  let n = 6 in
  Array.iteri
    (fun i r ->
      if not (String.equal expected r) then
        Alcotest.failf "session %d diverges from the local view" i)
    (race_two_domains server n);
  let tel = (Wire.Server.telemetry_snapshot server).Wire.Telemetry.server in
  check bool_t "every session admitted" true
    (tel.Wire.Telemetry.sr_admitted >= n);
  check int_t "no session left active" 0 tel.Wire.Telemetry.sr_active

(* Backoff: decorrelated jitter with a cumulative ceiling ----------------- *)

let float_t = Alcotest.float 1e-12

(* the schedule is a pure function of the config — these values are the
   contract; a PRNG or clamping change must show up here *)
let test_backoff_schedule_pinned () =
  let cfg seed attempts =
    { Wire.Client.default_config with attempts; retry_seed = seed }
  in
  List.iter
    (fun (c, expect) ->
      let got = Wire.Client.backoff_schedule c in
      check int_t "schedule length" (List.length expect) (List.length got);
      List.iter2 (fun e g -> check float_t "sleep pinned" e g) expect got)
    [
      ( cfg 7 6,
        [
          0.088982974839127149;
          0.053642202442364513;
          0.14991832631336527;
          0.28302928701298324;
          0.41154082612912329;
        ] );
      ( cfg 8 6,
        [
          0.11185046250316945;
          0.22474262797038635;
          0.48011133569769426;
          (* the ceiling truncates here: 0.183… tops the budget up to
             exactly backoff_cap_s, and the last sleep is 0 *)
          0.18329557382874995;
          0.;
        ] );
      ( { (cfg 7 10) with Wire.Client.backoff_cap_s = 0.2 },
        [
          0.088982974839127149;
          0.053642202442364513;
          0.057374822718508349;
          0.;
          0.;
          0.;
          0.;
          0.;
          0.;
        ] );
    ]

let test_backoff_schedule_invariants () =
  for seed = 0 to 19 do
    let c =
      { Wire.Client.default_config with attempts = 8; retry_seed = seed }
    in
    let s = Wire.Client.backoff_schedule c in
    check int_t "attempts-1 sleeps" 7 (List.length s);
    let sum = List.fold_left ( +. ) 0. s in
    check bool_t "cumulative sleep bounded by the ceiling" true
      (sum <= c.Wire.Client.backoff_cap_s +. 1e-9);
    List.iter
      (fun d ->
        check bool_t "each sleep within [0, cap]" true
          (d >= 0. && d <= c.Wire.Client.backoff_cap_s +. 1e-12))
      s;
    (* once the budget is spent, every later sleep is 0; and every
       nonzero sleep except the budget-truncated final one respects the
       base *)
    let rec zeros_only_at_tail = function
      | [] -> true
      | 0. :: tl -> List.for_all (fun d -> d = 0.) tl
      | _ :: tl -> zeros_only_at_tail tl
    in
    check bool_t "zeros only after the budget is spent" true
      (zeros_only_at_tail s);
    let rec all_but_last_respect_base = function
      | [] | [ (_ : float) ] -> true
      | d :: tl ->
          d >= c.Wire.Client.backoff_s -. 1e-12
          && all_but_last_respect_base tl
    in
    check bool_t "base respected until the budget truncates" true
      (all_but_last_respect_base (List.filter (fun d -> d <> 0.) s));
    check bool_t "deterministic in the seed" true
      (s = Wire.Client.backoff_schedule c)
  done;
  List.iter
    (fun d -> check float_t "backoff_s = 0 disables sleeping" 0. d)
    (Wire.Client.backoff_schedule
       { Wire.Client.default_config with backoff_s = 0.; attempts = 5 });
  let sched seed =
    Wire.Client.backoff_schedule
      { Wire.Client.default_config with attempts = 6; retry_seed = seed }
  in
  check bool_t "distinct seeds de-synchronize" false (sched 1 = sched 2)

let test_parse_addr () =
  (match Wire.Transport.parse_addr "unix:/tmp/t.sock" with
  | Ok (Wire.Transport.Unix_socket p) -> check Alcotest.string "path" "/tmp/t.sock" p
  | _ -> Alcotest.fail "unix addr");
  (match Wire.Transport.parse_addr "tcp:127.0.0.1:8080" with
  | Ok (Wire.Transport.Tcp (h, p)) ->
      check Alcotest.string "host" "127.0.0.1" h;
      check int_t "port" 8080 p
  | _ -> Alcotest.fail "tcp addr");
  List.iter
    (fun s ->
      match Wire.Transport.parse_addr s with
      | Ok _ -> Alcotest.failf "bad address %S accepted" s
      | Error _ -> ())
    [ ""; "garbage"; "unix:"; "tcp:"; "tcp:host"; "tcp:host:notaport"; "tcp::99999999" ]

(* Registry: many published containers on one server ---------------------- *)

let publish_scheme scheme =
  Session.publish (cfg scheme) ~layout:Layout.Tcsbr hospital

let test_registry () =
  let server = Wire.Server.create () in
  (match Wire.Server.metadata server with
  | (_ : Wire.Protocol.metadata) -> Alcotest.fail "empty registry has metadata"
  | exception Invalid_argument _ -> ());
  let pa = publish_scheme Container.Ecb_mht in
  let pb = publish_scheme Container.Cbc_sha in
  Wire.Server.publish server ~id:"records" pa.Session.container;
  Wire.Server.publish server ~id:"billing" pb.Session.container;
  check bool_t "ids listed in publication order" true
    (Wire.Server.container_ids server = [ "records"; "billing" ]);
  (match Wire.Server.metadata_of server "billing" with
  | Some m ->
      check bool_t "per-id metadata" true
        (m.Wire.Protocol.scheme = Container.Cbc_sha)
  | None -> Alcotest.fail "billing unpublished");
  check bool_t "unknown id has no metadata" true
    (Wire.Server.metadata_of server "nope" = None);
  (* empty and oversized ids are publication errors *)
  (match Wire.Server.publish server ~id:"" pa.Session.container with
  | () -> Alcotest.fail "empty id accepted"
  | exception Invalid_argument _ -> ());
  (match
     Wire.Server.publish server
       ~id:(String.make (Wire.Protocol.max_container_id + 1) 'x')
       pa.Session.container
   with
  | () -> Alcotest.fail "oversized id accepted"
  | exception Invalid_argument _ -> ());
  (* a named client binds its container; default binds the first *)
  let fetch ~config =
    let c = Wire.Client.connect ~config (Wire.Server.loopback_connector server) in
    let meta = Wire.Client.metadata c in
    Wire.Client.close c;
    meta.Wire.Protocol.scheme
  in
  check bool_t "default binding = first published" true
    (fetch ~config:Wire.Client.default_config = Container.Ecb_mht);
  check bool_t "named binding" true
    (fetch
       ~config:{ Wire.Client.default_config with container = "billing" }
    = Container.Cbc_sha);
  (* unknown container: refused at the handshake, typed *)
  (match
     fetch ~config:{ Wire.Client.default_config with container = "nope" }
   with
  | (_ : Container.scheme) -> Alcotest.fail "unknown container served"
  | exception Wire.Error.Wire (Wire.Error.Handshake _) -> ());
  (* unpublish: the id stops answering; republishing serves new bytes *)
  check bool_t "unpublish removes" true
    (Wire.Server.unpublish server ~id:"records");
  check bool_t "unpublish is idempotent" false
    (Wire.Server.unpublish server ~id:"records");
  (match
     fetch ~config:{ Wire.Client.default_config with container = "records" }
   with
  | (_ : Container.scheme) -> Alcotest.fail "unpublished container served"
  | exception Wire.Error.Wire (Wire.Error.Handshake _) -> ());
  Wire.Server.publish server ~id:"records" pb.Session.container;
  check bool_t "republished id serves the new container" true
    (fetch ~config:{ Wire.Client.default_config with container = "records" }
    = Container.Cbc_sha)

(* An ECB-MHT publication, and its container read back from its bytes:
   that one holds no node tables, so its first sessions build them. *)
let parsed_ecb_mht () =
  let published = publish_scheme Container.Ecb_mht in
  ( published,
    Container.of_bytes (Container.to_bytes published.Session.container) )

(* the server's node-table hits and misses, as telemetry reports them *)
let table_lookups server =
  let sr = (Wire.Server.telemetry_snapshot server).Wire.Telemetry.server in
  (sr.Wire.Telemetry.sr_cache_hits, sr.Wire.Telemetry.sr_cache_misses)

let loopback_session server =
  let remote = Remote.connect (Wire.Server.loopback_connector server) in
  let (_ : Session.measurement) =
    Session.evaluate_remote (cfg Container.Ecb_mht) remote Profiles.secretary
  in
  Remote.close remote

(* The terminal keeps no cache of its own: a sibling request reads the
   container's node table, and telemetry counts a hit when the table was
   present and a miss when the request built it. *)
let test_registry_shared_cache () =
  let server = Wire.Server.create () in
  Wire.Server.publish server ~id:"doc" (snd (parsed_ecb_mht ()));
  loopback_session server;
  let hits, misses = table_lookups server in
  check bool_t "the first session builds tables" true (misses > 0);
  (* every session asks the same siblings, and once its tables are built
     each request finds them *)
  for i = 1 to 2 do
    loopback_session server;
    check
      Alcotest.(pair int int)
      "a later session only hits"
      (hits + (i * (hits + misses)), misses)
      (table_lookups server)
  done

(* Eight sessions race over two acceptor domains for a container that
   holds no tables. The present-or-build decision and the fill happen
   under the server's tree lock, so each table is built exactly once
   however the domains interleave. *)
let test_concurrent_table_fills () =
  let single = Wire.Server.create () in
  Wire.Server.publish single ~id:"doc" (snd (parsed_ecb_mht ()));
  loopback_session single;
  let single_hits, single_misses = table_lookups single in
  let published, parsed = parsed_ecb_mht () in
  let expected = local_secretary_view published in
  let server = Wire.Server.create () in
  Wire.Server.publish server ~id:"doc" parsed;
  let n = 8 in
  Array.iteri
    (fun i r ->
      if not (String.equal expected r) then
        Alcotest.failf "session %d diverges from the local view" i)
    (race_two_domains server n);
  let hits, misses = table_lookups server in
  check int_t "each table built once" single_misses misses;
  check int_t "every sibling request counted"
    (n * (single_hits + single_misses))
    (hits + misses)

(* Admission control: typed Busy + wakeup on release ---------------------- *)

let test_busy_churn () =
  let cfg0 = cfg Container.Ecb_mht in
  let published = Session.publish cfg0 ~layout:Layout.Tcsbr hospital in
  let server = Wire.Server.make published.Session.container in
  let listener = Wire.Transport.listen (Wire.Transport.Tcp ("127.0.0.1", 0)) in
  let stop = ref false in
  let th =
    Thread.create
      (fun () ->
        try Wire.Server.serve ~max_sessions:2 ~stop server listener
        with Wire.Error.Wire _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      Thread.join th;
      Wire.Transport.close_listener listener)
    (fun () ->
      let bound = Wire.Transport.bound_addr listener in
      let connector () = Wire.Transport.connect bound in
      let no_retry =
        { Wire.Client.default_config with attempts = 1; backoff_s = 0. }
      in
      let c1 = Wire.Client.connect ~config:no_retry connector in
      let c2 = Wire.Client.connect ~config:no_retry connector in
      (* at the cap: the next connect is rejected immediately with the
         typed, retryable Busy — never parked on a waiting socket *)
      (match Wire.Client.connect ~config:no_retry connector with
      | (_ : Wire.Client.t) -> Alcotest.fail "over-cap connect admitted"
      | exception Wire.Error.Wire (Wire.Error.Busy _ as e) ->
          check bool_t "busy is retryable" true (Wire.Error.retryable e));
      (* release one session: a retrying client's later attempt succeeds *)
      Wire.Client.close c1;
      let retrying =
        {
          Wire.Client.default_config with
          attempts = 10;
          backoff_s = 0.01;
          backoff_cap_s = 2.0;
        }
      in
      let c3 = Wire.Client.connect ~config:retrying connector in
      check bool_t "fetch works after churn" true
        (String.length (Wire.Client.fetch_digest c3 ~chunk:0) > 0);
      Wire.Client.close c3;
      Wire.Client.close c2);
  let tel = (Wire.Server.telemetry_snapshot server).Wire.Telemetry.server in
  check bool_t "busy rejections counted" true
    (tel.Wire.Telemetry.sr_busy_rejections >= 1)

(* Mux: N concurrent sessions over one connection ≡ one plain connection --- *)

(* Serve [containers] on a TCP listener, run [f], drain, then hand the
   server to [after] — telemetry is only fully flushed once every
   connection's serve loop has ended, so counter checks belong there. *)
let with_fleet_server ?(max_sessions = 8)
    ?(after = fun (_ : Wire.Server.t) -> ()) containers f =
  let server = Wire.Server.create () in
  List.iter
    (fun (id, container) -> Wire.Server.publish server ~id container)
    containers;
  let listener = Wire.Transport.listen (Wire.Transport.Tcp ("127.0.0.1", 0)) in
  let stop = ref false in
  let th =
    Thread.create
      (fun () ->
        try Wire.Server.serve ~max_sessions ~stop server listener
        with Wire.Error.Wire _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      Thread.join th;
      Wire.Transport.close_listener listener;
      after server)
    (fun () ->
      f server (fun () -> Wire.Transport.connect (Wire.Transport.bound_addr listener)))

let test_mux_equivalence scheme () =
  let cfg0 = cfg scheme in
  let published = Session.publish cfg0 ~layout:Layout.Tcsbr hospital in
  let n = 4 in
  with_fleet_server
    ~after:(fun server ->
      let tel = (Wire.Server.telemetry_snapshot server).Wire.Telemetry.server in
      check bool_t "server counted the mux sessions" true
        (tel.Wire.Telemetry.sr_mux_opened >= n))
    [ ("doc", published.Session.container) ]
    (fun (_ : Wire.Server.t) connector ->
      (* the sequential reference: one plain connection *)
      let reference =
        let r = Remote.connect connector in
        let m = Session.evaluate_remote cfg0 r Profiles.secretary in
        check bool_t "plain connection is not multiplexed" false
          (Remote.metadata r).Wire.Protocol.mux;
        Remote.close r;
        m
      in
      let mux = Wire.Mux.connect connector in
      let results = Array.make n None in
      let failures = Array.make n None in
      let worker i =
        try
          let r = Remote.connect ~container:"doc" (Wire.Mux.session mux) in
          let m = Session.evaluate_remote cfg0 r Profiles.secretary in
          check bool_t "mux session metadata carries the grant" true
            (Remote.metadata r).Wire.Protocol.mux;
          Remote.close r;
          results.(i) <- Some m
        with e -> failures.(i) <- Some e
      in
      let threads = List.init n (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Array.iteri
        (fun i -> function
          | Some e ->
              Alcotest.failf "session %d failed: %s" i (Printexc.to_string e)
          | None -> ())
        failures;
      Array.iteri
        (fun i m ->
          match m with
          | None -> Alcotest.failf "session %d produced nothing" i
          | Some m ->
              check Alcotest.string "byte-identical to the plain connection"
                (events_string reference) (events_string m);
              check int_t "payload accounting identical to the plain connection"
                (wire_stats reference).Wire.Stats.payload_bytes
                (wire_stats m).Wire.Stats.payload_bytes)
        results;
      Wire.Mux.close mux)

(* One version: refusals are final ---------------------------------------- *)

(* A generation-1, key-epoch-1 container: what a terminal serves after a
   key rotation. *)
let rotated_server () =
  let key = Xmlac_crypto.Des.Triple.key_of_string "xmlac-rotate-24-byte-key" in
  let c =
    Container.encrypt ~chunk_size:512 ~fragment_size:64 ~generation:1
      ~key_epoch:1 ~scheme:Container.Ecb_mht ~key
      (Xmlac_skip_index.Encoder.encode ~layout:Layout.Tcsbr hospital)
  in
  Wire.Server.make c

(* A loopback terminal that refuses the first hello it sees (a frame whose
   payload opens with the hello opcode) and serves everything after it;
   [hellos] counts every hello the client sent. *)
let refuse_first_hello server hellos () =
  let inner = Wire.Server.loopback_connector server () in
  let pending = ref "" in
  let write data =
    if String.length data > 4 && data.[4] = '\x01' then begin
      incr hellos;
      if !hellos = 1 then
        pending :=
          Wire.Frame.encode
            (Wire.Protocol.encode_response
               (Wire.Protocol.Err
                  {
                    code = Wire.Protocol.err_unsupported;
                    message = "hello refused";
                  }))
      else Wire.Transport.write inner data
    end
    else Wire.Transport.write inner data
  in
  let read buf off len =
    if !pending = "" then Wire.Transport.read inner buf off len
    else begin
      let n = min len (String.length !pending) in
      Bytes.blit_string !pending 0 buf off n;
      pending := String.sub !pending n (String.length !pending - n);
      n
    end
  in
  Wire.Transport.make ~read ~write
    ~close:(fun () -> Wire.Transport.close inner)
    ~peer:"loopback+refusing" ()

let test_refused_hello_is_final () =
  let server = rotated_server () in
  let hellos = ref 0 in
  (match
     Remote.connect
       ~config:{ Wire.Client.default_config with backoff_s = 0. }
       (refuse_first_hello server hellos)
   with
  | r ->
      let m = Remote.metadata r in
      Remote.close r;
      Alcotest.failf
        "refused hello answered by a second one (generation %d, key epoch %d)"
        m.Wire.Protocol.generation m.Wire.Protocol.key_epoch
  | exception Wire.Error.Wire (Wire.Error.Handshake _) -> ());
  check int_t "exactly one hello" 1 !hellos;
  (* without the refusal the same terminal reports the rotation *)
  let r = Remote.connect (Wire.Server.loopback_connector server) in
  let m = Remote.metadata r in
  Remote.close r;
  check int_t "generation" 1 m.Wire.Protocol.generation;
  check int_t "key epoch" 1 m.Wire.Protocol.key_epoch

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A hello of another version gets a typed [Err] — on a plain TCP
   connection, in a mux session and on the loopback alike — and the
   connection keeps serving. *)
let test_other_version_refused_on_every_path () =
  let published = publish_scheme Container.Ecb_mht in
  let old_hello = Wire.Frame.encode "\x01XWTP\x00\x02\x00\x00\x00" in
  let refused name tr =
    Wire.Transport.write tr old_hello;
    (match Wire.Protocol.decode_response (Wire.Frame.read tr) with
    | Wire.Protocol.Err { code; message } ->
        check int_t (name ^ ": typed refusal") Wire.Protocol.err_bad_request
          code;
        check bool_t (name ^ ": names the version") true
          (contains message "version")
    | _ -> Alcotest.failf "%s: hello of version 2 answered" name);
    (* the refusal is a reply, not a hang-up *)
    let get_chunk = Wire.Protocol.Get_chunk { chunk = 0 } in
    Wire.Transport.write tr
      (Wire.Frame.encode (Wire.Protocol.encode_request get_chunk));
    match Wire.Protocol.decode_response (Wire.Frame.read tr) with
    | Wire.Protocol.Chunk _ -> ()
    | _ -> Alcotest.failf "%s: no data after the refusal" name
  in
  with_fleet_server
    [ ("doc", published.Session.container) ]
    (fun _server connector ->
      let tr = connector () in
      refused "plain tcp" tr;
      Wire.Transport.close tr;
      let mux = Wire.Mux.connect connector in
      let s = Wire.Mux.session mux () in
      refused "mux session" s;
      Wire.Transport.close s;
      Wire.Mux.close mux);
  let server = Wire.Server.make published.Session.container in
  let tr = Wire.Server.loopback_connector server () in
  refused "loopback" tr;
  Wire.Transport.close tr

let test_loopback_mux_probe_refused () =
  let published = publish_scheme Container.Ecb_mht in
  let server = Wire.Server.make published.Session.container in
  (match Wire.Mux.connect (Wire.Server.loopback_connector server) with
  | (_ : Wire.Mux.t) -> Alcotest.fail "loopback granted session multiplexing"
  | exception Wire.Error.Wire (Wire.Error.Handshake _) -> ());
  (* an over-long trace id never reaches the wire *)
  match
    Wire.Mux.connect
      ~trace:(String.make (Wire.Protocol.max_trace_id + 1) 'x')
      (Wire.Server.loopback_connector server)
  with
  | (_ : Wire.Mux.t) -> Alcotest.fail "oversized trace id accepted"
  | exception Invalid_argument _ -> ()

(* A closed endpoint stays closed: no later session quietly opens a plain
   connection instead. *)
let test_mux_close_is_final () =
  let published = publish_scheme Container.Ecb_mht in
  with_fleet_server
    [ ("doc", published.Session.container) ]
    (fun _server connector ->
      let mux = Wire.Mux.connect connector in
      let r = Remote.connect ~container:"doc" (Wire.Mux.session mux) in
      let m =
        Session.evaluate_remote (cfg Container.Ecb_mht) r Profiles.secretary
      in
      check bool_t "session served before close" true
        (String.length (events_string m) > 0);
      Remote.close r;
      Wire.Mux.close mux;
      match Wire.Mux.session mux () with
      | tr ->
          Wire.Transport.close tr;
          Alcotest.fail "closed endpoint opened a session"
      | exception Invalid_argument _ -> ())

(* A connector whose transports copy every byte they write into
   [written]. *)
let tapped connector written () =
  let tr = connector () in
  Wire.Transport.make ~local:(Wire.Transport.local tr)
    ~read:(Wire.Transport.read tr)
    ~write:(fun data ->
      Buffer.add_string written data;
      Wire.Transport.write tr data)
    ~close:(fun () -> Wire.Transport.close tr)
    ~peer:(Wire.Transport.peer tr) ()

(* The payloads of the frames in [written]. A mux frame splits like a plain
   one whose payload opens with the u32 session id. *)
let frames written =
  let s = Buffer.contents written in
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      let payload, next = Wire.Frame.split s ~off in
      go next (payload :: acc)
  in
  go 0 []

(* One mux session writes one frame per request its client counts: the
   client's Bye round trip retires the session, so closing its transport
   sends no second Bye. *)
let test_mux_session_sends_one_bye () =
  let published = publish_scheme Container.Ecb_mht in
  with_fleet_server
    [ ("doc", published.Session.container) ]
    (fun _server connector ->
      let written = Buffer.create 4096 in
      let mux = Wire.Mux.connect (tapped connector written) in
      let r = Remote.connect ~container:"doc" (Wire.Mux.session mux) in
      let m =
        Session.evaluate_remote (cfg Container.Ecb_mht) r Profiles.secretary
      in
      Remote.close r;
      let requests = (wire_stats m).Wire.Stats.requests in
      Wire.Mux.close mux;
      match frames written with
      | [] -> Alcotest.fail "the endpoint wrote no probe"
      | _probe :: session_frames ->
          check int_t "frames written = requests counted" requests
            (List.length session_frames))

(* Telemetry counts SOE sessions, not hellos: the endpoint's probe and the
   admin-plane connection bind the default tenant but fetch no data. *)
let test_mux_telemetry_counts_sessions () =
  let published = publish_scheme Container.Ecb_mht in
  let sessions (v : Wire.Telemetry.view) =
    List.map
      (fun (tv : Wire.Telemetry.tenant_view) ->
        (tv.Wire.Telemetry.tv_id, tv.Wire.Telemetry.tv_sessions))
      v.Wire.Telemetry.tenants
  in
  let one_session = Alcotest.(list (pair string int)) in
  with_fleet_server
    ~after:(fun server ->
      check one_session "registry after the drain" [ ("doc", 1) ]
        (sessions (Wire.Server.telemetry_snapshot server)))
    [ ("doc", published.Session.container) ]
    (fun _server connector ->
      let mux = Wire.Mux.connect connector in
      let r = Remote.connect ~container:"doc" (Wire.Mux.session mux) in
      let (_ : Session.measurement) =
        Session.evaluate_remote (cfg Container.Ecb_mht) r Profiles.secretary
      in
      Remote.close r;
      let admin = Wire.Client.connect (Wire.Mux.session mux) in
      let doc = Wire.Client.fetch_stats admin in
      Wire.Client.close admin;
      Wire.Mux.close mux;
      match Wire.Telemetry.of_string doc with
      | Ok v -> check one_session "stats frame" [ ("doc", 1) ] (sessions v)
      | Error e -> Alcotest.failf "stats reply did not decode: %s" e)

(* Session churn on one mux connection: closing a session transport
   without a protocol Bye (the shape of the client's retry-path [drop])
   must still retire the server-side binding — otherwise a long-lived
   multiplexed connection creeps toward [max_mux_sessions] under churn
   and spuriously busy-rejects fresh sessions. *)
let test_mux_session_churn () =
  let published = publish_scheme Container.Ecb_mht in
  let server = Wire.Server.create () in
  Wire.Server.publish server ~id:"doc" published.Session.container;
  let cap = 2 in
  let listener = Wire.Transport.listen (Wire.Transport.Tcp ("127.0.0.1", 0)) in
  let th =
    Thread.create
      (fun () ->
        let tr = Wire.Transport.accept listener in
        Wire.Server.serve_connection ~max_mux_sessions:cap server tr)
      ()
  in
  let tr = Wire.Transport.connect (Wire.Transport.bound_addr listener) in
  let mux = Wire.Mux.connect (fun () -> tr) in
  let hello s =
    Wire.Transport.write s
      (Wire.Frame.encode
         (Wire.Protocol.encode_request
            (Wire.Protocol.Hello { container = ""; mux = false; trace = "" })));
    Wire.Protocol.decode_response (Wire.Frame.read s)
  in
  (* churn well past the cap; every close is transport-level only *)
  for i = 1 to (3 * cap) + 1 do
    let s = Wire.Mux.session mux () in
    (match hello s with
    | Wire.Protocol.Hello_ok _ -> ()
    | Wire.Protocol.Err { code; message } ->
        Alcotest.fail
          (Printf.sprintf "churned session %d refused (%d): %s" i code message)
    | _ -> Alcotest.fail "unexpected hello reply");
    Wire.Transport.close s
  done;
  (* the cap still binds for genuinely concurrent sessions… *)
  let s1 = Wire.Mux.session mux () in
  let s2 = Wire.Mux.session mux () in
  (match (hello s1, hello s2) with
  | Wire.Protocol.Hello_ok _, Wire.Protocol.Hello_ok _ -> ()
  | _ -> Alcotest.fail "concurrent sessions within the cap refused");
  let s3 = Wire.Mux.session mux () in
  (match hello s3 with
  | Wire.Protocol.Err { code; _ } when code = Wire.Protocol.err_busy -> ()
  | _ -> Alcotest.fail "session past the cap not busy-rejected");
  Wire.Transport.close s3;
  (* …and a transport-level close frees its slot for the next session *)
  Wire.Transport.close s1;
  let s4 = Wire.Mux.session mux () in
  (match hello s4 with
  | Wire.Protocol.Hello_ok _ -> ()
  | _ -> Alcotest.fail "slot freed by transport close not reusable");
  Wire.Transport.close s4;
  Wire.Transport.close s2;
  Wire.Mux.close mux;
  Thread.join th;
  Wire.Transport.close_listener listener

let () =
  Alcotest.run "wire"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "hash state padding" `Quick test_hash_state_padding;
          Alcotest.test_case "metadata validation" `Quick
            test_metadata_geometry_rejects;
          Alcotest.test_case "hello layouts pinned" `Quick
            test_hello_layout_pinned;
          Alcotest.test_case "other versions refused by both decoders" `Quick
            test_other_versions_refused;
          Alcotest.test_case "parse addr" `Quick test_parse_addr;
          QCheck_alcotest.to_alcotest decoders_total;
          QCheck_alcotest.to_alcotest server_total;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "schedule pinned" `Quick
            test_backoff_schedule_pinned;
          Alcotest.test_case "schedule invariants" `Quick
            test_backoff_schedule_invariants;
        ] );
      ( "registry",
        [
          Alcotest.test_case "publish/unpublish/bind" `Quick test_registry;
          Alcotest.test_case "shared leaves cache" `Quick
            test_registry_shared_cache;
        ] );
      ( "loopback",
        List.map
          (fun scheme ->
            Alcotest.test_case
              (Container.scheme_to_string scheme ^ " equivalence")
              `Quick
              (test_loopback_equivalence scheme))
          Container.all_schemes
        @ [
            Alcotest.test_case "25+ random pairs" `Slow test_random_pairs;
            Alcotest.test_case "out of range -> server error" `Quick
              test_out_of_range_is_server_error;
          ] );
      ( "batch",
        [
          Alcotest.test_case "codec limits" `Quick test_batch_codec_limits;
          Alcotest.test_case "fetch_batch ≡ individual fetches" `Quick
            test_fetch_batch_equivalence;
          Alcotest.test_case "remote session batches prefetches" `Quick
            test_remote_session_batches_prefetches;
          Alcotest.test_case "worst-case window fills one Batch" `Quick
            test_worst_case_window;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "tamper matrix" `Quick test_tamper_matrix;
          Alcotest.test_case "integrity failure not retried" `Quick
            test_integrity_failure_not_retried;
          Alcotest.test_case "transient fault retried" `Quick
            test_transient_fault_retried;
          Alcotest.test_case "persistent stall is typed" `Quick
            test_persistent_stall_is_typed;
          Alcotest.test_case "fault sweep" `Slow test_fault_sweep;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "8 concurrent sessions" `Quick
            test_concurrent_sessions;
          Alcotest.test_case "unix socket" `Quick test_unix_socket;
          Alcotest.test_case "tcp socket" `Quick test_tcp_socket;
          Alcotest.test_case "two acceptor domains" `Quick
            test_two_acceptor_domains;
          Alcotest.test_case "racing sessions build each table once" `Quick
            test_concurrent_table_fills;
          Alcotest.test_case "busy churn at the session cap" `Quick
            test_busy_churn;
        ] );
      ( "mux",
        List.map
          (fun scheme ->
            (* the names date from when the plain reference spoke v1.1;
               they are kept so the cases stay comparable across runs *)
            Alcotest.test_case
              (Container.scheme_to_string scheme ^ " mux ≡ sequential v1.1")
              `Quick
              (test_mux_equivalence scheme))
          Container.all_schemes
        @ [
            Alcotest.test_case "session churn retires bindings" `Quick
              test_mux_session_churn;
            Alcotest.test_case "close is final" `Quick test_mux_close_is_final;
            Alcotest.test_case "a session sends one Bye" `Quick
              test_mux_session_sends_one_bye;
            Alcotest.test_case "telemetry counts sessions, not hellos" `Quick
              test_mux_telemetry_counts_sessions;
            Alcotest.test_case "loopback probe refused" `Quick
              test_loopback_mux_probe_refused;
          ] );
      ( "handshake",
        [
          Alcotest.test_case "refused hello is final" `Quick
            test_refused_hello_is_final;
          Alcotest.test_case "other version refused on every path" `Quick
            test_other_version_refused_on_every_path;
        ] );
    ]
