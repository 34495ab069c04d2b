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
    Wire.Protocol.Hello
      { version = Wire.Protocol.version; container = ""; mux = false;
        trace = "" };
    Wire.Protocol.Hello
      { version = Wire.Protocol.version; container = "records"; mux = true;
        trace = "" };
    Wire.Protocol.Hello
      { version = Wire.Protocol.version; container = "records"; mux = true;
        trace = "client-42" };
    Wire.Protocol.Hello
      { version = Wire.Protocol.version; container = ""; mux = false;
        trace = String.make Wire.Protocol.max_trace_id 't' };
    Wire.Protocol.Hello { version = 1; container = ""; mux = false; trace = "" };
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
        Wire.Protocol.meta_version = 1;
        scheme = Container.Ecb_mht;
        chunk_size = 512;
        fragment_size = 64;
        payload_length = 5000;
        chunk_count = 10;
        integrity = true;
        batching = true;
        mux = false;
        trace = false;
        generation = 0;
        key_epoch = 0;
      };
    Wire.Protocol.Hello_ok
      {
        Wire.Protocol.meta_version = 2;
        scheme = Container.Cbc_sha;
        chunk_size = 512;
        fragment_size = 64;
        payload_length = 5000;
        chunk_count = 10;
        integrity = true;
        batching = true;
        mux = true;
        trace = true;
        generation = 0;
        key_epoch = 0;
      };
    Wire.Protocol.Hello_ok
      {
        Wire.Protocol.meta_version = 3;
        scheme = Container.Ecb_mht;
        chunk_size = 512;
        fragment_size = 64;
        payload_length = 5000;
        chunk_count = 10;
        integrity = true;
        batching = true;
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
      Wire.Protocol.meta_version = Wire.Protocol.version;
      scheme = Container.Ecb_mht;
      chunk_size = 512;
      fragment_size = 64;
      payload_length;
      chunk_count;
      integrity = true;
      batching = true;
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
  check bool_t "wrong version rejected" true
    (rejected { (meta 1 100) with Wire.Protocol.meta_version = 99 });
  check bool_t "mux grant under v1 metadata rejected" true
    (rejected { (meta 1 100) with Wire.Protocol.meta_version = 1; mux = true });
  check bool_t "trace grant under v1 metadata rejected" true
    (rejected
       { (meta 1 100) with Wire.Protocol.meta_version = 1; trace = true });
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
            Wire.Protocol.Hello
              { version = Wire.Protocol.version; container = ""; mux = false;
                trace = "" };
          ]));
  check bool_t "Get_stats cannot be batched" true
    (rejected (Wire.Protocol.Batch [ Wire.Protocol.Get_stats ]));
  (* a hostile frame smuggling a batched Hello must be rejected at decode *)
  let smuggled =
    let sub_bytes =
      Wire.Protocol.encode_request
        (Wire.Protocol.Hello
           { version = 1; container = ""; mux = false; trace = "" })
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

(* a remote session's window planner coalesces its predicted fetches into
   Batch frames, and the view stays byte-identical to the local one *)
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
  let totals = Wire.Server.totals server in
  check bool_t "server tallied the sessions" true
    (totals.Wire.Stats.requests > n)

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

(* Two acceptor domains race over one listener: concurrent sessions are each
   served byte-identical to the local view, and once stopped, [serve]
   returns with every domain joined and no session left active. *)
let test_two_acceptor_domains () =
  let cfg = cfg Container.Ecb_mht in
  let published = Session.publish cfg ~layout:Layout.Tcsbr hospital in
  let expected =
    events_string (Session.evaluate cfg published Profiles.secretary)
  in
  let server = Wire.Server.make published.Session.container in
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
  let n = 6 in
  let results = Array.make n "" in
  let failures = Array.make n None in
  let worker i =
    try
      let r = Remote.connect (fun () -> Wire.Transport.connect bound) in
      let m = Session.evaluate_remote cfg r Profiles.secretary in
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
  Array.iteri
    (fun i r ->
      if not (String.equal expected r) then
        Alcotest.failf "session %d diverges from the local view" i)
    results;
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

let test_registry_shared_cache () =
  (* two sessions of the same container share decoded-leaf cache entries:
     the second session's reads hit what the first session faulted in *)
  let server = Wire.Server.create () in
  let p = publish_scheme Container.Ecb_mht in
  Wire.Server.publish server ~id:"doc" p.Session.container;
  let run () =
    let remote = Remote.connect (Wire.Server.loopback_connector server) in
    let m = Session.evaluate_remote (cfg Container.Ecb_mht) remote Profiles.secretary in
    Remote.close remote;
    m
  in
  let (_ : Session.measurement) = run () in
  let first = Wire.Server.cache_stats server in
  let (_ : Session.measurement) = run () in
  let second = Wire.Server.cache_stats server in
  check bool_t "second session hits the shared cache" true
    (second.Xmlac_runtime.Lru.hits > first.Xmlac_runtime.Lru.hits);
  check int_t "no new misses for an already-cached container"
    first.Xmlac_runtime.Lru.misses second.Xmlac_runtime.Lru.misses

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
  let totals = Wire.Server.totals server in
  check bool_t "busy rejections counted" true
    (totals.Wire.Stats.busy_rejections >= 1)

(* Mux: N concurrent sessions over one connection ≡ sequential v1.1 ------- *)

(* Serve [containers] on a TCP listener, run [f], drain, then hand the
   server to [after] — totals are only fully merged once every
   connection's serve loop has ended, so counter checks belong there. *)
let with_fleet_server ?(max_sessions = 8) ?(mux = true)
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
        try Wire.Server.serve ~max_sessions ~mux ~stop server listener
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
      let totals = Wire.Server.totals server in
      check bool_t "server counted the mux sessions" true
        (totals.Wire.Stats.mux_sessions >= n))
    [ ("doc", published.Session.container) ]
    (fun (_ : Wire.Server.t) connector ->
      (* the sequential XWTP v1.1 reference: plain connection, short hello *)
      let v1 () =
        let r =
          Remote.connect
            ~config:
              { Wire.Client.default_config with protocol_version = 1 }
            connector
        in
        let m = Session.evaluate_remote cfg0 r Profiles.secretary in
        check int_t "v1 metadata version" 1
          (Remote.metadata r).Wire.Protocol.meta_version;
        Remote.close r;
        m
      in
      let reference = v1 () in
      let mux = Wire.Mux.connect connector in
      check bool_t "mux granted" true (Wire.Mux.is_mux mux);
      let results = Array.make n None in
      let failures = Array.make n None in
      let worker i =
        try
          let r = Remote.connect ~container:"doc" (Wire.Mux.session mux) in
          let m = Session.evaluate_remote cfg0 r Profiles.secretary in
          check int_t "mux metadata version" Wire.Protocol.version
            (Remote.metadata r).Wire.Protocol.meta_version;
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
              check Alcotest.string "byte-identical to sequential v1.1"
                (events_string reference) (events_string m);
              check int_t "payload accounting identical to v1.1"
                (wire_stats reference).Wire.Stats.payload_bytes
                (wire_stats m).Wire.Stats.payload_bytes)
        results;
      Wire.Mux.close mux)

(* Downgrade negotiation matrix ------------------------------------------- *)

(* Wrap a loopback connection as a v1.1-only terminal: any v2 hello is
   answered locally with a refusal; everything else passes through to the
   real (v2) server, which answers v1 hellos in kind. By default the
   refusal is [err_bad_request] with a "trailing bytes" message — exactly
   what the real pre-fleet decoder produced, since it called [finish]
   right after the hello version and choked on the v2 hello's appended
   flags/container bytes. [~reject:err_unsupported] models a terminal
   that recognizes the offered version and refuses it explicitly. *)
let v1_only_connector ?(reject = Wire.Protocol.err_bad_request) server () =
  let inner = Wire.Server.loopback_connector server () in
  let pending = ref "" in
  let pos = ref 0 in
  let write data =
    let payload = String.sub data 4 (String.length data - 4) in
    match Wire.Protocol.decode_request payload with
    | Wire.Protocol.Hello { version; _ } when version >= 2 ->
        let message =
          if reject = Wire.Protocol.err_bad_request then
            "request: 3 trailing bytes after hello"
          else "protocol version 2 not supported"
        in
        pending :=
          String.sub !pending !pos (String.length !pending - !pos)
          ^ Wire.Frame.encode
              (Wire.Protocol.encode_response
                 (Wire.Protocol.Err { code = reject; message }));
        pos := 0
    | _ -> Wire.Transport.write inner data
    | exception Wire.Error.Wire _ -> Wire.Transport.write inner data
  in
  let read buf off len =
    if !pos >= String.length !pending then begin
      pending := Wire.Frame.encode (Wire.Frame.read inner);
      pos := 0
    end;
    let n = min len (String.length !pending - !pos) in
    Bytes.blit_string !pending !pos buf off n;
    pos := !pos + n;
    n
  in
  Wire.Transport.make ~read ~write
    ~close:(fun () -> Wire.Transport.close inner)
    ~peer:"loopback+v1only" ()

let test_downgrade_matrix () =
  let published = publish_scheme Container.Ecb_mht in
  let server = Wire.Server.create () in
  Wire.Server.publish server ~id:"doc" published.Session.container;
  let meta_of ~config connector =
    let c = Wire.Client.connect ~config connector in
    let m = Wire.Client.metadata c in
    Wire.Client.close c;
    m
  in
  let v2 = Wire.Client.default_config in
  let v1 = { Wire.Client.default_config with protocol_version = 1 } in
  (* v2 client ↔ v2 terminal: full v1.2 metadata *)
  let m = meta_of ~config:v2 (Wire.Server.loopback_connector server) in
  check int_t "v2<->v2 negotiates the full version" Wire.Protocol.version
    m.Wire.Protocol.meta_version;
  (* v1 client ↔ v2 terminal: the terminal answers in v1.1 *)
  let m = meta_of ~config:v1 (Wire.Server.loopback_connector server) in
  check int_t "v1 client gets v1 metadata" 1 m.Wire.Protocol.meta_version;
  check bool_t "no mux grant in v1 metadata" false m.Wire.Protocol.mux;
  (* v2 client ↔ v1-only terminal: one short-form retry, connected at v1.
     A genuine pre-fleet decoder refuses the v2 hello with err_bad_request
     (it cannot parse the trailing bytes); a version-aware terminal with
     err_unsupported — the client must downgrade on both. *)
  List.iter
    (fun reject ->
      let m = meta_of ~config:v2 (v1_only_connector ~reject server) in
      check int_t "v2 client downgrades to v1" 1 m.Wire.Protocol.meta_version)
    [ Wire.Protocol.err_bad_request; Wire.Protocol.err_unsupported ];
  (* a container-pinned client must refuse the downgrade: a v1 hello
     cannot name a container *)
  (match
     meta_of
       ~config:{ v2 with Wire.Client.container = "doc" }
       (v1_only_connector server)
   with
  | (_ : Wire.Protocol.metadata) ->
      Alcotest.fail "container-pinned client downgraded to v1"
  | exception Wire.Error.Wire (Wire.Error.Handshake _) -> ());
  (* a mux endpoint probing a v1-only terminal downgrades to plain
     connections — sessions still work, just unmultiplexed *)
  let mux = Wire.Mux.connect (v1_only_connector server) in
  check bool_t "mux probe downgrades" false (Wire.Mux.is_mux mux);
  let r = Remote.connect (Wire.Mux.session mux) in
  let m = Session.evaluate_remote (cfg Container.Ecb_mht) r Profiles.secretary in
  check bool_t "downgraded session still serves" true
    (String.length (events_string m) > 0);
  Remote.close r;
  Wire.Mux.close mux;
  (* a no-mux v1.2 terminal: hello succeeds at v2 but without the grant *)
  let published2 = publish_scheme Container.Ecb_mht in
  with_fleet_server ~mux:false
    [ ("doc", published2.Session.container) ]
    (fun _server connector ->
      let mux = Wire.Mux.connect connector in
      check bool_t "no-mux terminal refuses the grant" false
        (Wire.Mux.is_mux mux);
      let m = meta_of ~config:v2 connector in
      check int_t "still full-version metadata" Wire.Protocol.version
        m.Wire.Protocol.meta_version;
      check bool_t "no mux bit" false m.Wire.Protocol.mux;
      Wire.Mux.close mux)

(* An "old v1.2" terminal: speaks v2 (metadata, container binding, mux)
   but predates the trace extension, so a hello carrying the trace flag
   is refused as a malformed request — the shape of a pre-telemetry
   decoder choking on an unknown flag bit. Everything else (including the
   trace-stripped retry, and mux framing after the handshake, whose
   writes do not decode as requests) passes through untouched. *)
let reject_trace_connector inner_connector () =
  let inner = inner_connector () in
  let pending = ref "" in
  let pos = ref 0 in
  let write data =
    let payload = String.sub data 4 (String.length data - 4) in
    match Wire.Protocol.decode_request payload with
    | Wire.Protocol.Hello { version; trace; _ }
      when version >= 2 && trace <> "" ->
        pending :=
          String.sub !pending !pos (String.length !pending - !pos)
          ^ Wire.Frame.encode
              (Wire.Protocol.encode_response
                 (Wire.Protocol.Err
                    {
                      code = Wire.Protocol.err_bad_request;
                      message = "request: unknown hello flag 0x2";
                    }));
        pos := 0
    | _ -> Wire.Transport.write inner data
    | exception Wire.Error.Wire _ -> Wire.Transport.write inner data
  in
  let read buf off len =
    if !pos >= String.length !pending then begin
      pending := Wire.Frame.encode (Wire.Frame.read inner);
      pos := 0
    end;
    let n = min len (String.length !pending - !pos) in
    Bytes.blit_string !pending !pos buf off n;
    pos := !pos + n;
    n
  in
  Wire.Transport.make ~read ~write
    ~close:(fun () -> Wire.Transport.close inner)
    ~peer:"loopback+notrace" ()

(* Trace rows of the downgrade matrix: a traced client against every
   terminal generation must land on a working session with byte-identical
   evaluation — the trace extension buys linkage when granted and costs
   nothing but a handshake round trip when not. *)
let test_downgrade_trace_matrix () =
  let cfg0 = cfg Container.Ecb_mht in
  let published = publish_scheme Container.Ecb_mht in
  let reference =
    events_string (Session.evaluate cfg0 published Profiles.secretary)
  in
  let server = Wire.Server.create () in
  Wire.Server.publish server ~id:"doc" published.Session.container;
  let evaluate connector =
    let r = Remote.connect ~trace_id:"trace-dm" connector in
    let m = Session.evaluate_remote cfg0 r Profiles.secretary in
    let granted = Remote.trace_granted r in
    let meta = Remote.metadata r in
    Remote.close r;
    check Alcotest.string "byte-identical evaluation" reference
      (events_string m);
    (granted, meta)
  in
  (* v2 traced client ↔ v2 terminal: granted, id intact *)
  let granted, meta = evaluate (Wire.Server.loopback_connector server) in
  check bool_t "v1.2 terminal grants the trace" true granted;
  check int_t "still full-version metadata" Wire.Protocol.version
    meta.Wire.Protocol.meta_version;
  (* v2 traced client ↔ v1-only terminal: the strip rung fires, then the
     version ladder — connected at v1, untraced, same bytes. Both refusal
     codes a real old terminal can produce. *)
  List.iter
    (fun reject ->
      let granted, meta =
        evaluate (v1_only_connector ~reject server)
      in
      check bool_t "v1 terminal: no trace grant" false granted;
      check int_t "v1 terminal: v1 metadata" 1 meta.Wire.Protocol.meta_version)
    [ Wire.Protocol.err_bad_request; Wire.Protocol.err_unsupported ];
  (* v2 traced client ↔ pre-telemetry v1.2 terminal: the strip keeps the
     session at v2 (container binding intact), only the trace is gone *)
  let granted, meta =
    evaluate (reject_trace_connector (Wire.Server.loopback_connector server))
  in
  check bool_t "pre-telemetry terminal: no trace grant" false granted;
  check int_t "pre-telemetry terminal: still full-version metadata"
    Wire.Protocol.version meta.Wire.Protocol.meta_version;
  (* the stripped client remembers: its next hellos offer no trace *)
  let c =
    Wire.Client.connect
      ~config:{ Wire.Client.default_config with trace = "trace-dm" }
      (reject_trace_connector (Wire.Server.loopback_connector server))
  in
  check Alcotest.string "strip is sticky on the connection" ""
    (Wire.Client.trace c);
  check bool_t "stripped client reports no grant" false
    (Wire.Client.trace_granted c);
  Wire.Client.close c;
  (* a traced mux probe against the same old terminal: the strip rung
     re-probes on a fresh connection, so mux survives losing the trace *)
  let published2 = publish_scheme Container.Ecb_mht in
  with_fleet_server
    [ ("doc", published2.Session.container) ]
    (fun _server connector ->
      let mux =
        Wire.Mux.connect ~trace:"trace-dm" (reject_trace_connector connector)
      in
      check bool_t "old terminal still grants mux to a traced probe" true
        (Wire.Mux.is_mux mux);
      let r = Remote.connect ~container:"doc" (Wire.Mux.session mux) in
      let m = Session.evaluate_remote cfg0 r Profiles.secretary in
      check bool_t "mux session serves after the strip" true
        (String.length (events_string m) > 0);
      Remote.close r;
      Wire.Mux.close mux);
  (* an over-long trace id never reaches the wire *)
  match
    Wire.Mux.connect
      ~trace:(String.make (Wire.Protocol.max_trace_id + 1) 'x')
      (Wire.Server.loopback_connector server)
  with
  | (_ : Wire.Mux.t) -> Alcotest.fail "oversized trace id accepted"
  | exception Invalid_argument _ -> ()

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
  check bool_t "mux granted" true (Wire.Mux.is_mux mux);
  let hello s =
    Wire.Transport.write s
      (Wire.Frame.encode
         (Wire.Protocol.encode_request
            (Wire.Protocol.Hello
               {
                 version = Wire.Protocol.version;
                 container = "";
                 mux = false;
                 trace = "";
               })));
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
          Alcotest.test_case "busy churn at the session cap" `Quick
            test_busy_churn;
        ] );
      ( "mux",
        List.map
          (fun scheme ->
            Alcotest.test_case
              (Container.scheme_to_string scheme ^ " mux ≡ sequential v1.1")
              `Quick
              (test_mux_equivalence scheme))
          Container.all_schemes
        @ [
            Alcotest.test_case "downgrade matrix" `Quick
              test_downgrade_matrix;
            Alcotest.test_case "downgrade matrix: trace rows" `Quick
              test_downgrade_trace_matrix;
            Alcotest.test_case "session churn retires bindings" `Quick
              test_mux_session_churn;
          ] );
    ]
