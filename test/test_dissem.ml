(* Tests for the dissemination subsystem: versioned (XACR2) containers
   and incremental re-encryption, chunk deltas under hostile bytes, the
   publisher's update/rotate lifecycle, license revocation and key
   epochs, and the wire-level delta sync a mirror runs against a live
   server. *)

module Tree = Xmlac_xml.Tree
module Layout = Xmlac_skip_index.Layout
module Encoder = Xmlac_skip_index.Encoder
module Update = Xmlac_skip_index.Update
module Container = Xmlac_crypto.Secure_container
module Delta = Xmlac_dissem.Delta
module Publisher = Xmlac_dissem.Publisher
module License = Xmlac_soe.License
module Session = Xmlac_soe.Session
module Wire = Xmlac_wire
module Hospital = Xmlac_workload.Hospital
module Profiles = Xmlac_workload.Profiles

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let key = Xmlac_crypto.Des.Triple.key_of_string "xmlac-demo-24-byte-key!!"

let hospital =
  Hospital.generate ~seed:23
    ~config:{ Hospital.default_config with folders = 4 }
    ()

let encoded = Encoder.encode ~layout:Layout.Tcsbr hospital

let encrypt ?(generation = 0) ?(key_epoch = 0) ?(chunk_size = 512)
    ?(fragment_size = 64) scheme payload =
  Container.encrypt ~chunk_size ~fragment_size ~generation ~key_epoch ~scheme
    ~key payload

(* Versioned container format --------------------------------------------- *)

let test_v2_roundtrip () =
  List.iter
    (fun scheme ->
      let c = encrypt ~generation:7 ~key_epoch:2 scheme encoded in
      let c' = Container.of_bytes (Container.to_bytes c) in
      check int_t "generation survives" 7 (Container.generation c');
      check int_t "epoch survives" 2 (Container.key_epoch c');
      for i = 0 to Container.chunk_count c' - 1 do
        check int_t "chunk version survives" (Container.chunk_version c i)
          (Container.chunk_version c' i)
      done;
      check string_t "payload survives"
        encoded
        (Container.decrypt_all c' ~key ~verify:true))
    Container.all_schemes

let test_v1_compatible () =
  (* a pristine publication still serializes in the original layout *)
  let c = encrypt Container.Ecb_mht encoded in
  let bytes = Container.to_bytes c in
  check string_t "gen-0 epoch-0 keeps the XACR1 magic" "XACR1"
    (String.sub bytes 0 5);
  let c2 = encrypt ~generation:1 Container.Ecb_mht encoded in
  check string_t "versioned state promotes to XACR2" "XACR2"
    (String.sub (Container.to_bytes c2) 0 5)

let test_future_version_distinct () =
  let bytes = Container.to_bytes (encrypt ~generation:1 Container.Ecb encoded) in
  let with_magic m =
    String.concat "" [ m; String.sub bytes 5 (String.length bytes - 5) ]
  in
  (match Container.of_bytes_result (with_magic "XACR7") with
  | Error msg ->
      check bool_t "newer version is actionable" true
        (String.length msg >= 11
        && String.sub msg 0 11 = "unsupported")
  | Ok _ -> Alcotest.fail "future container version accepted");
  match Container.of_bytes_result (with_magic "YACR1") with
  | Error msg ->
      check bool_t "garbage magic is a different error" true
        (msg <> "" && String.sub msg 0 (min 11 (String.length msg)) <> "unsupported")
  | Ok _ -> Alcotest.fail "garbage magic accepted"

(* Incremental re-encryption and the Update cost model --------------------- *)

(* The contract under test: [Update.cost.chunks_dirty] names exactly the
   chunks [Container.reencrypt] rewrites, and the rewritten container
   decrypts to the new payload with every untouched chunk's ciphertext
   physically reused. *)
let reencrypt_agrees ?(chunk_size = 512) ~scheme payload op =
  let payload', cost =
    Update.update_encoded ~chunk_size ~layout:Layout.Tcsbr payload op
  in
  let c = encrypt ~chunk_size scheme payload in
  let c', rewritten = Container.reencrypt c ~key ~old_payload:payload ~payload:payload' in
  check (Alcotest.list int_t) "cost model predicts the rewritten chunks"
    cost.Update.chunks_dirty rewritten;
  check int_t "generation bumped" (Container.generation c + 1)
    (Container.generation c');
  List.iteri
    (fun i () ->
      if i < Container.chunk_count c then
        let expect =
          if List.mem i rewritten then Container.generation c'
          else Container.chunk_version c i
        in
        check int_t
          (Printf.sprintf "chunk %d version" i)
          expect
          (Container.chunk_version c' i))
    (List.init (Container.chunk_count c') (fun _ -> ()));
  check string_t "new payload decrypts" payload'
    (Container.decrypt_all c' ~key ~verify:true);
  (payload', cost, rewritten)

let test_update_localized () =
  (* a same-length text rewrite dirties a strict subset of the chunks *)
  let _, _, rewritten =
    reencrypt_agrees ~scheme:Container.Ecb_mht encoded
      (Update.Set_text ([ 0; 0; 0; 0 ], "000000000"))
  in
  let chunks = (String.length encoded + 511) / 512 in
  check bool_t "some chunk rewritten" true (rewritten <> []);
  check bool_t "not all chunks rewritten" true
    (List.length rewritten < chunks)

let test_update_noop () =
  (* rewriting a text to its current value moves the generation but
     rewrites nothing *)
  let doc = Tree.parse "<r><a>fixed</a><b>tail</b></r>" in
  let payload = Encoder.encode ~layout:Layout.Tcsbr doc in
  let _, cost, rewritten =
    reencrypt_agrees ~scheme:Container.Cbc_sha payload
      (Update.Set_text ([ 0; 0 ], "fixed"))
  in
  check (Alcotest.list int_t) "no-op update dirties nothing" [] rewritten;
  check int_t "no bytes rewritten" 0 cost.Update.rewritten_bytes

let test_update_root_replacement () =
  (* replacing the root subtree rewrites the whole document *)
  let payload', _, rewritten =
    reencrypt_agrees ~scheme:Container.Ecb_mht encoded
      (Update.Replace_subtree ([], Tree.parse "<Hospital><Folder>gone</Folder></Hospital>"))
  in
  let chunks' = (String.length payload' + 511) / 512 in
  check int_t "every surviving chunk rewritten" chunks'
    (List.length rewritten)

let test_update_chunk_straddle () =
  (* a long text crossing chunk boundaries: its same-length rewrite must
     dirty every chunk the text touches, and only those *)
  let long = String.make 1600 'a' in
  let doc = Tree.parse (Printf.sprintf "<r><pad>x</pad><t>%s</t></r>" long) in
  let payload = Encoder.encode ~layout:Layout.Tcsbr doc in
  let _, _, rewritten =
    reencrypt_agrees ~scheme:Container.Cbc_shac payload
      (Update.Set_text ([ 1; 0 ], String.make 1600 'b'))
  in
  check bool_t "edit straddles a chunk boundary" true
    (List.length rewritten >= 2);
  (* consecutive chunks: the text is contiguous in the encoding *)
  let rec consecutive = function
    | a :: (b :: _ as rest) -> a + 1 = b && consecutive rest
    | _ -> true
  in
  check bool_t "dirty chunks are contiguous" true (consecutive rewritten)

let test_update_dictionary_growth () =
  (* a new tag re-encodes everything: the dictionary changed *)
  let payload', cost, rewritten =
    reencrypt_agrees ~scheme:Container.Ecb encoded
      (Update.Insert_child ([], 0, Tree.parse "<Brandnew>z</Brandnew>"))
  in
  check bool_t "dictionary changed" true cost.Update.dictionary_changed;
  let chunks' = (String.length payload' + 511) / 512 in
  check int_t "dictionary growth rewrites everything" chunks'
    (List.length rewritten)

(* Chunk deltas ------------------------------------------------------------ *)

let update_once payload =
  fst
    (Update.update_encoded ~chunk_size:512 ~layout:Layout.Tcsbr payload
       (Update.Set_text ([ 1; 0; 0; 0 ], "123456789")))

let test_delta_roundtrip () =
  let p = Publisher.create ~chunk_size:512 ~fragment_size:64
      ~scheme:Container.Ecb_mht ~master:"s3cret" encoded in
  let delta, _ = Publisher.update p ~payload:(update_once encoded) in
  (match Delta.decode (Delta.encode delta) with
  | Ok d -> check bool_t "update delta roundtrips" true (d = delta)
  | Error e -> Alcotest.fail ("roundtrip rejected: " ^ e));
  check int_t "wire_bytes is exact" (String.length (Delta.encode delta))
    (Delta.wire_bytes delta);
  let rot = Publisher.rotate p ~revoke:[ "eve"; "mallory" ] in
  match Delta.decode (Delta.encode rot) with
  | Ok d ->
      check bool_t "rotation delta roundtrips" true (d = rot);
      check (Alcotest.list string_t) "revocations travel"
        [ "eve"; "mallory" ] d.Delta.revoked
  | Error e -> Alcotest.fail ("rotation roundtrip rejected: " ^ e)

let test_delta_hostile_decode () =
  let p = Publisher.create ~chunk_size:512 ~fragment_size:64
      ~scheme:Container.Cbc_sha ~master:"s3cret" encoded in
  let delta, _ = Publisher.update p ~payload:(update_once encoded) in
  let bytes = Delta.encode delta in
  (* every strict prefix is rejected, never raises *)
  for n = 0 to String.length bytes - 1 do
    match Delta.decode (String.sub bytes 0 n) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" n
    | Error _ -> ()
  done;
  (* every single-byte corruption is total: Error or a still-structurally
     valid delta, but no exception escapes *)
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    match Delta.decode (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
  done;
  match Delta.decode ("YDLT1" ^ String.sub bytes 5 (String.length bytes - 5)) with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error _ -> ()

let test_delta_apply_rules () =
  let p = Publisher.create ~chunk_size:512 ~fragment_size:64
      ~scheme:Container.Ecb_mht ~master:"s3cret" encoded in
  let c0 = Publisher.container p in
  let delta, _ = Publisher.update p ~payload:(update_once encoded) in
  (* the graft lands byte-identical to the publisher's own container *)
  (match Delta.apply c0 delta with
  | Ok c1 ->
      check string_t "grafted container is byte-identical"
        (Container.to_bytes (Publisher.container p))
        (Container.to_bytes c1)
  | Error e -> Alcotest.fail ("apply refused a valid delta: " ^ e));
  (* wrong starting generation *)
  (match Delta.apply c0 { delta with Delta.from_gen = 5; to_gen = 6 } with
  | Ok _ -> Alcotest.fail "generation gap accepted"
  | Error _ -> ());
  (* an epoch change must rewrite every chunk *)
  (match Delta.apply c0 { delta with Delta.key_epoch = 1 } with
  | Ok _ -> Alcotest.fail "partial-coverage rotation accepted"
  | Error _ -> ());
  (* geometry mismatch *)
  let other = encrypt ~chunk_size:1024 ~fragment_size:128 Container.Ecb_mht encoded in
  match Delta.apply other delta with
  | Ok _ -> Alcotest.fail "geometry mismatch accepted"
  | Error _ -> ()

(* Publisher lifecycle ----------------------------------------------------- *)

let test_publisher_update_chain () =
  let p = Publisher.create ~chunk_size:512 ~fragment_size:64
      ~scheme:Container.Cbc_shac ~master:"s3cret" encoded in
  check int_t "starts at generation 0" 0 (Publisher.generation p);
  let mirror = ref (Publisher.container p) in
  for r = 1 to 3 do
    let payload' =
      fst
        (Update.update_encoded ~chunk_size:512 ~layout:Layout.Tcsbr
           (Publisher.payload p)
           (Update.Set_text ([ (r - 1) mod 4; 0; 0; 0 ], Printf.sprintf "%09d" r)))
    in
    let delta, _ = Publisher.update p ~payload:payload' in
    check int_t "generation advances" r (Publisher.generation p);
    check int_t "delta spans one generation" (r - 1) delta.Delta.from_gen;
    match Delta.apply !mirror delta with
    | Ok c -> mirror := c
    | Error e -> Alcotest.failf "chain apply failed at %d: %s" r e
  done;
  check string_t "chained mirror tracks the publisher"
    (Container.to_bytes (Publisher.container p))
    (Container.to_bytes !mirror)

(* The publisher's containers go through the bitsliced encrypt kernel
   under the positional schemes. Each one must decrypt and verify to the
   publisher's payload with the scalar cipher (which pins positional-ECB
   ciphertext; the byte-level pin is test_crypto's fixture), and every
   update must rewrite exactly the chunks the splice's cost predicts:
   creation, a chain of spliced updates (grow, same length, shrink), and
   a key rotation. *)
let test_publisher_roundtrips () =
  List.iter
    (fun scheme ->
      let name = Container.scheme_to_string scheme in
      let p =
        Publisher.create ~chunk_size:512 ~fragment_size:64 ~scheme
          ~master:"s3cret" encoded
      in
      let decrypts what =
        check string_t (name ^ ": " ^ what) (Publisher.payload p)
          (Container.decrypt_all (Publisher.container p) ~key:(Publisher.key p)
             ~verify:true)
      in
      decrypts "create";
      List.iter
        (fun op ->
          let payload, cost =
            Update.update_encoded ~chunk_size:512 ~layout:Layout.Tcsbr
              (Publisher.payload p) op
          in
          let _, rewritten = Publisher.update p ~payload in
          check (Alcotest.list int_t)
            (name ^ ": rewritten chunks = predicted dirty chunks")
            cost.Update.chunks_dirty rewritten;
          decrypts "update")
        [
          Update.Insert_child
            ([], 1, Tree.parse "<Folder><Age>33</Age></Folder>");
          Update.Set_text ([ 2; 0; 0; 0 ], "123456789");
          Update.Delete_subtree [ 1 ];
        ];
      ignore (Publisher.rotate p ~revoke:[ "mallory" ] : Delta.t);
      decrypts "rotate")
    Container.all_schemes

let test_publisher_rotation_kills_old_epoch () =
  let p = Publisher.create ~chunk_size:512 ~fragment_size:64
      ~scheme:Container.Ecb_mht ~master:"s3cret" encoded in
  let old_key = Publisher.key p in
  let rot = Publisher.rotate p ~revoke:[ "mallory" ] in
  check int_t "epoch bumped" 1 (Publisher.epoch p);
  check (Alcotest.list string_t) "revocation recorded" [ "mallory" ]
    (Publisher.revoked p);
  check int_t "rotation covers every chunk"
    (Container.chunk_count (Publisher.container p))
    (List.length rot.Delta.full);
  (* the new key decrypts; the old key fails the digest check *)
  check string_t "new epoch key decrypts" (Publisher.payload p)
    (Container.decrypt_all (Publisher.container p) ~key:(Publisher.key p)
       ~verify:true);
  (match
     Container.decrypt_all (Publisher.container p) ~key:old_key ~verify:true
   with
  | exception Container.Integrity_failure _ -> ()
  | exception e ->
      Alcotest.failf "unexpected failure kind: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "pre-rotation key still decrypts");
  (* ECB has no digests: the old key yields garbage, never the payload *)
  let pe = Publisher.create ~chunk_size:512 ~fragment_size:64
      ~scheme:Container.Ecb ~master:"s3cret" encoded in
  let old_key = Publisher.key pe in
  ignore (Publisher.rotate pe ~revoke:[] : Delta.t);
  (match
     Container.decrypt_all (Publisher.container pe) ~key:old_key ~verify:false
   with
  | exception _ -> ()
  | pt ->
      check bool_t "ECB old key yields garbage" false
        (pt = Publisher.payload pe));
  check bool_t "epoch keys are distinct" false
    (Publisher.epoch_key_bytes ~master:"s3cret" ~epoch:0
    = Publisher.epoch_key_bytes ~master:"s3cret" ~epoch:1)

(* Licenses: epochs and revocation ----------------------------------------- *)

let test_license_epochs () =
  let mk epoch =
    License.make ~subject:"alice" ~key_epoch:epoch
      ~document_key:(Publisher.epoch_key_bytes ~master:"m" ~epoch)
      [ ("r1", Xmlac_core.Rule.Permit, "//Admin") ]
  in
  (match License.authorize (mk 1) ~container_epoch:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("matching epoch refused: " ^ e));
  (match License.authorize (mk 0) ~container_epoch:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "stale-epoch license accepted");
  (match License.authorize (mk 2) ~container_epoch:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "future-epoch license accepted");
  (match
     License.authorize (mk 1) ~revoked:[ "bob"; "alice" ] ~container_epoch:1
   with
  | Error e ->
      check bool_t "refusal names the revocation" true
        (String.length e > 0)
  | Ok () -> Alcotest.fail "revoked subject accepted");
  (* the epoch survives sealing (XLIC2) and the v1 default stays 0 *)
  let blob = License.seal ~soe_key:key (mk 3) in
  match License.unseal ~soe_key:key blob with
  | Ok lic ->
      check int_t "epoch survives seal/unseal" 3 lic.License.key_epoch
  | Error e -> Alcotest.fail ("sealed epoch-3 license rejected: " ^ e)

(* Wire-level delta sync --------------------------------------------------- *)

let with_server publisher f =
  let server = Wire.Server.create () in
  Wire.Server.publish server ~id:"doc" (Publisher.container publisher);
  let listener = Wire.Transport.listen (Wire.Transport.Tcp ("127.0.0.1", 0)) in
  let stop = ref false in
  let thread =
    Thread.create
      (fun () ->
        try Wire.Server.serve ~stop server listener
        with Wire.Error.Wire _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      Thread.join thread;
      Wire.Transport.close_listener listener)
    (fun () ->
      let bound = Wire.Transport.bound_addr listener in
      f server (fun () -> Wire.Transport.connect bound))

let test_mirror_sync_all_schemes () =
  List.iter
    (fun scheme ->
      let p = Publisher.create ~chunk_size:512 ~fragment_size:64 ~scheme
          ~master:"s3cret" encoded in
      with_server p (fun server connector ->
          let m = Wire.Mirror.fetch connector in
          check string_t "bootstrap fetch is byte-exact"
            (Container.to_bytes (Publisher.container p))
            (Container.to_bytes (Wire.Mirror.container m));
          (match Wire.Mirror.sync m with
          | Wire.Mirror.Uptodate -> ()
          | _ -> Alcotest.fail "fresh mirror should be up to date");
          let delta, _ = Publisher.update p ~payload:(update_once encoded) in
          (match Wire.Server.apply_delta server ~id:"doc" delta with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("apply_delta: " ^ e));
          (match Wire.Mirror.sync m with
          | Wire.Mirror.Applied { from_gen = 0; to_gen = 1; delta_bytes; _ }
            ->
              check bool_t "delta is smaller than the container" true
                (delta_bytes
                < String.length (Container.to_bytes (Publisher.container p)))
          | _ -> Alcotest.fail "expected a chunk delta");
          (* a fresh full fetch carries no per-chunk history (its version
             vector is uniformly the current generation), so the replicas
             are compared as plaintext plus metadata, not bytes *)
          let m2 = Wire.Mirror.fetch connector in
          check int_t "full re-fetch lands on the same generation"
            (Wire.Mirror.generation m)
            (Wire.Mirror.generation m2);
          check string_t "synced replica decrypts like a full re-fetch"
            (Container.decrypt_all (Wire.Mirror.container m2)
               ~key:(Publisher.key p) ~verify:true)
            (Container.decrypt_all (Wire.Mirror.container m)
               ~key:(Publisher.key p) ~verify:true);
          check string_t "and decrypts to the publisher's payload"
            (Publisher.payload p)
            (Container.decrypt_all (Wire.Mirror.container m)
               ~key:(Publisher.key p) ~verify:true);
          Wire.Mirror.close m2;
          Wire.Mirror.close m))
    Container.all_schemes

let test_mirror_sync_across_rotation () =
  let p = Publisher.create ~chunk_size:512 ~fragment_size:64
      ~scheme:Container.Ecb_mht ~master:"s3cret" encoded in
  with_server p (fun server connector ->
      let m = Wire.Mirror.fetch connector in
      let rot = Publisher.rotate p ~revoke:[ "mallory" ] in
      (match Wire.Server.apply_delta server ~id:"doc" rot with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("apply_delta: " ^ e));
      (match Wire.Mirror.sync m with
      | Wire.Mirror.Applied { revoked; _ } ->
          check (Alcotest.list string_t) "revocations delivered"
            [ "mallory" ] revoked
      | _ -> Alcotest.fail "rotation delta expected");
      check (Alcotest.list string_t) "mirror retains the list" [ "mallory" ]
        (Wire.Mirror.revoked m);
      check int_t "replica moved to the new epoch" 1
        (Container.key_epoch (Wire.Mirror.container m));
      check string_t "new epoch key decrypts the replica"
        (Publisher.payload p)
        (Container.decrypt_all (Wire.Mirror.container m)
           ~key:(Publisher.key p) ~verify:true);
      Wire.Mirror.close m)

let test_mirror_refetch_on_fresh_lineage () =
  let p = Publisher.create ~chunk_size:512 ~fragment_size:64
      ~scheme:Container.Cbc_sha ~master:"s3cret" encoded in
  (* age the lineage a little so the mirror is ahead of a fresh one *)
  ignore (Publisher.update p ~payload:(update_once encoded) : Delta.t * int list);
  with_server p (fun server connector ->
      let m = Wire.Mirror.fetch connector in
      (* the origin replaces the document with an unrelated publication:
         generations restart, the mirror's lineage cannot be bridged *)
      let doc2 =
        Hospital.generate ~seed:99
          ~config:{ Hospital.default_config with folders = 2 }
          ()
      in
      let p2 = Publisher.create ~chunk_size:512 ~fragment_size:64
          ~scheme:Container.Cbc_sha ~master:"0ther"
          (Encoder.encode ~layout:Layout.Tcsbr doc2) in
      Wire.Server.publish server ~id:"doc" (Publisher.container p2);
      (match Wire.Mirror.sync m with
      | Wire.Mirror.Refetched _ -> ()
      | Wire.Mirror.Applied _ -> Alcotest.fail "unbridgeable lineage applied"
      | Wire.Mirror.Uptodate -> Alcotest.fail "stale mirror claimed current");
      check string_t "refetch adopted the new lineage"
        (Container.to_bytes (Publisher.container p2))
        (Container.to_bytes (Wire.Mirror.container m));
      Wire.Mirror.close m)

(* The SOE end: a synced replica serves the same view ---------------------- *)

let test_synced_replica_view () =
  let scheme = Container.Ecb_mht in
  let p = Publisher.create ~chunk_size:512 ~fragment_size:64 ~scheme
      ~master:"s3cret" encoded in
  with_server p (fun server connector ->
      let m = Wire.Mirror.fetch connector in
      let delta, _ = Publisher.update p ~payload:(update_once encoded) in
      (match Wire.Server.apply_delta server ~id:"doc" delta with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("apply_delta: " ^ e));
      (match Wire.Mirror.sync m with
      | Wire.Mirror.Applied _ -> ()
      | _ -> Alcotest.fail "expected a delta");
      let config =
        {
          (Session.default_config ~scheme ()) with
          Session.chunk_size = 512;
          fragment_size = 64;
          key = Publisher.key p;
        }
      in
      let published container =
        {
          Session.layout = Layout.Tcsbr;
          container;
          encoded_bytes = String.length (Publisher.payload p);
          source_text_bytes = Tree.text_bytes hospital;
        }
      in
      let origin =
        Session.evaluate config
          (published (Publisher.container p))
          Profiles.secretary
      in
      let replica =
        Session.evaluate config
          (published (Wire.Mirror.container m))
          Profiles.secretary
      in
      check string_t "synced replica serves the origin's view"
        (Xmlac_xml.Writer.events_to_string origin.Session.events)
        (Xmlac_xml.Writer.events_to_string replica.Session.events);
      Wire.Mirror.close m)

(* A terminal serving a fresh ECB-MHT publisher's container over the
   loopback, with the publisher's current view and the terminal's view
   under one policy. *)
let publisher_terminal () =
  let scheme = Container.Ecb_mht in
  let p = Publisher.create ~chunk_size:512 ~fragment_size:64 ~scheme
      ~master:"s3cret" encoded in
  let server = Wire.Server.create () in
  Wire.Server.publish server ~id:"doc" (Publisher.container p);
  let config =
    {
      (Session.default_config ~scheme ()) with
      Session.chunk_size = 512;
      fragment_size = 64;
      key = Publisher.key p;
    }
  in
  let view policy =
    let published =
      {
        Session.layout = Layout.Tcsbr;
        container = Publisher.container p;
        encoded_bytes = String.length (Publisher.payload p);
        source_text_bytes = Tree.text_bytes hospital;
      }
    in
    Xmlac_xml.Writer.events_to_string
      (Session.evaluate config published policy).Session.events
  in
  let remote_view policy =
    let r = Xmlac_soe.Remote.connect (Wire.Server.loopback_connector server) in
    Fun.protect
      ~finally:(fun () -> Xmlac_soe.Remote.close r)
      (fun () ->
        Xmlac_xml.Writer.events_to_string
          (Session.evaluate_remote config r policy).Session.events)
  in
  (p, server, view, remote_view)

let terminal_policies =
  [ ("secretary", Profiles.secretary); ("doctor", Profiles.doctor ~user:"dr00") ]

(* one loopback session per policy: the terminal builds or finds the node
   tables they read *)
let warm remote_view =
  List.iter
    (fun (_, policy) -> ignore (remote_view policy : string))
    terminal_policies

(* apply [delta] on the terminal; every policy then reads the publisher's
   view over the loopback *)
let apply_and_read server view remote_view delta =
  (match Wire.Server.apply_delta server ~id:"doc" delta with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("apply_delta: " ^ e));
  List.iter
    (fun (name, policy) ->
      check string_t
        (name ^ ": loopback view = publisher's view")
        (view policy) (remote_view policy))
    terminal_policies

(* The terminal end: after a delta republish, a loopback session reads
   the publisher's current view. The server's container carries the node
   tables of the chunks the delta kept and must drop those it rewrote: a
   stale table serves siblings of the old ciphertext, and the session
   fails its Merkle check. *)
let test_loopback_after_apply_delta () =
  let p, server, view, remote_view = publisher_terminal () in
  warm remote_view;
  let delta, rewritten = Publisher.update p ~payload:(update_once encoded) in
  check bool_t "the update rewrites chunks" true (rewritten <> []);
  apply_and_read server view remote_view delta

(* A delta may not rewind a chunk: an update delta whose full entries
   claim version 0 is refused by [Delta.apply] and by a warmed terminal,
   which keeps serving generation 0; the honest delta then applies. *)
let test_rewinding_delta_refused () =
  let p, server, view, remote_view = publisher_terminal () in
  let c0 = Publisher.container p in
  let views0 = List.map (fun (_, policy) -> view policy) terminal_policies in
  warm remote_view;
  let delta, _ = Publisher.update p ~payload:(update_once encoded) in
  let rewound =
    {
      delta with
      Delta.full = List.map (fun (i, _, c, d) -> (i, 0, c, d)) delta.Delta.full;
    }
  in
  (match Delta.apply c0 rewound with
  | Ok _ -> Alcotest.fail "Delta.apply accepted a rewinding delta"
  | Error _ -> ());
  (match Wire.Server.apply_delta server ~id:"doc" rewound with
  | Ok _ -> Alcotest.fail "the terminal accepted a rewinding delta"
  | Error _ -> ());
  check int_t "the terminal still serves generation 0" 0
    (Option.get (Wire.Server.metadata_of server "doc")).Wire.Protocol.generation;
  List.iter2
    (fun (name, policy) view0 ->
      check string_t (name ^ ": generation 0 view") view0 (remote_view policy))
    terminal_policies views0;
  apply_and_read server view remote_view delta

let () =
  Alcotest.run "dissem"
    [
      ( "container",
        [
          Alcotest.test_case "XACR2 roundtrip" `Quick test_v2_roundtrip;
          Alcotest.test_case "XACR1 compatibility" `Quick test_v1_compatible;
          Alcotest.test_case "future version vs bad magic" `Quick
            test_future_version_distinct;
        ] );
      ( "reencrypt",
        [
          Alcotest.test_case "localized update" `Quick test_update_localized;
          Alcotest.test_case "no-op update" `Quick test_update_noop;
          Alcotest.test_case "root replacement" `Quick
            test_update_root_replacement;
          Alcotest.test_case "chunk-boundary straddle" `Quick
            test_update_chunk_straddle;
          Alcotest.test_case "dictionary growth" `Quick
            test_update_dictionary_growth;
        ] );
      ( "delta",
        [
          Alcotest.test_case "roundtrip" `Quick test_delta_roundtrip;
          Alcotest.test_case "hostile decode" `Quick test_delta_hostile_decode;
          Alcotest.test_case "apply rules" `Quick test_delta_apply_rules;
        ] );
      ( "publisher",
        [
          Alcotest.test_case "update chain" `Quick test_publisher_update_chain;
          Alcotest.test_case "kernel-encrypted containers round-trip" `Quick
            test_publisher_roundtrips;
          Alcotest.test_case "rotation kills the old epoch" `Quick
            test_publisher_rotation_kills_old_epoch;
        ] );
      ( "license",
        [ Alcotest.test_case "epochs and revocation" `Quick test_license_epochs ] );
      ( "sync",
        [
          Alcotest.test_case "delta sync, all schemes" `Quick
            test_mirror_sync_all_schemes;
          Alcotest.test_case "sync across a rotation" `Quick
            test_mirror_sync_across_rotation;
          Alcotest.test_case "refetch on fresh lineage" `Quick
            test_mirror_refetch_on_fresh_lineage;
          Alcotest.test_case "synced replica view" `Quick
            test_synced_replica_view;
          Alcotest.test_case "loopback view after apply_delta" `Quick
            test_loopback_after_apply_delta;
          Alcotest.test_case "rewinding delta refused" `Quick
            test_rewinding_delta_refused;
        ] );
    ]
