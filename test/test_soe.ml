(* Tests for the SOE simulator: Table 1 cost model, the terminal↔SOE channel
   (cost accounting + genuine integrity verification), and end-to-end
   sessions (publish, evaluate, LWB). *)

open Xmlac_soe
module Tree = Xmlac_xml.Tree
module Container = Xmlac_crypto.Secure_container
module Layout = Xmlac_skip_index.Layout
module Decoder = Xmlac_skip_index.Decoder
module Policy = Xmlac_core.Policy
module Rule = Xmlac_core.Rule

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let key = Xmlac_crypto.Des.Triple.key_of_string "0123456789abcdefFEDCBA98"

let payload n = String.init n (fun i -> Char.chr ((i * 37) mod 251))

(* Cost model ------------------------------------------------------------- *)

let test_table1_constants () =
  let hw = Cost_model.of_context Cost_model.Hardware in
  check (Alcotest.float 1.) "hardware comm 0.5 MB/s" (0.5 *. 1024. *. 1024.)
    hw.Cost_model.comm_bytes_per_s;
  check (Alcotest.float 1.) "hardware decrypt 0.15 MB/s" (0.15 *. 1024. *. 1024.)
    hw.Cost_model.decrypt_bytes_per_s;
  let inet = Cost_model.of_context Cost_model.Software_internet in
  check (Alcotest.float 1.) "internet comm 0.1 MB/s" (0.1 *. 1024. *. 1024.)
    inet.Cost_model.comm_bytes_per_s;
  let lan = Cost_model.of_context Cost_model.Software_lan in
  check (Alcotest.float 1.) "lan comm 10 MB/s" (10. *. 1024. *. 1024.)
    lan.Cost_model.comm_bytes_per_s;
  check (Alcotest.float 1.) "software decrypt 1.2 MB/s" (1.2 *. 1024. *. 1024.)
    lan.Cost_model.decrypt_bytes_per_s;
  check int_t "three contexts" 3 (List.length Cost_model.table1)

let test_breakdown_math () =
  let hw = Cost_model.of_context Cost_model.Hardware in
  let b =
    Cost_model.breakdown hw
      ~bytes_in:(512 * 1024)
      ~bytes_decrypted:0 ~bytes_hashed:0 ~transitions:0 ~events:0
  in
  check (Alcotest.float 0.001) "512KB over 0.5MB/s = 1s" 1.0 b.Cost_model.communication_s;
  check (Alcotest.float 0.001) "total = sum" 1.0 b.Cost_model.total_s;
  let b2 =
    Cost_model.breakdown hw ~bytes_in:0 ~bytes_decrypted:0 ~bytes_hashed:0
      ~transitions:1_000_000 ~events:0
  in
  check bool_t "transitions cost time" true (b2.Cost_model.access_control_s > 0.)

(* Channel ---------------------------------------------------------------- *)

let read_all src =
  let open Xmlac_skip_index.Decoder in
  src.read ~pos:0 ~len:src.length

let channel_roundtrip scheme verify () =
  let p = payload 9000 in
  let container =
    Container.encrypt ~chunk_size:1024 ~fragment_size:128 ~scheme ~key p
  in
  let counters = Channel.fresh_counters () in
  let src = Channel.source ~verify ~container ~key counters in
  check Alcotest.string
    (Printf.sprintf "%s verify=%b roundtrip" (Container.scheme_to_string scheme) verify)
    p (read_all src);
  check bool_t "communication happened" true (counters.Channel.bytes_to_soe > 0);
  check bool_t "decryption happened" true (counters.Channel.bytes_decrypted > 0)

let test_channel_random_access_costs () =
  let p = payload 20480 in
  let container =
    Container.encrypt ~chunk_size:2048 ~fragment_size:256
      ~scheme:Container.Ecb_mht ~key p
  in
  (* reading a tiny window should cost far less than the whole payload *)
  let counters = Channel.fresh_counters () in
  let src = Channel.source ~container ~key counters in
  let got = src.Decoder.read ~pos:10_000 ~len:64 in
  check Alcotest.string "window content" (String.sub p 10_000 64) got;
  check bool_t "partial read stays far below payload size" true
    (counters.Channel.bytes_to_soe < 2048);
  check bool_t "decrypts only covering blocks + digest" true
    (counters.Channel.bytes_decrypted <= 64 + 16 + 24)

let test_channel_cache_avoids_refetch () =
  let p = payload 4096 in
  let container =
    Container.encrypt ~chunk_size:1024 ~fragment_size:128
      ~scheme:Container.Ecb_mht ~key p
  in
  let counters = Channel.fresh_counters () in
  let src = Channel.source ~container ~key counters in
  ignore (src.Decoder.read ~pos:0 ~len:128);
  let after_first = counters.Channel.bytes_to_soe in
  ignore (src.Decoder.read ~pos:0 ~len:128);
  check int_t "second identical read is free" after_first
    counters.Channel.bytes_to_soe

let test_channel_tamper_detected () =
  List.iter
    (fun scheme ->
      let p = payload 6000 in
      let container =
        Container.encrypt ~chunk_size:1024 ~fragment_size:128 ~scheme ~key p
      in
      let tampered =
        Container.substitute_block container ~chunk:2 ~block:3
          (String.make 8 'Z')
      in
      let counters = Channel.fresh_counters () in
      let src = Channel.source ~container:tampered ~key counters in
      match read_all src with
      | exception Container.Integrity_failure _ -> ()
      | _ ->
          Alcotest.failf "%s: tampering not detected"
            (Container.scheme_to_string scheme))
    [ Container.Ecb_mht; Container.Cbc_sha; Container.Cbc_shac ]

let test_channel_ecb_has_no_detection () =
  let p = payload 3000 in
  let container =
    Container.encrypt ~chunk_size:1024 ~fragment_size:128 ~scheme:Container.Ecb
      ~key p
  in
  let tampered =
    Container.substitute_block container ~chunk:0 ~block:0 (String.make 8 'Z')
  in
  let counters = Channel.fresh_counters () in
  let src = Channel.source ~container:tampered ~key counters in
  let out = read_all src in
  check bool_t "ECB reads garbage silently" true (not (String.equal out p))

let test_cbc_sha_decrypts_whole_chunks () =
  let p = payload 8192 in
  let make scheme =
    let container =
      Container.encrypt ~chunk_size:2048 ~fragment_size:256 ~scheme ~key p
    in
    let counters = Channel.fresh_counters () in
    let src = Channel.source ~container ~key counters in
    ignore (src.Decoder.read ~pos:100 ~len:32);
    counters
  in
  let sha = make Container.Cbc_sha in
  let shac = make Container.Cbc_shac in
  let mht = make Container.Ecb_mht in
  check bool_t "CBC-SHA decrypts a whole chunk" true
    (sha.Channel.bytes_decrypted >= 2048);
  check bool_t "CBC-SHAC decrypts less than CBC-SHA" true
    (shac.Channel.bytes_decrypted < sha.Channel.bytes_decrypted);
  check bool_t "ECB-MHT transfers less than the CBC schemes" true
    (mht.Channel.bytes_to_soe < shac.Channel.bytes_to_soe)

(* Reading a whole container in wide sequential steps produces decrypt runs
   far above [Modes.batch_threshold]: every DES scheme must route real work
   through the bitsliced kernel, and ECB-MHT must verify in chunk groups. *)
let test_bulk_reads_hit_the_kernel () =
  let payload = payload 40_000 in
  List.iter
    (fun scheme ->
      let name = Container.scheme_to_string scheme in
      let verify = scheme <> Container.Ecb in
      let container =
        Container.encrypt ~chunk_size:2048 ~fragment_size:256 ~scheme ~key
          payload
      in
      let counters = Channel.fresh_counters () in
      let src = Channel.source ~verify ~container ~key counters in
      let buf = Buffer.create (String.length payload) in
      let open Xmlac_skip_index.Decoder in
      let rec go pos =
        if pos < src.length then begin
          let len = min 8192 (src.length - pos) in
          Buffer.add_string buf (src.read ~pos ~len);
          go (pos + len)
        end
      in
      go 0;
      check Alcotest.string (name ^ ": bulk read roundtrips") payload
        (Buffer.contents buf);
      let batched = counters.Channel.engine_batched_blocks in
      (match scheme with
      | Container.Aes_ctr ->
          check Alcotest.int (name ^ ": no DES kernel for AES") 0 batched
      | _ ->
          check bool_t (name ^ ": bitsliced kernel engaged") true (batched > 0));
      let groups = counters.Channel.engine_merkle_groups in
      match scheme with
      | Container.Ecb_mht ->
          check bool_t (name ^ ": grouped Merkle verification") true (groups > 0)
      | _ -> check Alcotest.int (name ^ ": no Merkle groups") 0 groups)
    Container.all_schemes

(* The batched Merkle group check must keep the security contract: when a
   whole chunk is read and verified in one grouped recombination, a
   tampered fragment is detected no matter which fragment it is — no
   fragment can hide behind another fragment's sibling cover. Each
   tampered container is read twice: from a terminal that derives sibling
   digests from what it serves, and from one that serves the untampered
   container's siblings, so a fragment's honest leaf hash reaches the SOE
   inside its neighbour's cover. *)
let test_batched_verify_detects_tampering () =
  let payload = String.init 12_000 (fun i -> Char.chr ((i * 131 + 7) mod 256)) in
  List.iter
    (fun scheme ->
      let container =
        Container.encrypt ~chunk_size:1024 ~fragment_size:128 ~scheme ~key
          payload
      in
      let honest = Channel.local_terminal container in
      (* one corrupted block inside each of chunk 1's eight fragments *)
      for frag = 0 to 7 do
        let block = (frag * 16) + (frag mod 16) in
        let tampered =
          Container.substitute_block container ~chunk:1 ~block
            (String.make 8 'Z')
        in
        let served = Channel.local_terminal tampered in
        List.iter
          (fun (terminal, siblings) ->
            let counters = Channel.fresh_counters () in
            let src =
              Channel.source_of_terminal ~verify:true ~terminal ~key counters
            in
            let open Xmlac_skip_index.Decoder in
            match src.read ~pos:0 ~len:src.length with
            | exception Container.Integrity_failure _ -> ()
            | _ ->
                Alcotest.failf
                  "%s: tampered fragment %d not detected (%s siblings)"
                  (Container.scheme_to_string scheme)
                  frag siblings)
          [
            (served, "served");
            ( { served with Channel.fetch_siblings = honest.Channel.fetch_siblings },
              "honest" );
          ]
      done)
    [ Container.Ecb_mht; Container.Cbc_sha; Container.Cbc_shac; Container.Aes_ctr ]

(* The first failure poisons a source. Once a tampered block has made a
   read raise, neither the same range nor a read inside it may serve the
   plaintext the failed window left in the caches. *)
let test_channel_poisoned_after_tamper () =
  let p = payload 8000 in
  List.iter
    (fun scheme ->
      let name = Container.scheme_to_string scheme in
      let container =
        Container.encrypt ~chunk_size:2048 ~fragment_size:256 ~scheme ~key p
      in
      (* block 67 of chunk 1 holds payload bytes [2584, 2592) *)
      let flipped =
        String.map
          (fun c -> Char.chr (Char.code c lxor 0xFF))
          (String.sub (Container.chunk_ciphertext container 1) (67 * 8) 8)
      in
      let tampered =
        Container.substitute_block container ~chunk:1 ~block:67 flipped
      in
      let src =
        Channel.source ~container:tampered ~key (Channel.fresh_counters ())
      in
      List.iter
        (fun (pos, len) ->
          match src.Decoder.read ~pos ~len with
          | exception Container.Integrity_failure _ -> ()
          | _ ->
              Alcotest.failf "%s: read [%d, +%d) served unverified plaintext"
                name pos len)
        [ (2560, 256); (2560, 256); (2584, 8) ])
    Container.[ Ecb_mht; Cbc_sha; Cbc_shac; Aes_ctr ]

(* A terminal that fails mid-window leaves no unverified ciphertext to
   read back: it serves chunk 1 fragment 2 with a flipped byte, then
   fails fetching fragment 3, and every later read re-raises that
   failure. *)
let test_channel_poisoned_after_terminal_failure () =
  let container =
    Container.encrypt ~chunk_size:1024 ~fragment_size:128
      ~scheme:Container.Ecb_mht ~key (payload 4096)
  in
  let honest = Channel.local_terminal container in
  let terminal =
    {
      honest with
      Channel.fetch_fragment =
        (fun ~chunk ~fragment ~lo ~hi ->
          match (chunk, fragment) with
          | 1, 2 ->
              let sl = honest.Channel.fetch_fragment ~chunk ~fragment ~lo ~hi in
              let b =
                Bytes.of_string
                  (String.sub sl.Channel.s_data sl.Channel.s_off (hi - lo))
              in
              Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
              { Channel.s_data = Bytes.to_string b; s_off = 0 }
          | 1, 3 -> failwith "terminal lost"
          | _ -> honest.Channel.fetch_fragment ~chunk ~fragment ~lo ~hi);
    }
  in
  let src =
    Channel.source_of_terminal ~terminal ~key (Channel.fresh_counters ())
  in
  (* fragments 2 and 3 of chunk 1 hold payload bytes [1280, 1536) *)
  List.iter
    (fun (pos, len) ->
      match src.Decoder.read ~pos ~len with
      | exception Failure m when m = "terminal lost" -> ()
      | exception e ->
          Alcotest.failf "read [%d, +%d) raised %s, not the terminal's failure"
            pos len (Printexc.to_string e)
      | _ ->
          Alcotest.failf "read [%d, +%d) served unverified ciphertext" pos len)
    [ (1280, 256); (1280, 8); (1280, 256) ]

(* Sessions --------------------------------------------------------------- *)

let small_hospital = Xmlac_workload.Hospital.generate ~seed:7
    ~config:{ Xmlac_workload.Hospital.default_config with folders = 12 } ()

let config = Session.default_config ()

let test_session_matches_oracle () =
  let policies =
    [
      ("secretary", Xmlac_workload.Profiles.secretary);
      ("doctor", Xmlac_workload.Profiles.doctor ~user:"dr00");
      ("researcher", Xmlac_workload.Profiles.researcher ());
    ]
  in
  let published = Session.publish config ~layout:Layout.Tcsbr small_hospital in
  List.iter
    (fun (name, policy) ->
      let m = Session.evaluate config published policy in
      let got =
        match m.Session.events with
        | [] -> None
        | evs -> Some (Tree.of_events evs)
      in
      let expected = Xmlac_core.Oracle.authorized_view policy small_hospital in
      let ok =
        match (got, expected) with
        | None, None -> true
        | Some a, Some b -> Tree.equal a b
        | _ -> false
      in
      if not ok then Alcotest.failf "%s: SOE session diverges from oracle" name)
    policies

let test_bf_reads_everything_tcsbr_reads_less () =
  let policy = Xmlac_workload.Profiles.secretary in
  let bf_pub = Session.publish config ~layout:Layout.Tc small_hospital in
  let skip_pub = Session.publish config ~layout:Layout.Tcsbr small_hospital in
  let bf = Session.evaluate ~strategy:"BF" config bf_pub policy in
  let skip = Session.evaluate config skip_pub policy in
  check bool_t "same view delivered" true
    (let a = Xmlac_xml.Writer.events_to_string bf.Session.events in
     let b = Xmlac_xml.Writer.events_to_string skip.Session.events in
     String.equal a b);
  check bool_t "BF transfers at least the whole payload" true
    (bf.Session.counters.Channel.bytes_to_soe >= bf_pub.Session.encoded_bytes);
  check bool_t "TCSBR transfers less than half of BF" true
    (2 * skip.Session.counters.Channel.bytes_to_soe
    < bf.Session.counters.Channel.bytes_to_soe);
  check bool_t "TCSBR is faster" true
    (skip.Session.breakdown.Cost_model.total_s
    < bf.Session.breakdown.Cost_model.total_s)

let test_lwb_is_a_lower_bound () =
  let policy = Xmlac_workload.Profiles.secretary in
  let published = Session.publish config ~layout:Layout.Tcsbr small_hospital in
  let m = Session.evaluate config published policy in
  let authorized =
    Session.authorized_encoded_bytes policy small_hospital
  in
  let lwb = Session.lwb config ~authorized_bytes:authorized in
  check bool_t "LWB below the measured strategy" true
    (lwb.Cost_model.total_s <= m.Session.breakdown.Cost_model.total_s)

let test_session_with_query () =
  let policy = Xmlac_workload.Profiles.secretary in
  let query = Xmlac_workload.Profiles.age_query ~threshold:50 in
  let published = Session.publish config ~layout:Layout.Tcsbr small_hospital in
  let m = Session.evaluate ~query config published policy in
  let expected =
    Xmlac_core.Oracle.query_view ~query policy small_hospital
  in
  let got =
    match m.Session.events with [] -> None | evs -> Some (Tree.of_events evs)
  in
  let ok =
    match (got, expected) with
    | None, None -> true
    | Some a, Some b -> Tree.equal a b
    | _ -> false
  in
  check bool_t "query session matches oracle" true ok

let test_session_integrity_end_to_end () =
  let policy = Xmlac_workload.Profiles.secretary in
  let published = Session.publish config ~layout:Layout.Tcsbr small_hospital in
  let raw = Container.to_bytes published.Session.container in
  (* flip one payload byte on the "server" *)
  let b = Bytes.of_string raw in
  let off = 22 + 100 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  let tampered =
    { published with Session.container = Container.of_bytes (Bytes.to_string b) }
  in
  match Session.evaluate config tampered policy with
  | exception Container.Integrity_failure _ -> ()
  | _ -> Alcotest.fail "tampered container evaluated successfully"

let test_publish_nc_rejected () =
  Alcotest.check_raises "NC refuses"
    (Invalid_argument "Session.publish: the NC layout cannot be evaluated")
    (fun () -> ignore (Session.publish config ~layout:Layout.Nc small_hospital))

let test_integrity_scheme_ordering () =
  (* Figure 11 shape: ECB < ECB-MHT < CBC-SHAC < CBC-SHA for a selective
     policy *)
  let policy = Xmlac_workload.Profiles.secretary in
  let time scheme verify =
    let config = Session.default_config ~scheme () in
    let published = Session.publish config ~layout:Layout.Tcsbr small_hospital in
    (Session.evaluate ~verify config published policy).Session.breakdown
      .Cost_model.total_s
  in
  let ecb = time Container.Ecb false in
  let mht = time Container.Ecb_mht true in
  let shac = time Container.Cbc_shac true in
  let sha = time Container.Cbc_sha true in
  check bool_t "ECB cheapest" true (ecb < mht);
  check bool_t "ECB-MHT below CBC-SHAC" true (mht < shac);
  check bool_t "CBC-SHAC below CBC-SHA" true (shac < sha)

let test_contexts_change_the_tradeoff () =
  (* the LAN context makes communication nearly free, the Internet context
     makes it dominant — the same byte counts, different orderings *)
  let b ctx =
    Cost_model.breakdown
      (Cost_model.of_context ctx)
      ~bytes_in:1_000_000 ~bytes_decrypted:200_000 ~bytes_hashed:0
      ~transitions:0 ~events:0
  in
  let hw = b Cost_model.Hardware in
  let inet = b Cost_model.Software_internet in
  let lan = b Cost_model.Software_lan in
  check bool_t "LAN is fastest" true
    (lan.Cost_model.total_s < hw.Cost_model.total_s
    && lan.Cost_model.total_s < inet.Cost_model.total_s);
  check bool_t "Internet is communication-bound" true
    (inet.Cost_model.communication_s > inet.Cost_model.decryption_s);
  check bool_t "hardware is decryption-bound at this ratio" true
    (hw.Cost_model.decryption_s > hw.Cost_model.access_control_s)

let test_cache_eviction_costs_refetches () =
  let p = payload 16384 in
  let container =
    Container.encrypt ~chunk_size:2048 ~fragment_size:256
      ~scheme:Container.Ecb_mht ~key p
  in
  (* cycle five times through [n] whole fragments, 1 KB apart *)
  let fetches n =
    let counters = Channel.fresh_counters () in
    let src = Channel.source ~container ~key counters in
    for _ = 1 to 5 do
      for i = 0 to n - 1 do
        ignore (src.Decoder.read ~pos:(i * 1024) ~len:256)
      done
    done;
    counters.Channel.fragment_fetches
  in
  check int_t "two fragments are fetched once each" 2 (fetches 2);
  let n = Channel.frag_cache_capacity + 1 in
  check bool_t "more fragments than the cache holds are refetched" true
    (fetches n > n)

let test_lwb_monotone_in_bytes () =
  let t n = (Session.lwb config ~authorized_bytes:n).Cost_model.total_s in
  check bool_t "monotone" true (t 1_000 < t 10_000 && t 10_000 < t 100_000)

let qtest ?(count = 150) name gen ?print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

let prop_full_pipeline_equals_oracle =
  (* the strongest end-to-end property: random documents and random rules,
     through skip-index encoding, 3DES encryption, the verifying channel and
     the streaming evaluator — always the oracle's view *)
  qtest "encrypted pipeline ≡ oracle on random inputs"
    (QCheck2.Gen.pair Testkit.gen_tree Testkit.gen_rules)
    ~print:(fun (t, rules) ->
      Testkit.tree_print t ^ " | " ^ Testkit.rules_print rules)
    (fun (tree, rules) ->
      let policy =
        Xmlac_core.Policy.make
          (List.mapi
             (fun i (sign, path) ->
               Xmlac_core.Rule.make
                 ~id:(Printf.sprintf "R%d" i)
                 ~sign:(if sign then Xmlac_core.Rule.Permit else Xmlac_core.Rule.Deny)
                 path)
             rules)
      in
      let published = Session.publish config ~layout:Layout.Tcsbr tree in
      let m = Session.evaluate config published policy in
      let got =
        match m.Session.events with
        | [] -> None
        | evs -> Some (Tree.of_events evs)
      in
      match (got, Xmlac_core.Oracle.authorized_view policy tree) with
      | None, None -> true
      | Some a, Some b -> Tree.equal a b
      | _ -> false)

let test_every_scheme_layout_combination () =
  let policy = Xmlac_workload.Profiles.secretary in
  let expected = Xmlac_core.Oracle.authorized_view policy small_hospital in
  List.iter
    (fun scheme ->
      List.iter
        (fun layout ->
          let config = Session.default_config ~scheme () in
          let published = Session.publish config ~layout small_hospital in
          let m =
            Session.evaluate ~verify:(scheme <> Container.Ecb) config published
              policy
          in
          let got =
            match m.Session.events with
            | [] -> None
            | evs -> Some (Tree.of_events evs)
          in
          let ok =
            match (got, expected) with
            | None, None -> true
            | Some a, Some b -> Tree.equal a b
            | _ -> false
          in
          if not ok then
            Alcotest.failf "%s × %s diverges from oracle"
              (Container.scheme_to_string scheme)
              (Layout.to_string layout))
        [ Layout.Tc; Layout.Tcs; Layout.Tcsb; Layout.Tcsbr ])
    Container.all_schemes

(* LRU cache: model-checked against a naive reference ----------------------- *)

let lru_ops_gen =
  QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 0 80) (int_range 0 15)))

(* Reference model: an MRU-first assoc list. Each op is find-then-
   insert-on-miss, the way every channel cache uses the Lru. *)
let prop_lru_model =
  qtest ~count:300 "LRU ≡ naive model" lru_ops_gen (fun (cap, ops) ->
      let stats = Lru.fresh_stats () in
      let cache = Lru.create ~capacity:cap ~stats in
      let model = ref [] in
      let hits = ref 0 and misses = ref 0 and evicted = ref 0 in
      List.iter
        (fun k ->
          (match Lru.find cache k with
          | Some v ->
              incr hits;
              if v <> 2 * k then failwith "cached value corrupted"
          | None ->
              incr misses;
              Lru.insert cache k (2 * k));
          (match List.assoc_opt k !model with
          | Some () -> model := (k, ()) :: List.remove_assoc k !model
          | None ->
              model := (k, ()) :: !model;
              if List.length !model > cap then begin
                model := List.filteri (fun i _ -> i < cap) !model;
                incr evicted
              end);
          if Lru.length cache > Lru.capacity cache then
            failwith "capacity bound violated")
        ops;
      Lru.keys_mru cache = List.map fst !model
      && stats.Lru.hits = !hits
      && stats.Lru.misses = !misses
      && stats.Lru.evicted = !evicted)

let test_lru_peek_does_not_perturb () =
  let stats = Lru.fresh_stats () in
  let cache = Lru.create ~capacity:2 ~stats in
  Lru.insert cache 1 "one";
  Lru.insert cache 2 "two";
  check bool_t "peek sees the entry" true (Lru.peek cache 1 = Some "one");
  check int_t "peek does not count a hit" 0 stats.Lru.hits;
  check bool_t "peek does not refresh recency" true
    (Lru.keys_mru cache = [ 2; 1 ]);
  (* had peek refreshed key 1, this insert would evict key 2 instead *)
  Lru.insert cache 3 "three";
  check bool_t "oldest entry evicted" true (Lru.keys_mru cache = [ 3; 2 ]);
  check int_t "eviction counted" 1 stats.Lru.evicted

let test_lru_rejects_zero_capacity () =
  match Lru.create ~capacity:0 ~stats:(Lru.fresh_stats ()) with
  | (_ : (int, int) Lru.t) -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

let test_cache_hits_on_multi_rule_profile () =
  let doc =
    Xmlac_workload.Hospital.generate ~seed:3
      ~config:{ Xmlac_workload.Hospital.default_config with folders = 4 }
      ()
  in
  let config =
    {
      (Session.default_config ~scheme:Container.Ecb_mht ()) with
      Session.chunk_size = 1024;
      fragment_size = 128;
    }
  in
  let published = Session.publish config ~layout:Layout.Tcsbr doc in
  let m = Session.evaluate config published (Xmlac_workload.Profiles.doctor ~user:"dr00") in
  check bool_t "SOE caches hit on a multi-rule profile" true
    (m.Session.counters.Channel.cache.Lru.hits > 0)

(* Allocation --------------------------------------------------------------- *)

(* A session runs on the calling domain, so [gc.minor_words] counts exactly
   the words it allocates: identical sessions in one process report the
   same figure, the first one included. *)
let test_identical_sessions_allocate_identically () =
  let doc =
    Xmlac_workload.Hospital.generate ~seed:5
      ~config:{ Xmlac_workload.Hospital.default_config with folders = 40 }
      ()
  in
  let policy = Xmlac_workload.Profiles.doctor ~user:"dr00" in
  List.iter
    (fun scheme ->
      let name = Container.scheme_to_string scheme in
      let config = Session.default_config ~scheme () in
      let published = Session.publish config ~layout:Layout.Tcsbr doc in
      let minor_words () =
        (Session.evaluate config published policy).Session.gc_minor_words
      in
      let first = minor_words () in
      check bool_t (name ^ ": allocation counted") true (first > 0.);
      List.iter
        (fun run ->
          check (Alcotest.float 0.)
            (Printf.sprintf "%s: run %d allocates like run 1" name run)
            first (minor_words ()))
        [ 2; 3 ])
    [ Container.Ecb_mht; Container.Cbc_shac ]

(* A parsed container has no node tables: the first session's terminal
   builds the tables of the chunks it serves siblings from, into the
   container value, and later sessions on that value read them. *)
let test_node_tables_outlive_a_session () =
  let doc =
    Xmlac_workload.Hospital.generate ~seed:5
      ~config:{ Xmlac_workload.Hospital.default_config with folders = 40 }
      ()
  in
  let policy = Xmlac_workload.Profiles.doctor ~user:"dr00" in
  let config = Session.default_config ~scheme:Container.Ecb_mht () in
  let published = Session.publish config ~layout:Layout.Tcsbr doc in
  let parsed =
    {
      published with
      Session.container =
        Container.of_bytes (Container.to_bytes published.Session.container);
    }
  in
  let minor_words () =
    (Session.evaluate config parsed policy).Session.gc_minor_words
  in
  let first = minor_words () in
  let second = minor_words () in
  let third = minor_words () in
  check bool_t
    (Printf.sprintf "run 1 builds the tables (%.0f > %.0f words)" first second)
    true (first > second);
  check (Alcotest.float 0.) "run 3 allocates like run 2" second third

(* Licenses ----------------------------------------------------------------- *)

let soe_key = Xmlac_crypto.Des.Triple.key_of_string "the-device-soe-master-ke"
let doc_key_bytes = "0123456789abcdefFEDCBA98"

let sample_license () =
  License.make ~valid_until:20_000 ~subject:"dr07" ~document_key:doc_key_bytes
    [
      ("D1", Xmlac_core.Rule.Permit, "//Folder/Admin");
      ("D2", Xmlac_core.Rule.Permit, "//MedActs[//RPhys = USER]");
      ("D3", Xmlac_core.Rule.Deny, "//Act[RPhys != USER]/Details");
    ]

let test_license_roundtrip () =
  let lic = sample_license () in
  let sealed = License.seal ~soe_key lic in
  match License.unseal ~soe_key sealed with
  | Error e -> Alcotest.failf "unseal failed: %s" e
  | Ok lic' ->
      check Alcotest.string "subject" lic.License.subject lic'.License.subject;
      check Alcotest.string "key" lic.License.document_key lic'.License.document_key;
      check bool_t "expiry" true (lic'.License.valid_until = Some 20_000);
      check int_t "rules" 3 (List.length lic'.License.rules)

let test_license_policy_user_resolved () =
  let lic = sample_license () in
  let p = License.policy lic in
  match Xmlac_core.Policy.streaming_compatible p with
  | Error e -> Alcotest.fail e
  | Ok () ->
      (* the policy must behave as the doctor dr07's policy *)
      let doc =
        Tree.parse
          "<r><MedActs><Act><RPhys>dr07</RPhys><x>1</x></Act></MedActs></r>"
      in
      let view = Xmlac_core.Oracle.authorized_view p doc in
      check bool_t "rules fire for the license subject" true (view <> None)

let test_license_tamper_rejected () =
  let sealed = License.seal ~soe_key (sample_license ()) in
  let b = Bytes.of_string sealed in
  Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 1));
  (match License.unseal ~soe_key (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered license accepted");
  match License.unseal ~soe_key (String.sub sealed 0 8) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated license accepted"

let test_license_wrong_key_rejected () =
  let sealed = License.seal ~soe_key (sample_license ()) in
  let other = Xmlac_crypto.Des.Triple.key_of_string "a-completely-differentk!" in
  match License.unseal ~soe_key:other sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "license opened under the wrong key"

let test_license_expiry () =
  let lic = sample_license () in
  check bool_t "valid before" true (License.is_valid_at lic ~now:19_999);
  check bool_t "valid at limit" true (License.is_valid_at lic ~now:20_000);
  check bool_t "invalid after" false (License.is_valid_at lic ~now:20_001)

let test_license_drives_a_session () =
  (* a sealed license is everything a device needs to open a document *)
  let lic = sample_license () in
  let sealed = License.seal ~soe_key lic in
  let doc = small_hospital in
  let config =
    { (Session.default_config ()) with Session.key = License.key lic }
  in
  let published = Session.publish config ~layout:Layout.Tcsbr doc in
  match License.unseal ~soe_key sealed with
  | Error e -> Alcotest.fail e
  | Ok lic' ->
      let config' =
        { (Session.default_config ()) with Session.key = License.key lic' }
      in
      let m = Session.evaluate config' published (License.policy lic') in
      check bool_t "license-driven evaluation delivers" true
        (m.Session.result_bytes > 0)

let () =
  Alcotest.run "soe"
    [
      ( "cost-model",
        [
          Alcotest.test_case "Table 1 constants" `Quick test_table1_constants;
          Alcotest.test_case "breakdown math" `Quick test_breakdown_math;
          Alcotest.test_case "contexts change the tradeoff" `Quick
            test_contexts_change_the_tradeoff;
          Alcotest.test_case "LWB monotonicity" `Quick test_lwb_monotone_in_bytes;
        ] );
      ( "channel",
        List.concat_map
          (fun scheme ->
            List.map
              (fun verify ->
                Alcotest.test_case
                  (Printf.sprintf "roundtrip %s verify=%b"
                     (Container.scheme_to_string scheme) verify)
                  `Quick
                  (channel_roundtrip scheme verify))
              [ true; false ])
          Container.all_schemes
        @ [
            Alcotest.test_case "random access costs" `Quick test_channel_random_access_costs;
            Alcotest.test_case "cache avoids refetch" `Quick test_channel_cache_avoids_refetch;
            Alcotest.test_case "cache hits on multi-rule profile" `Quick
              test_cache_hits_on_multi_rule_profile;
            Alcotest.test_case "eviction costs refetches" `Quick
              test_cache_eviction_costs_refetches;
            Alcotest.test_case "tamper detected" `Quick test_channel_tamper_detected;
            Alcotest.test_case "plain ECB lacks detection" `Quick test_channel_ecb_has_no_detection;
            Alcotest.test_case "CBC decryption granularity" `Quick test_cbc_sha_decrypts_whole_chunks;
            Alcotest.test_case "bulk reads hit the batched kernel" `Quick
              test_bulk_reads_hit_the_kernel;
            Alcotest.test_case "tampering detected through batched verify"
              `Quick test_batched_verify_detects_tampering;
            Alcotest.test_case "poisoned after a tamper" `Quick
              test_channel_poisoned_after_tamper;
            Alcotest.test_case "poisoned after a terminal failure" `Quick
              test_channel_poisoned_after_terminal_failure;
          ] );
      ( "session",
        [
          Alcotest.test_case "matches oracle" `Quick test_session_matches_oracle;
          Alcotest.test_case "BF vs TCSBR" `Quick test_bf_reads_everything_tcsbr_reads_less;
          Alcotest.test_case "LWB bound" `Quick test_lwb_is_a_lower_bound;
          Alcotest.test_case "with query" `Quick test_session_with_query;
          Alcotest.test_case "end-to-end tamper detection" `Quick test_session_integrity_end_to_end;
          Alcotest.test_case "NC rejected" `Quick test_publish_nc_rejected;
          Alcotest.test_case "Figure 11 ordering" `Quick test_integrity_scheme_ordering;
          Alcotest.test_case "all scheme × layout combinations" `Quick
            test_every_scheme_layout_combination;
          prop_full_pipeline_equals_oracle;
          Alcotest.test_case "identical sessions allocate identically" `Quick
            test_identical_sessions_allocate_identically;
          Alcotest.test_case "node tables outlive a session" `Quick
            test_node_tables_outlive_a_session;
        ] );
      ( "lru",
        [
          prop_lru_model;
          Alcotest.test_case "peek does not perturb" `Quick
            test_lru_peek_does_not_perturb;
          Alcotest.test_case "zero capacity rejected" `Quick
            test_lru_rejects_zero_capacity;
        ] );
      ( "license",
        [
          Alcotest.test_case "seal/unseal roundtrip" `Quick test_license_roundtrip;
          Alcotest.test_case "policy USER-resolved" `Quick test_license_policy_user_resolved;
          Alcotest.test_case "tampering rejected" `Quick test_license_tamper_rejected;
          Alcotest.test_case "wrong key rejected" `Quick test_license_wrong_key_rejected;
          Alcotest.test_case "expiry" `Quick test_license_expiry;
          Alcotest.test_case "drives a session" `Quick test_license_drives_a_session;
        ] );
    ]
