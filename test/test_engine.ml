(* Differential suite for the crypto engines: a session running on the
   fast engine (bitsliced DES + batched Merkle verification) must be
   byte-for-byte indistinguishable from the reference engine — same
   authorized output, same cost-model counters, same cache behaviour — on
   every scheme. Only wall-clock (and the gc family) may differ, plus the
   [engine.*] counters that exist precisely to expose engine-specific
   work. *)

open Xmlac_soe
module Tree = Xmlac_xml.Tree
module Container = Xmlac_crypto.Secure_container
module Engine = Xmlac_crypto.Engine
module Layout = Xmlac_skip_index.Layout
module Metrics = Xmlac_obs.Metrics

let check = Alcotest.check
let bool_t = Alcotest.bool

let is_engine_metric name =
  String.split_on_char '.' name |> List.exists (String.equal "engine")

(* Every gated (deterministic) metric except the engine-specific family:
   this is the set the two engines must agree on exactly. *)
let invariant_metrics m =
  List.filter
    (fun (n, _) -> Xmlac_obs.Gate.gated n && not (is_engine_metric n))
    (Session.metrics m)

let metric m name =
  match Metrics.find (Session.metrics m) name with
  | Some v -> int_of_float (Metrics.to_float v)
  | None -> Alcotest.failf "metric %s missing" name

let output m = Xmlac_xml.Writer.events_to_string m.Session.events

let config_for scheme =
  {
    (Session.default_config ~scheme ()) with
    Session.chunk_size = 512;
    fragment_size = 64;
  }

let policy_of rules =
  Xmlac_core.Policy.make
    (List.mapi
       (fun i (sign, path) ->
         Xmlac_core.Rule.make
           ~id:(Printf.sprintf "R%d" i)
           ~sign:(if sign then Xmlac_core.Rule.Permit else Xmlac_core.Rule.Deny)
           path)
       rules)

(* Random doc/policy pairs -------------------------------------------------- *)

(* 60 random pairs x 5 schemes x both engines. A reference run is the
   pinned truth; each engine's run must reproduce its output and its
   invariant metrics exactly. *)
let prop_engines_indistinguishable =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"Fast ≡ Reference on random doc/policy pairs (all schemes)"
       (QCheck2.Gen.pair Testkit.gen_tree Testkit.gen_rules)
       ~print:(fun (t, rules) ->
         Testkit.tree_print t ^ " | " ^ Testkit.rules_print rules)
       (fun (tree, rules) ->
         let policy = policy_of rules in
         List.for_all
           (fun scheme ->
             let config = config_for scheme in
             let verify = scheme <> Container.Ecb in
             let published = Session.publish config ~layout:Layout.Tcsbr tree in
             let base = Session.evaluate ~verify config published policy in
             let base_out = output base in
             let base_invariant = invariant_metrics base in
             List.for_all
               (fun engine ->
                 let m =
                   Session.evaluate ~verify
                     { config with Session.engine }
                     published policy
                 in
                 String.equal (output m) base_out
                 && invariant_metrics m = base_invariant)
               Engine.all)
           Container.all_schemes))

(* A real workload ---------------------------------------------------------- *)

(* On a document big enough for multi-chunk windows, pin down not just the
   equality but that the fast engine actually did batched work. *)
let test_fast_engine_on_hospital_workload () =
  let doc =
    Xmlac_workload.Hospital.generate ~seed:11
      ~config:{ Xmlac_workload.Hospital.default_config with folders = 4 }
      ()
  in
  let policy = Xmlac_workload.Profiles.doctor ~user:"dr00" in
  List.iter
    (fun scheme ->
      let name = Container.scheme_to_string scheme in
      let config =
        {
          (Session.default_config ~scheme ()) with
          Session.chunk_size = 1024;
          fragment_size = 128;
        }
      in
      let verify = scheme <> Container.Ecb in
      let published = Session.publish config ~layout:Layout.Tcsbr doc in
      let reference = Session.evaluate ~verify config published policy in
      let fast =
        Session.evaluate ~verify
          { config with Session.engine = Engine.Fast }
          published policy
      in
      check Alcotest.string (name ^ ": outputs identical") (output reference)
        (output fast);
      check bool_t (name ^ ": invariant metrics identical") true
        (invariant_metrics reference = invariant_metrics fast);
      (* the reference engine never batches *)
      check Alcotest.int (name ^ ": reference batches nothing") 0
        (metric reference "channel.engine.batched_blocks");
      check Alcotest.int (name ^ ": reference groups nothing") 0
        (metric reference "channel.engine.merkle_groups");
      (* AES-CTR shares one code path across engines: nothing to batch.
         (Whether the DES schemes batch here depends on how wide the
         evaluator's reads are — the bulk-read test below pins that.) *)
      (match scheme with
      | Container.Aes_ctr ->
          check Alcotest.int (name ^ ": no DES kernel for AES") 0
            (metric fast "channel.engine.batched_blocks")
      | _ -> ());
      (* grouped Merkle recombination fires exactly for ECB-MHT *)
      let groups = metric fast "channel.engine.merkle_groups" in
      match scheme with
      | Container.Ecb_mht ->
          check bool_t (name ^ ": Merkle verification grouped") true (groups > 0)
      | _ -> check Alcotest.int (name ^ ": no Merkle groups") 0 groups)
    Container.all_schemes

(* Bulk reads through the channel ------------------------------------------- *)

(* Reading a whole container in wide sequential steps produces decrypt runs
   far above [Modes.batch_threshold]: every DES scheme must route real work
   through the bitsliced kernel, and ECB-MHT must verify in chunk groups. *)
let test_fast_engine_batches_bulk_reads () =
  let key = Xmlac_crypto.Des.Triple.key_of_string "0123456789abcdefFEDCBA98" in
  let payload = String.init 40_000 (fun i -> Char.chr ((i * 37) mod 251)) in
  List.iter
    (fun scheme ->
      let name = Container.scheme_to_string scheme in
      let verify = scheme <> Container.Ecb in
      let container =
        Container.encrypt ~chunk_size:2048 ~fragment_size:256 ~scheme ~key
          payload
      in
      let counters = Channel.fresh_counters () in
      let src =
        Channel.source ~verify ~engine:Engine.Fast ~container ~key counters
      in
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

(* Tampering through the fast path ------------------------------------------ *)

(* The batched Merkle group check must keep the security contract: when a
   whole chunk is read and verified in one grouped recombination, a
   tampered fragment is detected no matter which fragment it is — no
   fragment can hide behind another fragment's sibling cover. *)
let test_fast_engine_detects_tampering () =
  let key = Xmlac_crypto.Des.Triple.key_of_string "0123456789abcdefFEDCBA98" in
  let payload = String.init 12_000 (fun i -> Char.chr ((i * 131 + 7) mod 256)) in
  List.iter
    (fun scheme ->
      let container =
        Container.encrypt ~chunk_size:1024 ~fragment_size:128 ~scheme ~key
          payload
      in
      (* one corrupted block inside each of chunk 1's eight fragments *)
      for frag = 0 to 7 do
        let block = (frag * 16) + (frag mod 16) in
        let tampered =
          Container.substitute_block container ~chunk:1 ~block
            (String.make 8 'Z')
        in
        let counters = Channel.fresh_counters () in
        let src =
          Channel.source ~verify:true ~engine:Engine.Fast ~container:tampered
            ~key counters
        in
        let open Xmlac_skip_index.Decoder in
        match src.read ~pos:0 ~len:src.length with
        | exception Container.Integrity_failure _ -> ()
        | _ ->
            Alcotest.failf "%s: tampered fragment %d not detected by fast engine"
              (Container.scheme_to_string scheme)
              frag
      done)
    [ Container.Ecb_mht; Container.Cbc_sha; Container.Cbc_shac; Container.Aes_ctr ]

let test_engine_names_roundtrip () =
  List.iter
    (fun e ->
      match Engine.of_string (Engine.to_string e) with
      | Some e' when e = e' -> ()
      | _ -> Alcotest.failf "engine name %s does not roundtrip" (Engine.to_string e))
    Engine.all;
  check bool_t "unknown name rejected" true (Engine.of_string "turbo" = None);
  check bool_t "reference is the default" true (Engine.default = Engine.Reference)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          prop_engines_indistinguishable;
          Alcotest.test_case "hospital workload, all schemes" `Quick
            test_fast_engine_on_hospital_workload;
          Alcotest.test_case "bulk reads hit the batched kernel" `Quick
            test_fast_engine_batches_bulk_reads;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "tampering detected through batched verify" `Quick
            test_fast_engine_detects_tampering;
        ] );
      ( "api",
        [ Alcotest.test_case "engine names" `Quick test_engine_names_roundtrip ] );
    ]
