(* Shape regression suite: small-scale versions of the paper's experiments,
   asserting the qualitative claims recorded in EXPERIMENTS.md so they are
   CI-checked, not just eyeballed from the benchmark output. *)

module Tree = Xmlac_xml.Tree
module Layout = Xmlac_skip_index.Layout
module Stats = Xmlac_skip_index.Stats
module Container = Xmlac_crypto.Secure_container
module Session = Xmlac_soe.Session
module Cost_model = Xmlac_soe.Cost_model
module W = Xmlac_workload

let check = Alcotest.check
let bool_t = Alcotest.bool

let hospital =
  lazy (W.Hospital.generate_sized ~seed:1 ~target_bytes:250_000 ())

let config = Session.default_config ()

let tcsbr = lazy (Session.publish config ~layout:Layout.Tcsbr (Lazy.force hospital))
let tc = lazy (Session.publish config ~layout:Layout.Tc (Lazy.force hospital))

let profiles () =
  [
    W.Profiles.secretary;
    W.Profiles.doctor ~user:W.Hospital.full_time_physician;
    W.Profiles.researcher ~groups:[ 1; 2; 3 ] ();
  ]

let time ?verify ?options published policy =
  (Session.evaluate ?verify ?options config published policy).Session.breakdown
    .Cost_model.total_s

(* Figure 8 shapes ----------------------------------------------------------- *)

let test_fig8_shapes () =
  List.iter
    (fun kind ->
      let doc = W.Datasets.generate kind ~seed:3 ~target_bytes:100_000 in
      let get layout = (Stats.measure ~layout doc).Stats.structure_bytes in
      let name = W.Datasets.name kind in
      if not (get Layout.Tc * 2 < get Layout.Nc) then
        Alcotest.failf "%s: TC should be well below NC" name;
      if not (get Layout.Tcs >= get Layout.Tc) then
        Alcotest.failf "%s: TCS pays for sizes" name;
      if not (get Layout.Tcsb >= get Layout.Tcs) then
        Alcotest.failf "%s: TCSB pays for bitmaps" name;
      if not (get Layout.Tcsbr < get Layout.Tcsb) then
        Alcotest.failf "%s: recursion must beat absolute bitmaps" name)
    W.Datasets.all

let test_fig8_treebank_bitmap_blowup () =
  let doc = W.Datasets.generate W.Datasets.Treebank ~seed:3 ~target_bytes:100_000 in
  let get layout = (Stats.measure ~layout doc).Stats.structure_bytes in
  (* the 250-tag dictionary makes absolute bitmaps explode; the recursive
     encoding recovers most of it (paper Figure 8's clipped bar) *)
  check bool_t "TCSB at least 3x TCS on Treebank" true
    (get Layout.Tcsb > 3 * get Layout.Tcs);
  check bool_t "TCSBR under half of TCSB" true
    (2 * get Layout.Tcsbr < get Layout.Tcsb)

(* Figure 9 shapes ----------------------------------------------------------- *)

let test_fig9_bf_vs_tcsbr_vs_lwb () =
  List.iter
    (fun policy ->
      let t_bf = time ~verify:false (Lazy.force tc) policy in
      let t_ix = time ~verify:false (Lazy.force tcsbr) policy in
      let lwb =
        (Session.lwb ~verify:false config
           ~authorized_bytes:
             (Session.authorized_encoded_bytes policy (Lazy.force hospital)))
          .Cost_model.total_s
      in
      check bool_t "BF at least 2x TCSBR" true (t_bf > 2. *. t_ix);
      check bool_t "LWB below TCSBR" true (lwb <= t_ix))
    (profiles ())

let test_fig9_cost_split () =
  let m =
    Session.evaluate ~verify:false config (Lazy.force tcsbr)
      (W.Profiles.doctor ~user:W.Hospital.full_time_physician)
  in
  let b = m.Session.breakdown in
  check bool_t "decryption+communication dominate" true
    (b.Cost_model.decryption_s +. b.Cost_model.communication_s
    > 4. *. b.Cost_model.access_control_s);
  check bool_t "access control under 20% (paper's bound)" true
    (b.Cost_model.access_control_s < 0.2 *. b.Cost_model.total_s)

(* Figure 10 shape ----------------------------------------------------------- *)

let test_fig10_monotone_in_result_size () =
  let policy = W.Profiles.secretary in
  let published = Lazy.force tcsbr in
  let runs =
    List.map
      (fun v ->
        let m =
          Session.evaluate ~verify:false
            ~query:(W.Profiles.age_query ~threshold:v) config published policy
        in
        (m.Session.result_bytes, m.Session.breakdown.Cost_model.total_s))
      [ 90; 50; 0 ]
  in
  match runs with
  | [ (r1, t1); (r2, t2); (r3, t3) ] ->
      check bool_t "result grows as the threshold drops" true (r1 < r2 && r2 < r3);
      check bool_t "time grows with result size" true (t1 <= t2 && t2 <= t3);
      check bool_t "non-zero intercept" true (t1 > 0.01)
  | _ -> assert false

(* Figure 11 shape ----------------------------------------------------------- *)

let test_fig11_scheme_ordering () =
  let policy = W.Profiles.secretary in
  let doc = Lazy.force hospital in
  let t scheme verify =
    let config = Session.default_config ~scheme () in
    let published = Session.publish config ~layout:Layout.Tcsbr doc in
    time ~verify published policy
  in
  let ecb = t Container.Ecb false in
  let mht = t Container.Ecb_mht true in
  let shac = t Container.Cbc_shac true in
  let sha = t Container.Cbc_sha true in
  check bool_t "ECB < ECB-MHT < CBC-SHAC < CBC-SHA" true
    (ecb < mht && mht < shac && shac < sha)

(* Figure 12 shape ----------------------------------------------------------- *)

let test_fig12_integrity_tax () =
  let policy = W.Profiles.secretary in
  let with_int = time ~verify:true (Lazy.force tcsbr) policy in
  let without = time ~verify:false (Lazy.force tcsbr) policy in
  check bool_t "integrity costs something" true (with_int > without);
  check bool_t "but less than 4x" true (with_int < 4. *. without)

(* Ablation shapes ------------------------------------------------------------ *)

let test_ablation_desctag_filter_is_the_enabler () =
  let policy = W.Profiles.secretary in
  let published = Lazy.force tcsbr in
  let t_off =
    time ~verify:false
      ~options:
        {
          Xmlac_core.Evaluator.enable_skipping = true;
          enable_rest_skips = true;
          enable_desctag_filter = false;
        }
      published policy
  in
  let t_on = time ~verify:false published policy in
  check bool_t "DescTag filtering cuts time at least in half" true
    (2. *. t_on < t_off)

let test_memory_peak_is_small () =
  (* the SOE working set must stay smart-card sized even on a large
     document (the paper's 8KB RAM budget, modulo model constants) *)
  let m = Session.evaluate config (Lazy.force tcsbr) (W.Profiles.secretary) in
  let peak = m.Session.eval.Xmlac_core.Evaluator.memory_peak_bytes in
  check bool_t
    (Printf.sprintf "peak %dB under 64KB" peak)
    true (peak > 0 && peak < 65_536)

let test_memory_flat_in_document_size () =
  (* streaming: quadrupling the document must not quadruple the working
     set (it is bounded by depth + policy + pending work) *)
  let peak target =
    let doc = W.Hospital.generate_sized ~seed:9 ~target_bytes:target () in
    let published = Session.publish config ~layout:Layout.Tcsbr doc in
    (Session.evaluate ~verify:false config published
       (W.Profiles.doctor ~user:W.Hospital.full_time_physician))
      .Session.eval.Xmlac_core.Evaluator.memory_peak_bytes
  in
  let small = peak 60_000 and large = peak 240_000 in
  check bool_t
    (Printf.sprintf "memory sublinear (60KB:%dB vs 240KB:%dB)" small large)
    true
    (large < 2 * small)

let test_memory_grows_with_pending () =
  (* the researcher's pending protocol predicates hold more state *)
  let sec = Session.evaluate config (Lazy.force tcsbr) W.Profiles.secretary in
  let res =
    Session.evaluate config (Lazy.force tcsbr)
      (W.Profiles.researcher ~groups:[ 1; 2; 3; 4; 5 ] ())
  in
  check bool_t "researcher uses more SOE memory than secretary" true
    (res.Session.eval.Xmlac_core.Evaluator.memory_peak_bytes
    > sec.Session.eval.Xmlac_core.Evaluator.memory_peak_bytes)

let () =
  Alcotest.run "experiments"
    [
      ( "fig8",
        [
          Alcotest.test_case "layout ordering per dataset" `Quick test_fig8_shapes;
          Alcotest.test_case "Treebank bitmap blowup" `Quick test_fig8_treebank_bitmap_blowup;
        ] );
      ( "fig9",
        [
          Alcotest.test_case "BF >> TCSBR >= LWB" `Quick test_fig9_bf_vs_tcsbr_vs_lwb;
          Alcotest.test_case "cost split" `Quick test_fig9_cost_split;
        ] );
      ("fig10", [ Alcotest.test_case "monotone in result size" `Quick test_fig10_monotone_in_result_size ]);
      ("fig11", [ Alcotest.test_case "scheme ordering" `Quick test_fig11_scheme_ordering ]);
      ("fig12", [ Alcotest.test_case "integrity tax" `Quick test_fig12_integrity_tax ]);
      ( "ablation",
        [
          Alcotest.test_case "DescTag filter enables skipping" `Quick
            test_ablation_desctag_filter_is_the_enabler;
          Alcotest.test_case "SOE memory stays bounded" `Quick test_memory_peak_is_small;
          Alcotest.test_case "memory flat in document size" `Quick
            test_memory_flat_in_document_size;
          Alcotest.test_case "memory grows with pending work" `Quick
            test_memory_grows_with_pending;
        ] );
    ]
