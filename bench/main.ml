(* Benchmark harness regenerating every table and figure of the paper's
   Section 7 (Experimental results), plus Bechamel micro-benchmarks of the
   kernels each experiment exercises.

   Usage:  dune exec bench/main.exe [-- --quick] [-- --no-bechamel]
                                    [-- --json FILE] [-- --trace FILE]
                                    [-- --experiment NAME]

   Simulated times use the Table 1 cost model (hardware smart-card context
   unless stated); wall-clock time of this process is never reported as a
   result. Paper reference numbers are printed next to ours: absolute
   values are not expected to match (scaled documents, synthetic data), the
   shapes are.

   --json FILE additionally writes a machine-readable report (see
   Xmlac_obs.Bench_report, schema v1): one record per experiment row,
   carrying its metrics and wall time. CI's perf gate (bench_gate.exe)
   diffs that report against the committed BENCH_baseline.json. *)

module Tree = Xmlac_xml.Tree
module Writer = Xmlac_xml.Writer
module Layout = Xmlac_skip_index.Layout
module Stats = Xmlac_skip_index.Stats
module Container = Xmlac_crypto.Secure_container
module Policy = Xmlac_core.Policy
module Oracle = Xmlac_core.Oracle
module Evaluator = Xmlac_core.Evaluator
module Session = Xmlac_soe.Session
module Cost_model = Xmlac_soe.Cost_model
module Channel = Xmlac_soe.Channel
module W = Xmlac_workload
module Metrics = Xmlac_obs.Metrics
module Bench_report = Xmlac_obs.Bench_report

(* any argument outside the usage line is an error, not silently ignored *)
let () =
  let rec check i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "--quick" | "--no-bechamel" -> check (i + 1)
      | "--json" | "--trace" | "--experiment" -> check (i + 2)
      | arg ->
          Printf.eprintf "bench: unknown argument %S\n" arg;
          exit 2
  in
  check 1

let quick = Array.exists (( = ) "--quick") Sys.argv
let no_bechamel = Array.exists (( = ) "--no-bechamel") Sys.argv

let json_path =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--json" then
      if i + 1 < Array.length Sys.argv then Some Sys.argv.(i + 1)
      else begin
        prerr_endline "bench: --json needs a FILE argument";
        exit 2
      end
    else find (i + 1)
  in
  find 1

(* --trace FILE captures every trace event of the run — client spans,
   server spans (the fleet's terminal runs in this process), channel phase
   events — as one merged JSONL file; xtop --check-trace validates it *)
let trace_path =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--trace" then
      if i + 1 < Array.length Sys.argv then Some Sys.argv.(i + 1)
      else begin
        prerr_endline "bench: --trace needs a FILE argument";
        exit 2
      end
    else find (i + 1)
  in
  find 1

(* --experiment NAME runs only that experiment (any registered name,
   including "fleet", the load generator excluded from the default run) *)
let experiment_filter =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--experiment" then
      if i + 1 < Array.length Sys.argv then Some Sys.argv.(i + 1)
      else begin
        prerr_endline "bench: --experiment needs a NAME argument";
        exit 2
      end
    else find (i + 1)
  in
  find 1

(* The machine-readable report: experiments call [record] once per row;
   [run_experiment] times each experiment so records carry the wall-clock
   elapsed within their experiment when they were emitted. *)
let records : Bench_report.record list ref = ref []
let experiment_span : Xmlac_obs.Span.t option ref = ref None

let record ~name ~profile metrics =
  let wall_s =
    match !experiment_span with
    | Some s -> Xmlac_obs.Span.elapsed s
    | None -> 0.
  in
  records := { Bench_report.name; profile; metrics; wall_s } :: !records

let run_experiment name f =
  let span = Xmlac_obs.Span.start name in
  experiment_span := Some span;
  Fun.protect
    ~finally:(fun () ->
      experiment_span := None;
      (* balanced finish so experiment spans never stack as parents of
         the next experiment in the ambient trace context *)
      ignore (Xmlac_obs.Span.finish span : float))
    f

let scale n = if quick then n / 8 else n

(* Document sizes: the paper's Hospital is 3.6 MB and Treebank 59 MB; we
   scale to keep the full harness in tens of seconds (see DESIGN.md). *)
let hospital_bytes = scale 1_800_000
let wsu_bytes = scale 650_000
let sigmod_bytes = scale 350_000
let treebank_bytes = scale 1_500_000

let banner title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

let kb n = float_of_int n /. 1024.

(* Shared documents (generated once) --------------------------------------- *)

let dataset_bytes = function
  | W.Datasets.Wsu -> wsu_bytes
  | W.Datasets.Sigmod -> sigmod_bytes
  | W.Datasets.Treebank -> treebank_bytes
  | W.Datasets.Hospital_doc -> hospital_bytes

let documents =
  lazy
    (List.map
       (fun kind ->
         (kind, W.Datasets.generate kind ~seed:20040704 ~target_bytes:(dataset_bytes kind)))
       W.Datasets.all)

let hospital =
  lazy (List.assoc W.Datasets.Hospital_doc (Lazy.force documents))

let config = Session.default_config ()

let published_cache : (string, Session.published) Hashtbl.t = Hashtbl.create 8

let publish_cached name ~layout doc =
  let key = Printf.sprintf "%s/%s" name (Layout.to_string layout) in
  match Hashtbl.find_opt published_cache key with
  | Some p -> p
  | None ->
      let p = Session.publish config ~layout doc in
      Hashtbl.replace published_cache key p;
      p

(* Table 1 ------------------------------------------------------------------ *)

let table1 () =
  banner "Table 1. Communication and decryption costs (model constants)";
  Printf.printf "  %-28s %14s %14s\n" "Context" "Comm (MB/s)" "Decrypt (MB/s)";
  List.iter
    (fun (_, (c : Cost_model.t)) ->
      let comm_mb = c.Cost_model.comm_bytes_per_s /. (1024. *. 1024.)
      and dec_mb = c.Cost_model.decrypt_bytes_per_s /. (1024. *. 1024.) in
      Printf.printf "  %-28s %14.2f %14.2f\n" c.Cost_model.name comm_mb dec_mb;
      record ~name:"table1" ~profile:c.Cost_model.name
        Metrics.[ float "comm_mb_s" comm_mb; float "decrypt_mb_s" dec_mb ])
    Cost_model.table1;
  note "paper: 0.5/0.15 (hardware), 0.1/1.2 (Internet), 10/1.2 (LAN)"

(* Table 2 ------------------------------------------------------------------ *)

let table2 () =
  banner "Table 2. Documents characteristics (synthetic, scaled — see DESIGN.md)";
  Printf.printf "  %-9s %9s %9s %6s %6s %6s %9s %9s\n" "Doc" "Size" "Text"
    "MaxD" "AvgD" "Tags" "Texts" "Elements";
  List.iter
    (fun (kind, doc) ->
      let c = W.Datasets.characteristics ~name:(W.Datasets.name kind) doc in
      Printf.printf "  %-9s %8.0fK %8.0fK %6d %6.1f %6d %9d %9d\n"
        c.W.Datasets.name
        (kb c.W.Datasets.size_bytes)
        (kb c.W.Datasets.text_bytes)
        c.W.Datasets.max_depth c.W.Datasets.average_depth
        c.W.Datasets.distinct_tags c.W.Datasets.text_nodes c.W.Datasets.elements;
      record ~name:"table2" ~profile:c.W.Datasets.name
        Metrics.
          [
            int "size_bytes" c.W.Datasets.size_bytes;
            int "text_bytes" c.W.Datasets.text_bytes;
            int "max_depth" c.W.Datasets.max_depth;
            float "average_depth" c.W.Datasets.average_depth;
            int "distinct_tags" c.W.Datasets.distinct_tags;
            int "text_nodes" c.W.Datasets.text_nodes;
            int "elements" c.W.Datasets.elements;
          ])
    (Lazy.force documents);
  note "paper: WSU 1.3MB/depth 4/20 tags; Sigmod 350KB/6/11; Treebank 59MB/36/250;";
  note "       Hospital 3.6MB/8/89 (ours are scaled and synthetic)"

(* Figure 8 ----------------------------------------------------------------- *)

let fig8 () =
  banner "Figure 8. Index storage overhead (structure/text, %)";
  Printf.printf "  %-8s" "Layout";
  List.iter
    (fun (kind, _) -> Printf.printf " %9s" (W.Datasets.name kind))
    (Lazy.force documents);
  Printf.printf "\n";
  let all_measures =
    List.map (fun (kind, doc) -> (kind, Stats.measure_all doc)) (Lazy.force documents)
  in
  List.iter
    (fun layout ->
      Printf.printf "  %-8s" (Layout.to_string layout);
      List.iter
        (fun (_, measures) ->
          let m = List.find (fun s -> s.Stats.layout = layout) measures in
          Printf.printf " %9.1f" m.Stats.structure_over_text)
        all_measures;
      Printf.printf "\n")
    Layout.all;
  List.iter
    (fun (kind, measures) ->
      record ~name:"fig8" ~profile:(W.Datasets.name kind)
        (List.map
           (fun (m : Stats.t) ->
             Metrics.float
               (String.lowercase_ascii (Layout.to_string m.Stats.layout))
               m.Stats.structure_over_text)
           measures))
    all_measures;
  note "paper (WSU, Sigmod, Treebank, Hospital): NC 142/77/254/67; TC 16/15/38/11;";
  note "  TCS 24/36/106/16; TCSB 31/45/82(+big)/23(?); TCSBR 78/14/42/15 —";
  note "  expected shape: TC<<NC, TCS>TC, TCSB>TCS, TCSBR back near TC (except WSU)"

(* Figure 9 ----------------------------------------------------------------- *)

type profile_run = {
  pr_name : string;
  pr_policy : Policy.t;
}

let fig9_profiles () =
  [
    { pr_name = "Secretary"; pr_policy = W.Profiles.secretary };
    {
      pr_name = "Doctor";
      pr_policy = W.Profiles.doctor ~user:W.Hospital.full_time_physician;
    };
    {
      pr_name = "Researcher";
      pr_policy =
        (* the paper gives the Figure 9 researcher 10 protocols: one
           positive and one negative rule per group *)
        W.Profiles.researcher ~groups:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] ();
    };
  ]

let fig9 () =
  banner "Figure 9. Access control overhead (BF vs TCSBR vs LWB, no integrity)";
  let doc = Lazy.force hospital in
  let doc_bytes = String.length (Writer.tree_to_string doc) in
  note "Hospital document: %.0f KB XML" (kb doc_bytes);
  Printf.printf "  %-11s %10s %10s %10s %12s %21s\n" "Profile" "BF(s)"
    "TCSBR(s)" "LWB(s)" "result(KB)" "TCSBR cost split";
  List.iter
    (fun { pr_name; pr_policy } ->
      let bf_pub = publish_cached "hospital" ~layout:Layout.Tc doc in
      let ix_pub = publish_cached "hospital" ~layout:Layout.Tcsbr doc in
      let bf =
        Session.evaluate ~verify:false ~strategy:"BF" config bf_pub pr_policy
      in
      let ix = Session.evaluate ~verify:false config ix_pub pr_policy in
      let authorized = Session.authorized_encoded_bytes pr_policy doc in
      let lwb = Session.lwb ~verify:false config ~authorized_bytes:authorized in
      let b = ix.Session.breakdown in
      let pct x = 100. *. x /. b.Cost_model.total_s in
      Printf.printf
        "  %-11s %10.2f %10.2f %10.2f %12.1f   comm %4.1f%% dec %4.1f%% AC %4.1f%%\n"
        pr_name bf.Session.breakdown.Cost_model.total_s b.Cost_model.total_s
        lwb.Cost_model.total_s
        (kb ix.Session.result_bytes)
        (pct b.Cost_model.communication_s)
        (pct b.Cost_model.decryption_s)
        (pct b.Cost_model.access_control_s);
      record ~name:"fig9" ~profile:pr_name
        (Metrics.
           [
             float "bf_total_s" bf.Session.breakdown.Cost_model.total_s;
             float "tcsbr_total_s" b.Cost_model.total_s;
             float "lwb_total_s" lwb.Cost_model.total_s;
             float "result_kb" (kb ix.Session.result_bytes);
           ]
        @ Metrics.prefix "tcsbr" (Session.metrics ix)
        @ Metrics.prefix "bf" (Session.metrics bf)))
    (fig9_profiles ());
  note "paper (2.5MB doc): BF 19.5-20.4s; TCSBR 1.4/6.4/2.4s; LWB 1.8/5.8/1.3s;";
  note "  AC 2-15%% of total, decryption 53-60%%, communication 30-38%%"

(* Figure 10 ---------------------------------------------------------------- *)

let fig10 () =
  banner "Figure 10. Impact of queries: //Folder[//Age > v] over five views";
  let doc = Lazy.force hospital in
  let published = publish_cached "hospital" ~layout:Layout.Tcsbr doc in
  Printf.printf "  %-5s" "v";
  List.iter
    (fun v -> Printf.printf "  %16s" (W.Profiles.view_name v))
    W.Profiles.all_views;
  Printf.printf "\n  %-5s" "";
  List.iter (fun _ -> Printf.printf "  %8s %7s" "res(KB)" "t(s)") W.Profiles.all_views;
  Printf.printf "\n";
  List.iter
    (fun threshold ->
      Printf.printf "  %-5d" threshold;
      List.iter
        (fun view ->
          let policy = W.Profiles.view_policy view in
          let query = W.Profiles.age_query ~threshold in
          let m =
            Session.evaluate ~verify:false ~query config published policy
          in
          Printf.printf "  %8.1f %7.2f"
            (kb m.Session.result_bytes)
            m.Session.breakdown.Cost_model.total_s;
          record ~name:"fig10"
            ~profile:
              (Printf.sprintf "%s/v%d" (W.Profiles.view_name view) threshold)
            Metrics.
              [
                float "result_kb" (kb m.Session.result_bytes);
                float "total_s" m.Session.breakdown.Cost_model.total_s;
              ])
        W.Profiles.all_views;
      Printf.printf "\n")
    [ 95; 85; 70; 50; 25; 0 ];
  note "paper: execution time decreases linearly with result size; non-zero";
  note "  intercept (parts of the document are analysed before being skipped)"

(* Figure 11 ---------------------------------------------------------------- *)

let fig11 () =
  banner "Figure 11. Impact of integrity control (simulated seconds)";
  let doc = Lazy.force hospital in
  Printf.printf "  %-11s %10s %10s %10s %10s %10s\n" "Profile" "ECB" "CBC-SHA"
    "CBC-SHAC" "ECB-MHT" "AES-CTR";
  let scheme_key = function
    | Container.Ecb -> "ecb_s"
    | Container.Cbc_sha -> "cbc_sha_s"
    | Container.Cbc_shac -> "cbc_shac_s"
    | Container.Ecb_mht -> "ecb_mht_s"
    | Container.Aes_ctr -> "aes_ctr_s"
  in
  List.iter
    (fun { pr_name; pr_policy } ->
      Printf.printf "  %-11s" pr_name;
      let metrics =
        List.map
          (fun scheme ->
            let config = Session.default_config ~scheme () in
            let published =
              publish_cached
                (Printf.sprintf "hospital-%s" (Container.scheme_to_string scheme))
                ~layout:Layout.Tcsbr doc
            in
            (* the per-scheme container must be encrypted under that scheme *)
            let published =
              if Container.scheme published.Session.container = scheme then
                published
              else Session.publish config ~layout:Layout.Tcsbr doc
            in
            let m =
              Session.evaluate ~verify:(scheme <> Container.Ecb) config
                published pr_policy
            in
            Printf.printf " %10.2f" m.Session.breakdown.Cost_model.total_s;
            Metrics.float (scheme_key scheme)
              m.Session.breakdown.Cost_model.total_s)
          Container.all_schemes
      in
      Printf.printf "\n";
      record ~name:"fig11" ~profile:pr_name metrics)
    (fig9_profiles ());
  note "paper (Sec/Doc/Res): ECB 1.4/6.4/2.4; CBC-SHA 3.4/18.6/8.5;";
  note "  CBC-SHAC 2.4(?)/12.6/5.2; ECB-MHT 1.9/8.5/3.3 — integrity via MHT";
  note "  costs ~32-38%% over no integrity and beats both CBC schemes"

(* Figure 12 ---------------------------------------------------------------- *)

let fig12 () =
  banner
    "Figure 12. Performance on datasets (throughput = authorized output KB/s)";
  let rows =
    List.map
      (fun (kind, doc) ->
        let name = W.Datasets.name kind in
        let policies =
          match kind with
          | W.Datasets.Hospital_doc ->
              List.map
                (fun { pr_name; pr_policy } -> (pr_name, pr_policy))
                (fig9_profiles ())
          | _ -> [ (name, W.Rule_gen.generate ~seed:77 doc) ]
        in
        (name, doc, policies))
      (Lazy.force documents)
  in
  Printf.printf "  %-18s %12s %12s %12s %12s\n" "Workload" "TCSBR+int"
    "LWB+int" "TCSBR" "LWB";
  List.iter
    (fun (name, doc, policies) ->
      let published = publish_cached name ~layout:Layout.Tcsbr doc in
      List.iter
        (fun (pname, policy) ->
          let label = if name = pname then name else name ^ "/" ^ pname in
          (* the paper's throughput is the rate at which authorized data
             leaves the SOE: result bytes over total time. The LWB oracle
             reads only the authorized bytes of the *encoded* document. *)
          let m_int = Session.evaluate ~verify:true config published policy in
          let m_noint =
            Session.evaluate ~verify:false config published policy
          in
          let result = m_int.Session.result_bytes in
          let authorized = Session.authorized_encoded_bytes policy doc in
          let throughput seconds =
            if result = 0 then 0. else kb result /. seconds
          in
          let l_int =
            (Session.lwb ~verify:true config ~authorized_bytes:authorized)
              .Cost_model.total_s
          in
          let l_noint =
            (Session.lwb ~verify:false config ~authorized_bytes:authorized)
              .Cost_model.total_s
          in
          Printf.printf "  %-18s %12.0f %12.0f %12.0f %12.0f\n" label
            (throughput m_int.Session.breakdown.Cost_model.total_s)
            (throughput l_int)
            (throughput m_noint.Session.breakdown.Cost_model.total_s)
            (throughput l_noint);
          record ~name:"fig12" ~profile:label
            Metrics.
              [
                float "tcsbr_int_kbps"
                  (throughput m_int.Session.breakdown.Cost_model.total_s);
                float "lwb_int_kbps" (throughput l_int);
                float "tcsbr_kbps"
                  (throughput m_noint.Session.breakdown.Cost_model.total_s);
                float "lwb_kbps" (throughput l_noint);
                float "result_kb" (kb result);
              ])
        policies)
    rows;
  note "paper: 55-85 KB/s with integrity across all datasets (xDSL-era range";
  note "  16-128 KB/s); LWB above TCSBR; integrity costs roughly a third"

(* Contexts: projecting Figure 9 onto the other Table 1 architectures -------- *)

let contexts () =
  banner "Projection. Figure 9's TCSBR runs under each Table 1 context";
  let doc = Lazy.force hospital in
  Printf.printf "  %-11s %22s %22s %22s\n" "Profile"
    "Hardware (s)" "SW-Internet (s)" "SW-LAN (s)";
  let context_key = function
    | Cost_model.Hardware -> "hardware_s"
    | Cost_model.Software_internet -> "sw_internet_s"
    | Cost_model.Software_lan -> "sw_lan_s"
  in
  List.iter
    (fun { pr_name; pr_policy } ->
      Printf.printf "  %-11s" pr_name;
      let metrics =
        List.map
          (fun context ->
            let config = Session.default_config ~context () in
            let published = publish_cached "hospital" ~layout:Layout.Tcsbr doc in
            let m = Session.evaluate ~verify:false config published pr_policy in
            let b = m.Session.breakdown in
            Printf.printf "  %8.2f (comm %3.0f%%)" b.Cost_model.total_s
              (100. *. b.Cost_model.communication_s /. b.Cost_model.total_s);
            Metrics.float (context_key context) b.Cost_model.total_s)
          Cost_model.all_contexts
      in
      Printf.printf "\n";
      record ~name:"contexts" ~profile:pr_name metrics)
    (fig9_profiles ());
  note "paper Table 1: 'the numbers allow projecting the performance results";
  note "  on different target architectures' — the Internet context is";
  note "  communication-bound, the LAN context decryption-bound"

(* Ablation: the design choices DESIGN.md calls out -------------------------- *)

let ablation () =
  banner "Ablation. Contribution of each skipping mechanism (TCSBR, no integrity)";
  let doc = Lazy.force hospital in
  let published = publish_cached "hospital" ~layout:Layout.Tcsbr doc in
  let configs =
    [
      ( "no skipping at all",
        "no_skipping_s",
        {
          Evaluator.enable_skipping = false;
          enable_rest_skips = false;
          enable_desctag_filter = false;
        } );
      ( "skips, no DescTag filter",
        "skips_s",
        {
          Evaluator.enable_skipping = true;
          enable_rest_skips = false;
          enable_desctag_filter = false;
        } );
      ( "skips + DescTag filter",
        "skips_desctag_s",
        {
          Evaluator.enable_skipping = true;
          enable_rest_skips = false;
          enable_desctag_filter = true;
        } );
      ("full design (+tail skips)", "full_s", Evaluator.default_options);
    ]
  in
  Printf.printf "  %-27s %12s %12s %12s\n" "Configuration" "Secretary(s)"
    "Doctor(s)" "Researcher(s)";
  let per_profile : (string, (string * float) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  List.iter
    (fun (name, key, options) ->
      Printf.printf "  %-27s" name;
      List.iter
        (fun { pr_name; pr_policy } ->
          let m =
            Session.evaluate ~verify:false ~options config published pr_policy
          in
          let t = m.Session.breakdown.Cost_model.total_s in
          let cell =
            match Hashtbl.find_opt per_profile pr_name with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add per_profile pr_name r;
                r
          in
          cell := (key, t) :: !cell;
          Printf.printf " %12.2f" t)
        (fig9_profiles ());
      Printf.printf "\n")
    configs;
  List.iter
    (fun { pr_name; _ } ->
      match Hashtbl.find_opt per_profile pr_name with
      | Some cell ->
          record ~name:"ablation" ~profile:pr_name
            (List.rev_map (fun (k, t) -> Metrics.float k t) !cell)
      | None -> ())
    (fig9_profiles ());
  note "the DescTag bitmaps are what makes skipping decisions fire (Sec. 4.2);";
  note "tail skips (close-event trigger) add a final increment (Sec. 3.3)"

let ablation_geometry () =
  banner "Ablation. Chunk/fragment geometry of the secure container (ECB-MHT)";
  let doc = Lazy.force hospital in
  let policy = W.Profiles.secretary in
  Printf.printf "  %-22s %12s %12s %12s\n" "chunk/fragment" "time(s)"
    "bytes-in(KB)" "digests";
  List.iter
    (fun (chunk_size, fragment_size) ->
      let config = { config with Session.chunk_size; fragment_size } in
      let published = Session.publish config ~layout:Layout.Tcsbr doc in
      let m = Session.evaluate config published policy in
      Printf.printf "  %-22s %12.2f %12.1f %12d\n"
        (Printf.sprintf "%dB / %dB" chunk_size fragment_size)
        m.Session.breakdown.Cost_model.total_s
        (kb m.Session.counters.Channel.bytes_to_soe)
        m.Session.counters.Channel.digests_decrypted;
      record ~name:"ablation_geometry"
        ~profile:(Printf.sprintf "%d/%d" chunk_size fragment_size)
        Metrics.
          [
            float "total_s" m.Session.breakdown.Cost_model.total_s;
            int "bytes_to_soe" m.Session.counters.Channel.bytes_to_soe;
            int "digests_decrypted" m.Session.counters.Channel.digests_decrypted;
          ])
    [ (1024, 64); (2048, 128); (2048, 256); (4096, 256); (8192, 512) ];
  note "smaller fragments read less around skip targets but pay more Merkle";
  note "overhead; the paper's 2KB/256B sits near the sweet spot"

(* SOE memory: streaming means no materialization ----------------------------- *)

let memory_scaling () =
  banner "SOE working memory vs document size (the streaming requirement)";
  Printf.printf "  %-12s %12s %14s %14s\n" "doc (KB XML)" "elements"
    "Doctor peak(B)" "Researcher(B)";
  List.iter
    (fun target ->
      let doc = W.Hospital.generate_sized ~seed:4 ~target_bytes:target () in
      let published = Session.publish config ~layout:Layout.Tcsbr doc in
      let peak policy =
        (Session.evaluate ~verify:false config published policy).Session.eval
          .Evaluator.memory_peak_bytes
      in
      let doc_kb = String.length (Writer.tree_to_string doc) / 1024 in
      let elements = Tree.count_elements doc in
      let doctor_peak =
        peak (W.Profiles.doctor ~user:W.Hospital.full_time_physician)
      in
      let researcher_peak =
        peak (W.Profiles.researcher ~groups:[ 1; 2; 3; 4; 5 ] ())
      in
      Printf.printf "  %-12d %12d %14d %14d\n" doc_kb elements doctor_peak
        researcher_peak;
      record ~name:"memory_scaling" ~profile:(string_of_int target)
        Metrics.
          [
            int "doc_kb" doc_kb;
            int "elements" elements;
            int "doctor_peak_bytes" doctor_peak;
            int "researcher_peak_bytes" researcher_peak;
          ])
    (List.map scale [ 100_000; 400_000; 1_600_000 ]);
  note "the paper's SOE has kilobytes of RAM: the evaluator's working set";
  note "  scales with depth, policy and pending work — not with document size"

(* Update costs (paper Section 4.1's qualitative analysis) ------------------- *)

let update_costs () =
  banner "Update costs on the Skip index (Section 4.1: best vs worst cases)";
  let module Update = Xmlac_skip_index.Update in
  let doc =
    W.Hospital.generate
      ~config:{ W.Hospital.default_config with folders = 60 }
      ~seed:99 ()
  in
  let encoded = Xmlac_skip_index.Encoder.encode ~layout:Layout.Tcsbr doc in
  let n_children = List.length (Tree.children doc) in
  let ops =
    [
      ( "same-size text patch (middle)",
        Update.Set_text ([ n_children / 2; 0; 3; 0 ], "42") );
      ( "growing text patch (middle)",
        Update.Set_text
          ([ n_children / 2; 0; 3; 0 ], "a considerably longer value") );
      ( "delete last folder",
        Update.Delete_subtree [ n_children - 1 ] );
      ( "delete first folder",
        Update.Delete_subtree [ 0 ] );
      ( "insert folder at end",
        Update.Insert_child
          ([], n_children, Tree.parse "<Folder><Admin><Age>30</Age></Admin></Folder>") );
      ( "insert new tag (dict change)",
        Update.Insert_child ([], 0, Tree.parse "<Zebra>new</Zebra>") );
    ]
  in
  Printf.printf "  %-32s %10s %10s %8s %6s\n" "Operation" "doc(B)" "rewritten"
    "chunks" "dict";
  List.iter
    (fun (name, op) ->
      let _, cost = Update.update_encoded ~layout:Layout.Tcsbr encoded op in
      Printf.printf "  %-32s %10d %10d %8d %6s\n" name cost.Update.new_bytes
        cost.Update.rewritten_bytes cost.Update.chunks_to_reencrypt
        (if cost.Update.dictionary_changed then "yes" else "no");
      record ~name:"update_costs" ~profile:name
        Metrics.
          [
            int "new_bytes" cost.Update.new_bytes;
            int "rewritten_bytes" cost.Update.rewritten_bytes;
            int "chunks_to_reencrypt" cost.Update.chunks_to_reencrypt;
            int "dictionary_changed"
              (if cost.Update.dictionary_changed then 1 else 0);
          ])
    ops;
  note "paper: best case updates only ancestor SubtreeSizes; worst cases are a";
  note "  size crossing a power of two or a tag dictionary insertion/deletion"

(* Remote terminal ---------------------------------------------------------- *)

(* Not a paper figure: the wire subsystem's byte-accounting invariant. A
   fault-free remote terminal must ship exactly the payload bytes the
   in-process channel meters — the gate pins wire.payload_bytes equal to
   channel.bytes_to_soe (both directions) — and the view must match. *)
let remote () =
  banner "Remote terminal (loopback wire, Secretary profile)";
  let doc = Lazy.force hospital in
  Printf.printf "  %-9s %12s %12s %9s\n" "Scheme" "payload(B)" "channel(B)"
    "requests";
  List.iter
    (fun scheme ->
      let config = Session.default_config ~scheme () in
      let published =
        let p =
          publish_cached
            (Printf.sprintf "hospital-%s" (Container.scheme_to_string scheme))
            ~layout:Layout.Tcsbr doc
        in
        if Container.scheme p.Session.container = scheme then p
        else Session.publish config ~layout:Layout.Tcsbr doc
      in
      let server = Xmlac_wire.Server.make published.Session.container in
      let session =
        Xmlac_soe.Remote.connect (Xmlac_wire.Server.loopback_connector server)
      in
      let local = Session.evaluate config published W.Profiles.secretary in
      let m = Session.evaluate_remote config session W.Profiles.secretary in
      Xmlac_soe.Remote.close session;
      if m.Session.events <> local.Session.events then
        failwith "remote view diverges from the in-process channel";
      let w =
        match m.Session.wire with Some w -> w | None -> assert false
      in
      Printf.printf "  %-9s %12d %12d %9d\n"
        (Container.scheme_to_string scheme)
        w.Xmlac_wire.Stats.payload_bytes
        m.Session.counters.Channel.bytes_to_soe
        w.Xmlac_wire.Stats.requests;
      record ~name:"remote"
        ~profile:(Container.scheme_to_string scheme)
        (Session.metrics m))
    Container.all_schemes;
  note "wire payload equals the channel's bytes_to_soe under every scheme;";
  note "  the perf gate holds the equality in both directions"

(* Fleet serving ------------------------------------------------------------ *)

(* Not a paper figure: a load generator for the multi-tenant terminal.
   Hundreds of simulated SOE clients share a few multiplexed connections
   to one registry server publishing two containers, and each runs the
   full evaluate-verify pipeline. Every client's view is checked
   byte-identical to the local (in-process) evaluation of its container,
   so the numbers only count runs that delivered correct output. Client
   counts and payload bytes are deterministic; latencies are wall-clock
   (wall-prefixed, gate-exempt). Run it with --experiment fleet. *)
let fleet () =
  banner "Fleet serving: concurrent multiplexed SOE clients, two containers";
  let module Wire = Xmlac_wire in
  let module Remote = Xmlac_soe.Remote in
  let clients = 200 in
  let endpoints = 8 (* mux connections the clients share *) in
  let tenants =
    (* two containers under different schemes, small enough that hundreds
       of full evaluations stay in seconds *)
    List.map
      (fun (id, scheme, seed) ->
        let config =
          {
            (Session.default_config ~scheme ()) with
            Session.chunk_size = 1024;
            fragment_size = 128;
          }
        in
        let doc =
          W.Hospital.generate ~seed
            ~config:{ W.Hospital.default_config with folders = 3 }
            ()
        in
        let published = Session.publish config ~layout:Layout.Tcsbr doc in
        let local = Session.evaluate config published W.Profiles.secretary in
        (id, config, published, local))
      [
        ("records", Container.Ecb_mht, 31);
        ("billing", Container.Cbc_sha, 32);
      ]
  in
  let server = Wire.Server.create () in
  List.iter
    (fun (id, _, published, _) ->
      Wire.Server.publish server ~id published.Session.container)
    tenants;
  let listener = Wire.Transport.listen (Wire.Transport.Tcp ("127.0.0.1", 0)) in
  let bound = Wire.Transport.bound_addr listener in
  let stop = ref false in
  let server_thread =
    Thread.create
      (fun () ->
        try
          Wire.Server.serve ~max_sessions:64 ~domains:2 ~stop server listener
        with Wire.Error.Wire _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      Thread.join server_thread;
      Wire.Transport.close_listener listener)
    (fun () ->
      let connector () = Wire.Transport.connect bound in
      (* every endpoint negotiates traced mux framing under its own trace
         id; per-client ids below rebind each session's trace, so one
         merged --trace file separates tenants and clients *)
      let muxes =
        Array.init endpoints (fun e ->
            Wire.Mux.connect ~trace:(Printf.sprintf "fleet-ep-%d" e) connector)
      in
      (* sequential reference: one plain connection naming no container;
         it binds the first published one ("records") and pins the payload
         bytes every multiplexed records client must also meter *)
      let plain_payload =
        let id, config, _, local = List.hd tenants in
        assert (id = "records");
        let r = Remote.connect connector in
        let m = Session.evaluate_remote config r W.Profiles.secretary in
        let w = match m.Session.wire with Some w -> w | None -> assert false in
        Remote.close r;
        if m.Session.events <> local.Session.events then
          failwith "fleet: plain reference diverges from local evaluation";
        w.Wire.Stats.payload_bytes
      in
      (* each client's wall time, one slot per worker *)
      let walls = Array.make clients 0. in
      let payload_mutex = Mutex.create () in
      let payload_total = ref 0 in
      let payload_by_tenant : (string, int) Hashtbl.t = Hashtbl.create 4 in
      let failures = Array.make clients None in
      let worker i =
        let id, config, _, local = List.nth tenants (i mod List.length tenants) in
        let mux = muxes.(i mod endpoints) in
        try
          let (), wall_s =
            Xmlac_obs.Span.time "fleet.client" (fun () ->
                let r =
                  Remote.connect ~container:id
                    ~trace_id:(Printf.sprintf "fleet-client-%d" i)
                    ~config:
                      {
                        Wire.Client.default_config with
                        Wire.Client.retry_seed = i;
                      }
                    (Wire.Mux.session mux)
                in
                let m = Session.evaluate_remote config r W.Profiles.secretary in
                let w =
                  match m.Session.wire with Some w -> w | None -> assert false
                in
                Remote.close r;
                if m.Session.events <> local.Session.events then
                  failwith "fleet client: view diverges from local evaluation";
                Mutex.lock payload_mutex;
                payload_total := !payload_total + w.Wire.Stats.payload_bytes;
                (* every client of a tenant meters identical payload *)
                (match Hashtbl.find_opt payload_by_tenant id with
                | None ->
                    Hashtbl.replace payload_by_tenant id
                      w.Wire.Stats.payload_bytes
                | Some p ->
                    if p <> w.Wire.Stats.payload_bytes then
                      failwith "fleet: payload bytes diverge within a tenant");
                Mutex.unlock payload_mutex)
          in
          walls.(i) <- wall_s
        with e -> failures.(i) <- Some e
      in
      let threads = List.init clients (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Array.iteri
        (fun i -> function
          | Some e ->
              failwith
                (Printf.sprintf "fleet client %d failed: %s" i
                   (Printexc.to_string e))
          | None -> ())
        failures;
      Array.iter Wire.Mux.close muxes;
      (* byte-equality spot check: multiplexed sessions meter exactly what
         the sequential plain connection did *)
      (match Hashtbl.find_opt payload_by_tenant "records" with
      | Some p when p = plain_payload -> ()
      | Some p ->
          failwith
            (Printf.sprintf "fleet: mux payload %d <> plain payload %d" p
               plain_payload)
      | None -> failwith "fleet: no records client completed");
      (* exact nearest-rank quantiles over every client's wall time *)
      Array.sort compare walls;
      let rank q = walls.(int_of_float (Float.ceil (q *. float clients)) - 1) in
      let p50 = rank 0.5 and p99 = rank 0.99 in
      Printf.printf
        "  %d clients over %d mux connections, %d containers, 2 domains\n"
        clients endpoints (List.length tenants);
      Printf.printf "  per-client latency: p50 %.4fs  p99 %.4fs  mean %.4fs\n"
        p50 p99
        (Array.fold_left ( +. ) 0. walls /. float clients);
      (* admin plane cross-check: the Stats frame a local client fetches
         must agree with the registry's own snapshot, tenant for tenant *)
      let wire_view =
        let c = Wire.Client.connect connector in
        let json = Wire.Client.fetch_stats c in
        Wire.Client.close c;
        match Wire.Telemetry.of_string json with
        | Ok v -> v
        | Error msg -> failwith ("fleet: Stats frame rejected: " ^ msg)
      in
      let own_view = Wire.Server.telemetry_snapshot server in
      let sr = own_view.Wire.Telemetry.server in
      Printf.printf
        "  server: %d requests, %d mux sessions, %d busy rejections, cache \
         %d/%d hit/miss\n"
        sr.Wire.Telemetry.sr_requests sr.Wire.Telemetry.sr_mux_opened
        sr.Wire.Telemetry.sr_busy_rejections sr.Wire.Telemetry.sr_cache_hits
        sr.Wire.Telemetry.sr_cache_misses;
      List.iter2
        (fun (a : Wire.Telemetry.tenant_view) (b : Wire.Telemetry.tenant_view)
           ->
          let sa = a.Wire.Telemetry.tv_service
          and sb = b.Wire.Telemetry.tv_service in
          if
            a.Wire.Telemetry.tv_id <> b.Wire.Telemetry.tv_id
            || a.Wire.Telemetry.tv_requests <> b.Wire.Telemetry.tv_requests
            || sa.Wire.Telemetry.sv_count <> sb.Wire.Telemetry.sv_count
            || abs_float
                 (sa.Wire.Telemetry.sv_p50_s -. sb.Wire.Telemetry.sv_p50_s)
               > 1e-9
            || abs_float
                 (sa.Wire.Telemetry.sv_p99_s -. sb.Wire.Telemetry.sv_p99_s)
               > 1e-9
          then
            failwith
              (Printf.sprintf
                 "fleet: Stats frame diverges from registry snapshot for %s"
                 a.Wire.Telemetry.tv_id))
        wire_view.Wire.Telemetry.tenants own_view.Wire.Telemetry.tenants;
      Printf.printf "  per-tenant service time (Stats frame):\n";
      List.iter
        (fun (t : Wire.Telemetry.tenant_view) ->
          let sv = t.Wire.Telemetry.tv_service in
          Printf.printf
            "    %-10s %d sessions, %d requests, p50 %.5fs p99 %.5fs\n"
            t.Wire.Telemetry.tv_id t.Wire.Telemetry.tv_sessions
            t.Wire.Telemetry.tv_requests sv.Wire.Telemetry.sv_p50_s
            sv.Wire.Telemetry.sv_p99_s)
        wire_view.Wire.Telemetry.tenants;
      record ~name:"fleet" ~profile:"all"
        (Metrics.(
           [
             int "clients" clients;
             int "containers" (List.length tenants);
             int "mux_connections" endpoints;
             int "payload_bytes" !payload_total;
             float "wall_p50_s" p50;
             float "wall_p99_s" p99;
           ]
           (* server-side telemetry columns: request counts vary with
              retries and the latencies with load, so every derived column
              keeps the gate-exempt wall prefix on its final segment *)
           @ List.concat_map
               (fun (t : Wire.Telemetry.tenant_view) ->
                 let sv = t.Wire.Telemetry.tv_service in
                 prefix ("server." ^ t.Wire.Telemetry.tv_id)
                   [
                     float "wall_requests" (float_of_int t.Wire.Telemetry.tv_requests);
                     float "wall_service_p50_s" sv.Wire.Telemetry.sv_p50_s;
                     float "wall_service_p99_s" sv.Wire.Telemetry.sv_p99_s;
                   ])
               wire_view.Wire.Telemetry.tenants));
      note "every client's view is byte-checked against the local evaluation;";
      note
        "  latencies are wall-clock and exempt from the perf gate; the \
         per-tenant";
      note "  columns are cross-checked against the Get_stats admin frame")

(* Dissemination ------------------------------------------------------------ *)

(* The dissemination subsystem end to end, per scheme: a publisher
   republishes a small Hospital document with chunk deltas through an
   in-process registry server while a syncing mirror pulls each delta
   over the wire. Every round is cross-checked three ways — the synced
   ciphertext decrypts to the publisher's exact payload, a fresh full
   fetch agrees byte for byte, and the SOE evaluation of the replica
   matches the origin. A final key rotation revokes a subject and
   proves the old epoch's key and license are dead. The byte counters
   are deterministic (the gate pins delta_bytes < full_bytes); the
   latencies carry the gate-exempt wall prefix. *)
let dissem () =
  banner "Dissemination: chunk-delta sync vs full re-fetch, key rotation";
  let module Wire = Xmlac_wire in
  let module Publisher = Xmlac_dissem.Publisher in
  let module Update = Xmlac_skip_index.Update in
  let module License = Xmlac_soe.License in
  let rounds = if quick then 4 else 8 in
  let folders = 3 in
  let policy = W.Profiles.secretary in
  List.iter
    (fun (label, scheme) ->
      let doc =
        W.Hospital.generate ~seed:47
          ~config:{ W.Hospital.default_config with folders }
          ()
      in
      let payload0 =
        Xmlac_skip_index.Encoder.encode ~layout:Layout.Tcsbr doc
      in
      let master = "dissem-bench-master-" ^ label in
      let p =
        Publisher.create ~chunk_size:1024 ~fragment_size:128 ~scheme ~master
          payload0
      in
      let server = Wire.Server.create () in
      Wire.Server.publish server ~id:"doc" (Publisher.container p);
      let listener =
        Wire.Transport.listen (Wire.Transport.Tcp ("127.0.0.1", 0))
      in
      let bound = Wire.Transport.bound_addr listener in
      let stop = ref false in
      let server_thread =
        Thread.create
          (fun () ->
            try
              Wire.Server.serve ~max_sessions:16 ~domains:1 ~stop server
                listener
            with Wire.Error.Wire _ -> ())
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          stop := true;
          Thread.join server_thread;
          Wire.Transport.close_listener listener)
        (fun () ->
          let connector () = Wire.Transport.connect bound in
          let cfg =
            { Wire.Client.default_config with Wire.Client.container = "doc" }
          in
          let sync_hist = Xmlac_obs.Histogram.make "dissem.sync" in
          let read_hist = Xmlac_obs.Histogram.make "dissem.read" in
          let delta_bytes = ref 0 in
          let full_bytes = ref 0 in
          let delta_chunks = ref 0 in
          (* bootstrap fetch: common to both strategies, counted in neither *)
          let m = Wire.Mirror.fetch ~config:cfg connector in
          let replica () =
            {
              Session.layout = Layout.Tcsbr;
              container = Wire.Mirror.container m;
              encoded_bytes = String.length (Publisher.payload p);
              source_text_bytes = String.length (Writer.tree_to_string doc);
            }
          in
          let sconfig () =
            {
              (Session.default_config ~scheme ()) with
              Session.chunk_size = 1024;
              fragment_size = 128;
              key = Publisher.key p;
            }
          in
          (* the synced replica, a fresh full fetch, and the publisher's
             own payload must agree byte for byte; the fetch meters what a
             non-syncing client would have paid for this republication *)
          let check_round tag =
            let key = Publisher.key p in
            let pt_sync =
              Container.decrypt_all (Wire.Mirror.container m) ~key
                ~verify:true
            in
            if pt_sync <> Publisher.payload p then
              failwith (tag ^ ": synced replica diverges from publisher");
            let m2 = Wire.Mirror.fetch ~config:cfg connector in
            full_bytes :=
              !full_bytes + (Wire.Mirror.stats m2).Wire.Stats.payload_bytes;
            let pt_full =
              Container.decrypt_all (Wire.Mirror.container m2) ~key
                ~verify:true
            in
            Wire.Mirror.close m2;
            if pt_full <> pt_sync then
              failwith (tag ^ ": full re-fetch diverges from synced replica")
          in
          (* the SOE view of the synced replica must match the origin
             container's; returns the replica read's wall time *)
          let check_view tag =
            let published = replica () and sconfig = sconfig () in
            let view, wall_read =
              Xmlac_obs.Span.time "dissem.read" (fun () ->
                  Session.evaluate sconfig published policy)
            in
            let origin =
              Session.evaluate sconfig
                { published with Session.container = Publisher.container p }
                policy
            in
            if view.Session.events <> origin.Session.events then
              failwith (tag ^ ": synced replica view diverges from origin");
            wall_read
          in
          for r = 1 to rounds do
            (* the canonical small edit: a same-length SSN rewrite, so only
               the chunks covering that text go dirty *)
            let folder = (r - 1) mod folders in
            let digits =
              Printf.sprintf "%09d" (r * 1_000_037 mod 1_000_000_000)
            in
            let payload', cost =
              Update.update_encoded ~chunk_size:1024 ~layout:Layout.Tcsbr
                (Publisher.payload p)
                (Update.Set_text ([ folder; 0; 0; 0 ], digits))
            in
            let delta, rewritten = Publisher.update p ~payload:payload' in
            if rewritten <> cost.Update.chunks_dirty then
              failwith "dissem: cost model disagrees with the re-encryptor";
            delta_chunks := !delta_chunks + List.length rewritten;
            (match Wire.Server.apply_delta server ~id:"doc" delta with
            | Ok _ -> ()
            | Error e -> failwith ("dissem: apply_delta: " ^ e));
            let outcome, wall_s =
              Xmlac_obs.Span.time "dissem.sync" (fun () -> Wire.Mirror.sync m)
            in
            Xmlac_obs.Histogram.observe sync_hist wall_s;
            (match outcome with
            | Wire.Mirror.Applied { delta_bytes = b; _ } ->
                delta_bytes := !delta_bytes + b
            | Wire.Mirror.Uptodate | Wire.Mirror.Refetched _ ->
                failwith "dissem: expected a chunk delta");
            let tag = Printf.sprintf "dissem %s round %d" label r in
            check_round tag;
            Xmlac_obs.Histogram.observe read_hist (check_view tag)
          done;
          (* key rotation: revoke a subject; the delta covers every chunk
             and carries the revocation list *)
          let old_key = Publisher.key p in
          let rot = Publisher.rotate p ~revoke:[ "mallory" ] in
          (match Wire.Server.apply_delta server ~id:"doc" rot with
          | Ok _ -> ()
          | Error e -> failwith ("dissem: rotation apply_delta: " ^ e));
          (match Wire.Mirror.sync m with
          | Wire.Mirror.Applied { delta_bytes = b; revoked; _ } ->
              delta_bytes := !delta_bytes + b;
              if revoked <> [ "mallory" ] then
                failwith "dissem: rotation delta lost the revocation list"
          | Wire.Mirror.Uptodate | Wire.Mirror.Refetched _ ->
              failwith "dissem: rotation delta expected");
          check_round (Printf.sprintf "dissem %s rotation" label);
          (* the old epoch is dead: its key no longer decrypts the rotated
             container, and a stale or revoked license is refused before
             any ciphertext is touched *)
          (match
             Container.decrypt_all (Wire.Mirror.container m) ~key:old_key
               ~verify:(scheme <> Container.Ecb)
           with
          | exception _ -> ()
          | pt ->
              if pt = Publisher.payload p then
                failwith "dissem: pre-rotation key still decrypts");
          let epoch = Container.key_epoch (Wire.Mirror.container m) in
          let stale =
            License.make ~subject:"mallory"
              ~document_key:(Publisher.epoch_key_bytes ~master ~epoch:0)
              []
          in
          (match License.authorize stale ~container_epoch:epoch with
          | Error _ -> ()
          | Ok () -> failwith "dissem: stale-epoch license accepted");
          let reissued =
            License.make ~subject:"mallory" ~key_epoch:epoch
              ~document_key:(Publisher.epoch_key_bytes ~master ~epoch)
              []
          in
          (match
             License.authorize reissued ~revoked:(Wire.Mirror.revoked m)
               ~container_epoch:epoch
           with
          | Error _ -> ()
          | Ok () -> failwith "dissem: revoked subject still authorized");
          ignore
            (check_view (Printf.sprintf "dissem %s rotation" label) : float);
          Wire.Mirror.close m;
          let chunks = Container.chunk_count (Publisher.container p) in
          Printf.printf
            "  %-8s %d updates + 1 rotation: delta %6d B vs full re-fetch \
             %7d B (%4.1fx), %d/%d chunks rewritten\n"
            label rounds !delta_bytes !full_bytes
            (float_of_int !full_bytes /. float_of_int !delta_bytes)
            !delta_chunks
            (chunks * rounds);
          record ~name:"dissem" ~profile:label
            Metrics.
              [
                int "updates" rounds;
                int "chunks" chunks;
                int "delta_chunks" !delta_chunks;
                int "delta_bytes" !delta_bytes;
                int "full_bytes" !full_bytes;
                int "generation" (Publisher.generation p);
                int "key_epoch" (Publisher.epoch p);
                float "wall_sync_p50_s"
                  (Xmlac_obs.Histogram.quantile sync_hist 0.5);
                float "wall_sync_p99_s"
                  (Xmlac_obs.Histogram.quantile sync_hist 0.99);
                float "wall_read_p50_s"
                  (Xmlac_obs.Histogram.quantile read_hist 0.5);
                float "wall_read_p99_s"
                  (Xmlac_obs.Histogram.quantile read_hist 0.99);
              ]))
    [
      ("ecb", Container.Ecb);
      ("ecb_mht", Container.Ecb_mht);
      ("cbc_sha", Container.Cbc_sha);
      ("cbc_shac", Container.Cbc_shac);
      ("aes_ctr", Container.Aes_ctr);
    ];
  note "every round byte-checks synced ciphertext against a full re-fetch and";
  note "  the publisher's payload; the gate pins delta_bytes < full_bytes and";
  note "  the rotation proves stale keys and licenses are dead"

(* Crypto kernel ------------------------------------------------------------ *)

(* The scalar 3DES cipher against the bitsliced kernel every session
   decrypts with, on a whole-payload positional-ECB decrypt: pure DES, with
   nothing else in the way. The gate pins a >= 4x speedup on this row; the
   recorded byte count is deterministic. *)
let crypto () =
  banner "Crypto kernel: scalar vs bitsliced 3DES";
  let module Modes = Xmlac_crypto.Modes in
  let key = config.Session.key in
  let payload =
    Xmlac_skip_index.Encoder.encode ~layout:Layout.Tcsbr (Lazy.force hospital)
  in
  let reps = if quick then 1 else 3 in
  let time_best f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Xmlac_obs.Span.now () in
      f ();
      let dt = Xmlac_obs.Span.now () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let padded =
    let n = String.length payload in
    payload ^ String.make (((n + 7) / 8 * 8) - n) '\000'
  in
  let scalar = Modes.of_triple_des key in
  let ct = Modes.positional_encrypt scalar ~base:0 padded in
  let dst = Bytes.create (String.length ct) in
  let time_decrypt c =
    time_best (fun () ->
        Modes.positional_decrypt_into c ~base:0 ~src:ct ~src_pos:0 ~dst
          ~dst_pos:0 ~len:(String.length ct))
  in
  let t_ref = time_decrypt scalar in
  let ref_out = Bytes.to_string dst in
  let t_fast = time_decrypt (Modes.of_triple_des_fast key) in
  if ref_out <> Bytes.to_string dst then
    failwith "crypto: kernel and scalar cipher disagree";
  if ref_out <> padded then failwith "crypto: kernel decrypt is wrong";
  Printf.printf
    "  kernel positional-ECB %4d KB   scalar %8.4fs   bitsliced %8.4fs  (%.1fx)\n"
    (String.length ct / 1024)
    t_ref t_fast (t_ref /. t_fast);
  record ~name:"crypto_kernel" ~profile:"ecb_full_decrypt"
    Metrics.
      [
        int "bytes" (String.length ct);
        float "reference.wall_s" t_ref;
        float "fast.wall_s" t_fast;
        float "wall_speedup" (t_ref /. t_fast);
      ]

(* Bechamel micro-benchmarks ------------------------------------------------ *)

let bechamel_suite () =
  banner "Bechamel micro-benchmarks (wall-clock of this process, ns/run)";
  let open Bechamel in
  let small_doc =
    W.Hospital.generate
      ~config:{ W.Hospital.default_config with folders = 8 }
      ~seed:5 ()
  in
  let small_encoded = Xmlac_skip_index.Encoder.encode ~layout:Layout.Tcsbr small_doc in
  let small_xml = Writer.tree_to_string small_doc in
  let key = Xmlac_crypto.Des.Triple.key_of_string "xmlac-demo-24-byte-key!!" in
  let cipher = Xmlac_crypto.Modes.of_triple_des key in
  let buf64k = String.make 65536 'x' in
  let policy = W.Profiles.secretary in
  let published = Session.publish config ~layout:Layout.Tcsbr small_doc in
  let query = W.Profiles.age_query ~threshold:50 in
  let tests =
    [
      (* Table 1: the decryption kernel the model charges for *)
      Test.make ~name:"t1:3des-block"
        (Staged.stage (fun () -> Xmlac_crypto.Des.Triple.encrypt_block key 42L));
      (* Table 2: parsing the source documents *)
      Test.make ~name:"t2:xml-parse"
        (Staged.stage (fun () -> Xmlac_xml.Parser.events small_xml));
      (* Figure 8: skip-index encoding *)
      Test.make ~name:"f8:tcsbr-encode"
        (Staged.stage (fun () ->
             Xmlac_skip_index.Encoder.encode ~layout:Layout.Tcsbr small_doc));
      (* Figure 9: the full streaming evaluation over the skip index *)
      Test.make ~name:"f9:evaluate-view"
        (Staged.stage (fun () ->
             Evaluator.run ~policy
               (Xmlac_core.Input.of_decoder
                  (Xmlac_skip_index.Decoder.of_string small_encoded))));
      (* Figure 10: evaluation with a query *)
      Test.make ~name:"f10:evaluate-query"
        (Staged.stage (fun () ->
             Evaluator.run ~query ~policy
               (Xmlac_core.Input.of_decoder
                  (Xmlac_skip_index.Decoder.of_string small_encoded))));
      (* Figure 11: the integrity kernels *)
      Test.make ~name:"f11:sha1-64k"
        (Staged.stage (fun () -> Xmlac_crypto.Sha1.digest buf64k));
      Test.make ~name:"f11:3des-ecb-4k"
        (Staged.stage
           (let block = String.make 4096 'y' in
            fun () -> Xmlac_crypto.Modes.positional_encrypt cipher ~base:0 block));
      (* Figure 12: the whole SOE pipeline with integrity *)
      Test.make ~name:"f12:soe-session"
        (Staged.stage (fun () -> Session.evaluate config published policy));
    ]
  in
  let grouped = Test.make_grouped ~name:"xmlac" ~fmt:"%s/%s" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true
      ~quota:(Time.second (if quick then 0.2 else 0.5))
      ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (Toolkit.Instance.monotonic_clock) raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt results name with
      | Some est -> (
          match Analyze.OLS.estimates est with
          | Some (ns :: _) ->
              if ns > 1e6 then Printf.printf "  %-24s %12.3f ms/run\n" name (ns /. 1e6)
              else Printf.printf "  %-24s %12.0f ns/run\n" name ns;
              record ~name:"bechamel" ~profile:name
                Metrics.[ float "wall_ns_per_run" ns ]
          | _ -> Printf.printf "  %-24s (no estimate)\n" name)
      | None -> ())
    (List.sort compare names)

(* the registry: (name, in the default run?, body). The fleet load
   generator only runs when named with --experiment. *)
let experiments =
  [
    ("table1", true, table1);
    ("table2", true, table2);
    ("fig8", true, fig8);
    ("fig9", true, fig9);
    ("fig10", true, fig10);
    ("fig11", true, fig11);
    ("fig12", true, fig12);
    ("contexts", true, contexts);
    ("ablation", true, ablation);
    ("ablation_geometry", true, ablation_geometry);
    ("memory_scaling", true, memory_scaling);
    ("update_costs", true, update_costs);
    ("remote", true, remote);
    ("dissem", true, dissem);
    ("crypto", true, crypto);
    ("fleet", false, fleet);
  ]

let () =
  Printf.printf
    "xmlac benchmark harness — reproducing Bouganim et al., VLDB 2004%s\n"
    (if quick then " (quick mode)" else "");
  let run_all () =
    match experiment_filter with
    | Some "bechamel" -> run_experiment "bechamel" bechamel_suite
    | Some name -> (
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (n, _, f) -> run_experiment n f
        | None ->
            Printf.eprintf
              "bench: unknown experiment %S (have: %s, bechamel)\n" name
              (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
            exit 2)
    | None ->
        List.iter
          (fun (n, default, f) -> if default then run_experiment n f)
          experiments;
        if not no_bechamel then run_experiment "bechamel" bechamel_suite
  in
  (match trace_path with
  | None -> run_all ()
  | Some path -> Xmlac_obs.Trace.with_jsonl_file path run_all);
  (match json_path with
  | None -> ()
  | Some path ->
      let report =
        Bench_report.make
          ~mode:(if quick then "quick" else "full")
          (List.rev !records)
      in
      let oc = open_out path in
      output_string oc (Bench_report.to_string report);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s (%d records)\n" path
        (List.length report.Bench_report.records));
  Printf.printf "\ndone.\n"
