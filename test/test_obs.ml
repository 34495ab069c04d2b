(* Tests for the observability layer: JSON encode/parse round trips, the
   metrics interchange format, deterministic hot-path counters on a known
   document/policy pair, the bench-report schema, and the perf gate's drift
   and shape checks — including that the committed BENCH_baseline.json
   parses and gates cleanly against itself. *)

open Xmlac_obs
module Tree = Xmlac_xml.Tree
module Layout = Xmlac_skip_index.Layout
module Encoder = Xmlac_skip_index.Encoder
module Decoder = Xmlac_skip_index.Decoder
module Policy = Xmlac_core.Policy
module Rule = Xmlac_core.Rule
module Evaluator = Xmlac_core.Evaluator
module Session = Xmlac_soe.Session

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* Json ------------------------------------------------------------------- *)

let roundtrip j =
  match Json.parse (Json.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("tiny", Json.Float 1e-9);
        ("string", Json.String "a \"quoted\"\n\ttab \\ slash");
        ("list", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
        ("nested", Json.Obj [ ("k", Json.List []) ]);
      ]
  in
  check bool_t "object round-trips" true (roundtrip j = j);
  (* compact and pretty print the same value *)
  check bool_t "pretty round-trips" true
    (Json.parse (Json.to_string ~pretty:true j) = Ok j)

let test_json_escapes () =
  (* \uXXXX escapes decode to UTF-8, including a surrogate pair *)
  check bool_t "bmp escape" true
    (Json.parse {|"é"|} = Ok (Json.String "\xc3\xa9"));
  check bool_t "surrogate pair" true
    (Json.parse {|"😀"|} = Ok (Json.String "\xf0\x9f\x98\x80"));
  (match Json.parse "{\"a\": [1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input must not parse");
  match Json.parse "[1] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage must not parse"

let test_json_float_format () =
  (* integral floats keep a decimal point so they reparse as floats *)
  check string_t "integral float" "3.0" (Json.to_string (Json.Float 3.));
  check bool_t "nan is null" true (Json.to_string (Json.Float Float.nan) = "null");
  (* a value needing full precision survives *)
  let f = 0.1 +. 0.2 in
  check bool_t "precision kept" true (roundtrip (Json.Float f) = Json.Float f)

(* Metrics ---------------------------------------------------------------- *)

let test_metrics_roundtrip () =
  let m =
    Metrics.[ int "events" 1234; float "total_s" 0.125; float "nan" Float.nan ]
  in
  match Metrics.of_json (Metrics.to_json m) with
  | Error e -> Alcotest.failf "metrics reparse: %s" e
  | Ok m' ->
      check int_t "same length" (List.length m) (List.length m');
      check bool_t "int preserved" true
        (Metrics.find m' "events" = Some (Metrics.Int 1234));
      check bool_t "float preserved" true
        (Metrics.find m' "total_s" = Some (Metrics.Float 0.125));
      (* non-finite floats pass through null and resurface as nan *)
      (match Metrics.find m' "nan" with
      | Some (Metrics.Float f) -> check bool_t "nan resurfaces" true (Float.is_nan f)
      | _ -> Alcotest.fail "nan metric lost")

let test_metrics_prefix_render () =
  let m = Metrics.(prefix "eval" [ int "events_in" 7 ]) in
  check bool_t "prefix dots the name" true
    (Metrics.find m "eval.events_in" = Some (Metrics.Int 7));
  match Metrics.render Metrics.[ int "a" 1; float "wall_s" 0.5 ] with
  | [ l1; _ ] ->
      check bool_t "aligned name first" true
        (String.length l1 > 0 && l1.[0] = 'a')
  | _ -> Alcotest.fail "one line per metric"

(* Span / Trace ----------------------------------------------------------- *)

(* the wall clock can step backwards (NTP); elapsed must clamp to zero
   rather than poison downstream sums and histograms *)
let test_span_clamp () =
  let future =
    {
      Span.name = "clamp";
      id = Context.fresh_span_id ();
      parent = None;
      trace = None;
      started_at = Span.now () +. 3600.;
    }
  in
  check bool_t "backwards clock clamps to zero" true (Span.elapsed future = 0.)

(* span.end is emitted even when the timed function raises, so traces of
   failed runs stay balanced *)
let test_span_end_on_raise () =
  let seen = ref [] in
  Trace.set_sink (Some (fun e -> seen := e :: !seen));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      (match Span.time "boom" (fun () -> failwith "expected") with
      | _ -> Alcotest.fail "exception must propagate"
      | exception Failure _ -> ());
      let names = List.rev_map (fun e -> e.Trace.name) !seen in
      check bool_t "span.end emitted on raise" true
        (names = [ "span.start"; "span.end" ]))

let test_histogram () =
  let h = Histogram.make "wall_test" in
  check bool_t "empty quantile is zero" true (Histogram.quantile h 0.5 = 0.);
  List.iter (Histogram.observe h) [ 1e-4; 1e-4; 1e-4; 0.1 ];
  (* hostile observations are clamped, never dropped or propagated *)
  Histogram.observe h (-1.);
  Histogram.observe h Float.nan;
  check int_t "count includes clamped values" 6 (Histogram.count h);
  check bool_t "max is exact" true (Histogram.max_value h = 0.1);
  let p50 = Histogram.quantile h 0.5 and p95 = Histogram.quantile h 0.95 in
  check bool_t "quantiles are ordered" true
    (p50 <= p95 && p95 <= Histogram.max_value h);
  (* log buckets: the p50 upper bound is within 2x of the true median *)
  check bool_t "p50 brackets the median" true (p50 >= 1e-4 && p50 <= 2e-4);
  check bool_t "mean below max" true (Histogram.mean h <= 0.1);
  let names = List.map fst (Histogram.metrics h) in
  check bool_t "metric names carry the wall_ prefix" true
    (List.for_all
       (fun n -> String.length n >= 4 && String.sub n 0 4 = "wall")
       names);
  check bool_t "count metric present" true
    (Metrics.find (Histogram.metrics h) "wall_test_count"
    = Some (Metrics.Int 6))

(* Exact-boundary bucketing: a value sitting exactly on a bucket bound
   lo·2^k belongs to the upper bucket (buckets are lower-inclusive) and
   its immediate float predecessor to the lower one. The previous
   log2-based bucket_of drifted by one whenever log2 rounded across the
   integer at a bound. *)
let test_histogram_boundaries () =
  for k = 0 to Histogram.bucket_count - 2 do
    let b = Histogram.lo *. Float.pow 2. (float_of_int k) in
    check int_t
      (Printf.sprintf "lo*2^%d lands in the upper bucket" k)
      (k + 1) (Histogram.bucket_of b);
    check int_t
      (Printf.sprintf "pred (lo*2^%d) lands in the lower bucket" k)
      k
      (Histogram.bucket_of (Float.pred b))
  done

(* merge: merging per-session histograms must be indistinguishable from
   having observed everything into one. *)
let test_histogram_merge () =
  let a = Histogram.make "wall_merge" and b = Histogram.make "wall_merge" in
  let xs_a = [ 1e-4; 2e-4; 5e-2 ] and xs_b = [ 3e-4; 0.2 ] in
  List.iter (Histogram.observe a) xs_a;
  List.iter (Histogram.observe b) xs_b;
  let into = Histogram.make "wall_merge" in
  Histogram.merge ~into a;
  Histogram.merge ~into b;
  let all = Histogram.make "wall_merge" in
  List.iter (Histogram.observe all) (xs_a @ xs_b);
  check int_t "counts add" 5 (Histogram.count into);
  check bool_t "max is the max of both" true (Histogram.max_value into = 0.2);
  check bool_t "mean matches one-histogram run" true
    (Float.abs (Histogram.mean into -. Histogram.mean all) < 1e-12);
  List.iter
    (fun q ->
      check bool_t
        (Printf.sprintf "p%.0f matches one-histogram run" (q *. 100.))
        true
        (Histogram.quantile into q = Histogram.quantile all q))
    [ 0.5; 0.95; 0.99 ]

(* Parent linkage: a span started inside another names it as parent (from
   the ambient per-thread context), point events name the innermost open
   span, and the emitted start events carry the same ids — that linkage
   is what lets one JSONL file rebuild a nested timeline. *)
let test_span_nesting () =
  let seen = ref [] in
  Trace.set_sink (Some (fun e -> seen := e :: !seen));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let outer_ref = ref None and inner_ref = ref None in
      Context.with_trace "nest-1" (fun () ->
          let outer = Span.start "outer" in
          let inner = Span.start "inner" in
          Span.event "tick" [];
          ignore (Span.finish inner : float);
          ignore (Span.finish outer : float);
          outer_ref := Some outer;
          inner_ref := Some inner);
      let outer = Option.get !outer_ref and inner = Option.get !inner_ref in
      check bool_t "outer has no parent" true (outer.Span.parent = None);
      check bool_t "inner parent is outer" true
        (inner.Span.parent = Some outer.Span.id);
      check bool_t "trace id carried" true (inner.Span.trace = Some "nest-1");
      check bool_t "context empty after finish" true
        (Context.current_span () = None);
      let events = List.rev !seen in
      let find_start name =
        List.find
          (fun e ->
            e.Trace.name = "span.start"
            && List.assoc_opt "name" e.Trace.fields
               = Some (Json.String name))
          events
      in
      let field name e = List.assoc_opt name e.Trace.fields in
      check bool_t "emitted inner start names its parent" true
        (field "parent" (find_start "inner") = Some (Json.Int outer.Span.id));
      check bool_t "emitted inner start names its trace" true
        (field "trace" (find_start "inner") = Some (Json.String "nest-1"));
      let tick = List.find (fun e -> e.Trace.name = "tick") events in
      check bool_t "point event parented on the innermost span" true
        (field "parent" tick = Some (Json.Int inner.Span.id));
      check bool_t "point event carries the trace" true
        (field "trace" tick = Some (Json.String "nest-1")))

let prop_histogram_bucket_brackets =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"bucket brackets its value"
       QCheck2.Gen.(map abs_float pfloat)
       (fun v ->
         let b = Histogram.bucket_of v in
         let above_lower = b = 0 || v >= Histogram.upper_bound (b - 1) in
         let below_upper =
           b = Histogram.bucket_count - 1 || v < Histogram.upper_bound b
         in
         above_lower && below_upper))

let test_span_trace () =
  let seen = ref [] in
  Trace.set_sink (Some (fun e -> seen := e :: !seen));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      check bool_t "enabled with a sink" true (Trace.enabled ());
      let (), wall = Span.time "unit-test" (fun () -> ()) in
      check bool_t "non-negative wall" true (wall >= 0.);
      let names = List.rev_map (fun e -> e.Trace.name) !seen in
      check bool_t "span start+end traced" true
        (names = [ "span.start"; "span.end" ]));
  check bool_t "disabled after unset" true (not (Trace.enabled ()))

(* The evaluator observer adapter: observations become named trace events *)
let test_trace_observation () =
  let doc = Tree.parse "<r><a>x</a><b>y</b></r>" in
  let policy = Policy.make [ Rule.parse ~id:"r1" ~sign:Rule.Permit "/r/a" ] in
  let events = ref [] in
  let observer obs =
    let name, fields = Evaluator.trace_observation obs in
    events := (name, fields) :: !events
  in
  let _ = Evaluator.run_events ~observer ~policy (Tree.to_events doc) in
  let names = List.rev_map fst !events in
  check bool_t "observations traced" true (names <> []);
  check bool_t "decisions appear" true (List.mem "eval.decision" names);
  check bool_t "instances appear" true (List.mem "eval.instance" names)

(* Atomic whole-file writes ---------------------------------------------- *)

(* [f dir path] against a target [path] in a fresh directory [dir], which
   is removed afterwards with whatever it holds *)
let with_target f =
  let dir = Filename.temp_dir "atomic" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir (Filename.concat dir "target"))

let read_target path = In_channel.with_open_bin path In_channel.input_all
let entries dir = List.sort compare (Array.to_list (Sys.readdir dir))

let test_atomic_replaces () =
  with_target (fun dir path ->
      Atomic_file.write path (fun oc -> output_string oc "old contents");
      Atomic_file.write path (fun oc -> output_string oc "new");
      check string_t "replaced" "new" (read_target path);
      check (Alcotest.list string_t) "only the target" [ "target" ]
        (entries dir))

let test_atomic_failure_keeps_old () =
  with_target (fun dir path ->
      Atomic_file.write path (fun oc -> output_string oc "old contents");
      let raised =
        match
          Atomic_file.write path (fun oc ->
              output_string oc "half of the new";
              flush oc;
              failwith "writer died")
        with
        | () -> false
        | exception Failure _ -> true
      in
      check bool_t "the writer's exception escapes" true raised;
      check string_t "old contents kept" "old contents" (read_target path);
      check (Alcotest.list string_t) "no temporary file left" [ "target" ]
        (entries dir))

(* Deterministic counters ------------------------------------------------- *)

(* A fixed document/policy pair: the policy permits only /r/keep, so the
   evaluator must skip the <blob> subtree at its open event. All asserted
   values are exact: they derive from byte-exact encodings and counter
   increments, not from timing. If an intentional encoder/evaluator change
   shifts them, re-freeze by printing the metrics of this very pair. *)
let known_doc () =
  Tree.parse
    "<r><blob><x>aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</x><y>bbbb</y></blob><keep>hello</keep></r>"

let known_policy () =
  Policy.make [ Rule.parse ~id:"k1" ~sign:Rule.Permit "/r/keep" ]

let test_decoder_counters () =
  let doc = known_doc () in
  let encoded = Encoder.encode ~layout:Layout.Tcsbr doc in
  let decoder = Decoder.of_string encoded in
  let result =
    Evaluator.run ~policy:(known_policy ())
      (Xmlac_core.Input.of_decoder decoder)
  in
  let s = Decoder.stats decoder in
  check int_t "one subtree skipped" 1 s.Decoder.subtree_skips;
  check int_t "skipped bytes" 44 s.Decoder.bytes_skipped;
  check int_t "events decoded" 7 s.Decoder.events_decoded;
  check int_t "no readback" 0 s.Decoder.readback_subtrees;
  check int_t "evaluator saw the skip" 1
    result.Evaluator.stats.Evaluator.open_skips;
  (* the metrics snapshot mirrors the record *)
  check bool_t "metrics mirror stats" true
    (Metrics.find (Decoder.stats_metrics s) "subtree_skips"
    = Some (Metrics.Int 1))

let test_session_counters () =
  let doc = known_doc () in
  let config = Session.default_config () in
  let published = Session.publish config ~layout:Layout.Tcsbr doc in
  let m = Session.evaluate config published (known_policy ()) in
  check int_t "one subtree skipped" 1 m.Session.index.Decoder.subtree_skips;
  check int_t "blocks decrypted" 9
    m.Session.counters.Xmlac_soe.Channel.blocks_decrypted;
  check int_t "hashes verified" 1
    m.Session.counters.Xmlac_soe.Channel.hashes_verified;
  let metrics = Session.metrics m in
  check bool_t "namespaced eval metric" true
    (Metrics.find metrics "eval.open_skips" = Some (Metrics.Int 1));
  check bool_t "namespaced channel metric" true
    (Metrics.find metrics "channel.blocks_decrypted" = Some (Metrics.Int 9));
  check bool_t "wall metric present" true
    (Metrics.find metrics "wall_s" <> None);
  (* the output itself is what the policy permits *)
  check bool_t "view is /r/keep only" true
    (Evaluator.view_tree
       { Evaluator.events = m.Session.events; stats = m.Session.eval }
    = Some (Tree.parse "<r><keep>hello</keep></r>"))

(* Bench report + gate ---------------------------------------------------- *)

let sample_record ?(tcsbr = 2.) ?(lwb = 1.) () =
  {
    Bench_report.name = "fig9";
    profile = "Doctor";
    metrics =
      Metrics.
        [
          float "bf_total_s" 10.;
          float "tcsbr_total_s" tcsbr;
          float "lwb_total_s" lwb;
          float "wall_s" 0.5;
        ];
    wall_s = 0.1;
  }

let sample_report ?tcsbr ?lwb () =
  Bench_report.make ~mode:"quick" [ sample_record ?tcsbr ?lwb () ]

let test_report_roundtrip () =
  let r = sample_report () in
  match Bench_report.parse (Bench_report.to_string r) with
  | Error e -> Alcotest.failf "report reparse: %s" e
  | Ok r' ->
      check bool_t "round-trips exactly" true (r = r');
      (* and the gate accepts the reparsed copy against the original *)
      check int_t "self-gate is clean" 0
        (List.length (Gate.check ~baseline:r ~current:r' ()))

let test_gate_drift () =
  let baseline = sample_report () in
  let drifted = sample_report ~tcsbr:2.5 () in
  let violations = Gate.check ~baseline ~current:drifted () in
  check int_t "25% drift caught at 10% tolerance" 1 (List.length violations);
  check int_t "but passes at 30% tolerance" 0
    (List.length (Gate.check ~tolerance:0.3 ~baseline ~current:drifted ()));
  (* wall-clock metrics never gate *)
  let wall_only =
    Bench_report.make ~mode:"quick"
      [
        {
          (sample_record ()) with
          Bench_report.metrics =
            Metrics.
              [
                float "bf_total_s" 10.;
                float "tcsbr_total_s" 2.;
                float "lwb_total_s" 1.;
                float "wall_s" 99.;
              ];
        };
      ]
  in
  check int_t "wall drift ignored" 0
    (List.length (Gate.check ~baseline ~current:wall_only ()))

(* histogram metrics are machine-dependent latencies; any metric whose
   final dotted segment starts with "wall" must never gate *)
let test_gate_hist_exempt () =
  let with_hist p95 =
    Bench_report.make ~mode:"quick"
      [
        {
          (sample_record ()) with
          Bench_report.metrics =
            (sample_record ()).Bench_report.metrics
            @ Metrics.
                [
                  float "tcsbr.eval.wall_event_p95_s" p95;
                  int "tcsbr.eval.wall_event_count" 100;
                ];
        };
      ]
  in
  check int_t "histogram drift ignored" 0
    (List.length
       (Gate.check ~baseline:(with_hist 0.001) ~current:(with_hist 0.9) ()))

let test_gate_missing () =
  let baseline = sample_report () in
  let empty = Bench_report.make ~mode:"quick" [] in
  check bool_t "missing record flagged" true
    (Gate.check ~baseline ~current:empty () <> []);
  let full = Bench_report.make ~mode:"full" [ sample_record () ] in
  check bool_t "mode mismatch flagged" true
    (Gate.check ~baseline ~current:full () <> [])

let test_gate_shape () =
  (* identical baseline and current, but the current report's own ordering
     is broken: LWB must lower-bound TCSBR *)
  let broken = sample_report ~tcsbr:1. ~lwb:2. () in
  let violations = Gate.check ~baseline:broken ~current:broken () in
  check bool_t "shape violation fires without drift" true (violations <> []);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check bool_t "violation names the metric" true
    (List.exists
       (fun v ->
         v.Gate.where = "fig9/Doctor"
         && contains (Format.asprintf "%a" Gate.pp_violation v) "lwb_total_s")
       violations)

(* The committed baseline: parses under this build's schema and gates
   cleanly against itself (drift is trivially zero; shape orderings must
   genuinely hold in the committed numbers). *)
(* resolves under both `dune runtest` (cwd = _build/default/test) and
   `dune exec test/test_obs.exe` (cwd = repo root): the binary sits in
   _build/default/test, one level below the staged baseline *)
let baseline_path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../BENCH_baseline.json"

let test_committed_baseline () =
  let contents =
    In_channel.with_open_bin baseline_path In_channel.input_all
  in
  match Bench_report.parse contents with
  | Error e -> Alcotest.failf "BENCH_baseline.json: %s" e
  | Ok report ->
      check string_t "quick mode" "quick" report.Bench_report.mode;
      check bool_t "has records" true (report.Bench_report.records <> []);
      let violations = Gate.check ~baseline:report ~current:report () in
      List.iter
        (fun v -> Printf.printf "baseline violation: %s: %s\n" v.Gate.where v.Gate.detail)
        violations;
      check int_t "baseline self-gates clean" 0 (List.length violations);
      (* the latency histograms ride along in the fig9 records *)
      let fig9 =
        List.find
          (fun r -> r.Bench_report.name = "fig9")
          report.Bench_report.records
      in
      check bool_t "event histogram in baseline" true
        (Metrics.find fig9.Bench_report.metrics "tcsbr.eval.wall_event_count"
        <> None);
      check bool_t "crypto histogram in baseline" true
        (Metrics.find fig9.Bench_report.metrics
           "tcsbr.channel.wall_crypto_count"
        <> None)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "float format" `Quick test_json_float_format;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "roundtrip" `Quick test_metrics_roundtrip;
          Alcotest.test_case "prefix+render" `Quick test_metrics_prefix_render;
        ] );
      ( "instruments",
        [
          Alcotest.test_case "span clamp" `Quick test_span_clamp;
          Alcotest.test_case "span end on raise" `Quick test_span_end_on_raise;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram boundaries" `Quick
            test_histogram_boundaries;
          Alcotest.test_case "histogram merge" `Quick
            test_histogram_merge;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          prop_histogram_bucket_brackets;
          Alcotest.test_case "span+trace" `Quick test_span_trace;
          Alcotest.test_case "trace observation" `Quick test_trace_observation;
        ] );
      ( "atomic file",
        [
          Alcotest.test_case "write replaces" `Quick test_atomic_replaces;
          Alcotest.test_case "failed write keeps the old file" `Quick
            test_atomic_failure_keeps_old;
        ] );
      ( "deterministic counters",
        [
          Alcotest.test_case "decoder" `Quick test_decoder_counters;
          Alcotest.test_case "session" `Quick test_session_counters;
        ] );
      ( "gate",
        [
          Alcotest.test_case "report roundtrip" `Quick test_report_roundtrip;
          Alcotest.test_case "drift" `Quick test_gate_drift;
          Alcotest.test_case "histogram exempt" `Quick test_gate_hist_exempt;
          Alcotest.test_case "missing" `Quick test_gate_missing;
          Alcotest.test_case "shape" `Quick test_gate_shape;
          Alcotest.test_case "committed baseline" `Quick test_committed_baseline;
        ] );
    ]
