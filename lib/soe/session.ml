module Tree = Xmlac_xml.Tree
module Layout = Xmlac_skip_index.Layout
module Encoder = Xmlac_skip_index.Encoder
module Decoder = Xmlac_skip_index.Decoder
module Container = Xmlac_crypto.Secure_container
module Evaluator = Xmlac_core.Evaluator
module Input = Xmlac_core.Input

type config = {
  cost : Cost_model.t;
  scheme : Container.scheme;
  chunk_size : int;
  fragment_size : int;
  key : Xmlac_crypto.Des.Triple.key;
}

let default_config ?(context = Cost_model.Hardware)
    ?(scheme = Container.Ecb_mht) () =
  {
    cost = Cost_model.of_context context;
    scheme;
    chunk_size = 2048;
    fragment_size = 256;
    key = Xmlac_crypto.Des.Triple.key_of_string "xmlac-demo-24-byte-key!!";
  }

type published = {
  layout : Layout.t;
  container : Container.t;
  encoded_bytes : int;
  source_text_bytes : int;
}

let publish config ~layout tree =
  if layout = Layout.Nc then
    invalid_arg "Session.publish: the NC layout cannot be evaluated";
  let encoded = Encoder.encode ~layout tree in
  let container =
    Container.encrypt ~chunk_size:config.chunk_size
      ~fragment_size:config.fragment_size ~scheme:config.scheme ~key:config.key
      encoded
  in
  {
    layout;
    container;
    encoded_bytes = String.length encoded;
    source_text_bytes = Tree.text_bytes tree;
  }

type measurement = {
  strategy : string;
  counters : Channel.counters;
  eval : Evaluator.stats;
  index : Decoder.stats;
  result_bytes : int;
  breakdown : Cost_model.breakdown;
  wall_s : float;
  event_hist : Xmlac_obs.Histogram.t;
  events : Xmlac_xml.Event.t list;
  wire : Xmlac_wire.Stats.t option;
  gc_minor_words : float;
  gc_major_words : float;
}

(* Wrap an input so the wall time between handing one event to the
   evaluator and it asking for the next — the per-event evaluation cost,
   channel reads included — lands in [hist]. *)
let timed_input hist (input : Input.t) =
  let handed_at = ref None in
  {
    input with
    Input.next =
      (fun () ->
        (match !handed_at with
        | Some t0 ->
            Xmlac_obs.Histogram.observe hist (Xmlac_obs.Span.now () -. t0)
        | None -> ());
        let e = input.Input.next () in
        handed_at := Some (Xmlac_obs.Span.now ());
        e);
  }

(* Shared measurement body: run the evaluator over a prepared source and
   collect every observable — identical for local and remote terminals, so
   their measurements are directly comparable. *)
let run_measurement ?query ?options ?provenance ~cost ~strategy ~wire ~counters
    ~source policy =
  let decoder = Decoder.of_source source in
  let event_hist = Xmlac_obs.Histogram.make "wall_event" in
  let gc0 = Gc.quick_stat () in
  (* the session runs on this domain, so the domain's exact minor-heap
     counter sees every word it allocates ([quick_stat]'s is coarser) *)
  let minor0 = Gc.minor_words () in
  let result, wall_s =
    Xmlac_obs.Span.time "session.evaluate" (fun () ->
        Evaluator.run ?query ?options ?provenance ~policy
          (timed_input event_hist (Input.of_decoder decoder)))
  in
  let minor1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  let result_bytes =
    String.length (Xmlac_xml.Writer.events_to_string result.Evaluator.events)
  in
  let breakdown =
    Cost_model.breakdown cost ~bytes_in:counters.Channel.bytes_to_soe
      ~bytes_decrypted:counters.Channel.bytes_decrypted
      ~bytes_hashed:counters.Channel.bytes_hashed
      ~transitions:result.Evaluator.stats.Evaluator.transitions
      ~events:result.Evaluator.stats.Evaluator.events_in
  in
  {
    strategy;
    counters;
    eval = result.Evaluator.stats;
    index = Decoder.stats decoder;
    result_bytes;
    breakdown;
    wall_s;
    event_hist;
    events = result.Evaluator.events;
    wire;
    gc_minor_words = minor1 -. minor0;
    gc_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
  }

let evaluate ?query ?(verify = true) ?strategy ?options ?provenance config
    published policy =
  let counters = Channel.fresh_counters () in
  let strategy =
    match strategy with
    | Some s -> s
    | None -> Layout.to_string published.layout
  in
  let source =
    Channel.source ~verify ~container:published.container ~key:config.key
      counters
  in
  run_measurement ?query ?options ?provenance ~cost:config.cost ~strategy
    ~wire:None ~counters ~source policy

let evaluate_remote ?query ?(verify = true) ?(strategy = "REMOTE") ?options
    ?provenance config remote policy =
  let counters = Channel.fresh_counters () in
  let run () =
    let source = Remote.source ~verify remote ~key:config.key counters in
    run_measurement ?query ?options ?provenance ~cost:config.cost ~strategy
      ~wire:(Some (Remote.wire_stats remote)) ~counters ~source policy
  in
  (* Evaluate inside the connection's trace context so session spans and
     channel phase events land in the same trace as the wire spans. *)
  match Remote.trace_id remote with
  | "" -> run ()
  | trace -> Xmlac_obs.Context.with_trace trace run

let metrics (m : measurement) : Xmlac_obs.Metrics.t =
  let open Xmlac_obs.Metrics in
  [ int "result_bytes" m.result_bytes ]
  @ prefix "eval" (Evaluator.stats_metrics m.eval)
  @ prefix "eval" (Xmlac_obs.Histogram.metrics m.event_hist)
  @ prefix "index" (Decoder.stats_metrics m.index)
  @ prefix "channel" (Channel.metrics m.counters)
  @ prefix "cache" (Channel.cache_metrics m.counters)
  @ prefix "cost" (Cost_model.breakdown_metrics m.breakdown)
  @ (match m.wire with
    | None -> []
    | Some w -> prefix "wire" (Xmlac_wire.Stats.metrics w))
  @ prefix "gc"
      [
        float "minor_words" m.gc_minor_words;
        float "major_words" m.gc_major_words;
      ]
  @ [ float "wall_s" m.wall_s ]

let lwb ?(verify = true) config ~authorized_bytes =
  let chunks = max 1 ((authorized_bytes + config.chunk_size - 1) / config.chunk_size) in
  let digest_overhead =
    if verify then chunks * Container.digest_blob_size_for config.scheme else 0
  in
  let hashed = if verify then authorized_bytes else 0 in
  Cost_model.breakdown config.cost
    ~bytes_in:(authorized_bytes + digest_overhead)
    ~bytes_decrypted:(authorized_bytes + digest_overhead)
    ~bytes_hashed:hashed ~transitions:0 ~events:0

let authorized_encoded_bytes ?query policy tree =
  let view =
    match query with
    | None -> Xmlac_core.Oracle.authorized_view policy tree
    | Some q -> Xmlac_core.Oracle.query_view ~query:q policy tree
  in
  match view with
  | None -> 0
  | Some v -> String.length (Encoder.encode ~layout:Layout.Tcsbr v)
