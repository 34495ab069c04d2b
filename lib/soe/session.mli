(** End-to-end client sessions: publish (encode + encrypt) a document, then
    evaluate an access-control policy (and optional query) inside the
    simulated SOE, producing both the authorized output and the simulated
    cost figures the paper's Section 7 charts.

    Strategies measured by the paper:
    - {e BF} (brute force): no index — the whole document enters the SOE
      ({!publish} with the TC layout; nothing can be skipped);
    - {e TCSBR}: the Skip index ({!publish} with the TCSBR layout);
    - {e LWB}: the unreachable oracle bound — transfer and decrypt only the
      authorized bytes ({!lwb}). *)

type config = {
  cost : Cost_model.t;
  scheme : Xmlac_crypto.Secure_container.scheme;
  chunk_size : int;
  fragment_size : int;
  key : Xmlac_crypto.Des.Triple.key;
      (** the document key; the session's channel decrypts with it through
          the bitsliced 3DES kernel and verifies Merkle roots in chunk
          groups (see {!Channel.source_of_terminal}) *)
}

val default_config :
  ?context:Cost_model.context ->
  ?scheme:Xmlac_crypto.Secure_container.scheme ->
  unit ->
  config
(** Hardware smart-card context, ECB-MHT integrity, 2 KB chunks, 256 B
    fragments, a fixed demo key. *)

type published = {
  layout : Xmlac_skip_index.Layout.t;
  container : Xmlac_crypto.Secure_container.t;
  encoded_bytes : int;  (** skip-index encoding size (before encryption) *)
  source_text_bytes : int;
}

val publish :
  config -> layout:Xmlac_skip_index.Layout.t -> Xmlac_xml.Tree.t -> published
(** @raise Invalid_argument for the NC layout (it has no binary body). *)

type measurement = {
  strategy : string;
  counters : Channel.counters;
  eval : Xmlac_core.Evaluator.stats;
  index : Xmlac_skip_index.Decoder.stats;  (** skip/readback tallies *)
  result_bytes : int;  (** serialized size of the authorized output *)
  breakdown : Cost_model.breakdown;
  wall_s : float;  (** wall-clock time of the evaluator run *)
  event_hist : Xmlac_obs.Histogram.t;
      (** per-event evaluation latency (channel reads included); its
          [wall_event_*] metrics are exempt from perf gating *)
  events : Xmlac_xml.Event.t list;
  wire : Xmlac_wire.Stats.t option;
      (** wire-protocol counters when the terminal was remote; [None] for
          the in-process channel *)
  gc_minor_words : float;
      (** words allocated on the calling domain's minor heap during the
          run, read with [Gc.minor_words]. The session runs on that domain,
          so the count is exact: identical local sessions in one build
          report identical counts. Threads sharing the domain (an
          in-process server, say) add their allocation to it. *)
  gc_major_words : float;
      (** the [Gc.quick_stat] major-heap delta across the run. Both [gc.*]
          values move with the compiler and runtime, so they are exempt
          from perf gating like the [wall*] family *)
}

val metrics : measurement -> Xmlac_obs.Metrics.t
(** Everything observable about one evaluation, namespaced: [result_bytes],
    [eval.*] (evaluator stats), [index.*] (skip-index decoder stats),
    [channel.*] (SOE channel counters), [cache.*] (SOE cache hit/miss/
    eviction counters), [cost.*] (modeled seconds), [gc.*] (allocation
    deltas) and [wall_s] (wall-clock). [wall*] and [gc.*] are exempt from
    perf gating — wall time depends on the machine, allocation on the
    runtime; [cache.*] depends only on the access sequence and is gated
    normally. *)

val evaluate :
  ?query:Xmlac_xpath.Ast.t ->
  ?verify:bool ->
  ?strategy:string ->
  ?options:Xmlac_core.Evaluator.options ->
  ?provenance:Xmlac_core.Provenance.collector ->
  config ->
  published ->
  Xmlac_core.Policy.t ->
  measurement
(** Run the streaming evaluator over the encrypted container through the
    SOE channel. [verify] (default true) enables integrity checking;
    [options] exposes the evaluator's ablation switches; [provenance]
    threads a {!Xmlac_core.Provenance.collector} through to the evaluator.
    @raise Xmlac_crypto.Secure_container.Integrity_failure on tampering. *)

val evaluate_remote :
  ?query:Xmlac_xpath.Ast.t ->
  ?verify:bool ->
  ?strategy:string ->
  ?options:Xmlac_core.Evaluator.options ->
  ?provenance:Xmlac_core.Provenance.collector ->
  config ->
  Remote.t ->
  Xmlac_core.Policy.t ->
  measurement
(** Like {!evaluate}, but over a {!Remote} terminal session: the container
    geometry comes from the (validated) wire handshake, every fetch crosses
    the wire, and the measurement carries the connection's
    {!Xmlac_wire.Stats.t} (reported under [wire.*] by {!metrics}).
    [strategy] defaults to ["REMOTE"].
    @raise Xmlac_wire.Error.Wire on unrecoverable transport/protocol faults
    (transient ones are retried inside the client).
    @raise Xmlac_crypto.Secure_container.Integrity_failure on tampering —
    never retried: a mismatching digest is an attack, not weather. *)

val lwb :
  ?verify:bool -> config -> authorized_bytes:int -> Cost_model.breakdown
(** The oracle lower bound: the time to transfer and decrypt only
    [authorized_bytes] (plus, with [verify], the minimal integrity
    overhead for the chunks those bytes span). *)

val authorized_encoded_bytes :
  ?query:Xmlac_xpath.Ast.t -> Xmlac_core.Policy.t -> Xmlac_xml.Tree.t -> int
(** Size of the TCSBR encoding of the authorized view — what the LWB oracle
    would have to read. 0 when the view is empty. *)
