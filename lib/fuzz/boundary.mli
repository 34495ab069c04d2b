(** The pipeline's trust boundaries, each wrapped as a total function over
    arbitrary bytes.

    Every runner enforces the same contract: hostile input comes back as
    [Rejected] (a typed error was raised or returned), well-formed input as
    [Accepted], and {e any other escaping exception} as [Crashed] — which
    the harness reports as a bug. *)

type outcome =
  | Accepted
  | Rejected of string  (** typed rejection, with the layer's message *)
  | Crashed of string  (** an untyped exception escaped — a pipeline bug *)

type id =
  | Xml_parse
  | Skip_decode
  | Container
  | Channel_eval
  | Policy_text
  | Wire_frame
  | Remote_eval

val all : id list

val classify : exn -> outcome
(** Map the typed exceptions of every layer to [Rejected]; anything else to
    [Crashed]. *)

val xml_parse : string -> outcome
(** Raw document bytes into {!Xmlac_xml.Parser}. *)

val skip_decode : string -> outcome
(** Encoded bytes into {!Xmlac_skip_index.Decoder}, drained to the end. *)

val container : key:Xmlac_crypto.Des.Triple.key -> string -> outcome
(** Serialized container bytes parsed and fully decrypted with
    verification. *)

type eval_outcome = {
  outcome : outcome;
  view : Xmlac_xml.Event.t list option;
      (** the delivered events when the pipeline accepted the input *)
}

val channel_eval :
  ?provenance:Xmlac_core.Provenance.collector ->
  key:Xmlac_crypto.Des.Triple.key ->
  policy:Xmlac_core.Policy.t ->
  string ->
  eval_outcome
(** The full pipeline: container bytes → SOE channel (with integrity
    verification) → skip-index decoder → streaming evaluator. Pass
    [provenance] to capture decision records from the run — the harness
    uses this to write a [.prov.jsonl] next to each saved crasher. *)

val policy_text : string -> outcome
(** Policy text into {!Xmlac_core.Policy.of_string}. *)

val wire_frame : string -> outcome
(** Raw frame/payload bytes into every wire decoder at once: the terminal's
    [handle_frame] (which must be total — any exception is [Crashed]), the
    client's response decoder (validating advertised metadata through
    [metadata_geometry] when the bytes happen to spell a handshake), the
    frame splitter, and the request decoder. *)

val remote_eval :
  ?plan:Xmlac_wire.Fault.plan ->
  ?rng:(int -> int) ->
  key:Xmlac_crypto.Des.Triple.key ->
  policy:Xmlac_core.Policy.t ->
  string ->
  eval_outcome
(** The full remote pipeline: container bytes served by an in-process
    {!Xmlac_wire.Server} over loopback, fetched by the retrying wire
    client, decrypted and verified in the SOE channel, evaluated. When
    [plan] and [rng] are both given the transport is wrapped in
    {!Xmlac_wire.Fault.wrap}, so replies are randomly truncated, corrupted,
    replayed, duplicated or stalled; the client retries transient faults
    (4 attempts, no backoff) and anything that still escapes must be a
    typed error. *)
