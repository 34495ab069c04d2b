(** Per-connection wire counters of the client (the SOE end), threaded
    into {!Xmlac_soe.Session} metrics under a ["wire."] prefix. The
    terminal keeps its accounting in {!Telemetry}.

    [payload_bytes] counts reply bytes the way the in-process channel counts
    [bytes_to_soe] (actual ciphertext/digest lengths, the constant padded
    hash-state size, 20 bytes per sibling digest), so local and remote runs
    of the same query are directly comparable — and the bench gate asserts
    they are equal. [bytes_sent]/[bytes_received] count everything on the
    wire, framing and opcodes included. *)

type t = {
  mutable requests : int;
  mutable replies : int;
  mutable retries : int;
  mutable reconnects : int;
  mutable wire_errors : int;
  mutable payload_bytes : int;
  mutable batched_requests : int;
      (** [Batch] frames sent, each coalescing several logical requests
          into one round trip *)
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable syncs : int;
      (** [Sync] round trips performed, whether answered with a delta or
          with up-to-date *)
  mutable sync_delta_bytes : int;
      (** encoded delta bytes received in [Sync_delta] replies — the
          number the bench compares against a full fetch's
          [payload_bytes] *)
  rtt_hist : Xmlac_obs.Histogram.t;
}

val make : unit -> t
val metrics : t -> Xmlac_obs.Metrics.t

val add : into:t -> t -> unit
(** Merge [s] into [into] (counters and the round-trip histogram). *)
