type t = {
  mutable requests : int;
  mutable replies : int;
  mutable retries : int;
  mutable reconnects : int;
  mutable wire_errors : int;
  mutable payload_bytes : int;
  mutable batched_requests : int;
      (* Batch frames sent: each one coalesces several logical requests
         into a single round trip *)
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable syncs : int;
      (* Sync round trips performed (delta or up-to-date answers both) *)
  mutable sync_delta_bytes : int;
      (* encoded delta bytes received via Sync_delta replies *)
  rtt_hist : Xmlac_obs.Histogram.t;
      (* round-trip wall time per request; "wall"-prefixed so its derived
         metrics escape the perf gate's drift check *)
}

let make () =
  {
    requests = 0;
    replies = 0;
    retries = 0;
    reconnects = 0;
    wire_errors = 0;
    payload_bytes = 0;
    batched_requests = 0;
    bytes_sent = 0;
    bytes_received = 0;
    syncs = 0;
    sync_delta_bytes = 0;
    rtt_hist = Xmlac_obs.Histogram.make "wall_rtt";
  }

let metrics (s : t) : Xmlac_obs.Metrics.t =
  Xmlac_obs.Metrics.
    [
      int "requests" s.requests;
      int "replies" s.replies;
      int "retries" s.retries;
      int "reconnects" s.reconnects;
      int "wire_errors" s.wire_errors;
      int "payload_bytes" s.payload_bytes;
      int "batched_requests" s.batched_requests;
      int "bytes_sent" s.bytes_sent;
      int "bytes_received" s.bytes_received;
      int "syncs" s.syncs;
      int "sync_delta_bytes" s.sync_delta_bytes;
    ]
  @ Xmlac_obs.Histogram.metrics s.rtt_hist

let add ~into (s : t) =
  into.requests <- into.requests + s.requests;
  into.replies <- into.replies + s.replies;
  into.retries <- into.retries + s.retries;
  into.reconnects <- into.reconnects + s.reconnects;
  into.wire_errors <- into.wire_errors + s.wire_errors;
  into.payload_bytes <- into.payload_bytes + s.payload_bytes;
  into.batched_requests <- into.batched_requests + s.batched_requests;
  into.bytes_sent <- into.bytes_sent + s.bytes_sent;
  into.bytes_received <- into.bytes_received + s.bytes_received;
  into.syncs <- into.syncs + s.syncs;
  into.sync_delta_bytes <- into.sync_delta_bytes + s.sync_delta_bytes;
  Xmlac_obs.Histogram.merge ~into:into.rtt_hist s.rtt_hist
