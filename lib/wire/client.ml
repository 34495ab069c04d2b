type config = {
  attempts : int;
  backoff_s : float;
  backoff_cap_s : float;
  retry_seed : int;
  max_payload : int;
  container : string;
  trace : string;
}

let default_config =
  {
    attempts = 3;
    backoff_s = 0.05;
    backoff_cap_s = 1.0;
    retry_seed = 0;
    max_payload = Frame.max_payload_default;
    container = "";
    trace = "";
  }

(* {2 Retry backoff}

   Decorrelated jitter: each delay is drawn uniformly from
   [base, 3 * previous], clamped to [backoff_cap_s] per sleep, and the
   {e cumulative} sleep across one retry sequence is capped by
   [backoff_cap_s] too — a client can stall at most that long before its
   final attempt. The jitter stream is a deterministic splitmix64 PRNG
   seeded from [retry_seed], so a fleet of clients seeded differently
   de-synchronizes (no thundering herd of aligned retries) while any one
   client's schedule is exactly reproducible. *)

let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, 1) from the top 53 bits *)
let uniform state =
  let bits = Int64.shift_right_logical (splitmix64 state) 11 in
  Int64.to_float bits /. 9007199254740992. (* 2^53 *)

type backoff = {
  prng : int64 ref;
  mutable prev : float;
  mutable budget : float;
  base : float;
  cap : float;
}

let backoff_start config =
  {
    prng = ref (Int64.of_int config.retry_seed);
    prev = config.backoff_s;
    budget = config.backoff_cap_s;
    base = config.backoff_s;
    cap = config.backoff_cap_s;
  }

let backoff_next b =
  if b.base <= 0. || b.budget <= 0. then 0.
  else begin
    let raw = b.base +. (uniform b.prng *. ((b.prev *. 3.) -. b.base)) in
    let raw = Float.max b.base (Float.min raw b.cap) in
    b.prev <- raw;
    let d = Float.min raw b.budget in
    b.budget <- b.budget -. d;
    d
  end

(* The exact sleeps [retrying] would perform, attempt by attempt — pure,
   for tests that pin the schedule and for capacity planning. *)
let backoff_schedule config =
  let b = backoff_start config in
  List.init (max 0 (config.attempts - 1)) (fun _ -> backoff_next b)

type t = {
  config : config;
  connector : unit -> Transport.t;
  mutable transport : Transport.t option;
  mutable meta : Protocol.metadata option;
  stats : Stats.t;
}

let stats t = t.stats

let response_kind : Protocol.response -> string = function
  | Hello_ok _ -> "hello"
  | Fragment _ -> "fragment"
  | Chunk _ -> "chunk"
  | Digest _ -> "digest"
  | Hash_state _ -> "hash state"
  | Siblings _ -> "siblings"
  | Batched _ -> "batch"
  | Stats_reply _ -> "stats"
  | Sync_delta _ -> "sync delta"
  | Sync_uptodate -> "sync up-to-date"
  | Bye_ok -> "bye"
  | Err _ -> "error"

let roundtrip t transport req =
  let framed = Frame.encode (Protocol.encode_request req) in
  Transport.write transport framed;
  t.stats.requests <- t.stats.requests + 1;
  t.stats.bytes_sent <- t.stats.bytes_sent + String.length framed;
  let payload = Frame.read ~max_payload:t.config.max_payload transport in
  t.stats.bytes_received <-
    t.stats.bytes_received + Frame.header_bytes + String.length payload;
  let resp = Protocol.decode_response payload in
  t.stats.replies <- t.stats.replies + 1;
  resp

(* One hello at the one protocol version. A busy terminal is weather and
   retries; any other refusal is the terminal's decision and ends the
   connect. *)
let handshake t transport =
  let { container; trace; _ } = t.config in
  match
    roundtrip t transport (Protocol.Hello { container; mux = false; trace })
  with
  | Protocol.Hello_ok meta -> meta
  | Protocol.Err { code; message } when code = Protocol.err_busy ->
      raise (Error.Wire (Error.Busy message))
  | Protocol.Err { code; message } ->
      raise
        (Error.Wire
           (Error.Handshake
              (Printf.sprintf "terminal refused handshake (%d): %s" code
                 message)))
  | resp -> Error.protocolf "expected hello reply, got %s" (response_kind resp)

let drop t =
  (match t.transport with Some tr -> Transport.close tr | None -> ());
  t.transport <- None

let ensure t =
  match t.transport with
  | Some tr -> tr
  | None -> (
      let tr = t.connector () in
      match handshake t tr with
      | meta ->
          (match t.meta with
          | None -> t.meta <- Some meta
          | Some m0 when m0 = meta -> ()
          | Some _ ->
              Transport.close tr;
              raise
                (Error.Wire
                   (Error.Handshake "terminal metadata changed across reconnect")));
          t.transport <- Some tr;
          tr
      | exception e ->
          Transport.close tr;
          raise e)

(* Bounded retry with reconnect and decorrelated-jitter backoff (fresh
   schedule per operation — see {!backoff_next}). Sound because
   every request is an idempotent read of immutable published data: a retry
   can repeat work, never change state. The reply is decoded {e inside}
   this region, so a stale or duplicated frame (a desynchronized stream)
   retries on a fresh connection rather than poisoning the session. *)
let retrying t f =
  let backoff = backoff_start t.config in
  let rec go n =
    match f () with
    | v -> v
    | exception (Error.Wire e as exn) ->
        t.stats.wire_errors <- t.stats.wire_errors + 1;
        if Error.retryable e && n < t.config.attempts then begin
          t.stats.retries <- t.stats.retries + 1;
          drop t;
          t.stats.reconnects <- t.stats.reconnects + 1;
          let d = backoff_next backoff in
          if d > 0. then Unix.sleepf d;
          go (n + 1)
        end
        else raise exn
  in
  go 1

let connect ?(config = default_config) connector =
  let t =
    {
      config;
      connector;
      transport = None;
      meta = None;
      stats = Stats.make ();
    }
  in
  retrying t (fun () -> ignore (ensure t : Transport.t));
  t

let metadata t =
  match t.meta with
  | Some m -> m
  | None -> assert false (* connect performed the handshake *)

let trace_granted t =
  match t.meta with Some m -> m.Protocol.trace | None -> false

let trace t = t.config.trace

(* One round trip inside a "wire.request" span when this connection
   negotiated trace linkage and a sink is on. The span is open {e across}
   the write, so a traced mux transport underneath reads it from the
   ambient context and stamps its id on the frame — that id is what the
   server's [server.request] span names as parent. *)
let traced_roundtrip t tr req =
  if t.config.trace = "" || not (Xmlac_obs.Trace.enabled ()) then
    roundtrip t tr req
  else
    Xmlac_obs.Context.with_trace t.config.trace @@ fun () ->
    let s = Xmlac_obs.Span.start "wire.request" in
    Fun.protect
      ~finally:(fun () -> ignore (Xmlac_obs.Span.finish s : float))
      (fun () -> roundtrip t tr req)

let call t req expect =
  retrying t @@ fun () ->
  let tr = ensure t in
  let t0 = Xmlac_obs.Span.now () in
  let resp = traced_roundtrip t tr req in
  Xmlac_obs.Histogram.observe t.stats.rtt_hist (Xmlac_obs.Span.now () -. t0);
  match resp with
  | Protocol.Err { code; message } when code = Protocol.err_busy ->
      raise (Error.Wire (Error.Busy message))
  | Protocol.Err { code; message } ->
      raise (Error.Wire (Error.Server { code; message }))
  | resp -> expect resp

(* Payload accounting mirrors the in-process channel's [bytes_to_soe]:
   actual ciphertext/digest lengths, the constant padded hash-state size,
   20 bytes per sibling digest. Charged only on success, once per
   delivered answer — retries re-charge nothing. *)

let fetch_fragment t ~chunk ~fragment ~lo ~hi =
  let cipher =
    call t
      (Protocol.Get_fragment { chunk; fragment; lo; hi })
      (function
        | Protocol.Fragment c -> c
        | r -> Error.protocolf "expected fragment reply, got %s" (response_kind r))
  in
  t.stats.payload_bytes <- t.stats.payload_bytes + String.length cipher;
  cipher

let fetch_chunk t ~chunk =
  let cipher =
    call t
      (Protocol.Get_chunk { chunk })
      (function
        | Protocol.Chunk c -> c
        | r -> Error.protocolf "expected chunk reply, got %s" (response_kind r))
  in
  t.stats.payload_bytes <- t.stats.payload_bytes + String.length cipher;
  cipher

let fetch_digest t ~chunk =
  let blob =
    call t
      (Protocol.Get_digest { chunk })
      (function
        | Protocol.Digest b -> b
        | r -> Error.protocolf "expected digest reply, got %s" (response_kind r))
  in
  t.stats.payload_bytes <- t.stats.payload_bytes + String.length blob;
  blob

let fetch_hash_state t ~chunk ~fragment ~upto =
  let state =
    call t
      (Protocol.Get_hash_state { chunk; fragment; upto })
      (function
        | Protocol.Hash_state s -> s
        | r ->
            Error.protocolf "expected hash state reply, got %s" (response_kind r))
  in
  t.stats.payload_bytes <- t.stats.payload_bytes + Protocol.hash_state_wire_bytes;
  state

let fetch_siblings t ~chunk ~fragment =
  let digests =
    call t
      (Protocol.Get_siblings { chunk; fragment })
      (function
        | Protocol.Siblings ds -> ds
        | r ->
            Error.protocolf "expected siblings reply, got %s" (response_kind r))
  in
  t.stats.payload_bytes <-
    t.stats.payload_bytes + (20 * List.length digests);
  digests

(* A batch round trip charges exactly what the equivalent sequence of
   individual fetches would have charged: per-item payload accounting with
   the same rules as above. Validation (count, per-item kind) happens
   before any charge is final for the session — a structural mismatch
   aborts without retry, like any non-retryable protocol violation. *)
let fetch_batch t reqs =
  if reqs = [] then []
  else begin
    let subs =
      call t (Protocol.Batch reqs) (function
        | Protocol.Batched rs -> rs
        | r -> Error.protocolf "expected batch reply, got %s" (response_kind r))
    in
    if List.length subs <> List.length reqs then
      Error.protocolf "batch reply has %d items, expected %d"
        (List.length subs) (List.length reqs);
    t.stats.batched_requests <- t.stats.batched_requests + 1;
    List.iter2
      (fun req resp ->
        match ((req : Protocol.request), (resp : Protocol.response)) with
        | _, Protocol.Err { code; message } ->
            raise (Error.Wire (Error.Server { code; message }))
        | Protocol.Get_fragment _, Protocol.Fragment c ->
            t.stats.payload_bytes <- t.stats.payload_bytes + String.length c
        | Protocol.Get_chunk _, Protocol.Chunk c ->
            t.stats.payload_bytes <- t.stats.payload_bytes + String.length c
        | Protocol.Get_digest _, Protocol.Digest b ->
            t.stats.payload_bytes <- t.stats.payload_bytes + String.length b
        | Protocol.Get_hash_state _, Protocol.Hash_state _ ->
            t.stats.payload_bytes <-
              t.stats.payload_bytes + Protocol.hash_state_wire_bytes
        | Protocol.Get_siblings _, Protocol.Siblings ds ->
            t.stats.payload_bytes <-
              t.stats.payload_bytes + (20 * List.length ds)
        | _, r ->
            Error.protocolf "batch item kind mismatch: got %s" (response_kind r))
      reqs subs;
    subs
  end

(* Dissemination plane: one Sync round trip. The encoded delta is opaque
   here — decoding and applying it is [Xmlac_dissem.Delta]'s job (via
   [Mirror]), keeping the client free of any container dependency beyond
   what the data plane already has. *)
let sync t ~have_gen =
  let r =
    call t
      (Protocol.Sync { have_gen })
      (function
        | Protocol.Sync_delta d -> `Delta d
        | Protocol.Sync_uptodate -> `Uptodate
        | r -> Error.protocolf "expected sync reply, got %s" (response_kind r))
  in
  t.stats.syncs <- t.stats.syncs + 1;
  (match r with
  | `Delta d ->
      t.stats.sync_delta_bytes <- t.stats.sync_delta_bytes + String.length d
  | `Uptodate -> ());
  r

(* Admin plane: ask the terminal for its telemetry snapshot. The terminal
   answers only on local transports; elsewhere this surfaces the server's
   [err_unsupported] as a typed [Server] error. *)
let fetch_stats t =
  call t Protocol.Get_stats (function
    | Protocol.Stats_reply json -> json
    | r -> Error.protocolf "expected stats reply, got %s" (response_kind r))

let close t =
  (match t.transport with
  | Some tr -> (
      try ignore (roundtrip t tr Protocol.Bye : Protocol.response)
      with _ -> ())
  | None -> ());
  drop t
