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

(* The payload a data reply delivers, given the request it answers —
   the same rule as the in-process channel's [bytes_to_soe]: actual
   ciphertext/digest lengths, the constant padded hash-state size, 20
   bytes per sibling digest. An error item is the terminal's [Server]
   error; a reply of another kind is a [Protocol] fault. *)
let reply_payload (req : Protocol.request) (resp : Protocol.response) =
  match (req, resp) with
  | Get_fragment _, Fragment c | Get_chunk _, Chunk c | Get_digest _, Digest c
    ->
      String.length c
  | Get_hash_state _, Hash_state _ -> Protocol.hash_state_wire_bytes
  | Get_siblings _, Siblings ds -> 20 * List.length ds
  | _, Err { code; message } ->
      raise (Error.Wire (Error.Server { code; message }))
  | _, r ->
      Error.protocolf "%s reply does not answer its request" (response_kind r)

(* One data request. The reply is checked against it inside [call]'s
   retry, so a desynchronized stream retries; its payload is charged
   once, on delivery — retries re-charge nothing. *)
let fetch t req =
  let resp, bytes = call t req (fun resp -> (resp, reply_payload req resp)) in
  t.stats.payload_bytes <- t.stats.payload_bytes + bytes;
  resp

let bytes_reply : Protocol.response -> string = function
  | Fragment s | Chunk s | Digest s | Hash_state s -> s
  | _ -> assert false (* [fetch] checked the kind *)

let fetch_fragment t ~chunk ~fragment ~lo ~hi =
  bytes_reply (fetch t (Protocol.Get_fragment { chunk; fragment; lo; hi }))

let fetch_chunk t ~chunk = bytes_reply (fetch t (Protocol.Get_chunk { chunk }))

let fetch_digest t ~chunk =
  bytes_reply (fetch t (Protocol.Get_digest { chunk }))

let fetch_hash_state t ~chunk ~fragment ~upto =
  bytes_reply (fetch t (Protocol.Get_hash_state { chunk; fragment; upto }))

let fetch_siblings t ~chunk ~fragment =
  match fetch t (Protocol.Get_siblings { chunk; fragment }) with
  | Protocol.Siblings ds -> ds
  | _ -> assert false (* [fetch] checked the kind *)

(* A Batch round trip checks and charges every item by the same rule as
   a lone fetch, so it charges exactly what the equivalent individual
   fetches would; like theirs, the check runs inside the retry. *)
let fetch_batch t reqs =
  if reqs = [] then []
  else begin
    let subs, bytes =
      call t (Protocol.Batch reqs) (function
        | Protocol.Batched subs when List.compare_lengths subs reqs = 0 ->
            let payload n req resp = n + reply_payload req resp in
            (subs, List.fold_left2 payload 0 reqs subs)
        | Protocol.Batched subs ->
            Error.protocolf "batch reply has %d items, expected %d"
              (List.length subs) (List.length reqs)
        | r -> Error.protocolf "expected batch reply, got %s" (response_kind r))
    in
    t.stats.batched_requests <- t.stats.batched_requests + 1;
    t.stats.payload_bytes <- t.stats.payload_bytes + bytes;
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
