module C = Xmlac_crypto.Secure_container
module Merkle = Xmlac_crypto.Merkle
module Sha1 = Xmlac_crypto.Sha1
module Lru = Xmlac_runtime.Lru

(* One published container. [gen] is unique per full publication, so
   shared cache keys survive unpublish/republish of the same id without
   ever serving stale data; a delta republish ([apply_delta]) keeps [gen]
   — cache keys carry the per-chunk version instead, so untouched chunks
   keep their cached leaf hashes across the republish. [revoked] is the
   cumulative revocation list the container's deltas carry. *)
type entry = {
  e_id : string;
  gen : int;
  container : C.t;
  meta : Protocol.metadata;
  revoked : string list;
}

type t = {
  mutable entries : entry list;  (* publish order; head of order = default *)
  mutable gen_counter : int;
  registry_mutex : Mutex.t;
  (* registry-level cache of per-chunk fragment leaf hashes, shared by
     every session of every container — the terminal is an ordinary
     computer and caches freely; bounded so a wide fleet of containers
     cannot grow it without limit. Keyed by (publication generation,
     chunk, chunk version), never by id: a full republish invalidates via
     the fresh generation, a delta republish via the bumped versions of
     exactly the rewritten chunks. *)
  leaves_cache : (int * int * int, string array) Lru.t;
  cache_stats : Lru.stats;
  cache_mutex : Mutex.t;
  (* encoded Sync answers, keyed (id, from_gen, to_gen): a fleet of
     mirrors trailing by the same generation hits one computation *)
  delta_cache : (string * int * int, string) Lru.t;
  delta_mutex : Mutex.t;
  totals : Stats.t;
  totals_mutex : Mutex.t;
  telemetry : Telemetry.t;
}

let default_cache_capacity = 1024
let delta_cache_capacity = 8

let create ?(cache_capacity = default_cache_capacity) () =
  let cache_stats = Lru.fresh_stats () in
  {
    entries = [];
    gen_counter = 0;
    registry_mutex = Mutex.create ();
    leaves_cache = Lru.create ~capacity:cache_capacity ~stats:cache_stats;
    cache_stats;
    cache_mutex = Mutex.create ();
    delta_cache =
      Lru.create ~capacity:delta_cache_capacity ~stats:(Lru.fresh_stats ());
    delta_mutex = Mutex.create ();
    totals = Stats.make ();
    totals_mutex = Mutex.create ();
    telemetry = Telemetry.create ();
  }

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let publish ?(revoked = []) t ~id container =
  if id = "" then invalid_arg "Server.publish: empty container id";
  if String.length id > Protocol.max_container_id then
    invalid_arg "Server.publish: container id too long";
  with_lock t.registry_mutex @@ fun () ->
  t.gen_counter <- t.gen_counter + 1;
  let e =
    {
      e_id = id;
      gen = t.gen_counter;
      container;
      meta = Protocol.metadata_of_container container;
      revoked;
    }
  in
  (* replace in place so a republished id keeps its position (and the
     default keeps being the first-ever publication) *)
  if List.exists (fun e' -> e'.e_id = id) t.entries then
    t.entries <- List.map (fun e' -> if e'.e_id = id then e else e') t.entries
  else t.entries <- t.entries @ [ e ]

(* Delta republish: advance [id]'s container by one (or more) generations
   without touching the clean chunks' identity — [gen] is kept, so their
   shared leaf-hash cache entries (keyed by chunk version) stay warm.
   Sessions already bound keep serving their immutable snapshot; new
   hellos and [Sync]s see the new generation. *)
let apply_delta t ~id delta =
  with_lock t.registry_mutex @@ fun () ->
  match List.find_opt (fun e -> e.e_id = id) t.entries with
  | None -> Error (Printf.sprintf "unknown container %S" id)
  | Some e -> (
      match Xmlac_dissem.Delta.apply e.container delta with
      | Error _ as err -> err
      | Ok container ->
          let e' =
            {
              e with
              container;
              meta = Protocol.metadata_of_container container;
              revoked = delta.Xmlac_dissem.Delta.revoked;
            }
          in
          t.entries <-
            List.map (fun e0 -> if e0.e_id = id then e' else e0) t.entries;
          Telemetry.republished t.telemetry;
          Ok container)

let unpublish t ~id =
  with_lock t.registry_mutex @@ fun () ->
  let before = List.length t.entries in
  t.entries <- List.filter (fun e -> e.e_id <> id) t.entries;
  List.length t.entries < before

let container_ids t =
  with_lock t.registry_mutex @@ fun () -> List.map (fun e -> e.e_id) t.entries

let default_entry t =
  with_lock t.registry_mutex @@ fun () ->
  match t.entries with [] -> None | e :: _ -> Some e

let find_entry t id =
  with_lock t.registry_mutex @@ fun () ->
  List.find_opt (fun e -> e.e_id = id) t.entries

let make container =
  let t = create () in
  publish t ~id:"default" container;
  t

let metadata t =
  match default_entry t with
  | Some e -> e.meta
  | None -> invalid_arg "Server.metadata: no container published"

let metadata_of t id = Option.map (fun e -> e.meta) (find_entry t id)

let totals t =
  with_lock t.totals_mutex @@ fun () ->
  let snapshot = Stats.make () in
  Stats.add ~into:snapshot t.totals;
  snapshot

let merge_stats t stats =
  with_lock t.totals_mutex @@ fun () -> Stats.add ~into:t.totals stats

let cache_stats t =
  with_lock t.cache_mutex @@ fun () ->
  {
    Lru.hits = t.cache_stats.Lru.hits;
    misses = t.cache_stats.Lru.misses;
    evicted = t.cache_stats.Lru.evicted;
  }

let telemetry t = t.telemetry

let telemetry_snapshot t =
  let cs = cache_stats t in
  let containers =
    with_lock t.registry_mutex @@ fun () -> List.length t.entries
  in
  Telemetry.snapshot t.telemetry ~cache_hits:cs.Lru.hits
    ~cache_misses:cs.Lru.misses ~cache_evicted:cs.Lru.evicted ~containers

let be_bytes value width =
  String.init width (fun i ->
      Char.chr ((value lsr (8 * (width - 1 - i))) land 0xFF))

(* Per-chunk fragment leaf hashes through the shared registry cache, with
   per-session attribution into [stats] (the registry-level [cache_stats]
   totals ride on the LRU itself). *)
let leaves ?stats t e chunk =
  let attribute hit =
    (* linked to the enclosing server.request span via the ambient
       context; free (one ref read) when tracing is off *)
    Xmlac_obs.Span.event "server.cache"
      [
        ("container", Xmlac_obs.Json.String e.e_id);
        ("chunk", Xmlac_obs.Json.Int chunk);
        ("hit", Xmlac_obs.Json.Bool hit);
      ];
    match stats with
    | None -> ()
    | Some (s : Stats.t) ->
        if hit then s.cache_hits <- s.cache_hits + 1
        else s.cache_misses <- s.cache_misses + 1
  in
  with_lock t.cache_mutex @@ fun () ->
  match
    Lru.find t.leaves_cache (e.gen, chunk, C.chunk_version e.container chunk)
  with
  | Some l ->
      attribute true;
      l
  | None ->
      let m = C.fragments_per_chunk e.container in
      let cipher = C.chunk_ciphertext e.container chunk in
      let fsize = C.fragment_size e.container in
      let l =
        Array.init m (fun i ->
            C.fragment_leaf_hash_sub e.container ~chunk ~fragment:i ~cipher
              ~pos:(i * fsize) ~len:fsize)
      in
      Lru.insert t.leaves_cache
        (e.gen, chunk, C.chunk_version e.container chunk)
        l;
      attribute false;
      l

let err code fmt =
  Printf.ksprintf (fun message -> Protocol.Err { code; message }) fmt

(* The encoded answer to "I have [from_gen]" against [e]'s current
   container, through the shared delta cache: a fleet of mirrors trailing
   by the same span costs one delta computation. *)
let delta_for t e ~from_gen =
  let key = (e.e_id, from_gen, C.generation e.container) in
  with_lock t.delta_mutex @@ fun () ->
  match Lru.find t.delta_cache key with
  | Some d -> d
  | None ->
      let d =
        Xmlac_dissem.Delta.encode
          (Xmlac_dissem.Delta.of_container ~from_gen ~revoked:e.revoked
             e.container)
      in
      Lru.insert t.delta_cache key d;
      d

(* Negotiated hello reply: the caller passes its current [binding] (the
   session's container, [None] before any successful hello on a fresh
   registry) and whether mux and trace linkage are being granted. [""]
   selects the binding, falling back to the registry default. Returns the
   resolved entry so the caller can rebind. [grant_trace] must be true
   only when the hello itself carried a trace id — clients that never
   asked reject the unknown reply flag bit. *)
let hello_reply t ~binding ~version ~container ~grant_mux ~grant_trace =
  if version < Protocol.min_version || version > Protocol.version then
    (None, err Protocol.err_unsupported "unsupported protocol version %d" version)
  else
    let resolved =
      if container = "" then
        match binding with Some _ -> binding | None -> default_entry t
      else find_entry t container
    in
    match resolved with
    | None ->
        if container = "" then
          (None, err Protocol.err_unsupported "no container published")
        else (None, err Protocol.err_bad_request "unknown container %S" container)
    | Some e ->
        ( Some e,
          Protocol.Hello_ok
            {
              e.meta with
              Protocol.meta_version = min version Protocol.version;
              mux = grant_mux;
              trace = grant_trace;
            } )

let check_chunk e chunk k =
  if chunk >= C.chunk_count e.container then
    err Protocol.err_out_of_range "chunk %d out of range (%d chunks)" chunk
      (C.chunk_count e.container)
  else k ()

let check_fragment e chunk fragment k =
  check_chunk e chunk @@ fun () ->
  if fragment >= C.fragments_per_chunk e.container then
    err Protocol.err_out_of_range "fragment %d out of range (%d per chunk)"
      fragment
      (C.fragments_per_chunk e.container)
  else k ()

(* One decoded request -> one response, against one bound container. Total
   by construction for in-range requests; the catch-all in [handle] turns
   anything unexpected into an [Err] so a hostile request can never kill
   the session thread. *)
let rec handle_request ?stats t e req =
  let scheme = C.scheme e.container in
  match (req : Protocol.request) with
  | Hello { version; container; mux = _; trace = _ } ->
      (* plain-path hello: rebinding and mux/trace granting are connection
         state, handled by the serving loops; here we just answer *)
      snd
        (hello_reply t ~binding:(Some e) ~version ~container ~grant_mux:false
           ~grant_trace:false)
  | Get_fragment { chunk; fragment; lo; hi } -> (
      match scheme with
      | C.Cbc_sha | C.Cbc_shac | C.Aes_ctr ->
          err Protocol.err_unsupported "no fragment access under %s"
            (C.scheme_to_string scheme)
      | C.Ecb | C.Ecb_mht ->
          check_fragment e chunk fragment @@ fun () ->
          if hi > C.fragment_size e.container then
            err Protocol.err_out_of_range "range [%d, %d) exceeds fragment size %d"
              lo hi
              (C.fragment_size e.container)
          else
            (* slice straight out of the chunk ciphertext: one copy of the
               requested range, not fragment copy + range copy *)
            let cipher = C.chunk_ciphertext e.container chunk in
            let base = fragment * C.fragment_size e.container in
            Protocol.Fragment (String.sub cipher (base + lo) (hi - lo)))
  | Get_chunk { chunk } ->
      check_chunk e chunk @@ fun () ->
      Protocol.Chunk (C.chunk_ciphertext e.container chunk)
  | Get_digest { chunk } ->
      if scheme = C.Ecb then
        err Protocol.err_unsupported "ECB containers carry no digests"
      else
        check_chunk e chunk @@ fun () ->
        Protocol.Digest (C.encrypted_digest e.container chunk)
  | Get_hash_state { chunk; fragment; upto } ->
      if scheme <> C.Ecb_mht then
        err Protocol.err_unsupported "no hash states under %s"
          (C.scheme_to_string scheme)
      else
        check_fragment e chunk fragment @@ fun () ->
        if upto > C.fragment_size e.container then
          err Protocol.err_out_of_range "prefix length %d exceeds fragment size %d"
            upto
            (C.fragment_size e.container)
        else begin
          (* hash the prefix in place from the chunk ciphertext — no
             fragment copy just to feed [upto] of its bytes *)
          let cipher = C.chunk_ciphertext e.container chunk in
          let ctx = Sha1.init () in
          Sha1.feed ctx (be_bytes chunk 4);
          Sha1.feed ctx (be_bytes fragment 4);
          Sha1.feed_sub ctx cipher
            ~pos:(fragment * C.fragment_size e.container)
            ~len:upto;
          Protocol.Hash_state (Sha1.export_state ctx)
        end
  | Get_siblings { chunk; fragment } ->
      if scheme <> C.Ecb_mht then
        err Protocol.err_unsupported "no Merkle tree under %s"
          (C.scheme_to_string scheme)
      else
        check_fragment e chunk fragment @@ fun () ->
        let cover =
          Merkle.sibling_cover
            ~leaf_count:(C.fragments_per_chunk e.container)
            ~lo:fragment ~hi:fragment
        in
        let l = leaves ?stats t e chunk in
        Protocol.Siblings (List.map (Merkle.node_hash l) cover)
  | Batch subs ->
      (* one reply per sub-request, in order; a failing sub becomes its
         own Err item instead of poisoning its batch-mates *)
      Protocol.Batched
        (List.map
           (fun sub ->
             match handle_request ?stats t e sub with
             | resp -> resp
             | exception e ->
                 err Protocol.err_internal "terminal failure: %s"
                   (Printexc.to_string e))
           subs)
  | Get_stats ->
      (* only the serving loops answer this, and only on local
         transports; reaching it through any other path is a refusal *)
      err Protocol.err_unsupported "stats are served only on local transports"
  | Sync { have_gen } ->
      (* answered against the id's CURRENT registry entry, not the
         session's bound snapshot: data requests keep serving the
         immutable binding, but a sync's whole point is to move the peer
         forward. The per-chunk version vector bridges any generation the
         current lineage ever published; a [have_gen] above the current
         generation means the id was republished from scratch (fresh
         lineage, generation reset) and the peer must refetch. *)
      let cur =
        match find_entry t e.e_id with Some c -> c | None -> e
      in
      let gen = C.generation cur.container in
      if have_gen < 0 || have_gen > gen then begin
        Telemetry.sync_served t.telemetry ~uptodate:false ~bytes:0;
        err Protocol.err_out_of_range
          "cannot bridge generation %d (current lineage is at %d)" have_gen
          gen
      end
      else if have_gen = gen then begin
        Telemetry.sync_served t.telemetry ~uptodate:true ~bytes:0;
        Protocol.Sync_uptodate
      end
      else begin
        let d = delta_for t cur ~from_gen:have_gen in
        Telemetry.sync_served t.telemetry ~uptodate:false
          ~bytes:(String.length d);
        Protocol.Sync_delta d
      end
  | Bye -> Protocol.Bye_ok

let no_container = err Protocol.err_unsupported "no container published"

let handle_bound ?stats t binding req =
  match (req : Protocol.request) with
  | Hello _ | Bye -> assert false (* serving loops intercept these *)
  | _ -> (
      match binding with
      | None -> no_container
      | Some e -> (
          match handle_request ?stats t e req with
          | resp -> resp
          | exception e ->
              err Protocol.err_internal "terminal failure: %s"
                (Printexc.to_string e)))

let handle t req =
  match (req : Protocol.request) with
  | Protocol.Bye -> (Protocol.Bye_ok, true)
  | Protocol.Hello { version; container; mux = _; trace = _ } ->
      ( snd
          (hello_reply t ~binding:None ~version ~container ~grant_mux:false
             ~grant_trace:false),
        false )
  | req -> (handle_bound t (default_entry t) req, false)

(* {2 Per-request tracing and telemetry} *)

let request_kind : Protocol.request -> string = function
  | Protocol.Hello _ -> "hello"
  | Protocol.Get_fragment _ -> "fragment"
  | Protocol.Get_chunk _ -> "chunk"
  | Protocol.Get_digest _ -> "digest"
  | Protocol.Get_hash_state _ -> "hash_state"
  | Protocol.Get_siblings _ -> "siblings"
  | Protocol.Batch _ -> "batch"
  | Protocol.Get_stats -> "stats"
  | Protocol.Sync _ -> "sync"
  | Protocol.Bye -> "bye"

(* Run [f] inside a hand-rolled "server.request" span linked to the
   client: the ambient context gets the request's trace id and the span's
   id pushed, so anything [f] emits (cache events, nested spans) links up,
   and the span itself names the client's wire span as parent when the
   traced mux framing carried one. Everything is skipped — no context
   writes, no clock reads — unless a sink is installed and the request
   belongs to a trace. *)
let with_server_span ~trace ~client_span ~sid ~kind f =
  if trace = "" || not (Xmlac_obs.Trace.enabled ()) then f ()
  else begin
    let module J = Xmlac_obs.Json in
    Xmlac_obs.Context.with_trace trace @@ fun () ->
    let id = Xmlac_obs.Context.fresh_span_id () in
    let ctx =
      [
        ("name", J.String "server.request");
        ("trace", J.String trace);
        ("span", J.Int id);
      ]
      @ if client_span <> 0 then [ ("parent", J.Int client_span) ] else []
    in
    let t0 = Xmlac_obs.Span.now () in
    Xmlac_obs.Trace.emit "span.start"
      (ctx
      @ [ ("ts", J.Float t0); ("sid", J.Int sid); ("kind", J.String kind) ]);
    Xmlac_obs.Context.push_span id;
    Fun.protect
      ~finally:(fun () ->
        Xmlac_obs.Context.pop_span id;
        let t1 = Xmlac_obs.Span.now () in
        Xmlac_obs.Trace.emit "span.end"
          (ctx
          @ [
              ("ts", J.Float t1);
              ("wall_s", J.Float (Float.max 0. (t1 -. t0)));
            ]))
      f
  end

(* One data request end to end: handle under a server span, encode, and
   attribute outcome / reply bytes / shared-cache delta / service wall
   time to the bound tenant. *)
let serve_data ~stats ~tel ~trace ~client_span ~sid t binding req =
  let h0 = stats.Stats.cache_hits and m0 = stats.Stats.cache_misses in
  let t0 = Xmlac_obs.Span.now () in
  let resp =
    with_server_span ~trace ~client_span ~sid ~kind:(request_kind req)
      (fun () -> handle_bound ~stats t binding req)
  in
  let encoded = Protocol.encode_response resp in
  (match binding with
  | Some e ->
      Telemetry.record tel ~tenant:e.e_id
        ~ok:(match resp with Protocol.Err _ -> false | _ -> true)
        ~reply_bytes:(String.length encoded)
        ~cache_hits:(stats.Stats.cache_hits - h0)
        ~cache_misses:(stats.Stats.cache_misses - m0)
        ~service_s:(Float.max 0. (Xmlac_obs.Span.now () -. t0))
  | None -> ());
  encoded

(* The admin-plane reply: a telemetry snapshot, only ever for a provably
   local peer. The asking connection flushes its own accumulator first so
   the snapshot covers its traffic too. *)
let stats_reply ~local ~tel t =
  if not local then
    err Protocol.err_unsupported "stats are served only on local transports"
  else begin
    Telemetry.flush tel;
    Protocol.Stats_reply (Telemetry.to_string (telemetry_snapshot t))
  end

(* One raw frame payload -> one encoded reply, with connection-scoped
   container binding threaded through [binding]. Total: decode failures
   become [Err] replies, so the fuzz boundary can assert that no byte
   string whatsoever raises out of here. [tel] enables per-tenant
   telemetry attribution; [local] gates the admin-plane [Get_stats];
   [conn_trace], when given, holds the connection's negotiated trace id
   and enables the trace grant — the loopback serves synchronously on the
   caller's thread, so the ambient context already carries the client's
   open [wire.request] span and linkage costs nothing. *)
let handle_frame_bound ?stats ?tel ?(local = false) ?conn_trace t binding
    payload =
  match Protocol.decode_request payload with
  | Protocol.Bye -> (Protocol.encode_response Protocol.Bye_ok, true)
  | Protocol.Hello { version; container; mux = _; trace } ->
      let grant_trace = conn_trace <> None && trace <> "" && version >= 2 in
      let resolved, resp =
        hello_reply t ~binding:!binding ~version ~container ~grant_mux:false
          ~grant_trace
      in
      (match resolved with
      | Some e ->
          binding := Some e;
          (match conn_trace with
          | Some r -> r := (if grant_trace then trace else "")
          | None -> ());
          (match tel with
          | Some a -> Telemetry.session a ~tenant:e.e_id ~generation:e.gen
          | None -> ())
      | None -> ());
      (Protocol.encode_response resp, false)
  | Protocol.Get_stats -> (
      match tel with
      | Some a -> (Protocol.encode_response (stats_reply ~local ~tel:a t), false)
      | None ->
          ( Protocol.encode_response
              (err Protocol.err_unsupported
                 "stats are served only on local transports"),
            false ))
  | req -> (
      match tel with
      | Some a ->
          let trace = match conn_trace with Some r -> !r | None -> "" in
          let client_span =
            if trace = "" then 0
            else
              match Xmlac_obs.Context.current_span () with
              | Some s -> s
              | None -> 0
          in
          (serve_data ~stats:(Option.value stats ~default:(Stats.make ()))
             ~tel:a ~trace ~client_span ~sid:0 t !binding req,
           false)
      | None ->
          (Protocol.encode_response (handle_bound ?stats t !binding req), false))
  | exception Error.Wire e ->
      ( Protocol.encode_response
          (Protocol.Err
             { code = Protocol.err_bad_request; message = Error.to_string e }),
        false )

let handle_frame t payload = handle_frame_bound t (ref (default_entry t)) payload

(* {2 Serving loops} *)

let max_mux_sessions_default = 256

(* Multiplexed phase of a connection: every frame carries a session id;
   each session binds its own container with its own hello, [Bye] retires
   just that session, and the connection ends only when the peer goes
   away. Frames of one connection are served in arrival order — fleet
   concurrency comes from many connections, each a thread.

   When the probe hello negotiated trace propagation, every frame also
   carries a u64 span id ([traced]); replies echo the request's span, and
   each mux session's own hello may rebind the session to its own trace
   id (many tenants' sessions share one endpoint connection), tracked in
   [traces]. *)
let serve_mux t transport ~stats ~tel ~conn_binding ~conn_trace ~traced
    ~max_mux_sessions =
  let bindings : (int, entry) Hashtbl.t = Hashtbl.create 8 in
  let traces : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let prefix_bytes =
    Frame.header_bytes + Frame.mux_overhead
    + if traced then Frame.span_overhead else 0
  in
  let send_raw ~sid ~span encoded =
    let framed =
      Frame.encode_mux ~sid ?span:(if traced then Some span else None) encoded
    in
    Transport.write transport framed;
    stats.Stats.replies <- stats.Stats.replies + 1;
    stats.Stats.bytes_sent <- stats.Stats.bytes_sent + String.length framed
  in
  let send ~sid ~span resp = send_raw ~sid ~span (Protocol.encode_response resp) in
  let rec loop () =
    match
      Frame.read_mux ~max_payload:Frame.max_request_payload ~traced transport
    with
    | sid, span, payload ->
        stats.Stats.requests <- stats.Stats.requests + 1;
        stats.Stats.bytes_received <-
          stats.Stats.bytes_received + prefix_bytes + String.length payload;
        (match Protocol.decode_request payload with
        | Protocol.Hello { version; container; mux = _; trace } ->
            if
              (not (Hashtbl.mem bindings sid))
              && Hashtbl.length bindings >= max_mux_sessions
            then begin
              stats.Stats.busy_rejections <- stats.Stats.busy_rejections + 1;
              Telemetry.busy_rejected t.telemetry;
              send ~sid ~span
                (err Protocol.err_busy "connection at its session cap (%d)"
                   max_mux_sessions)
            end
            else begin
              let resolved, resp =
                hello_reply t ~binding:conn_binding ~version ~container
                  ~grant_mux:true ~grant_trace:(traced && trace <> "")
              in
              (match resolved with
              | Some e ->
                  if not (Hashtbl.mem bindings sid) then begin
                    stats.Stats.mux_sessions <- stats.Stats.mux_sessions + 1;
                    Telemetry.mux_opened t.telemetry
                  end;
                  Hashtbl.replace bindings sid e;
                  Telemetry.session tel ~tenant:e.e_id ~generation:e.gen;
                  if traced && trace <> "" then
                    Hashtbl.replace traces sid trace
              | None -> ());
              send ~sid ~span resp
            end
        | Protocol.Bye ->
            if Hashtbl.mem bindings sid then Telemetry.mux_retired t.telemetry;
            Hashtbl.remove bindings sid;
            Hashtbl.remove traces sid;
            send ~sid ~span Protocol.Bye_ok
        | Protocol.Get_stats ->
            send ~sid ~span (stats_reply ~local:(Transport.local transport) ~tel t)
        | req ->
            let binding =
              match Hashtbl.find_opt bindings sid with
              | Some e -> Some e
              | None -> conn_binding
            in
            let trace =
              match Hashtbl.find_opt traces sid with
              | Some tr -> tr
              | None -> conn_trace
            in
            send_raw ~sid ~span
              (serve_data ~stats ~tel ~trace ~client_span:span ~sid t binding
                 req)
        | exception Error.Wire e ->
            send ~sid ~span
              (Protocol.Err
                 { code = Protocol.err_bad_request; message = Error.to_string e }));
        loop ()
    | exception Error.Wire (Error.Transport _) ->
        (* peer closed or timed out: normal end of connection *)
        ()
    | exception Error.Wire _ ->
        stats.Stats.wire_errors <- stats.Stats.wire_errors + 1
  in
  loop ()

let serve_connection ?(mux = true) ?(max_mux_sessions = max_mux_sessions_default)
    t transport =
  let stats = Stats.make () in
  let tel = Telemetry.acc t.telemetry in
  Telemetry.connection_admitted t.telemetry;
  let binding = ref (default_entry t) in
  (* the connection's negotiated trace id: set by the last successful
     hello that carried one, "" otherwise *)
  let conn_trace = ref "" in
  let rec plain_loop () =
    match Frame.read ~max_payload:Frame.max_request_payload transport with
    | payload -> (
        stats.Stats.requests <- stats.Stats.requests + 1;
        stats.Stats.bytes_received <-
          stats.Stats.bytes_received + Frame.header_bytes + String.length payload;
        (* a v2 hello requesting mux switches the connection over — the
           grant travels in the (still plain) hello reply *)
        let granted = ref false in
        let reply, closing =
          match Protocol.decode_request payload with
          | Protocol.Hello { version; container; mux = want_mux; trace } ->
              let grant = mux && want_mux && version >= 2 in
              let grant_trace = trace <> "" && version >= 2 in
              let resolved, resp =
                hello_reply t ~binding:!binding ~version ~container
                  ~grant_mux:grant ~grant_trace
              in
              (match resolved with
              | Some e ->
                  binding := Some e;
                  granted := grant;
                  conn_trace := (if grant_trace then trace else "");
                  Telemetry.session tel ~tenant:e.e_id ~generation:e.gen
              | None -> ());
              (Protocol.encode_response resp, false)
          | Protocol.Bye -> (Protocol.encode_response Protocol.Bye_ok, true)
          | Protocol.Get_stats ->
              ( Protocol.encode_response
                  (stats_reply ~local:(Transport.local transport) ~tel t),
                false )
          | req ->
              ( serve_data ~stats ~tel ~trace:!conn_trace ~client_span:0 ~sid:0
                  t !binding req,
                false )
          | exception Error.Wire e ->
              ( Protocol.encode_response
                  (Protocol.Err
                     {
                       code = Protocol.err_bad_request;
                       message = Error.to_string e;
                     }),
                false )
        in
        let framed = Frame.encode reply in
        Transport.write transport framed;
        stats.Stats.replies <- stats.Stats.replies + 1;
        stats.Stats.bytes_sent <- stats.Stats.bytes_sent + String.length framed;
        if !granted then
          serve_mux t transport ~stats ~tel ~conn_binding:!binding
            ~conn_trace:!conn_trace ~traced:(!conn_trace <> "")
            ~max_mux_sessions
        else if not closing then plain_loop ())
    | exception Error.Wire (Error.Transport _) ->
        (* peer closed or timed out: normal end of session *)
        ()
    | exception Error.Wire _ ->
        stats.Stats.wire_errors <- stats.Stats.wire_errors + 1
  in
  (try plain_loop () with _ -> ());
  Transport.close transport;
  Telemetry.flush tel;
  Telemetry.connection_closed t.telemetry;
  merge_stats t stats

(* In-process terminal: requests are served synchronously inside the
   client's write, replies drain from a per-connection outbox. Hermetic —
   no sockets, no threads required — yet it exercises the full encode /
   frame / decode path on both sides. Plain-framed only: a hello asking
   for mux is answered with [mux = false], which well-behaved clients
   treat as a graceful downgrade. Traces are granted: the server work runs
   inside the client's open [wire.request] span, so server.request spans
   link to it straight from the ambient context. *)
let loopback_connector t () =
  let outbox = ref "" in
  let opos = ref 0 in
  let finished = ref false in
  let stats = Stats.make () in
  let tel = Telemetry.acc t.telemetry in
  Telemetry.connection_admitted t.telemetry;
  let closed = ref false in
  let binding = ref (default_entry t) in
  let conn_trace = ref "" in
  let append s =
    outbox := String.sub !outbox !opos (String.length !outbox - !opos) ^ s;
    opos := 0
  in
  let write data =
    if not (!finished || !closed) then begin
      let off = ref 0 in
      try
        while String.length data - !off > 0 && not !finished do
          let payload, next =
            Frame.split ~max_payload:Frame.max_request_payload data ~off:!off
          in
          off := next;
          stats.Stats.requests <- stats.Stats.requests + 1;
          stats.Stats.bytes_received <-
            stats.Stats.bytes_received + Frame.header_bytes
            + String.length payload;
          let reply, closing =
            handle_frame_bound ~stats ~tel ~local:true ~conn_trace t binding
              payload
          in
          let framed = Frame.encode reply in
          append framed;
          stats.Stats.replies <- stats.Stats.replies + 1;
          stats.Stats.bytes_sent <- stats.Stats.bytes_sent + String.length framed;
          if closing then finished := true
        done
      with Error.Wire _ ->
        (* a client that cannot even frame its request gets cut off *)
        stats.Stats.wire_errors <- stats.Stats.wire_errors + 1;
        finished := true
    end
  in
  let read buf off len =
    let avail = String.length !outbox - !opos in
    if avail = 0 then 0
    else begin
      let n = min len avail in
      Bytes.blit_string !outbox !opos buf off n;
      opos := !opos + n;
      n
    end
  in
  let close () =
    if not !closed then begin
      closed := true;
      Telemetry.flush tel;
      Telemetry.connection_closed t.telemetry;
      merge_stats t stats
    end
  in
  (* in-process by construction, so the admin plane is reachable *)
  Transport.make ~local:true ~read ~write ~close ~peer:"loopback" ()

(* Admission control: a connection past the session cap is never parked —
   it gets its opening frame read (so the refusal is a reply, not a
   slammed door), a typed busy error, and a close. The short-lived
   rejection runs on its own thread so a slow-to-speak rejected peer
   cannot stall the acceptor. *)
let reject_busy t ~max_sessions transport =
  let stats = Stats.make () in
  stats.Stats.busy_rejections <- 1;
  Telemetry.busy_rejected t.telemetry;
  (try
     let _ : string =
       Frame.read ~max_payload:Frame.max_request_payload transport
     in
     let reply =
       Protocol.encode_response
         (err Protocol.err_busy "terminal at session cap (%d)" max_sessions)
     in
     Transport.write transport (Frame.encode reply)
   with _ -> ());
  Transport.close transport;
  merge_stats t stats

let serve ?(max_sessions = 64) ?(mux = true) ?(domains = 1) ?timeout_s ?stop t
    listener =
  let stopped () = match stop with Some r -> !r | None -> false in
  let active = ref 0 in
  let rejecting = ref 0 in
  let m = Mutex.create () in
  let cond = Condition.create () in
  let spawn counter f transport =
    let _ : Thread.t =
      Thread.create
        (fun () ->
          (try f transport with _ -> ());
          Mutex.lock m;
          decr counter;
          Condition.broadcast cond;
          Mutex.unlock m)
        ()
    in
    ()
  in
  let dispatch transport =
    Mutex.lock m;
    let admitted = !active < max_sessions in
    if admitted then incr active else incr rejecting;
    Mutex.unlock m;
    if admitted then spawn active (serve_connection ~mux t) transport
    else spawn rejecting (reject_busy t ~max_sessions) transport
  in
  let accept_blocking () =
    (* poll so a flipped stop flag (or a closed listener) ends the loop
       instead of blocking forever in accept *)
    if Transport.wait_readable listener then
      Some (Transport.accept ?timeout_s listener)
    else None
  in
  let accept_racing () =
    if Transport.wait_readable listener then
      Transport.accept_opt ?timeout_s listener
    else None
  in
  let accept_loop accept_one =
    let rec loop () =
      if not (stopped ()) then
        match accept_one () with
        | Some transport ->
            dispatch transport;
            loop ()
        | None -> loop ()
        | exception Error.Wire _ ->
            (* listener closed: fall through to drain *)
            ()
    in
    loop ()
  in
  if domains <= 1 then accept_loop accept_blocking
  else begin
    (* one acceptor per domain, the caller's included, all racing over one
       non-blocking listener; connection threads are spawned from whichever
       domain wins. Every domain is joined before the first failure (the
       caller's, then in spawn order) is re-raised. *)
    Transport.set_nonblocking listener;
    let acceptor () =
      match accept_loop accept_racing with () -> None | exception e -> Some e
    in
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn acceptor) in
    let own = acceptor () in
    List.iter
      (function Some e -> raise e | None -> ())
      (own :: List.map Domain.join spawned)
  end;
  Mutex.lock m;
  while !active > 0 || !rejecting > 0 do
    Condition.wait cond m
  done;
  Mutex.unlock m
