module C = Xmlac_crypto.Secure_container
module Merkle = Xmlac_crypto.Merkle

(* One published container. [gen] is unique per full publication and is
   the tenant's publication number in telemetry; a delta republish
   ([apply_delta]) keeps it. [revoked] is the cumulative revocation list
   the container's deltas carry. *)
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
  (* guards every read and fill of the containers' Merkle node tables
     ([C.chunk_tree]). A fill writes the container value, which every
     session bound to it shares, and a delta republish carries the kept
     chunks' tables into the next generation's container, so one lock
     covers the whole server: a table filled on another acceptor domain
     is only safely visible through it. *)
  tree_mutex : Mutex.t;
  telemetry : Telemetry.t;
}

let create () =
  {
    entries = [];
    gen_counter = 0;
    registry_mutex = Mutex.create ();
    tree_mutex = Mutex.create ();
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

(* Delta republish: advance [id]'s container by one (or more) generations.
   [gen] is kept, and the patched container carries the node tables of the
   chunks the delta keeps (read under [tree_mutex], like any table).
   Sessions already bound keep serving their immutable snapshot; new
   hellos and [Sync]s see the new generation. *)
let apply_delta t ~id delta =
  with_lock t.registry_mutex @@ fun () ->
  match List.find_opt (fun e -> e.e_id = id) t.entries with
  | None -> Error (Printf.sprintf "unknown container %S" id)
  | Some e -> (
      match
        with_lock t.tree_mutex (fun () ->
            Xmlac_dissem.Delta.apply e.container delta)
      with
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

let telemetry_snapshot t =
  let containers =
    with_lock t.registry_mutex @@ fun () -> List.length t.entries
  in
  Telemetry.snapshot t.telemetry ~containers

(* A fragment's sibling digests, read out of its chunk's node table, and
   whether the container already held the table (a hit) or this request
   built it (a miss); the caller attributes either to its tenant. *)
let siblings t e ~chunk ~fragment =
  let siblings, hit =
    with_lock t.tree_mutex @@ fun () ->
    let hit = C.has_chunk_tree e.container chunk in
    (Merkle.siblings (C.chunk_tree e.container chunk) ~fragment, hit)
  in
  (* linked to the enclosing server.request span via the ambient context;
     the fields are built only when a trace sink is on *)
  if Xmlac_obs.Trace.enabled () then
    Xmlac_obs.Span.event "server.cache"
      [
        ("container", Xmlac_obs.Json.String e.e_id);
        ("chunk", Xmlac_obs.Json.Int chunk);
        ("hit", Xmlac_obs.Json.Bool hit);
      ];
  (siblings, hit)

let err code fmt =
  Printf.ksprintf (fun message -> Protocol.Err { code; message }) fmt

(* The hello reply: [container] ("" selects the session's [binding],
   falling back to the registry default) resolved to an entry, or a
   refusal. Returns the entry so the caller can rebind. *)
let hello_reply t ~binding ~container ~grant_mux ~grant_trace =
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
        Protocol.Hello_ok { e.meta with mux = grant_mux; trace = grant_trace } )

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

(* One request's node-table hits and misses, for its tenant. *)
type tally = { mutable hits : int; mutable misses : int }

(* One decoded data request -> one response, against one bound container.
   Total by construction for in-range requests; [serve_data] turns
   anything unexpected into an [Err] so a hostile request can never kill
   the session thread. *)
let rec handle_request t e tally req =
  let scheme = C.scheme e.container in
  match (req : Protocol.request) with
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
        else
          Protocol.Hash_state
            (C.hash_state e.container ~chunk ~fragment ~upto)
  | Get_siblings { chunk; fragment } ->
      if scheme <> C.Ecb_mht then
        err Protocol.err_unsupported "no Merkle tree under %s"
          (C.scheme_to_string scheme)
      else
        check_fragment e chunk fragment @@ fun () ->
        let siblings, hit = siblings t e ~chunk ~fragment in
        if hit then tally.hits <- tally.hits + 1
        else tally.misses <- tally.misses + 1;
        Protocol.Siblings siblings
  | Batch subs ->
      (* one reply per sub-request, in order; a failing sub becomes its
         own Err item instead of poisoning its batch-mates *)
      Protocol.Batched
        (List.map
           (fun sub ->
             match handle_request t e tally sub with
             | resp -> resp
             | exception e ->
                 err Protocol.err_internal "terminal failure: %s"
                   (Printexc.to_string e))
           subs)
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
        let d =
          Xmlac_dissem.Delta.encode
            (Xmlac_dissem.Delta.of_container ~from_gen:have_gen
               ~revoked:cur.revoked cur.container)
        in
        Telemetry.sync_served t.telemetry ~uptodate:false
          ~bytes:(String.length d);
        Protocol.Sync_delta d
      end
  | Hello _ | Bye | Get_stats ->
      (* [serve_frame] answers these itself, and no batch carries them *)
      err Protocol.err_bad_request "not a data request"

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

(* {2 Sessions}

   Every path that serves requests — a plain connection, each session id
   of a mux connection, the in-process loopback — keeps a [session] per
   SOE session and hands each request frame to [serve_frame]. *)

type session = {
  mutable bound : entry option;  (* container of the last successful hello *)
  mutable trace : string;  (* trace id its server spans link to; "" = none *)
  mutable counted : bool;
      (* telemetry has counted it, which happens at its first data request
         after a hello: a mux probe or an admin-plane hello is no SOE
         session *)
}

type framing =
  | Plain  (* one session; a hello asking for mux switches to [Muxed] *)
  | Muxed of { traced : bool }
      (* every frame carries a session id, and a span id when [traced] *)
  | Loopback  (* in-process and plain for good: mux is never granted *)

type conn = {
  srv : t;
  local : bool;  (* the peer is provably local: the admin plane answers *)
  mutable framing : framing;
  plain : session;  (* the plain-framed session; mux sessions start from it *)
  sessions : (int, session) Hashtbl.t;  (* open mux sessions by id *)
  max_mux_sessions : int;
}

let max_mux_sessions_default = 256

let make_conn ?(max_mux_sessions = max_mux_sessions_default) t ~local framing =
  {
    srv = t;
    local;
    framing;
    plain = { bound = default_entry t; trace = ""; counted = false };
    sessions = Hashtbl.create 8;
    max_mux_sessions;
  }

(* One data request end to end: handle under a server span, encode, and
   attribute outcome / reply bytes / node-table hits and misses / service
   wall time to the bound tenant — recorded before the caller writes the
   reply, so any later snapshot covers it. *)
let serve_data c s ~sid ~client_span req =
  let t0 = Xmlac_obs.Span.now () in
  let tally = { hits = 0; misses = 0 } in
  let resp =
    with_server_span ~trace:s.trace ~client_span ~sid ~kind:(request_kind req)
      (fun () ->
        match s.bound with
        | None -> err Protocol.err_unsupported "no container published"
        | Some e -> (
            match handle_request c.srv e tally req with
            | resp -> resp
            | exception e ->
                err Protocol.err_internal "terminal failure: %s"
                  (Printexc.to_string e)))
  in
  let encoded = Protocol.encode_response resp in
  (match s.bound with
  | Some e ->
      if not s.counted then begin
        s.counted <- true;
        Telemetry.session c.srv.telemetry ~tenant:e.e_id ~generation:e.gen
      end;
      Telemetry.record c.srv.telemetry ~tenant:e.e_id
        ~ok:(match resp with Protocol.Err _ -> false | _ -> true)
        ~reply_bytes:(String.length encoded) ~cache_hits:tally.hits
        ~cache_misses:tally.misses
        ~service_s:(Float.max 0. (Xmlac_obs.Span.now () -. t0))
  | None -> ());
  encoded

(* The admin-plane reply: a telemetry snapshot, only ever for a provably
   local peer. *)
let stats_reply c =
  if not c.local then
    err Protocol.err_unsupported "stats are served only on local transports"
  else Protocol.Stats_reply (Telemetry.to_string (telemetry_snapshot c.srv))

(* The one serving dispatch: a raw request payload of session [sid] (0 on
   plain framing) -> the encoded reply, and whether the connection should
   close. Total: decode failures become [Err] replies, so the fuzz
   boundary can assert that no byte string whatsoever raises out of
   here. [client_span] is the client's request span the server span
   names as parent (0 = none). *)
let serve_frame c ~sid ~client_span payload =
  let t = c.srv in
  let s =
    match Hashtbl.find_opt c.sessions sid with Some s -> s | None -> c.plain
  in
  let reply resp = (Protocol.encode_response resp, false) in
  match Protocol.decode_request payload with
  | Protocol.Hello { container; mux; trace } ->
      let fresh =
        match c.framing with
        | Muxed _ -> not (Hashtbl.mem c.sessions sid)
        | Plain | Loopback -> false
      in
      if fresh && Hashtbl.length c.sessions >= c.max_mux_sessions then begin
        Telemetry.busy_rejected t.telemetry;
        reply
          (err Protocol.err_busy "connection at its session cap (%d)"
             c.max_mux_sessions)
      end
      else begin
        (* a plain connection gets the mux grant it asks for; inside a mux
           connection every reply carries it; the loopback never switches.
           A trace id is linkable unless the mux framing carries no span
           ids. *)
        let grant_mux, grant_trace =
          match c.framing with
          | Plain -> (mux, trace <> "")
          | Muxed { traced } -> (true, traced && trace <> "")
          | Loopback -> (false, trace <> "")
        in
        let resolved, resp =
          hello_reply t ~binding:s.bound ~container ~grant_mux ~grant_trace
        in
        (match resolved with
        | Some e ->
            let s =
              if not fresh then s
              else begin
                Telemetry.mux_opened t.telemetry;
                let fresh_s = { s with bound = None } in
                Hashtbl.replace c.sessions sid fresh_s;
                fresh_s
              end
            in
            s.bound <- Some e;
            s.counted <- false;
            if grant_trace then s.trace <- trace;
            if grant_mux && c.framing = Plain then
              c.framing <- Muxed { traced = s.trace <> "" }
        | None -> ());
        reply resp
      end
  | Protocol.Bye -> (
      match c.framing with
      | Muxed _ ->
          (* retires just this session; the connection stays up *)
          if Hashtbl.mem c.sessions sid then begin
            Telemetry.mux_retired t.telemetry;
            Hashtbl.remove c.sessions sid
          end;
          reply Protocol.Bye_ok
      | Plain | Loopback -> (Protocol.encode_response Protocol.Bye_ok, true))
  | Protocol.Get_stats -> reply (stats_reply c)
  | req -> (serve_data c s ~sid ~client_span req, false)
  | exception Error.Wire e ->
      reply
        (Protocol.Err
           { code = Protocol.err_bad_request; message = Error.to_string e })

let handle_frame t payload =
  serve_frame (make_conn t ~local:false Loopback) ~sid:0 ~client_span:0 payload

(* {2 Serving loops} *)

(* One connection to completion. Frames of one connection are served in
   arrival order — fleet concurrency comes from many connections, each a
   thread. Once a hello switched it to mux framing, every frame carries a
   session id (and, traced, the client's span id, echoed in the reply);
   [Bye] then retires one session and the connection ends only when the
   peer goes away. *)
let serve_connection ?max_mux_sessions t transport =
  let c =
    make_conn ?max_mux_sessions t ~local:(Transport.local transport) Plain
  in
  Telemetry.connection_admitted t.telemetry;
  let max_payload = Frame.max_request_payload in
  let rec loop () =
    match c.framing with
    | Muxed { traced } ->
        let sid, span, payload =
          Frame.read_mux ~max_payload ~traced transport
        in
        let reply, _ = serve_frame c ~sid ~client_span:span payload in
        let span = if traced then Some span else None in
        Transport.write transport (Frame.encode_mux ~sid ?span reply);
        loop ()
    | Plain | Loopback ->
        let payload = Frame.read ~max_payload transport in
        (* the reply to a hello granting mux still travels plain-framed *)
        let reply, closing = serve_frame c ~sid:0 ~client_span:0 payload in
        Transport.write transport (Frame.encode reply);
        if not closing then loop ()
  in
  (* a peer that goes away, times out or breaks framing ends the
     connection *)
  (try loop () with _ -> ());
  Transport.close transport;
  Telemetry.connection_closed t.telemetry

(* In-process terminal: requests are served synchronously inside the
   client's write, replies drain from a per-connection outbox. Hermetic —
   no sockets, no threads required — yet it exercises the full encode /
   frame / decode path on both sides. Plain-framed for good: a hello
   asking for mux is answered with [mux = false]. Traces are granted: the
   server work runs inside the client's open [wire.request] span, so
   server.request spans link to it straight from the ambient context. *)
let loopback_connector t () =
  let outbox = ref "" in
  let opos = ref 0 in
  let finished = ref false in
  let c = make_conn t ~local:true Loopback in
  Telemetry.connection_admitted t.telemetry;
  let closed = ref false in
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
          let client_span =
            if c.plain.trace = "" then 0
            else Option.value (Xmlac_obs.Context.current_span ()) ~default:0
          in
          let reply, closing = serve_frame c ~sid:0 ~client_span payload in
          append (Frame.encode reply);
          if closing then finished := true
        done
      with Error.Wire _ ->
        (* a client that cannot even frame its request gets cut off *)
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
      Telemetry.connection_closed t.telemetry
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
  Transport.close transport

let serve ?(max_sessions = 64) ?(domains = 1) ?timeout_s ?stop t listener =
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
    if admitted then spawn active (serve_connection t) transport
    else spawn rejecting (reject_busy t ~max_sessions) transport
  in
  (* one acceptor per domain, the caller's included, all racing over one
     non-blocking listener; connection threads are spawned from whichever
     domain wins. Each polls so a flipped stop flag (or a closed listener)
     ends its loop instead of blocking forever in accept. Every domain is
     joined before the first failure (the caller's, then in spawn order)
     is re-raised. *)
  Transport.set_nonblocking listener;
  let rec accept_loop () =
    if not (stopped ()) then
      match
        if Transport.wait_readable listener then
          Transport.accept_opt ?timeout_s listener
        else None
      with
      | Some transport ->
          dispatch transport;
          accept_loop ()
      | None -> accept_loop ()
      | exception Error.Wire _ ->
          (* listener closed: fall through to drain *)
          ()
  in
  let acceptor () =
    match accept_loop () with () -> None | exception e -> Some e
  in
  let spawned =
    List.init (max 0 (domains - 1)) (fun _ -> Domain.spawn acceptor)
  in
  let own = acceptor () in
  List.iter
    (function Some e -> raise e | None -> ())
    (own :: List.map Domain.join spawned);
  Mutex.lock m;
  while !active > 0 || !rejecting > 0 do
    Condition.wait cond m
  done;
  Mutex.unlock m
