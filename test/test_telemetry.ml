(* Tests for the fleet-telemetry subsystem: the snapshot JSON codec under
   round trips and hostile input, the admin-plane [Get_stats] frame
   cross-checked against the server's own registry, its local-only gating,
   and cross-wire trace propagation — one merged JSONL file must
   reconstruct a client→server→client timeline for every tenant. *)

open Xmlac_soe
module Wire = Xmlac_wire
module Telemetry = Xmlac_wire.Telemetry
module Container = Xmlac_crypto.Secure_container
module Layout = Xmlac_skip_index.Layout
module Hospital = Xmlac_workload.Hospital
module Profiles = Xmlac_workload.Profiles
module Json = Xmlac_obs.Json
module Trace = Xmlac_obs.Trace

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let hospital =
  Hospital.generate ~seed:11
    ~config:{ Hospital.default_config with folders = 6 }
    ()

let cfg scheme =
  let c = Session.default_config ~scheme () in
  { c with Session.chunk_size = 512; fragment_size = 64 }

let events_string (m : Session.measurement) =
  Xmlac_xml.Writer.events_to_string m.Session.events

(* a two-tenant server: the same document published under both ids, so
   per-tenant attribution (not content) is what distinguishes them *)
let tenants = [ "alpha"; "beta" ]

let two_tenant_server () =
  let published =
    Session.publish (cfg Container.Ecb_mht) ~layout:Layout.Tcsbr hospital
  in
  let server = Wire.Server.create () in
  List.iter
    (fun id -> Wire.Server.publish server ~id published.Session.container)
    tenants;
  server

let near tol a b = Float.abs (a -. b) <= tol

let check_views_agree (frame : Telemetry.view) (own : Telemetry.view) =
  check int_t "same tenant count" (List.length own.Telemetry.tenants)
    (List.length frame.Telemetry.tenants);
  List.iter2
    (fun (f : Telemetry.tenant_view) (o : Telemetry.tenant_view) ->
      check string_t "tenant id" o.Telemetry.tv_id f.Telemetry.tv_id;
      check int_t "tenant generation" o.tv_generation f.tv_generation;
      check int_t "tenant sessions" o.tv_sessions f.tv_sessions;
      check int_t "tenant requests" o.tv_requests f.tv_requests;
      check int_t "tenant errors" o.tv_errors f.tv_errors;
      check int_t "tenant cache hits" o.tv_cache_hits f.tv_cache_hits;
      check int_t "tenant cache misses" o.tv_cache_misses f.tv_cache_misses;
      check int_t "tenant reply bytes" o.tv_reply_bytes f.tv_reply_bytes;
      check int_t "service count" o.tv_service.Telemetry.sv_count
        f.tv_service.Telemetry.sv_count;
      (* float quantiles survive one JSON round trip of the same snapshot *)
      check bool_t "service p50 agrees" true
        (near 1e-9 o.tv_service.Telemetry.sv_p50_s
           f.tv_service.Telemetry.sv_p50_s);
      check bool_t "service p99 agrees" true
        (near 1e-9 o.tv_service.Telemetry.sv_p99_s
           f.tv_service.Telemetry.sv_p99_s))
    frame.Telemetry.tenants own.Telemetry.tenants;
  check int_t "server requests" own.Telemetry.server.Telemetry.sr_requests
    frame.Telemetry.server.Telemetry.sr_requests;
  check int_t "server admitted" own.Telemetry.server.Telemetry.sr_admitted
    frame.Telemetry.server.Telemetry.sr_admitted

(* The Stats frame against the registry's own snapshot ------------------- *)

let test_stats_frame_cross_check () =
  let server = two_tenant_server () in
  let cfg0 = cfg Container.Ecb_mht in
  (* one SOE session per tenant, so both rows carry real traffic *)
  List.iter
    (fun id ->
      let r =
        Remote.connect ~container:id (Wire.Server.loopback_connector server)
      in
      let m = Session.evaluate_remote cfg0 r (Profiles.doctor ~user:"dr00") in
      check bool_t "session produced output" true
        (String.length (events_string m) > 0);
      Remote.close r)
    tenants;
  let admin = Wire.Client.connect (Wire.Server.loopback_connector server) in
  let doc = Wire.Client.fetch_stats admin in
  let frame =
    match Telemetry.of_string doc with
    | Ok v -> v
    | Error e -> Alcotest.failf "stats reply did not decode: %s" e
  in
  (* the server's own snapshot, taken while the admin connection is still
     open so the active count matches the frame's *)
  let own = Wire.Server.telemetry_snapshot server in
  check_views_agree frame own;
  (* and the numbers are live, not a zeroed shell *)
  check int_t "both tenants present" 2 (List.length frame.Telemetry.tenants);
  List.iter
    (fun (tv : Telemetry.tenant_view) ->
      check bool_t "tenant saw requests" true (tv.Telemetry.tv_requests > 0);
      check bool_t "tenant saw a session" true (tv.Telemetry.tv_sessions >= 1);
      check bool_t "reply bytes counted" true (tv.Telemetry.tv_reply_bytes > 0);
      check int_t "service histogram counted every request"
        tv.Telemetry.tv_requests tv.Telemetry.tv_service.Telemetry.sv_count;
      check bool_t "quantiles ordered" true
        (tv.Telemetry.tv_service.Telemetry.sv_p50_s
        <= tv.Telemetry.tv_service.Telemetry.sv_p99_s))
    frame.Telemetry.tenants;
  check int_t "two containers" 2 frame.Telemetry.server.Telemetry.sr_containers;
  check bool_t "admissions counted" true
    (frame.Telemetry.server.Telemetry.sr_admitted >= 3);
  Wire.Client.close admin

(* JSON codec: round trip and hostile input ------------------------------ *)

let test_snapshot_roundtrip () =
  let server = two_tenant_server () in
  let r =
    Remote.connect ~container:"beta" (Wire.Server.loopback_connector server)
  in
  let (_ : Session.measurement) =
    Session.evaluate_remote (cfg Container.Ecb_mht) r Profiles.secretary
  in
  Remote.close r;
  let v = Wire.Server.telemetry_snapshot server in
  match Telemetry.of_string (Telemetry.to_string v) with
  | Error e -> Alcotest.failf "snapshot did not round-trip: %s" e
  | Ok v' ->
      (* re-encoding the decoded view is byte-identical: the codec is its
         own canonical form *)
      check string_t "canonical round trip" (Telemetry.to_string v)
        (Telemetry.to_string v');
      check int_t "tenant rows preserved" (List.length v.Telemetry.tenants)
        (List.length v'.Telemetry.tenants);
      let sum f = List.fold_left (fun acc tv -> acc + f tv) 0 v.tenants in
      check
        Alcotest.(pair int int)
        "server hits and misses are the tenants' sums"
        ( sum (fun tv -> tv.Telemetry.tv_cache_hits),
          sum (fun tv -> tv.Telemetry.tv_cache_misses) )
        ( v.Telemetry.server.Telemetry.sr_cache_hits,
          v.Telemetry.server.Telemetry.sr_cache_misses );
      (* a snapshot of a build that still counted evictions decodes: the
         decoder ignores fields it does not know *)
      let with_evicted =
        match Telemetry.to_json v with
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (function
                   | "server", Json.Obj sf ->
                       ("server", Json.Obj (sf @ [ ("cache_evicted", Json.Int 3) ]))
                   | f -> f)
                 fields)
        | j -> j
      in
      match Telemetry.of_json with_evicted with
      | Ok v'' ->
          check string_t "older snapshot decodes" (Telemetry.to_string v)
            (Telemetry.to_string v'')
      | Error e -> Alcotest.failf "older snapshot rejected: %s" e

let test_hostile_snapshot_rejected () =
  let reject label doc =
    match Telemetry.of_string doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must not decode" label
  in
  reject "empty input" "";
  reject "non-JSON" "not json at all";
  reject "missing schema" "{}";
  reject "wrong schema" "{\"schema\":\"xwtp.telemetry.v999\"}";
  reject "missing server block" "{\"schema\":\"xwtp.telemetry.v1\"}";
  (* a structurally valid document with one counter flipped negative *)
  let server = two_tenant_server () in
  let v = Wire.Server.telemetry_snapshot server in
  let mutate = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "server", Json.Obj sf ->
                   ( "server",
                     Json.Obj
                       (List.map
                          (function
                            | "admitted", Json.Int _ ->
                                ("admitted", Json.Int (-1))
                            | f -> f)
                          sf) )
               | f -> f)
             fields)
    | j -> j
  in
  reject "negative counter" (Json.to_string (mutate (Telemetry.to_json v)));
  (* tenants must be a list, not a scalar *)
  let break_tenants = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "tenants", _ -> ("tenants", Json.Int 3) | f -> f)
             fields)
    | j -> j
  in
  reject "scalar tenants"
    (Json.to_string (break_tenants (Telemetry.to_json v)))

(* Local-only gating ------------------------------------------------------ *)

(* A full-duplex in-memory pipe pair; neither end claims [local], so the
   server side sees exactly what it would see from an off-box peer. *)
let pipe_pair () =
  let c2s_r, c2s_w = Unix.pipe () in
  let s2c_r, s2c_w = Unix.pipe () in
  let mk r w peer =
    Wire.Transport.make
      ~read:(fun buf off len -> Unix.read r buf off len)
      ~write:(fun s ->
        let b = Bytes.unsafe_of_string s in
        let rec go off =
          if off < Bytes.length b then
            go (off + Unix.write w b off (Bytes.length b - off))
        in
        go 0)
      ~close:(fun () ->
        (try Unix.close r with Unix.Unix_error _ -> ());
        try Unix.close w with Unix.Unix_error _ -> ())
      ~peer ()
  in
  (mk s2c_r c2s_w "pipe-client", mk c2s_r s2c_w "pipe-server")

let test_stats_requires_local () =
  let server = two_tenant_server () in
  (* the loopback connector is local by construction: stats are served *)
  let admin = Wire.Client.connect (Wire.Server.loopback_connector server) in
  check bool_t "local transport gets stats" true
    (String.length (Wire.Client.fetch_stats admin) > 0);
  Wire.Client.close admin;
  (* the same server over a non-local transport refuses, with the session
     otherwise intact *)
  let client_tr, server_tr = pipe_pair () in
  check bool_t "pipe transport is not local" false
    (Wire.Transport.local server_tr);
  let th =
    Thread.create (fun () -> Wire.Server.serve_connection server server_tr) ()
  in
  let c = Wire.Client.connect (fun () -> client_tr) in
  (match Wire.Client.fetch_stats c with
  | (_ : string) -> Alcotest.fail "non-local transport was served stats"
  | exception Wire.Error.Wire (Wire.Error.Server { code; _ }) ->
      check int_t "refused as unsupported" Wire.Protocol.err_unsupported code);
  (* the refusal is a reply, not a hang-up: data requests still work *)
  check bool_t "session still serves data" true
    (String.length (Wire.Client.fetch_digest c ~chunk:0) > 0);
  Wire.Client.close c;
  Thread.join th

(* Cross-wire trace timeline --------------------------------------------- *)

type span_event = {
  ev_name : string;  (* "span.start" / "span.end" / point-event name *)
  ev_span_name : string;
  ev_trace : string;
  ev_span : int;
  ev_parent : int option;
}

let parse_trace_file path =
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin path In_channel.input_all)
    |> List.filter (fun l -> String.trim l <> "")
  in
  List.filter_map
    (fun line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "unparseable trace line: %s: %s" e line
      | Ok j ->
          let str name =
            match Option.bind (Json.member name j) Json.to_string_opt with
            | Some s -> s
            | None -> ""
          in
          let num name =
            Option.bind (Json.member name j) Json.to_int_opt
          in
          Some
            {
              ev_name = str "event";
              ev_span_name = str "name";
              ev_trace = str "trace";
              ev_span = (match num "span" with Some s -> s | None -> 0);
              ev_parent = num "parent";
            })
    lines

(* A traced fleet run over real sockets and mux framing; the single JSONL
   file must link every tenant's client-side wire.request span to a
   server.request span via the frame-carried span id, with both spans
   closed — the acceptance bar for "one trace file reconstructs the
   request timeline across the wire". *)
let test_trace_timeline () =
  let cfg0 = cfg Container.Ecb_mht in
  let published = Session.publish cfg0 ~layout:Layout.Tcsbr hospital in
  let reference =
    events_string (Session.evaluate cfg0 published (Profiles.doctor ~user:"dr00"))
  in
  let server = Wire.Server.create () in
  List.iter
    (fun id -> Wire.Server.publish server ~id published.Session.container)
    tenants;
  let tmp = Filename.temp_file "xmlac_telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Trace.with_jsonl_file tmp (fun () ->
          let listener =
            Wire.Transport.listen (Wire.Transport.Tcp ("127.0.0.1", 0))
          in
          let stop = ref false in
          let th =
            Thread.create
              (fun () ->
                try Wire.Server.serve ~stop server listener
                with Wire.Error.Wire _ -> ())
              ()
          in
          Fun.protect
            ~finally:(fun () ->
              stop := true;
              Thread.join th;
              Wire.Transport.close_listener listener)
            (fun () ->
              let connector () =
                Wire.Transport.connect (Wire.Transport.bound_addr listener)
              in
              let mux = Wire.Mux.connect ~trace:"ep-0" connector in
              List.iter
                (fun id ->
                  let r =
                    Remote.connect ~container:id ~trace_id:("tenant-" ^ id)
                      (Wire.Mux.session mux)
                  in
                  check bool_t "trace granted" true (Remote.trace_granted r);
                  let m =
                    Session.evaluate_remote cfg0 r
                      (Profiles.doctor ~user:"dr00")
                  in
                  check string_t "traced run is byte-identical to local"
                    reference (events_string m);
                  Remote.close r)
                tenants;
              Wire.Mux.close mux));
      (* the server threads have joined and the sink is flushed: judge the
         file *)
      let events = parse_trace_file tmp in
      let ends =
        List.filter_map
          (fun e -> if e.ev_name = "span.end" then Some e.ev_span else None)
          events
      in
      List.iter
        (fun id ->
          let trace = "tenant-" ^ id in
          let client_spans =
            List.filter_map
              (fun e ->
                if
                  e.ev_name = "span.start"
                  && e.ev_span_name = "wire.request"
                  && e.ev_trace = trace
                then Some e.ev_span
                else None)
              events
          in
          check bool_t (trace ^ ": client spans present") true
            (client_spans <> []);
          let linked =
            List.filter
              (fun e ->
                e.ev_name = "span.start"
                && e.ev_span_name = "server.request"
                && e.ev_trace = trace
                && (match e.ev_parent with
                   | Some p -> List.mem p client_spans && List.mem p ends
                   | None -> false)
                && List.mem e.ev_span ends)
              events
          in
          check bool_t (trace ^ ": >=1 fully linked request") true
            (linked <> []);
          (* the SOE side of the same trace: channel phases on the timeline *)
          List.iter
            (fun phase ->
              check bool_t (trace ^ ": " ^ phase ^ " present") true
                (List.exists
                   (fun e -> e.ev_name = phase && e.ev_trace = trace)
                   events))
            [
              "channel.plan"; "channel.fetch"; "channel.compute";
              "channel.commit";
            ])
        tenants;
      (* server-side cache attribution events joined the same file *)
      check bool_t "server cache events present" true
        (List.exists (fun e -> e.ev_name = "server.cache") events))

let () =
  Alcotest.run "telemetry"
    [
      ( "codec",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "hostile snapshot rejected" `Quick
            test_hostile_snapshot_rejected;
        ] );
      ( "admin plane",
        [
          Alcotest.test_case "stats frame cross-check" `Quick
            test_stats_frame_cross_check;
          Alcotest.test_case "stats require a local transport" `Quick
            test_stats_requires_local;
        ] );
      ( "trace",
        [ Alcotest.test_case "cross-wire timeline" `Quick test_trace_timeline ] );
    ]
