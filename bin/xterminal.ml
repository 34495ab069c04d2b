(* xterminal — the untrusted terminal of the paper's architecture: holds
   published containers (ciphertext only, no keys) and serves them to SOE
   clients over the framed wire protocol, many sessions concurrently.

     xterminal -i doc.xac --listen unix:/tmp/doc.sock
     xterminal -i records=a.xac -i billing=b.xac --listen tcp:127.0.0.1:7007
     xacml view --remote unix:/tmp/doc.sock --rule '+//a'

   Each [-i] publishes one container under an id ([ID=PATH], or the file's
   basename without extension for a bare PATH); clients name the id in
   their hello, or omit it to get the first one published. SIGHUP
   re-reads every -i file (and the --revoked list) and republishes —
   the dissemination path: a publisher overwrites the container file
   with `xacml publish-update`, signals the terminal, and syncing
   clients pull the chunk delta on their next Sync. SIGINT/SIGTERM stop
   the accept loop, drain in-flight sessions, unlink a Unix socket file
   and exit 0. *)

open Cmdliner
module Wire = Xmlac_wire
module Container = Xmlac_crypto.Secure_container

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("xterminal: " ^ msg);
      exit 2)
    fmt

let input_arg =
  Arg.(
    non_empty & opt_all string []
    & info [ "i"; "input" ] ~docv:"[ID=]FILE"
        ~doc:
          "Published container to serve; repeatable. ID names the \
           container in client hellos (default: the file's basename \
           without extension).")

let listen_arg =
  Arg.(
    value
    & opt string "tcp:127.0.0.1:0"
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Address to listen on: unix:PATH or tcp:HOST:PORT (port 0 picks \
           a free port, printed on startup).")

let sessions_arg =
  Arg.(
    value & opt int 64
    & info [ "sessions" ] ~docv:"N" ~doc:"Maximum concurrent sessions.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Per-connection read/write timeout.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the telemetry snapshot and the registry cache counters on \
           shutdown (stderr).")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Accept/dispatch loops racing on the listener (default 1).")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Export the telemetry snapshot (JSON, schema xwtp.telemetry.v1) \
           to FILE periodically and on shutdown; written atomically \
           (tmp+rename). SIGUSR1 forces an immediate export.")

let telemetry_interval_arg =
  Arg.(
    value & opt float 2.0
    & info [ "telemetry-interval" ] ~docv:"SECONDS"
        ~doc:"Seconds between telemetry exports (default 2).")

let revoked_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "revoked" ] ~docv:"FILE"
        ~doc:
          "Revocation list: one subject per line (# comments allowed), \
           re-read on SIGHUP and distributed to syncing clients on every \
           chunk delta.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write server-side trace events (server.request spans, cache \
           events) as JSONL to FILE; clients that negotiate trace \
           propagation get their request timelines linked here.")

(* "ID=PATH" or bare "PATH" (id = basename without extension) *)
let parse_input spec =
  match String.index_opt spec '=' with
  | Some i when i > 0 ->
      (String.sub spec 0 i,
       String.sub spec (i + 1) (String.length spec - i - 1))
  | _ -> (Filename.remove_extension (Filename.basename spec), spec)

(* Atomic snapshot export: write to a sibling tmp file, then rename, so a
   poller (xtop) never reads a torn document. *)
let export_telemetry server path =
  let json = Wire.Telemetry.to_string (Wire.Server.telemetry_snapshot server) in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc json;
      output_char oc '\n');
  Sys.rename tmp path

let read_revoked = function
  | None -> []
  | Some path ->
      String.split_on_char '\n' (read_file path)
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* The snapshot as aligned "name value" lines: server-wide counters, then
   each tenant's, then the shared cache. *)
let render_telemetry (v : Wire.Telemetry.view) =
  let module M = Xmlac_obs.Metrics in
  let sr = v.Wire.Telemetry.server in
  M.render
    (M.prefix "server"
       M.
         [
           int "admitted" sr.Wire.Telemetry.sr_admitted;
           int "active" sr.sr_active;
           int "busy_rejections" sr.sr_busy_rejections;
           int "mux_opened" sr.sr_mux_opened;
           int "mux_retired" sr.sr_mux_retired;
           int "requests" sr.sr_requests;
           int "republishes" sr.sr_republishes;
           int "syncs" sr.sr_syncs;
           int "sync_uptodate" sr.sr_sync_uptodate;
           int "delta_bytes" sr.sr_delta_bytes;
           int "containers" sr.sr_containers;
         ]
    @ List.concat_map
        (fun (tv : Wire.Telemetry.tenant_view) ->
          M.prefix ("tenant." ^ tv.tv_id)
            M.
              [
                int "generation" tv.tv_generation;
                int "sessions" tv.tv_sessions;
                int "requests" tv.tv_requests;
                int "errors" tv.tv_errors;
                int "cache_hits" tv.tv_cache_hits;
                int "cache_misses" tv.tv_cache_misses;
                int "reply_bytes" tv.tv_reply_bytes;
                float "service_p50_s" tv.tv_service.sv_p50_s;
                float "service_p99_s" tv.tv_service.sv_p99_s;
              ])
        v.tenants
    @ M.prefix "registry_cache"
        M.
          [
            int "hits" sr.sr_cache_hits;
            int "misses" sr.sr_cache_misses;
          ])

let run inputs listen sessions timeout stats_flag domains telemetry_file
    telemetry_interval revoked_file trace_file =
  if domains < 1 then die "--domains must be >= 1";
  if telemetry_interval <= 0. then die "--telemetry-interval must be positive";
  let server = Wire.Server.create () in
  let publish_all ~fatal =
    let revoked =
      match read_revoked revoked_file with
      | l -> l
      | exception Sys_error msg ->
          if fatal then die "--revoked %s" msg
          else begin
            Printf.eprintf "xterminal: reload: --revoked %s\n%!" msg;
            []
          end
    in
    List.iter
      (fun spec ->
        let id, path = parse_input spec in
        let oops fmt =
          Printf.ksprintf
            (fun msg ->
              if fatal then die "%s" msg
              else Printf.eprintf "xterminal: reload: %s\n%!" msg)
            fmt
        in
        if not (Sys.file_exists path) then oops "%s: no such file" path
        else
          match Container.of_bytes (read_file path) with
          | c -> (
              match Wire.Server.publish server ~revoked ~id c with
              | () -> ()
              | exception Invalid_argument msg -> oops "-i %s: %s" spec msg)
          | exception Container.Corrupt msg ->
              oops "%s: corrupt container: %s" path msg
          | exception Sys_error msg -> oops "%s" msg)
      inputs
  in
  publish_all ~fatal:true;
  let addr =
    match Wire.Transport.parse_addr listen with
    | Ok a -> a
    | Error e -> die "--listen %s" e
  in
  let listener = Wire.Transport.listen addr in
  let stop = ref false in
  let on_signal _ = stop := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  (* signals only flip flags; the maintenance thread does the file I/O *)
  let dump_requested = ref false in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump_requested := true));
  let reload_requested = ref false in
  Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> reload_requested := true));
  let export_once () =
    match telemetry_file with
    | Some path -> (
        try export_telemetry server path
        with Sys_error msg ->
          Printf.eprintf "xterminal: telemetry export: %s\n%!" msg)
    | None ->
        (* no export file: a SIGUSR1 dump goes to stderr *)
        Printf.eprintf "%s\n%!"
          (Wire.Telemetry.to_string (Wire.Server.telemetry_snapshot server))
  in
  let exporter =
    Thread.create
      (fun () ->
        let last = ref (Unix.gettimeofday ()) in
        while not !stop do
          Thread.delay 0.2;
          if !reload_requested then begin
            reload_requested := false;
            publish_all ~fatal:false;
            List.iter
              (fun id ->
                match Wire.Server.metadata_of server id with
                | None -> ()
                | Some meta ->
                    Printf.eprintf
                      "xterminal: reloaded %s: generation %d, key epoch %d\n%!"
                      id meta.Wire.Protocol.generation
                      meta.Wire.Protocol.key_epoch)
              (Wire.Server.container_ids server)
          end;
          let now = Unix.gettimeofday () in
          let periodic =
            telemetry_file <> None && now -. !last >= telemetry_interval
          in
          if !dump_requested || periodic then begin
            dump_requested := false;
            last := now;
            export_once ()
          end
        done)
      ()
  in
  Printf.printf "xterminal: serving on %s (%d domain%s)\n%!"
    (Wire.Transport.addr_to_string (Wire.Transport.bound_addr listener))
    domains
    (if domains = 1 then "" else "s");
  List.iter
    (fun id ->
      match Wire.Server.metadata_of server id with
      | None -> ()
      | Some meta ->
          Printf.printf "xterminal:   %s: %s, %d chunks%s\n%!" id
            (Container.scheme_to_string meta.Wire.Protocol.scheme)
            meta.Wire.Protocol.chunk_count
            (if meta.Wire.Protocol.integrity then "" else ", no integrity"))
    (Wire.Server.container_ids server);
  (* the accept loop polls [stop], so a signal lands within ~0.2 s; a
     transport error on a closed listener ends the loop the same way *)
  let serve () =
    try
      Wire.Server.serve ~max_sessions:sessions ~domains
        ?timeout_s:timeout ~stop server listener
    with Wire.Error.Wire _ -> ()
  in
  (match trace_file with
  | None -> serve ()
  | Some path -> Xmlac_obs.Trace.with_jsonl_file path serve);
  stop := true;
  Thread.join exporter;
  (match telemetry_file with Some _ -> export_once () | None -> ());
  Wire.Transport.close_listener listener;
  (* shutdown summary: the counters an operator actually asks about first *)
  let view = Wire.Server.telemetry_snapshot server in
  let sr = view.Wire.Telemetry.server in
  Printf.eprintf
    "xterminal: served %d requests over %d connections (%d busy-rejected), \
     shared cache %d hits / %d misses\n\
     %!"
    sr.Wire.Telemetry.sr_requests sr.Wire.Telemetry.sr_admitted
    sr.Wire.Telemetry.sr_busy_rejections sr.Wire.Telemetry.sr_cache_hits
    sr.Wire.Telemetry.sr_cache_misses;
  if stats_flag then List.iter (Printf.eprintf "%s\n") (render_telemetry view)

let () =
  let cmd =
    Cmd.v
      (Cmd.info "xterminal" ~version:"1.2.0"
         ~doc:
           "Serve published containers to SOE clients over the wire \
            protocol (the untrusted terminal of the paper's architecture).")
      Term.(
        const run $ input_arg $ listen_arg $ sessions_arg $ timeout_arg
        $ stats_arg $ domains_arg $ telemetry_arg
        $ telemetry_interval_arg $ revoked_arg $ trace_arg)
  in
  exit (Cmd.eval cmd)
