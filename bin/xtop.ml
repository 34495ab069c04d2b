(* xtop — live admin plane over a running xterminal's telemetry.

     xtop --remote tcp:127.0.0.1:7007            # live per-tenant table
     xtop --remote unix:/tmp/doc.sock --once --json
     xtop --file /tmp/telemetry.json --once      # read a --telemetry export
     xtop --check-telemetry /tmp/telemetry.json  # CI: validate a snapshot
     xtop --check-trace /tmp/trace.jsonl --require-linked 3

   The remote mode polls the terminal with XWTP [Get_stats] frames — the
   terminal answers those only on local transports (unix socket or
   loopback TCP), so xtop must run on the terminal's machine. The check
   modes validate exported artifacts: a telemetry snapshot must parse
   under schema xwtp.telemetry.v1, and a merged trace file must contain
   client→server linked request timelines (a server.request span whose
   parent is a wire.request span of the same trace, both closed). *)

open Cmdliner
module Wire = Xmlac_wire
module Json = Xmlac_obs.Json
module Telemetry = Xmlac_wire.Telemetry

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("xtop: " ^ msg);
      exit 2)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Rendering ----------------------------------------------------------- *)

let ms s = s *. 1000.

let render_view (v : Telemetry.view) =
  let b = Buffer.create 1024 in
  let sr = v.Telemetry.server in
  Buffer.add_string b
    (Printf.sprintf
       "connections %d active / %d admitted (%d busy-rejected)  mux %d \
        opened / %d retired\n"
       sr.Telemetry.sr_active sr.Telemetry.sr_admitted
       sr.Telemetry.sr_busy_rejections sr.Telemetry.sr_mux_opened
       sr.Telemetry.sr_mux_retired);
  Buffer.add_string b
    (Printf.sprintf
       "requests %d  shared cache %d hits / %d misses  containers %d\n"
       sr.Telemetry.sr_requests sr.Telemetry.sr_cache_hits
       sr.Telemetry.sr_cache_misses sr.Telemetry.sr_containers);
  Buffer.add_string b
    (Printf.sprintf
       "dissem %d republishes  %d syncs (%d up-to-date)  %d delta bytes \
        served\n\n"
       sr.Telemetry.sr_republishes sr.Telemetry.sr_syncs
       sr.Telemetry.sr_sync_uptodate sr.Telemetry.sr_delta_bytes);
  Buffer.add_string b
    (Printf.sprintf "%-20s %4s %5s %8s %6s %8s %8s %10s %8s %8s\n" "TENANT"
       "GEN" "SESS" "REQS" "ERRS" "HITS" "MISSES" "BYTES" "P50ms" "P99ms");
  List.iter
    (fun (t : Telemetry.tenant_view) ->
      let sv = t.Telemetry.tv_service in
      Buffer.add_string b
        (Printf.sprintf "%-20s %4d %5d %8d %6d %8d %8d %10d %8.2f %8.2f\n"
           t.Telemetry.tv_id t.Telemetry.tv_generation t.Telemetry.tv_sessions
           t.Telemetry.tv_requests t.Telemetry.tv_errors
           t.Telemetry.tv_cache_hits t.Telemetry.tv_cache_misses
           t.Telemetry.tv_reply_bytes
           (ms sv.Telemetry.sv_p50_s)
           (ms sv.Telemetry.sv_p99_s)))
    v.Telemetry.tenants;
  if v.Telemetry.tenants = [] then Buffer.add_string b "(no tenant traffic)\n";
  Buffer.contents b

(* Snapshot sources ---------------------------------------------------- *)

let fetch_remote addr =
  let client =
    Wire.Client.connect (fun () -> Wire.Transport.connect addr)
  in
  Fun.protect
    ~finally:(fun () -> Wire.Client.close client)
    (fun () -> Wire.Client.fetch_stats client)

let snapshot_of_json ~source json =
  match Telemetry.of_string json with
  | Ok v -> v
  | Error msg -> die "%s: invalid telemetry snapshot: %s" source msg

(* Trace validation ---------------------------------------------------- *)

type trace_check = {
  tc_events : int;
  tc_traces : int;  (* distinct trace ids seen *)
  tc_linked : int;  (* complete client->server linked request timelines *)
  tc_linked_traces : int;  (* distinct traces with at least one link *)
}

(* A linked request: a [server.request] span.start whose parent is the id
   of a [wire.request] span.start with the same trace id, where both spans
   also closed (a span.end with the same id). *)
let validate_trace path =
  let ic = open_in_bin path in
  let events = ref 0 in
  let client_spans = Hashtbl.create 256 in (* (trace, span) -> () *)
  let closed = Hashtbl.create 256 in (* span id -> () *)
  let server_spans = ref [] in (* (trace, span, parent) *)
  let traces = Hashtbl.create 16 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Json.parse line with
         | Error msg ->
             close_in ic;
             die "%s: bad JSONL line after %d events: %s" path !events msg
         | Ok j ->
             incr events;
             let str k = Option.bind (Json.member k j) Json.to_string_opt in
             let int k = Option.bind (Json.member k j) Json.to_int_opt in
             (match str "trace" with
             | Some t -> Hashtbl.replace traces t ()
             | None -> ());
             (match (str "event", str "name", str "trace", int "span") with
             | Some "span.start", Some "wire.request", Some t, Some s ->
                 Hashtbl.replace client_spans (t, s) ()
             | Some "span.start", Some "server.request", Some t, Some s ->
                 (match int "parent" with
                 | Some p -> server_spans := (t, s, p) :: !server_spans
                 | None -> ())
             | Some "span.end", _, _, Some s -> Hashtbl.replace closed s ()
             | _ -> ())
     done
   with End_of_file -> close_in ic);
  let linked_traces = Hashtbl.create 16 in
  let linked =
    List.length
      (List.filter
         (fun (t, s, p) ->
           let ok =
             Hashtbl.mem client_spans (t, p)
             && Hashtbl.mem closed s && Hashtbl.mem closed p
           in
           if ok then Hashtbl.replace linked_traces t ();
           ok)
         !server_spans)
  in
  {
    tc_events = !events;
    tc_traces = Hashtbl.length traces;
    tc_linked = linked;
    tc_linked_traces = Hashtbl.length linked_traces;
  }

(* Command ------------------------------------------------------------- *)

let remote_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"ADDR"
        ~doc:
          "Poll a running terminal at ADDR (unix:PATH or tcp:HOST:PORT) \
           with Get_stats frames. The terminal only answers on local \
           transports, so run xtop on its machine.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"FILE"
        ~doc:"Poll a --telemetry snapshot file instead of a live terminal.")

let interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "interval" ] ~docv:"SECONDS"
        ~doc:"Seconds between polls (default 1).")

let once_arg =
  Arg.(value & flag & info [ "once" ] ~doc:"Print one snapshot and exit.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the raw snapshot JSON instead of a table.")

let check_telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "check-telemetry" ] ~docv:"FILE"
        ~doc:
          "Validate FILE as an xwtp.telemetry.v1 snapshot and exit 0/1 \
           (for CI).")

let check_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "check-trace" ] ~docv:"FILE"
        ~doc:
          "Validate FILE as a merged JSONL trace and exit 0/1: every line \
           must parse, and the file must contain at least \
           $(b,--require-linked) complete client-to-server linked request \
           timelines.")

let require_linked_arg =
  Arg.(
    value & opt int 1
    & info [ "require-linked" ] ~docv:"N"
        ~doc:
          "Minimum linked request timelines --check-trace accepts \
           (default 1).")

let run remote file interval once json check_telemetry check_trace
    require_linked =
  match (check_telemetry, check_trace) with
  | Some path, _ ->
      let json_text =
        try read_file path with Sys_error msg -> die "%s" msg
      in
      let v = snapshot_of_json ~source:path json_text in
      Printf.printf
        "xtop: %s: valid %s snapshot (%d tenants, %d requests)\n" path
        Telemetry.schema
        (List.length v.Telemetry.tenants)
        v.Telemetry.server.Telemetry.sr_requests;
      exit 0
  | None, Some path ->
      let r = try validate_trace path with Sys_error msg -> die "%s" msg in
      Printf.printf
        "xtop: %s: %d events, %d traces, %d linked requests across %d \
         traces\n"
        path r.tc_events r.tc_traces r.tc_linked r.tc_linked_traces;
      if r.tc_linked < require_linked then begin
        Printf.eprintf
          "xtop: %s: %d linked client->server request timelines, need %d\n"
          path r.tc_linked require_linked;
        exit 1
      end;
      exit 0
  | None, None ->
      if interval <= 0. then die "--interval must be positive";
      let fetch =
        match (remote, file) with
        | Some _, Some _ -> die "--remote and --file are exclusive"
        | Some addr_s, None ->
            let addr =
              match Wire.Transport.parse_addr addr_s with
              | Ok a -> a
              | Error e -> die "--remote %s" e
            in
            fun () -> fetch_remote addr
        | None, Some path -> fun () -> read_file path
        | None, None ->
            die "one of --remote, --file, --check-telemetry, --check-trace \
                 is required"
      in
      let stop = ref false in
      let on_signal _ = stop := true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      let show () =
        match fetch () with
        | json_text ->
            if json then print_string (String.trim json_text ^ "\n")
            else begin
              let v = snapshot_of_json ~source:"snapshot" json_text in
              if not once then print_string "\027[2J\027[H";
              print_string (render_view v)
            end;
            flush stdout;
            true
        | exception Wire.Error.Wire e ->
            Printf.eprintf "xtop: %s\n%!" (Wire.Error.to_string e);
            false
        | exception Sys_error msg ->
            Printf.eprintf "xtop: %s\n%!" msg;
            false
      in
      if once then exit (if show () then 0 else 1)
      else
        while not !stop do
          ignore (show () : bool);
          let slept = ref 0. in
          while (not !stop) && !slept < interval do
            Unix.sleepf 0.1;
            slept := !slept +. 0.1
          done
        done

let () =
  let cmd =
    Cmd.v
      (Cmd.info "xtop" ~version:"1.2.0"
         ~doc:
           "Live per-tenant view of a terminal's telemetry (Get_stats \
            admin frames or --telemetry snapshot files), plus CI \
            validators for exported telemetry and trace artifacts.")
      Term.(
        const run $ remote_arg $ file_arg $ interval_arg $ once_arg
        $ json_arg $ check_telemetry_arg $ check_trace_arg
        $ require_linked_arg)
  in
  exit (Cmd.eval cmd)
