(* xacml — command-line front end to the library.

   Subcommands:
     gen      generate a synthetic workload document
     stats    document characteristics + per-layout index overhead
     publish  encode (Skip index) and encrypt a document into a container
     verify   check a container's integrity
     view     evaluate an authorized view / query over a container
*)

open Cmdliner
module Tree = Xmlac_xml.Tree
module Writer = Xmlac_xml.Writer
module Layout = Xmlac_skip_index.Layout
module Container = Xmlac_crypto.Secure_container
module Policy = Xmlac_core.Policy
module Rule = Xmlac_core.Rule
module Session = Xmlac_soe.Session
module Channel = Xmlac_soe.Channel
module Remote = Xmlac_soe.Remote
module Cost_model = Xmlac_soe.Cost_model
module Wire = Xmlac_wire
module W = Xmlac_workload

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* every output file (documents, containers, licenses, deltas, replicas)
   is replaced atomically, so an interrupted run, an in-place update
   included, leaves the previous file intact *)
let write_file path contents =
  Xmlac_obs.Atomic_file.write path (fun oc -> output_string oc contents)

(* bad command-line input: a one-line usage error on stderr, exit code 2,
   no backtrace *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("xacml: " ^ msg);
      exit 2)
    fmt

(* 24 bytes of 3DES key material derived from a passphrase. Epoch 0 is
   the historical derivation (containers published before key rotation
   existed keep decrypting); later epochs use the publisher's derivation,
   so a rotated container and a license minted with --key-epoch agree. *)
let document_key_bytes ?(epoch = 0) pass =
  if epoch = 0 then
    let h1 = Xmlac_crypto.Sha1.digest pass in
    let h2 = Xmlac_crypto.Sha1.digest (pass ^ "/2") in
    String.sub (h1 ^ h2) 0 24
  else Xmlac_dissem.Publisher.epoch_key_bytes ~master:pass ~epoch

let key_of_passphrase ?epoch pass =
  Xmlac_crypto.Des.Triple.key_of_string (document_key_bytes ?epoch pass)

(* Common arguments --------------------------------------------------------- *)

let input_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input file.")

let output_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")

let passphrase_arg =
  Arg.(
    value
    & opt string "xmlac-demo-passphrase"
    & info [ "k"; "key" ] ~docv:"PASSPHRASE"
        ~doc:"Passphrase from which the 3DES document key is derived.")

(* view/unlock can read the container from a local file or fetch it from a
   remote terminal; with --remote the input file is not needed *)
let input_opt_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE"
        ~doc:"Input container file (omit when using --remote).")

let remote_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"ADDR"
        ~doc:
          "Fetch the container from a terminal at ADDR (unix:PATH or \
           tcp:HOST:PORT, see xterminal) instead of a local file.")

let layout_conv =
  let parse s =
    match Layout.of_string (String.uppercase_ascii s) with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown layout %S" s))
  in
  Arg.conv (parse, fun ppf l -> Fmt.string ppf (Layout.to_string l))

let scheme_conv =
  let parse s =
    match Container.scheme_of_string (String.uppercase_ascii s) with
    | Some x -> Ok x
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Container.scheme_to_string s))

let expect_scheme_arg =
  Arg.(
    value
    & opt (some scheme_conv) None
    & info [ "expect-scheme" ] ~docv:"SCHEME"
        ~doc:
          "With --remote: refuse the handshake unless the terminal \
           advertises SCHEME — guards against a terminal downgrading the \
           integrity scheme.")

let container_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "container" ] ~docv:"ID"
        ~doc:
          "With --remote: bind to the published container named ID on a \
           multi-tenant terminal (default: the terminal's first \
           published container).")

(* Open the SOE byte source for view/unlock: a local container file or a
   remote terminal session. [key_for] maps the container's key epoch (0
   until the first key rotation; a remote terminal advertises it in its
   hello reply) to the document key — passphrase-derived per epoch for
   view, the
   license's fixed key for unlock. Returns the source, the scheme it
   speaks, the epoch, and the session to close when done. *)
let open_source ?trace_id ~input ~remote ~container ~expect_scheme ~key_for
    counters =
  match remote with
  | Some addr_str ->
      let addr =
        match Wire.Transport.parse_addr addr_str with
        | Ok a -> a
        | Error e -> die "--remote %s" e
      in
      let r =
        Remote.connect ?container ?trace_id ?expect_scheme (fun () ->
            Wire.Transport.connect addr)
      in
      let meta = Remote.metadata r in
      let epoch = meta.Wire.Protocol.key_epoch in
      let source = Remote.source r ~key:(key_for epoch) counters in
      (source, meta.Wire.Protocol.scheme, epoch, Some r)
  | None -> (
      match input with
      | None -> die "no container: give --input FILE or --remote ADDR"
      | Some f ->
          let container = Container.of_bytes (read_file f) in
          let epoch = Container.key_epoch container in
          let source =
            Channel.source ~container ~key:(key_for epoch) counters
          in
          (source, Container.scheme container, epoch, None))

(* the paper's schemes silently skip verification under plain ECB; say so
   instead of letting --stats quietly report zero hashed bytes *)
let warn_no_integrity ~scheme counters =
  if
    counters.Channel.verify_requested
    && not counters.Channel.verify_active
  then
    Printf.eprintf
      "xacml: note: %s supports no verification — integrity checking \
       disabled for this run\n"
      (Container.scheme_to_string scheme)

(* policy assembly, shared by view and explain *)

let rules_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "r"; "rule" ] ~docv:"RULE"
        ~doc:
          "Access rule: a sign (+ or -) followed by an XPath, e.g. \
           '+//meeting' or '-//private'. Repeatable.")

let policy_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "policy" ] ~docv:"FILE"
        ~doc:
          "Policy file: one rule per line, '<id> <+|-> <xpath>', # \
           comments allowed. Combined with any --rule options.")

let query_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"XPATH" ~doc:"Optional query on the view.")

let user_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "user" ] ~docv:"NAME" ~doc:"Value for the USER variable.")

let parse_rule_spec i spec =
  if String.length spec < 2 then
    die "--rule %S: too short (expected +XPATH or -XPATH)" spec
  else
    let sign =
      match spec.[0] with
      | '+' -> Rule.Permit
      | '-' -> Rule.Deny
      | _ -> die "--rule %S: must start with + or -" spec
    in
    match
      Rule.parse ~id:(Printf.sprintf "cli%d" i) ~sign
        (String.sub spec 1 (String.length spec - 1))
    with
    | rule -> rule
    | exception Xmlac_xpath.Parse.Error (reason, pos) ->
        die "--rule %S: invalid XPath at %d: %s" spec pos reason

let assemble_policy ~rules ~policy_file ~user =
  let file_rules =
    match policy_file with
    | None -> []
    | Some f -> (
        match Policy.of_string (read_file f) with
        | Ok p -> Policy.rules p
        | Error e -> die "--policy %s: %s" f e)
  in
  let cli_rules = List.mapi parse_rule_spec rules in
  if file_rules = [] && cli_rules = [] then
    die "no rules: give --rule and/or --policy";
  let policy = Policy.make (file_rules @ cli_rules) in
  let policy =
    match user with
    | Some u -> Policy.resolve_user ~user:u policy
    | None -> policy
  in
  (match Policy.streaming_compatible policy with
  | Ok () -> ()
  | Error msg -> die "policy: %s" msg);
  policy

(* gen ----------------------------------------------------------------------- *)

let gen_cmd =
  let kind_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "hospital" -> Ok W.Datasets.Hospital_doc
      | "wsu" -> Ok W.Datasets.Wsu
      | "sigmod" -> Ok W.Datasets.Sigmod
      | "treebank" -> Ok W.Datasets.Treebank
      | _ -> Error (`Msg "kind must be hospital|wsu|sigmod|treebank")
    in
    Arg.conv (parse, fun ppf k -> Fmt.string ppf (W.Datasets.name k))
  in
  let kind =
    Arg.(
      value
      & opt kind_conv W.Datasets.Hospital_doc
      & info [ "kind" ] ~docv:"KIND" ~doc:"hospital, wsu, sigmod or treebank.")
  in
  let bytes =
    Arg.(
      value & opt int 500_000
      & info [ "bytes" ] ~docv:"N" ~doc:"Approximate XML size to generate.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let run kind bytes seed output =
    let doc = W.Datasets.generate kind ~seed ~target_bytes:bytes in
    write_file output (Writer.tree_to_string ~indent:true doc);
    Printf.printf "wrote %s (%d elements)\n" output (Tree.count_elements doc)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic workload document.")
    Term.(const run $ kind $ bytes $ seed $ output_arg)

(* stats ---------------------------------------------------------------------- *)

let stats_cmd =
  let run input =
    let doc = Tree.parse ~strip_whitespace:true (read_file input) in
    let c = W.Datasets.characteristics ~name:(Filename.basename input) doc in
    Fmt.pr "%a@." W.Datasets.pp_characteristics c;
    Fmt.pr "@.Index storage overhead (Figure 8 metric):@.";
    List.iter
      (fun s -> Fmt.pr "  %a@." Xmlac_skip_index.Stats.pp s)
      (Xmlac_skip_index.Stats.measure_all doc)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Document characteristics and per-layout index overheads.")
    Term.(const run $ input_arg)

(* publish -------------------------------------------------------------------- *)

let publish_cmd =
  let layout =
    Arg.(
      value & opt layout_conv Layout.Tcsbr
      & info [ "layout" ] ~docv:"LAYOUT" ~doc:"NC, TC, TCS, TCSB or TCSBR.")
  in
  let scheme =
    Arg.(
      value
      & opt scheme_conv Container.Ecb_mht
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:"ECB, CBC-SHA, CBC-SHAC, ECB-MHT or AES-CTR.")
  in
  let run input output layout scheme pass =
    let doc = Tree.parse ~strip_whitespace:true (read_file input) in
    (* the Skip index represents elements and text only; attributes become
       child elements, as the paper's model treats them *)
    let doc = Tree.attributes_to_elements doc in
    let encoded = Xmlac_skip_index.Encoder.encode ~layout doc in
    let container =
      Container.encrypt ~scheme ~key:(key_of_passphrase pass) encoded
    in
    write_file output (Container.to_bytes container);
    Printf.printf "encoded %d bytes (%s), container %d bytes (%s), %d chunks\n"
      (String.length encoded) (Layout.to_string layout)
      (String.length (Container.to_bytes container))
      (Container.scheme_to_string scheme)
      (Container.chunk_count container)
  in
  Cmd.v
    (Cmd.info "publish" ~doc:"Skip-index-encode and encrypt a document.")
    Term.(const run $ input_arg $ output_arg $ layout $ scheme $ passphrase_arg)

(* verify --------------------------------------------------------------------- *)

let verify_cmd =
  let run input pass =
    let container = Container.of_bytes (read_file input) in
    let key =
      key_of_passphrase ~epoch:(Container.key_epoch container) pass
    in
    match Container.decrypt_all container ~key ~verify:true with
    | exception Container.Integrity_failure reason ->
        Printf.printf "INTEGRITY FAILURE: %s\n" reason;
        exit 1
    | payload ->
        Printf.printf "ok: %d chunks, %d payload bytes verified (%s)\n"
          (Container.chunk_count container)
          (String.length payload)
          (Container.scheme_to_string (Container.scheme container))
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Decrypt and integrity-check a whole container.")
    Term.(const run $ input_arg $ passphrase_arg)

(* view ----------------------------------------------------------------------- *)

let view_cmd =
  let dummy =
    Arg.(
      value
      & opt (some string) None
      & info [ "dummy" ] ~docv:"NAME"
          ~doc:"Rename structural-only (denied) elements to NAME.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print SOE cost statistics.")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Stream structured evaluator trace events (rule instances, \
             decisions, skips, spans) to stderr, one line each.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the full decision-provenance trace (prov.v1 JSONL: one \
             record per node, skip and chunk verdict, plus evaluator \
             events) to FILE, for xacml explain or audit_replay.")
  in
  let trace_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"ID"
          ~doc:
            "With --remote: offer ID as a trace id in the hello so the \
             terminal links its server.request spans to this run's \
             wire.request spans (visible in the terminal's --trace file \
             and this run's --trace-out).")
  in
  let run input pass remote container expect_scheme rules policy_file query_str
      user dummy stats_flag trace_flag trace_out trace_id =
    let policy = assemble_policy ~rules ~policy_file ~user in
    let query = Option.map Xmlac_xpath.Parse.path query_str in
    let counters = Channel.fresh_counters () in
    let source, scheme, _epoch, remote_session =
      open_source ?trace_id ~input ~remote ~container ~expect_scheme
        ~key_for:(fun epoch -> key_of_passphrase ~epoch pass)
        counters
    in
    let decoder = Xmlac_skip_index.Decoder.of_source source in
    if trace_flag then
      Xmlac_obs.Trace.set_sink (Some Xmlac_obs.Trace.stderr_sink);
    let observer =
      if trace_flag || trace_out <> None then
        Some
          (fun obs ->
            let name, fields = Xmlac_core.Evaluator.trace_observation obs in
            Xmlac_obs.Trace.emit name fields)
      else None
    in
    let prov =
      Option.map (fun _ -> Xmlac_core.Provenance.collector ()) trace_out
    in
    let go () =
      (match trace_out with
      | Some _ ->
          let name, fields =
            Xmlac_core.Provenance.meta_event ?query:query_str ()
          in
          Xmlac_obs.Trace.emit name fields
      | None -> ());
      let result, wall_s =
        Xmlac_obs.Span.time "xacml.view" (fun () ->
            Xmlac_core.Evaluator.run ?query ?dummy_denied:dummy ?observer
              ?provenance:prov ~policy
              (Xmlac_core.Input.of_decoder decoder))
      in
      (match prov with
      | Some coll ->
          List.iter
            (fun r ->
              let name, fields = Xmlac_core.Provenance.record_event r in
              Xmlac_obs.Trace.emit name fields)
            (Xmlac_core.Provenance.records coll)
      | None -> ());
      (result, wall_s)
    in
    let result, wall_s =
      match trace_out with
      | None -> go ()
      | Some path -> Xmlac_obs.Trace.with_jsonl_file path go
    in
    (match Xmlac_core.Evaluator.view_tree result with
    | None -> prerr_endline "(nothing authorized)"
    | Some view -> print_endline (Writer.tree_to_string ~indent:true view));
    warn_no_integrity ~scheme counters;
    if stats_flag then begin
      let s = result.Xmlac_core.Evaluator.stats in
      let b =
        Cost_model.breakdown
          (Cost_model.of_context Cost_model.Hardware)
          ~bytes_in:counters.Channel.bytes_to_soe
          ~bytes_decrypted:counters.Channel.bytes_decrypted
          ~bytes_hashed:counters.Channel.bytes_hashed
          ~transitions:s.Xmlac_core.Evaluator.transitions
          ~events:s.Xmlac_core.Evaluator.events_in
      in
      let metrics =
        let open Xmlac_obs.Metrics in
        prefix "eval" (Xmlac_core.Evaluator.stats_metrics s)
        @ prefix "index"
            (Xmlac_skip_index.Decoder.stats_metrics
               (Xmlac_skip_index.Decoder.stats decoder))
        @ prefix "channel" (Channel.metrics counters)
        @ prefix "cache" (Channel.cache_metrics counters)
        @ (match remote_session with
          | Some r -> prefix "wire" (Wire.Stats.metrics (Remote.wire_stats r))
          | None -> [])
        @ prefix "cost" (Cost_model.breakdown_metrics b)
        @ [ float "wall_s" wall_s ]
      in
      List.iter (Fmt.epr "%s@.") (Xmlac_obs.Metrics.render metrics);
      Fmt.epr "simulated smart card: %a@." Cost_model.pp_breakdown b
    end;
    Option.iter Remote.close remote_session
  in
  Cmd.v
    (Cmd.info "view"
       ~doc:"Evaluate an authorized view (and optional query) of a container.")
    Term.(
      const run $ input_opt_arg $ passphrase_arg $ remote_arg $ container_arg
      $ expect_scheme_arg $ rules_arg $ policy_file_arg
      $ query_arg $ user_arg $ dummy $ stats_flag $ trace_flag $ trace_out
      $ trace_id)

(* explain -------------------------------------------------------------------- *)

let explain_cmd =
  let node =
    Arg.(
      required
      & opt (some string) None
      & info [ "node" ] ~docv:"XPATH"
          ~doc:"The node(s) to explain, as an XPath over the document.")
  in
  let run input rules policy_file query_str user node =
    (* same normalization as publish, so node ids line up with what the
       evaluator sees *)
    let doc =
      Tree.attributes_to_elements
        (Tree.parse ~strip_whitespace:true (read_file input))
    in
    let policy = assemble_policy ~rules ~policy_file ~user in
    let query = Option.map Xmlac_xpath.Parse.path query_str in
    let node_path =
      match Xmlac_xpath.Parse.path node with
      | p -> p
      | exception Xmlac_xpath.Parse.Error (reason, pos) ->
          die "--node %S: invalid XPath at %d: %s" node pos reason
    in
    let ids = Xmlac_xpath.Dom_eval.select node_path doc in
    if ids = [] then begin
      Printf.eprintf "xacml: --node %s matches no element\n" node;
      exit 1
    end;
    let coll = Xmlac_core.Provenance.collector () in
    ignore
      (Xmlac_core.Evaluator.run ?query ~provenance:coll ~policy
         (Xmlac_core.Input.of_events (Tree.to_events doc)));
    let records = Xmlac_core.Provenance.records coll in
    let cap = 20 in
    List.iteri
      (fun i id ->
        if i < cap then
          print_string (Xmlac_core.Audit.explain ~records id))
      ids;
    if List.length ids > cap then
      Printf.printf "(and %d more matching nodes not shown)\n"
        (List.length ids - cap)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
        "Explain why nodes of a document are delivered or denied under a \
         policy: winning rule, conflict-resolution steps, stack snapshots.")
    Term.(
      const run $ input_arg $ rules_arg $ policy_file_arg $ query_arg
      $ user_arg $ node)

(* license -------------------------------------------------------------------- *)

let soe_key_arg =
  Arg.(
    value
    & opt string "xmlac-demo-soe-key"
    & info [ "soe-key" ] ~docv:"PASSPHRASE"
        ~doc:"Passphrase of the device's SOE master key (seals licenses).")

let license_cmd =
  let subject =
    Arg.(
      required
      & opt (some string) None
      & info [ "subject" ] ~docv:"NAME" ~doc:"Subject the license is issued to.")
  in
  let rules =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "r"; "rule" ] ~docv:"RULE"
          ~doc:"Signed rule, e.g. '+//Admin' (repeatable; USER allowed).")
  in
  let valid_until =
    Arg.(
      value
      & opt (some int) None
      & info [ "valid-until" ] ~docv:"N" ~doc:"Issuer-defined expiry stamp.")
  in
  let key_epoch =
    Arg.(
      value & opt int 0
      & info [ "key-epoch" ] ~docv:"N"
          ~doc:
            "Document-key epoch the license is minted for (default 0). \
             After a rotation (publish-update --rotate) reissue surviving \
             subjects' licenses at the new epoch; an old-epoch license is \
             refused, typed, by unlock.")
  in
  let run output subject rules valid_until key_epoch doc_pass soe_pass =
    let parse_rule i spec =
      if spec = "" then die "--rule: empty rule (expected +XPATH or -XPATH)";
      let sign =
        match spec.[0] with
        | '+' -> Xmlac_core.Rule.Permit
        | '-' -> Xmlac_core.Rule.Deny
        | _ -> die "--rule %S: must start with + or -" spec
      in
      (Printf.sprintf "L%d" i, sign, String.sub spec 1 (String.length spec - 1))
    in
    let lic =
      Xmlac_soe.License.make ?valid_until ~key_epoch ~subject
        ~document_key:(document_key_bytes ~epoch:key_epoch doc_pass)
        (List.mapi parse_rule rules)
    in
    write_file output
      (Xmlac_soe.License.seal ~soe_key:(key_of_passphrase soe_pass) lic);
    Printf.printf "sealed license for %s (%d rules, key epoch %d) -> %s\n"
      subject (List.length rules) key_epoch output
  in
  Cmd.v
    (Cmd.info "license"
       ~doc:"Issue a sealed license (rules + document key) for a subject.")
    Term.(
      const run $ output_arg $ subject $ rules $ valid_until $ key_epoch
      $ passphrase_arg $ soe_key_arg)

let unlock_cmd =
  let license_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "license" ] ~docv:"FILE" ~doc:"Sealed license file.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print SOE cost statistics.")
  in
  let run input remote container expect_scheme license_file soe_pass stats_flag
      =
    match
      Xmlac_soe.License.unseal
        ~soe_key:(key_of_passphrase soe_pass)
        (read_file license_file)
    with
    | Error e ->
        Printf.eprintf "license rejected: %s\n" e;
        exit 1
    | Ok lic ->
        let counters = Channel.fresh_counters () in
        let source, scheme, container_epoch, remote_session =
          open_source ~input ~remote ~container ~expect_scheme
            ~key_for:(fun _ -> Xmlac_soe.License.key lic)
            counters
        in
        (* the revocation gate: refuse a pre- (or post-) rotation license
           before its key touches any ciphertext — under plain ECB a stale
           key would otherwise decrypt to garbage instead of failing *)
        (match Xmlac_soe.License.authorize lic ~container_epoch with
        | Ok () -> ()
        | Error e ->
            Option.iter Remote.close remote_session;
            Printf.eprintf "license rejected: %s\n" e;
            exit 1);
        let decoder = Xmlac_skip_index.Decoder.of_source source in
        let result =
          Xmlac_core.Evaluator.run
            ~policy:(Xmlac_soe.License.policy lic)
            (Xmlac_core.Input.of_decoder decoder)
        in
        (match Xmlac_core.Evaluator.view_tree result with
        | None -> prerr_endline "(nothing authorized)"
        | Some view -> print_endline (Writer.tree_to_string ~indent:true view));
        warn_no_integrity ~scheme counters;
        if stats_flag then begin
          Fmt.epr "subject %s@." lic.Xmlac_soe.License.subject;
          let metrics =
            let open Xmlac_obs.Metrics in
            prefix "eval"
              (Xmlac_core.Evaluator.stats_metrics
                 result.Xmlac_core.Evaluator.stats)
            @ prefix "channel" (Channel.metrics counters)
            @ prefix "cache" (Channel.cache_metrics counters)
            @ (match remote_session with
              | Some r ->
                  prefix "wire" (Wire.Stats.metrics (Remote.wire_stats r))
              | None -> [])
          in
          List.iter (Fmt.epr "%s@.") (Xmlac_obs.Metrics.render metrics)
        end;
        Option.iter Remote.close remote_session
  in
  Cmd.v
    (Cmd.info "unlock"
       ~doc:"Evaluate a container using a sealed license (rules + key).")
    Term.(
      const run $ input_opt_arg $ remote_arg $ container_arg
      $ expect_scheme_arg $ license_file $ soe_key_arg
      $ stats_flag)

(* update --------------------------------------------------------------------- *)

let parse_update_path s =
  if s = "" then []
  else
    List.map
      (fun seg ->
        match int_of_string_opt seg with
        | Some i when i >= 0 -> i
        | _ -> die "bad path %S: expected dot-separated child indices" s)
      (String.split_on_char '.' s)

let delete_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "delete" ] ~docv:"PATH"
        ~doc:"Delete the subtree at PATH (dot-separated child indexes).")

let set_text_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "set-text" ] ~docv:"PATH=TEXT" ~doc:"Replace a text node.")

(* --delete / --set-text into an [Update.operation]; [None] when neither
   was given (publish-update --rotate needs no edit) *)
let parse_operation ~delete ~set_text =
  match (delete, set_text) with
  | Some p, None ->
      Some (Xmlac_skip_index.Update.Delete_subtree (parse_update_path p))
  | None, Some spec -> (
      match String.index_opt spec '=' with
      | Some i ->
          Some
            (Xmlac_skip_index.Update.Set_text
               ( parse_update_path (String.sub spec 0 i),
                 String.sub spec (i + 1) (String.length spec - i - 1) ))
      | None -> die "--set-text %S: expected PATH=TEXT" spec)
  | None, None -> None
  | Some _, Some _ -> die "--delete and --set-text are exclusive"

(* decrypt + apply one edit, returning everything publish-update/update
   need: the old and new encoded payloads and the predicted cost *)
let apply_edit container ~key ~operation =
  let encoded = Container.decrypt_all container ~key ~verify:true in
  let layout =
    (Xmlac_skip_index.Encoder.read_header
       (Xmlac_skip_index.Bitio.Reader.of_string encoded))
      .Xmlac_skip_index.Encoder.layout
  in
  match operation with
  | None -> (encoded, encoded, None)
  | Some op ->
      (* the splice reads only the edit path and copies every other byte,
         and a plain-ECB container has no digests to have caught damage:
         decode the whole payload first, so a corrupt one fails typed
         instead of being republished under a new generation *)
      let dec = Xmlac_skip_index.Decoder.of_string encoded in
      while Xmlac_skip_index.Decoder.next dec <> None do
        ()
      done;
      let encoded', cost =
        Xmlac_skip_index.Update.update_encoded ~layout
          ~chunk_size:(Container.chunk_size container)
          encoded op
      in
      (encoded, encoded', Some cost)

let report_cost = function
  | None -> ()
  | Some cost ->
      Printf.printf
        "updated: %d -> %d bytes; rewrote %d bytes (%d chunks to \
         re-encrypt%s)\n"
        cost.Xmlac_skip_index.Update.old_bytes
        cost.Xmlac_skip_index.Update.new_bytes
        cost.Xmlac_skip_index.Update.rewritten_bytes
        cost.Xmlac_skip_index.Update.chunks_to_reencrypt
        (if cost.Xmlac_skip_index.Update.dictionary_changed then
           ", dictionary changed"
         else "")

let update_cmd =
  let run input output pass delete set_text =
    let container = Container.of_bytes (read_file input) in
    let epoch = Container.key_epoch container in
    let key = key_of_passphrase ~epoch pass in
    let operation = parse_operation ~delete ~set_text in
    if operation = None then
      die "exactly one of --delete / --set-text is required";
    let _, encoded', cost = apply_edit container ~key ~operation in
    (* full re-encryption, but the lineage survives: the next generation,
       same epoch (publish-update is the incremental path) *)
    let container' =
      Container.encrypt
        ~chunk_size:(Container.chunk_size container)
        ~fragment_size:(Container.fragment_size container)
        ~generation:(Container.generation container + 1)
        ~key_epoch:epoch
        ~scheme:(Container.scheme container) ~key encoded'
    in
    write_file output (Container.to_bytes container');
    report_cost cost
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Edit an encrypted document and re-encrypt it in full, reporting \
          what the incremental path would have cost.")
    Term.(
      const run $ input_arg $ output_arg $ passphrase_arg $ delete_arg
      $ set_text_arg)

(* publish-update ------------------------------------------------------------- *)

let publish_update_cmd =
  let delta_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "delta-out" ] ~docv:"FILE"
          ~doc:
            "Also write the one-generation chunk delta (what a syncing \
             terminal transfers instead of the whole container).")
  in
  let revoke =
    Arg.(
      value & opt_all string []
      & info [ "revoke" ] ~docv:"SUBJECT"
          ~doc:
            "Subject whose license is revoked as of this republication \
             (repeatable); distributed on the delta's revocation list. \
             Only cryptographically binding together with --rotate.")
  in
  let rotate =
    Arg.(
      value & flag
      & info [ "rotate" ]
          ~doc:
            "Rotate the document key: bump the key epoch and re-encrypt \
             every chunk under the next epoch's key (derived from the \
             passphrase), so licenses of earlier epochs fail typed. May \
             be combined with an edit, or used alone to revoke.")
  in
  let run input output pass delete set_text delta_out revoke rotate =
    let container = Container.of_bytes (read_file input) in
    let epoch = Container.key_epoch container in
    let from_gen = Container.generation container in
    let key = key_of_passphrase ~epoch pass in
    let operation = parse_operation ~delete ~set_text in
    if operation = None && not rotate then
      die "give --delete/--set-text, --rotate, or both";
    let encoded, encoded', cost = apply_edit container ~key ~operation in
    let container', rewritten =
      if rotate then
        let epoch' = epoch + 1 in
        ( Container.encrypt
            ~chunk_size:(Container.chunk_size container)
            ~fragment_size:(Container.fragment_size container)
            ~generation:(from_gen + 1) ~key_epoch:epoch'
            ~scheme:(Container.scheme container)
            ~key:(key_of_passphrase ~epoch:epoch' pass)
            encoded',
          List.init (Container.chunk_count container) Fun.id )
      else Container.reencrypt container ~key ~old_payload:encoded ~payload:encoded'
    in
    write_file output (Container.to_bytes container');
    report_cost cost;
    (match delta_out with
    | None ->
        if revoke <> [] && not rotate then
          Printf.eprintf
            "xacml: note: --revoke without --delta-out reaches no \
             terminal; pair it with --delta-out (and --rotate to make it \
             cryptographic)\n"
    | Some path ->
        let d =
          Xmlac_dissem.Delta.of_container ~from_gen ~revoked:revoke container'
        in
        write_file path (Xmlac_dissem.Delta.encode d);
        Printf.printf "delta: gen %d -> %d, %d bytes (container %d bytes)\n"
          from_gen
          (Container.generation container')
          (Xmlac_dissem.Delta.wire_bytes d)
          (String.length (Container.to_bytes container')));
    Printf.printf
      "republished: generation %d -> %d, key epoch %d, %d/%d chunks \
       rewritten%s\n"
      from_gen
      (Container.generation container')
      (Container.key_epoch container')
      (List.length rewritten)
      (Container.chunk_count container')
      (match revoke with
      | [] -> ""
      | l -> Printf.sprintf ", revoking %s" (String.concat ", " l))
  in
  Cmd.v
    (Cmd.info "publish-update"
       ~doc:
         "Incrementally republish a container: apply an edit re-encrypting \
          only dirty chunks, optionally rotate the document key, and emit \
          the chunk delta terminals sync.")
    Term.(
      const run $ input_arg $ output_arg $ passphrase_arg $ delete_arg
      $ set_text_arg $ delta_out $ revoke $ rotate)

(* sync ----------------------------------------------------------------------- *)

let sync_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where the synced container copy is written.")
  in
  let run input remote container_id output =
    let addr_str =
      match remote with Some a -> a | None -> die "--remote ADDR is required"
    in
    let addr =
      match Wire.Transport.parse_addr addr_str with
      | Ok a -> a
      | Error e -> die "--remote %s" e
    in
    let config =
      {
        Wire.Client.default_config with
        Wire.Client.container = Option.value container_id ~default:"";
      }
    in
    let connector () = Wire.Transport.connect addr in
    let report_revoked = function
      | [] -> ()
      | l -> List.iter (Printf.printf "revoked: %s\n") l
    in
    let m =
      match input with
      | None ->
          let m = Wire.Mirror.fetch ~config connector in
          Printf.printf "fetched: generation %d (%d chunks)\n"
            (Wire.Mirror.generation m)
            (Container.chunk_count (Wire.Mirror.container m));
          m
      | Some f ->
          let local = Container.of_bytes (read_file f) in
          let m = Wire.Mirror.of_container ~config connector local in
          (match Wire.Mirror.sync m with
          | Wire.Mirror.Uptodate ->
              Printf.printf "up to date: generation %d\n"
                (Wire.Mirror.generation m)
          | Wire.Mirror.Applied { from_gen; to_gen; delta_bytes; revoked } ->
              Printf.printf "synced: delta gen %d -> %d, %d bytes\n" from_gen
                to_gen delta_bytes;
              report_revoked revoked
          | Wire.Mirror.Refetched { to_gen; bytes } ->
              Printf.printf
                "refetched: generation %d, %d payload bytes (origin could \
                 not bridge ours)\n"
                to_gen bytes);
          m
    in
    write_file output (Container.to_bytes (Wire.Mirror.container m));
    Wire.Mirror.close m
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:
         "Pull a published container from a terminal: a chunk delta when a \
          local copy (-i) can be bridged, a full fetch otherwise; the \
          synced ciphertext copy is written to -o.")
    Term.(const run $ input_opt_arg $ remote_arg $ container_arg $ output)

let () =
  let doc =
    "client-based access control for XML documents (Bouganim, Dang Ngoc & \
     Pucheral, VLDB 2004)"
  in
  (* hostile or damaged data files surface as typed exceptions from the
     libraries; report them like `verify` reports an integrity failure
     (message + exit 1) rather than a backtrace *)
  let report_data_error msg =
    prerr_endline ("xacml: " ^ msg);
    exit 1
  in
  match
    Cmd.eval ~catch:false
       (Cmd.group (Cmd.info "xacml" ~version:"1.0.0" ~doc)
          [
            gen_cmd;
            stats_cmd;
            publish_cmd;
            verify_cmd;
            view_cmd;
            explain_cmd;
            license_cmd;
            unlock_cmd;
            update_cmd;
            publish_update_cmd;
            sync_cmd;
          ])
  with
  | code -> exit code
  | exception Container.Corrupt msg ->
      report_data_error ("corrupt container: " ^ msg)
  | exception Container.Integrity_failure msg ->
      report_data_error ("integrity failure: " ^ msg)
  | exception Xmlac_skip_index.Error.Error e ->
      report_data_error (Xmlac_skip_index.Error.to_string e)
  | exception Xmlac_xml.Parser.Malformed (reason, pos) ->
      report_data_error (Printf.sprintf "malformed XML at byte %d: %s" pos reason)
  | exception Xmlac_core.Error.Stream_error msg ->
      report_data_error ("invalid event stream: " ^ msg)
  | exception Wire.Error.Wire e ->
      report_data_error ("remote terminal: " ^ Wire.Error.to_string e)
  | exception Sys_error msg -> report_data_error msg
