module Prng = Xmlac_workload.Prng
module Tree = Xmlac_xml.Tree
module Layout = Xmlac_skip_index.Layout
module Encoder = Xmlac_skip_index.Encoder
module C = Xmlac_crypto.Secure_container

(* 24-byte triple-DES key; its value is irrelevant to the campaign, only
   that encryption and decryption agree on it *)
let key = Xmlac_crypto.Des.Triple.key_of_string "xmlac-fuzz-24-byte-key!!"

let binary_layouts = [ Layout.Tc; Layout.Tcs; Layout.Tcsb; Layout.Tcsbr ]

type seed_entry = {
  doc : Tree.t;
  xml : string;
  policy : Xmlac_core.Policy.t;
  policy_src : string;
  encodings : (Layout.t * string) list;
  containers : (C.scheme * string) list;
}

let tiny_doc =
  Tree.element "r"
    [
      Tree.element "a" [ Tree.text "x"; Tree.element "b" [] ];
      Tree.element "a" ~attributes:[ { Xmlac_xml.Event.name = "k"; value = "v" } ] [ Tree.text "y" ];
      Tree.element "c" [ Tree.element "a" [ Tree.text "z" ] ];
    ]

let seed_entry ~seed doc =
  (* the skip index cannot represent attributes; normalize them away, as
     the publishing pipeline does. Then canonicalize through one
     serialize/parse round trip: generators may carry empty text nodes,
     which no serialized document can represent, and the differential
     oracle must judge the document a client can actually publish. *)
  let doc = Tree.attributes_to_elements doc in
  let xml = Xmlac_xml.Writer.tree_to_string doc in
  let doc = Tree.parse xml in
  let policy = Xmlac_workload.Rule_gen.generate ~seed doc in
  let encodings =
    List.map (fun l -> (l, Encoder.encode ~layout:l doc)) binary_layouts
  in
  (* small chunks and fragments so even tiny documents span several of
     each, giving the boundary-corruption mutators seams to hit *)
  let tcsbr = List.assoc Layout.Tcsbr encodings in
  let containers =
    List.map
      (fun scheme ->
        ( scheme,
          C.to_bytes
            (C.encrypt ~chunk_size:512 ~fragment_size:64 ~scheme ~key tcsbr)
        ))
      C.all_schemes
  in
  { doc; xml; policy; policy_src = Xmlac_core.Policy.to_string policy; encodings; containers }

(* Plausible wire traffic for the frame-decoder boundary: one framed
   encoding of every request and response shape (plus the bare payloads),
   which Mutate then corrupts. *)
let wire_seed_frames =
  lazy
    (let open Xmlac_wire.Protocol in
     let reqs =
       [
         Hello { container = ""; mux = false; trace = "" };
         Hello { container = "default"; mux = true; trace = "" };
         Hello { container = "default"; mux = true; trace = "fuzz-1" };
         Get_fragment { chunk = 1; fragment = 2; lo = 0; hi = 64 };
         Get_chunk { chunk = 0 };
         Get_digest { chunk = 3 };
         Get_hash_state { chunk = 0; fragment = 1; upto = 32 };
         Get_siblings { chunk = 2; fragment = 0 };
         Get_stats;
         Bye;
       ]
     in
     let resps =
       [
         Hello_ok
           {
             scheme = C.Ecb_mht;
             chunk_size = 512;
             fragment_size = 64;
             payload_length = 2048;
             chunk_count = 4;
             integrity = true;
             mux = true;
             trace = true;
             generation = 0;
             key_epoch = 0;
           };
         Hello_ok
           {
             scheme = C.Aes_ctr;
             chunk_size = 512;
             fragment_size = 64;
             payload_length = 2048;
             chunk_count = 4;
             integrity = true;
             mux = false;
             trace = false;
             generation = 0;
             key_epoch = 0;
           };
         Fragment (String.make 64 '\x2a');
         Chunk (String.make 512 '\x2a');
         Digest (String.make 24 '\x2a');
         Digest (String.make 32 '\x2a');
         Hash_state (String.make 29 '\x2a');
         Siblings [ String.make 20 's'; String.make 20 't' ];
         Bye_ok;
         Stats_reply "{\"schema\":\"xwtp.telemetry.v1\"}";
         Err { code = 2; message = "chunk out of range" };
       ]
     in
     (* a hello of another version, which both ends refuse *)
     let req_payloads = "\x01XWTP\x00\x01" :: List.map encode_request reqs in
     let resp_payloads = List.map encode_response resps in
     let payloads = req_payloads @ resp_payloads in
     Array.of_list (payloads @ List.map Xmlac_wire.Frame.encode payloads))

let seed_corpus ~seed =
  let open Xmlac_workload.Datasets in
  let doc kind bytes i = generate kind ~seed:(seed + i) ~target_bytes:bytes in
  [
    seed_entry ~seed tiny_doc;
    seed_entry ~seed:(seed + 1) (doc Wsu 700 1);
    seed_entry ~seed:(seed + 2) (doc Sigmod 900 2);
    seed_entry ~seed:(seed + 3) (doc Treebank 700 3);
  ]

type failure = {
  boundary : string;
  mutation : string;  (** "seed" for unmutated differential runs *)
  detail : string;
  input : string;
  policy_src : string option;
      (** for channel-eval failures: the policy text of the run, so the
          crasher can be replayed with provenance capture *)
}

type boundary_stats = {
  b_name : string;
  mutable b_runs : int;
  mutable b_accepted : int;
  mutable b_rejected : int;
  mutable b_failures : int;
}

type report = {
  runs : int;  (** total inputs pushed through a boundary *)
  mutated : int;  (** of which mutated *)
  accepted : int;
  rejected : int;
  failures : failure list;  (** crashes and oracle divergences *)
  per_boundary : boundary_stats list;  (** sorted by boundary name *)
  wall_s : float;
}

let metrics report =
  let open Xmlac_obs.Metrics in
  [
    int "runs" report.runs;
    int "mutated" report.mutated;
    int "accepted" report.accepted;
    int "rejected" report.rejected;
    int "failures" (List.length report.failures);
  ]
  @ List.concat_map
      (fun b ->
        prefix b.b_name
          [
            int "runs" b.b_runs;
            int "accepted" b.b_accepted;
            int "rejected" b.b_rejected;
            int "failures" b.b_failures;
          ])
      report.per_boundary
  @ [ float "wall_s" report.wall_s ]

let view_matches ~oracle events =
  match (oracle, events) with
  | None, [] -> true
  | None, _ :: _ | Some _, [] -> false
  | Some expected, (_ :: _ as evs) -> (
      match Tree.of_events evs with
      | tree -> Tree.equal expected tree
      | exception _ -> false)

let run ?(progress = fun ~done_:_ ~total:_ -> ()) ~seed ~iterations () =
  let span = Xmlac_obs.Span.start "fuzz.campaign" in
  let rng = Prng.make ~seed in
  let entries = Array.of_list (seed_corpus ~seed) in
  let oracles =
    Array.map
      (fun e -> Xmlac_core.Oracle.authorized_view e.policy e.doc)
      entries
  in
  let runs = ref 0
  and mutated = ref 0
  and accepted = ref 0
  and rejected = ref 0
  and failures = ref [] in
  let boundary_tbl : (string, boundary_stats) Hashtbl.t = Hashtbl.create 16 in
  let tally name =
    match Hashtbl.find_opt boundary_tbl name with
    | Some s -> s
    | None ->
        let s =
          { b_name = name; b_runs = 0; b_accepted = 0; b_rejected = 0;
            b_failures = 0 }
        in
        Hashtbl.add boundary_tbl name s;
        s
  in
  (* phase-1 differential runs bypass [record]; count them here *)
  let seed_run boundary =
    incr runs;
    let s = tally boundary in
    s.b_runs <- s.b_runs + 1
  in
  let record ?policy ~boundary ~mutation ~input outcome =
    incr runs;
    let s = tally boundary in
    s.b_runs <- s.b_runs + 1;
    match (outcome : Boundary.outcome) with
    | Accepted ->
        incr accepted;
        s.b_accepted <- s.b_accepted + 1
    | Rejected _ ->
        incr rejected;
        s.b_rejected <- s.b_rejected + 1
    | Crashed detail ->
        s.b_failures <- s.b_failures + 1;
        failures :=
          { boundary; mutation; detail; input; policy_src = policy }
          :: !failures
  in
  let diverged ?policy ~boundary ~mutation ~input detail =
    (tally boundary).b_failures <- (tally boundary).b_failures + 1;
    failures :=
      { boundary; mutation; detail; input; policy_src = policy } :: !failures
  in

  (* Phase 1 — differential sanity on unmutated seeds: every input
     representation (raw XML, each skip-index layout, each encryption
     scheme) must yield exactly the DOM oracle's authorized view. *)
  Array.iteri
    (fun i e ->
      let oracle = oracles.(i) in
      let check ?policy ~boundary ~input events =
        if view_matches ~oracle events then
          (tally boundary).b_accepted <- (tally boundary).b_accepted + 1
        else
          diverged ?policy ~boundary ~mutation:"seed" ~input
            "authorized view differs from the DOM oracle"
      in
      let eval input_s =
        (Xmlac_core.Evaluator.run ~policy:e.policy input_s)
          .Xmlac_core.Evaluator.events
      in
      seed_run "xml-parse";
      check ~boundary:"xml-parse" ~input:e.xml
        (eval (Xmlac_core.Input.of_string e.xml));
      List.iter
        (fun (layout, enc) ->
          let boundary = "skip-decode/" ^ Layout.to_string layout in
          seed_run boundary;
          let decoder = Xmlac_skip_index.Decoder.of_string enc in
          check ~boundary ~input:enc
            (eval (Xmlac_core.Input.of_decoder decoder)))
        e.encodings;
      List.iter
        (fun (scheme, bytes) ->
          seed_run ("channel-eval/" ^ C.scheme_to_string scheme);
          let r = Boundary.channel_eval ~key ~policy:e.policy bytes in
          match r.Boundary.view with
          | Some events ->
              check ~policy:e.policy_src
                ~boundary:("channel-eval/" ^ C.scheme_to_string scheme)
                ~input:bytes events
          | None ->
              diverged ~policy:e.policy_src
                ~boundary:("channel-eval/" ^ C.scheme_to_string scheme)
                ~mutation:"seed" ~input:bytes
                (match r.Boundary.outcome with
                | Rejected msg -> "pristine container rejected: " ^ msg
                | Crashed msg -> "pristine container crashed: " ^ msg
                | Accepted -> "accepted without a view"))
        e.containers;
      (* the same containers through the wire: a fault-free remote terminal
         must be observationally identical to the in-process channel *)
      List.iter
        (fun (scheme, bytes) ->
          let boundary = "remote-eval/" ^ C.scheme_to_string scheme in
          seed_run boundary;
          let r = Boundary.remote_eval ~key ~policy:e.policy bytes in
          match r.Boundary.view with
          | Some events ->
              check ~policy:e.policy_src ~boundary ~input:bytes events
          | None ->
              diverged ~policy:e.policy_src ~boundary ~mutation:"seed"
                ~input:bytes
                (match r.Boundary.outcome with
                | Rejected msg -> "pristine remote terminal rejected: " ^ msg
                | Crashed msg -> "pristine remote terminal crashed: " ^ msg
                | Accepted -> "accepted without a view"))
        e.containers)
    entries;

  (* Phase 2 — fault injection: mutated bytes into every trust boundary,
     round-robin so a campaign of N iterations covers each boundary N/7
     times. Invariant: typed rejection or a faithful view, never a crash. *)
  let pick_entry () = entries.(Prng.int rng (Array.length entries)) in
  for i = 0 to iterations - 1 do
    incr mutated;
    (match List.nth Boundary.all (i mod List.length Boundary.all) with
    | Boundary.Xml_parse ->
        let e = pick_entry () in
        let input, mutation = Mutate.random rng e.xml in
        record ~boundary:"xml-parse" ~mutation ~input
          (Boundary.xml_parse input)
    | Boundary.Skip_decode ->
        let e = pick_entry () in
        let layout, enc =
          List.nth e.encodings (Prng.int rng (List.length e.encodings))
        in
        let input, mutation = Mutate.random rng enc in
        record
          ~boundary:("skip-decode/" ^ Layout.to_string layout)
          ~mutation ~input
          (Boundary.skip_decode input)
    | Boundary.Container ->
        let e = pick_entry () in
        let scheme, bytes =
          List.nth e.containers (Prng.int rng (List.length e.containers))
        in
        let input, mutation = Mutate.random rng bytes in
        record
          ~boundary:("container/" ^ C.scheme_to_string scheme)
          ~mutation ~input
          (Boundary.container ~key input)
    | Boundary.Channel_eval ->
        let ei = Prng.int rng (Array.length entries) in
        let e = entries.(ei) in
        let scheme, bytes =
          List.nth e.containers (Prng.int rng (List.length e.containers))
        in
        let input, mutation = Mutate.random rng bytes in
        let boundary = "channel-eval/" ^ C.scheme_to_string scheme in
        let r = Boundary.channel_eval ~key ~policy:e.policy input in
        record ~policy:e.policy_src ~boundary ~mutation ~input
          r.Boundary.outcome;
        (* accepted tampered bytes must still yield the oracle's view —
           except under ECB, which promises no integrity *)
        (match r.Boundary.view with
        | Some events when scheme <> C.Ecb ->
            if not (view_matches ~oracle:oracles.(ei) events) then
              diverged ~policy:e.policy_src ~boundary ~mutation ~input
                "tampered container accepted with a wrong view"
        | _ -> ())
    | Boundary.Policy_text ->
        let e = pick_entry () in
        let input, mutation = Mutate.random rng e.policy_src in
        record ~boundary:"policy-text" ~mutation ~input
          (Boundary.policy_text input)
    | Boundary.Wire_frame ->
        let frames = Lazy.force wire_seed_frames in
        let frame = frames.(Prng.int rng (Array.length frames)) in
        let input, mutation = Mutate.random rng frame in
        record ~boundary:"wire-frame" ~mutation ~input
          (Boundary.wire_frame input)
    | Boundary.Remote_eval ->
        let ei = Prng.int rng (Array.length entries) in
        let e = entries.(ei) in
        let scheme, bytes =
          List.nth e.containers (Prng.int rng (List.length e.containers))
        in
        let boundary = "remote-eval/" ^ C.scheme_to_string scheme in
        (* half the runs mutate the container the terminal serves, half
           keep it pristine and let the transport misbehave instead *)
        let input, mutation, plan =
          if Prng.int rng 2 = 0 then
            let input, mutation = Mutate.random rng bytes in
            (input, mutation, None)
          else (bytes, "wire-faults", Some Xmlac_wire.Fault.default_plan)
        in
        let r =
          Boundary.remote_eval ?plan
            ~rng:(fun n -> Prng.int rng n)
            ~key ~policy:e.policy input
        in
        record ~policy:e.policy_src ~boundary ~mutation ~input
          r.Boundary.outcome;
        (* whatever survives retries and verification must still be the
           oracle's view — except under ECB, which promises no integrity *)
        (match r.Boundary.view with
        | Some events when scheme <> C.Ecb ->
            if not (view_matches ~oracle:oracles.(ei) events) then
              diverged ~policy:e.policy_src ~boundary ~mutation ~input
                "hostile remote terminal accepted with a wrong view"
        | _ -> ()));
    if (i + 1) mod 100 = 0 then progress ~done_:(i + 1) ~total:iterations
  done;
  let per_boundary =
    Hashtbl.fold (fun _ s acc -> s :: acc) boundary_tbl []
    |> List.sort (fun a b -> compare a.b_name b.b_name)
  in
  {
    runs = !runs;
    mutated = !mutated;
    accepted = !accepted;
    rejected = !rejected;
    failures = List.rev !failures;
    per_boundary;
    wall_s = Xmlac_obs.Span.finish span;
  }

(* Replay a channel-eval failure with a provenance collector and a
   capturing Trace sink, rendering the decision trail as prov.v1 JSONL.
   The replay tolerates the crash reproducing (that is the point); an
   aborted run still yields the records completed before the abort. *)
let failure_provenance f =
  match f.policy_src with
  | None -> None
  | Some src -> (
      match Xmlac_core.Policy.of_string src with
      | Error _ | (exception _) -> None
      | Ok policy ->
          let module P = Xmlac_core.Provenance in
          let module T = Xmlac_obs.Trace in
          let buf = Buffer.create 4096 in
          let add_event name fields =
            Buffer.add_string buf (T.jsonl_line { T.name; fields });
            Buffer.add_char buf '\n'
          in
          let meta_name, meta_fields = P.meta_event () in
          add_event meta_name meta_fields;
          let coll = P.collector () in
          let previous = !T.sink in
          T.set_sink (Some (fun e -> add_event e.T.name e.T.fields));
          Fun.protect
            ~finally:(fun () -> T.set_sink previous)
            (fun () ->
              ignore (Boundary.channel_eval ~provenance:coll ~key ~policy f.input));
          List.iter
            (fun r ->
              let name, fields = P.record_event r in
              add_event name fields)
            (P.records coll);
          Some (Buffer.contents buf))

let save_failures ~dir report =
  if report.failures = [] then []
  else begin
    (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
    List.concat
      (List.mapi
         (fun i f ->
           let safe =
             String.map
               (fun c ->
                 match c with
                 | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
                 | _ -> '_')
               f.boundary
           in
           let base = Filename.concat dir (Printf.sprintf "%s__%03d" safe i) in
           let write ext contents =
             let path = base ^ ext in
             let oc = open_out_bin path in
             output_string oc contents;
             close_out oc;
             path
           in
           let paths = [ write ".bin" f.input ] in
           match failure_provenance f with
           | Some jsonl -> paths @ [ write ".prov.jsonl" jsonl ]
           | None -> paths)
         report.failures)
  end
