module C = Xmlac_crypto.Secure_container
module Decoder = Xmlac_skip_index.Decoder
module Wire = Xmlac_wire

type outcome = Accepted | Rejected of string | Crashed of string

type id =
  | Xml_parse
  | Skip_decode
  | Container
  | Channel_eval
  | Policy_text
  | Wire_frame
  | Remote_eval

let all =
  [
    Xml_parse;
    Skip_decode;
    Container;
    Channel_eval;
    Policy_text;
    Wire_frame;
    Remote_eval;
  ]

(* The robustness contract: hostile bytes may only surface through these
   typed channels. Anything else escaping a boundary is a crash — a bug in
   the layer, not in the input. *)
let classify = function
  | Xmlac_xml.Parser.Malformed (reason, pos) ->
      Rejected (Printf.sprintf "malformed XML at byte %d: %s" pos reason)
  | Xmlac_xpath.Parse.Error (reason, pos) ->
      Rejected (Printf.sprintf "invalid XPath at %d: %s" pos reason)
  | Xmlac_skip_index.Error.Error e ->
      Rejected (Xmlac_skip_index.Error.to_string e)
  | Xmlac_core.Error.Stream_error msg ->
      Rejected ("invalid event stream: " ^ msg)
  | C.Corrupt msg -> Rejected ("corrupt container: " ^ msg)
  | C.Integrity_failure msg -> Rejected ("integrity violation: " ^ msg)
  | Wire.Error.Wire e -> Rejected ("wire error: " ^ Wire.Error.to_string e)
  | e -> Crashed (Printexc.to_string e)

let run f = match f () with () -> Accepted | exception e -> classify e

let xml_parse bytes =
  run (fun () -> ignore (Xmlac_xml.Parser.events bytes))

let skip_decode bytes =
  run (fun () ->
      let d = Decoder.of_string bytes in
      let rec drain () =
        match Decoder.next d with Some _ -> drain () | None -> ()
      in
      drain ())

let container ~key bytes =
  run (fun () ->
      let t = C.of_bytes bytes in
      ignore (C.decrypt_all t ~key ~verify:true))

type eval_outcome = {
  outcome : outcome;
  view : Xmlac_xml.Event.t list option;
      (** the delivered events when the pipeline accepted the input *)
}

let channel_eval ?provenance ~key ~policy bytes =
  match
    let t = C.of_bytes bytes in
    let counters = Xmlac_soe.Channel.fresh_counters () in
    let source =
      Xmlac_soe.Channel.source ~verify:true ~container:t ~key counters
    in
    let decoder = Decoder.of_source source in
    let input = Xmlac_core.Input.of_decoder decoder in
    let result = Xmlac_core.Evaluator.run ?provenance ~policy input in
    result.Xmlac_core.Evaluator.events
  with
  | events -> { outcome = Accepted; view = Some events }
  | exception e -> { outcome = classify e; view = None }

let policy_text text =
  match Xmlac_core.Policy.of_string text with
  | Ok _ -> Accepted
  | Error msg -> Rejected msg
  | exception e -> classify e

(* A tiny published container backing the wire-frame boundary: its only
   job is giving [Server.handle_frame] something to serve; the hostile
   part is the frame bytes, not the document. *)
let wire_server =
  lazy
    (let doc = Xmlac_xml.Tree.parse "<r><a>hello</a><b>world</b></r>" in
     let enc =
       Xmlac_skip_index.Encoder.encode ~layout:Xmlac_skip_index.Layout.Tcsbr
         doc
     in
     let key = Xmlac_crypto.Des.Triple.key_of_string "xmlac-fuzz-24-byte-key!!" in
     Wire.Server.make
       (C.encrypt ~chunk_size:512 ~fragment_size:64 ~scheme:C.Ecb_mht ~key enc))

let wire_frame bytes =
  (* the server is total on hostile request frames: any payload must come
     back as a reply (possibly [Err]), never an exception *)
  match Wire.Server.handle_frame (Lazy.force wire_server) bytes with
  | exception e ->
      Crashed ("terminal raised on a request frame: " ^ Printexc.to_string e)
  | _reply, _closing ->
      run (fun () ->
          (* client-side decoders: typed rejection or a decoded value *)
          (match Wire.Protocol.decode_response bytes with
          | Wire.Protocol.Hello_ok meta ->
              (* advertised geometry is hostile too; validation returns
                 [Error], it must not raise *)
              ignore (Wire.Protocol.metadata_geometry meta)
          | Wire.Protocol.Stats_reply json ->
              (* admin-plane snapshots come from the terminal, i.e. the
                 adversary: the decoder returns [Error], never raises *)
              ignore (Wire.Telemetry.of_string json)
          | _ -> ());
          (* telemetry decoder on the raw bytes too, so mutated JSON
             documents reach it without having to survive framing *)
          ignore (Wire.Telemetry.of_string bytes);
          let payload, _next = Wire.Frame.split bytes ~off:0 in
          ignore (Wire.Protocol.decode_request payload))

let remote_eval ?plan ?rng ~key ~policy bytes =
  match
    let t = C.of_bytes bytes in
    let server = Wire.Server.make t in
    let connector () =
      let inner = Wire.Server.loopback_connector server () in
      match (plan, rng) with
      | Some plan, Some rng -> fst (Wire.Fault.wrap ~rng ~plan inner)
      | _ -> inner
    in
    let config =
      { Wire.Client.default_config with attempts = 4; backoff_s = 0. }
    in
    let remote = Xmlac_soe.Remote.connect ~config connector in
    Fun.protect
      ~finally:(fun () -> Xmlac_soe.Remote.close remote)
      (fun () ->
        let counters = Xmlac_soe.Channel.fresh_counters () in
        let source = Xmlac_soe.Remote.source ~verify:true remote ~key counters in
        let decoder = Decoder.of_source source in
        let input = Xmlac_core.Input.of_decoder decoder in
        let result = Xmlac_core.Evaluator.run ~policy input in
        result.Xmlac_core.Evaluator.events)
  with
  | events -> { outcome = Accepted; view = Some events }
  | exception e -> { outcome = classify e; view = None }
