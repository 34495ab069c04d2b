module C = Xmlac_crypto.Secure_container
module Wire = Xmlac_wire

type t = { client : Wire.Client.t; terminal : Channel.terminal }

let handshake_error fmt =
  Printf.ksprintf
    (fun m -> raise (Wire.Error.Wire (Wire.Error.Handshake m)))
    fmt

let integrity fmt =
  Printf.ksprintf (fun m -> raise (C.Integrity_failure m)) fmt

(* A remote terminal must serve fragment ranges exactly: over- and
   under-serving are both treated as tampering, with the same failure the
   in-process channel raises. (The local terminal serves views into chunk
   ciphertext, where only under-serving is possible.) *)
let check_fragment_length ~chunk ~fragment ~lo ~hi cipher =
  if String.length cipher <> hi - lo then
    integrity "chunk %d fragment %d: served %d bytes for range [%d, %d)" chunk
      fragment (String.length cipher) lo hi

let request_of_fetch : Channel.fetch_req -> Wire.Protocol.request = function
  | Channel.Fetch_fragment { chunk; fragment; lo; hi } ->
      Wire.Protocol.Get_fragment { chunk; fragment; lo; hi }
  | Channel.Fetch_chunk { chunk } -> Wire.Protocol.Get_chunk { chunk }
  | Channel.Fetch_digest { chunk } -> Wire.Protocol.Get_digest { chunk }
  | Channel.Fetch_hash_state { chunk; fragment; upto } ->
      Wire.Protocol.Get_hash_state { chunk; fragment; upto }
  | Channel.Fetch_siblings { chunk; fragment } ->
      Wire.Protocol.Get_siblings { chunk; fragment }

let reply_of_response req (resp : Wire.Protocol.response) : Channel.fetch_reply
    =
  match (req, resp) with
  | Channel.Fetch_fragment { chunk; fragment; lo; hi }, Wire.Protocol.Fragment c
    ->
      check_fragment_length ~chunk ~fragment ~lo ~hi c;
      Channel.Bytes_reply c
  | Channel.Fetch_chunk _, Wire.Protocol.Chunk c -> Channel.Bytes_reply c
  | Channel.Fetch_digest _, Wire.Protocol.Digest b -> Channel.Bytes_reply b
  | Channel.Fetch_hash_state _, Wire.Protocol.Hash_state s ->
      Channel.Bytes_reply s
  | Channel.Fetch_siblings _, Wire.Protocol.Siblings ds ->
      Channel.List_reply ds
  | _ ->
      (* [Client.fetch_batch] already rejected kind mismatches *)
      Wire.Error.protocolf "batch reply does not answer its request"

(* A window's fetches as one Batch frame, replies in request order. A
   window asks at most [Wire.Protocol.max_batch] fetches (16 units of at
   most four each), and the encoder rejects more. *)
let fetch_many client reqs =
  List.map2 reply_of_response reqs
    (Wire.Client.fetch_batch client (List.map request_of_fetch reqs))

let connect ?config ?container ?trace_id ?expect_scheme connector =
  let config =
    match container with
    | None -> config
    | Some id ->
        let base =
          Option.value config ~default:Wire.Client.default_config
        in
        Some { base with Wire.Client.container = id }
  in
  let config =
    match trace_id with
    | None -> config
    | Some trace ->
        let base =
          Option.value config ~default:Wire.Client.default_config
        in
        Some { base with Wire.Client.trace }
  in
  let client = Wire.Client.connect ?config connector in
  let meta = Wire.Client.metadata client in
  (match expect_scheme with
  | Some s when s <> meta.Wire.Protocol.scheme ->
      Wire.Client.close client;
      handshake_error "terminal advertises scheme %s, expected %s"
        (C.scheme_to_string meta.Wire.Protocol.scheme)
        (C.scheme_to_string s)
  | _ -> ());
  match Wire.Protocol.metadata_geometry meta with
  | Error msg ->
      Wire.Client.close client;
      handshake_error "%s" msg
  | Ok container ->
      let terminal =
        {
          Channel.t_container = container;
          fetch_fragment =
            (fun ~chunk ~fragment ~lo ~hi ->
              let c =
                Wire.Client.fetch_fragment client ~chunk ~fragment ~lo ~hi
              in
              check_fragment_length ~chunk ~fragment ~lo ~hi c;
              { Channel.s_data = c; s_off = 0 });
          fetch_chunk = (fun ~chunk -> Wire.Client.fetch_chunk client ~chunk);
          fetch_digest = (fun ~chunk -> Wire.Client.fetch_digest client ~chunk);
          fetch_hash_state =
            (fun ~chunk ~fragment ~upto ->
              Wire.Client.fetch_hash_state client ~chunk ~fragment ~upto);
          fetch_siblings =
            (fun ~chunk ~fragment ->
              Wire.Client.fetch_siblings client ~chunk ~fragment);
          fetch_many = Some (fetch_many client);
        }
      in
      { client; terminal }

let terminal t = t.terminal
let metadata t = Wire.Client.metadata t.client
let geometry t = t.terminal.Channel.t_container
let wire_stats t = Wire.Client.stats t.client
let trace_granted t = Wire.Client.trace_granted t.client
let trace_id t = Wire.Client.trace t.client
let fetch_stats t = Wire.Client.fetch_stats t.client

let source ?verify t ~key counters =
  Channel.source_of_terminal ?verify ~terminal:t.terminal ~key counters

let close t = Wire.Client.close t.client
