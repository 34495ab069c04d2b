module C = Xmlac_crypto.Secure_container
module Delta = Xmlac_dissem.Delta

type t = {
  connector : unit -> Transport.t;
  config : Client.config;
  mutable client : Client.t;
  mutable container : C.t;
  mutable revoked : string list;
  (* counters of clients already replaced by the fresh-client fallback,
     so [stats] never loses paid bytes across a refetch *)
  totals : Stats.t;
}

type outcome =
  | Uptodate
  | Applied of {
      from_gen : int;
      to_gen : int;
      delta_bytes : int;
      revoked : string list;
    }
  | Refetched of { to_gen : int; bytes : int }

let container t = t.container
let generation t = C.generation t.container
let revoked t = t.revoked

let stats t =
  let s = Stats.make () in
  Stats.add ~into:s t.totals;
  Stats.add ~into:s (Client.stats t.client);
  s

(* Fetch one group of chunks (and their digests) through a single Batch
   frame; the per-item payload accounting inside [fetch_batch] matches
   what the individual fetches would charge. *)
let fetch_group cl ~digests ~bytes chunks =
  let reqs =
    List.concat_map
      (fun i ->
        Protocol.Get_chunk { chunk = i }
        :: (if digests then [ Protocol.Get_digest { chunk = i } ] else []))
      chunks
  in
  let resps = ref (Client.fetch_batch cl reqs) in
  let next kind =
    match !resps with
    | r :: rest ->
        resps := rest;
        r
    | [] -> Error.protocolf "batch reply ran out before %s" kind
  in
  List.map
    (fun i ->
      let cipher =
        match next "chunk" with
        | Protocol.Chunk c -> c
        | r -> Error.protocolf "expected chunk, got %s" (Client.response_kind r)
      in
      let digest =
        if not digests then ""
        else
          match next "digest" with
          | Protocol.Digest d -> d
          | r ->
              Error.protocolf "expected digest, got %s" (Client.response_kind r)
      in
      bytes := !bytes + String.length cipher + String.length digest;
      (i, cipher, digest))
    chunks

(* The whole container over the data plane: every chunk plus (under a
   digest-bearing scheme) its encrypted digest, grafted onto the
   handshake's geometry view. Versions come out uniform at the advertised
   generation — a full fetch has no per-chunk history, and a conservative
   version vector only ever costs the next sync extra full entries. *)
let full_fetch cl =
  let meta = Client.metadata cl in
  let base =
    match Protocol.metadata_geometry meta with
    | Ok c -> c
    | Error m -> Error.protocolf "origin advertises invalid geometry: %s" m
  in
  let n = meta.Protocol.chunk_count in
  let digests = meta.Protocol.scheme <> C.Ecb in
  let bytes = ref 0 in
  let all = List.init n Fun.id in
  let fetched =
    if n > 1 then begin
      let per = if digests then 2 else 1 in
      let group = max 1 (Protocol.max_batch / per) in
      let rec go acc = function
        | [] -> List.concat (List.rev acc)
        | rest ->
            let k = min group (List.length rest) in
            let now = List.filteri (fun i _ -> i < k) rest in
            let later = List.filteri (fun i _ -> i >= k) rest in
            go (fetch_group cl ~digests ~bytes now :: acc) later
      in
      go [] all
    end
    else
      List.map
        (fun i ->
          let cipher = Client.fetch_chunk cl ~chunk:i in
          let digest = if digests then Client.fetch_digest cl ~chunk:i else "" in
          bytes := !bytes + String.length cipher + String.length digest;
          (i, cipher, digest))
        all
  in
  let full =
    List.map
      (fun (i, cipher, digest) -> (i, meta.Protocol.generation, cipher, digest))
      fetched
  in
  match
    C.patch base ~payload_length:meta.Protocol.payload_length
      ~generation:meta.Protocol.generation ~key_epoch:meta.Protocol.key_epoch
      ~full ~reseals:[]
  with
  | Ok c -> (c, !bytes)
  | Error m -> Error.protocolf "full fetch rejected: %s" m

let fetch ?(config = Client.default_config) connector =
  let client = Client.connect ~config connector in
  let container, _ = full_fetch client in
  { connector; config; client; container; revoked = []; totals = Stats.make () }

let of_container ?(config = Client.default_config) connector container =
  let client = Client.connect ~config connector in
  { connector; config; client; container; revoked = []; totals = Stats.make () }

(* A republished origin advertises different metadata, and the client
   (correctly) refuses to resume a session across that change — the full
   fetch therefore always runs on a fresh client. *)
let refetch t =
  Stats.add ~into:t.totals (Client.stats t.client);
  (try Client.close t.client with _ -> ());
  t.client <- Client.connect ~config:t.config t.connector;
  let container, bytes = full_fetch t.client in
  t.container <- container;
  Refetched { to_gen = C.generation container; bytes }

let sync t =
  let from_gen = generation t in
  match Client.sync t.client ~have_gen:from_gen with
  | `Uptodate -> Uptodate
  | `Delta encoded -> (
      match Delta.decode encoded with
      | Error m -> Error.protocolf "undecodable sync delta: %s" m
      | Ok d -> (
          match Delta.apply t.container d with
          | Error m -> Error.protocolf "sync delta rejected: %s" m
          | Ok container ->
              t.container <- container;
              t.revoked <- d.Delta.revoked;
              Applied
                {
                  from_gen;
                  to_gen = C.generation container;
                  delta_bytes = String.length encoded;
                  revoked = d.Delta.revoked;
                }))
  | exception Error.Wire (Error.Server { code; _ })
    when code = Protocol.err_out_of_range ->
      (* the origin cannot bridge our lineage *)
      refetch t
  | exception Error.Wire (Error.Handshake _) ->
      (* reconnect mid-sync found changed metadata: same fallback *)
      refetch t

let close t = Client.close t.client
