module C = Xmlac_crypto.Secure_container
module Merkle = Xmlac_crypto.Merkle
module Sha1 = Xmlac_crypto.Sha1
module Modes = Xmlac_crypto.Modes

type counters = {
  mutable bytes_to_soe : int;
  mutable bytes_decrypted : int;
  mutable bytes_hashed : int;
  mutable blocks_decrypted : int;
  mutable digests_decrypted : int;
  mutable hashes_verified : int;
  mutable fragment_fetches : int;
  mutable chunk_fetches : int;
  mutable engine_batched_blocks : int;
  mutable engine_merkle_groups : int;
  mutable verify_requested : bool;
  mutable verify_active : bool;
  cache : Lru.stats;
      (* hit/miss/evicted across the session's SOE caches (fragment, chunk,
         digest); driven purely by the deterministic lookup sequence, so
         gate-checked like the byte counters *)
  crypto_hist : Xmlac_obs.Histogram.t;
      (* wall time of each decrypt+verify unit (a chunk fetch or a fragment
         suffix extension); "wall"-prefixed so its metrics escape the perf
         gate *)
}

let fresh_counters () =
  {
    bytes_to_soe = 0;
    bytes_decrypted = 0;
    bytes_hashed = 0;
    blocks_decrypted = 0;
    digests_decrypted = 0;
    hashes_verified = 0;
    fragment_fetches = 0;
    chunk_fetches = 0;
    engine_batched_blocks = 0;
    engine_merkle_groups = 0;
    verify_requested = false;
    verify_active = false;
    cache = Lru.fresh_stats ();
    crypto_hist = Xmlac_obs.Histogram.make "wall_crypto";
  }

let metrics (c : counters) : Xmlac_obs.Metrics.t =
  Xmlac_obs.Metrics.
    [
      int "bytes_to_soe" c.bytes_to_soe;
      int "bytes_decrypted" c.bytes_decrypted;
      int "bytes_hashed" c.bytes_hashed;
      int "blocks_decrypted" c.blocks_decrypted;
      int "digests_decrypted" c.digests_decrypted;
      int "hashes_verified" c.hashes_verified;
      int "fragment_fetches" c.fragment_fetches;
      int "chunk_fetches" c.chunk_fetches;
      int "engine.batched_blocks" c.engine_batched_blocks;
      int "engine.merkle_groups" c.engine_merkle_groups;
      int "verify_requested" (Bool.to_int c.verify_requested);
      int "verify_active" (Bool.to_int c.verify_active);
    ]
  @ Xmlac_obs.Histogram.metrics c.crypto_hist

let cache_metrics (c : counters) : Xmlac_obs.Metrics.t =
  Xmlac_obs.Metrics.
    [
      int "hits" c.cache.Lru.hits;
      int "misses" c.cache.Lru.misses;
      int "evicted" c.cache.Lru.evicted;
    ]

(* per-chunk integrity verdicts flow into the provenance trace when a sink
   is installed; field construction stays behind [Trace.enabled] *)
let emit_chunk_verdict ~chunk ~ok detail =
  if Xmlac_obs.Trace.enabled () then begin
    let name, fields =
      Xmlac_core.Provenance.record_event
        (Xmlac_core.Provenance.Chunk
           { c_chunk = chunk; c_ok = ok; c_detail = detail })
    in
    Xmlac_obs.Trace.emit name fields
  end

let digest_bytes = 20 (* SHA-1: Merkle leaves and sibling digests *)
let hash_state_bytes = 29 + 63 (* serialized mid-stream SHA-1 state, worst case *)

type slice = { s_data : string; s_off : int }

(* Requests the channel can coalesce into one terminal round trip, and
   their replies. Mirrors the individual fetch operations below; the wire
   Batch frame is the remote implementation. *)
type fetch_req =
  | Fetch_fragment of { chunk : int; fragment : int; lo : int; hi : int }
  | Fetch_chunk of { chunk : int }
  | Fetch_digest of { chunk : int }
  | Fetch_hash_state of { chunk : int; fragment : int; upto : int }
  | Fetch_siblings of { chunk : int; fragment : int }

type fetch_reply = Bytes_reply of string | List_reply of string list

(* What the SOE asks of a terminal (paper Appendix A): ciphertext ranges,
   whole chunks, encrypted chunk digests, intermediate hash states of
   fragment prefixes, and Merkle sibling digests. The in-process
   [local_terminal] answers from the container directly; a remote terminal
   answers over the wire. Either way, nothing a terminal returns is trusted:
   the SOE validates lengths and verifies cryptographically before use. *)
type terminal = {
  t_container : C.t;
      (* for the local terminal, the full container; for a remote one, the
         header-only geometry from the (validated) handshake *)
  fetch_fragment : chunk:int -> fragment:int -> lo:int -> hi:int -> slice;
  fetch_chunk : chunk:int -> string;
  fetch_digest : chunk:int -> string;
  fetch_hash_state : chunk:int -> fragment:int -> upto:int -> string;
  fetch_siblings : chunk:int -> fragment:int -> string list;
  fetch_many : (fetch_req list -> fetch_reply list) option;
      (* several fetches in one round trip, replies in request order; None
         when there is no round trip to save (the in-process terminal) *)
}

let local_terminal container =
  let frag_size = C.fragment_size container in
  {
    t_container = container;
    fetch_fragment =
      (fun ~chunk ~fragment ~lo ~hi ->
        ignore hi;
        (* zero-copy: an offset view into the chunk ciphertext *)
        { s_data = C.chunk_ciphertext container chunk;
          s_off = (fragment * frag_size) + lo });
    fetch_chunk = (fun ~chunk -> C.chunk_ciphertext container chunk);
    fetch_digest = (fun ~chunk -> C.encrypted_digest container chunk);
    fetch_hash_state =
      (fun ~chunk ~fragment ~upto ->
        C.hash_state container ~chunk ~fragment ~upto);
    fetch_siblings =
      (fun ~chunk ~fragment ->
        (* by lookup in the container's node table, built once per chunk
           for every terminal on this container (a terminal is an
           ordinary computer and caches freely) *)
        Merkle.siblings (C.chunk_tree container chunk) ~fragment);
    fetch_many = None;
  }

let integrity fmt = Printf.ksprintf (fun m -> raise (C.Integrity_failure m)) fmt

(* Per-fragment SOE state, in reusable buffers: the ciphertext suffix
   received (and verified) so far lives in [fe_cipher] from [avail_from]
   on; decrypted blocks live in [fe_plain] with one flag byte per 8-byte
   block in [fe_flags]. Sibling digests are paid for once per cache
   lifetime. *)
type frag_entry = {
  mutable avail_from : int; (* fragment-local byte offset; frag_size = none *)
  fe_cipher : Bytes.t;
  fe_plain : Bytes.t;
  fe_flags : Bytes.t;
  mutable siblings : string list option;
}

(* CBC chunk state: plaintext plus, for CBC-SHAC, which blocks have been
   (accounting-wise) decrypted — CBC random access decrypts exactly the
   blocks it needs: block i needs only ciphertext blocks i-1 and i. *)
type chunk_entry = { ce_plain : Bytes.t; ce_flags : Bytes.t }

(* A chunk digest as the digest cache holds it: a miss caches the cell at
   once and the window fills it when the encrypted blob arrives, so units
   of one chunk share a single fetch. *)
type digest_cell = string ref

(* the digest of a unit that verifies nothing *)
let no_digest : digest_cell = ref ""

(* One per-fragment slice of a read request, carried through the window's
   build -> fetch -> compute -> commit phases. Fields after [fu_entry] are
   filled in by the build, fetch and compute phases. *)
type frag_unit = {
  fu_chunk : int;
  fu_frag : int;
  fu_lo : int; (* fragment-local *)
  fu_hi : int;
  fu_out : int; (* offset in the result buffer *)
  fu_entry : frag_entry;
  mutable fu_did_ext : bool;
  mutable fu_ext : int; (* aligned lo of the extension *)
  mutable fu_state : string; (* imported SHA-1 mid-state (verify) *)
  mutable fu_digest : digest_cell; (* expected chunk digest (verify) *)
  mutable fu_leaf : string; (* computed leaf hash; the verdict is grouped
                               per chunk after the compute phase *)
  mutable fu_new_blocks : int;
  mutable fu_batched : int; (* blocks decrypted through the batch kernel *)
  mutable fu_ok : bool;
  mutable fu_wall : float;
}

type chunk_unit = {
  cu_chunk : int;
  cu_off : int;
  cu_take : int;
  cu_out : int;
  cu_entry : chunk_entry;
  cu_fresh : bool; (* missed the chunk cache: fetched in this window *)
  mutable cu_cipher : string; (* "" on a cache hit *)
  mutable cu_digest : digest_cell;
  mutable cu_new_blocks : int;
  mutable cu_batched : int;
  mutable cu_ok : bool;
  mutable cu_wall : float;
}

(* A terminal reply as a window absorbs it. A fragment range stays a
   view, so the in-process terminal serves it without a copy. *)
type answer = Range of slice | Data of string | Digests of string list

let fetch_one terminal = function
  | Fetch_fragment { chunk; fragment; lo; hi } ->
      Range (terminal.fetch_fragment ~chunk ~fragment ~lo ~hi)
  | Fetch_chunk { chunk } -> Data (terminal.fetch_chunk ~chunk)
  | Fetch_digest { chunk } -> Data (terminal.fetch_digest ~chunk)
  | Fetch_hash_state { chunk; fragment; upto } ->
      Data (terminal.fetch_hash_state ~chunk ~fragment ~upto)
  | Fetch_siblings { chunk; fragment } ->
      Digests (terminal.fetch_siblings ~chunk ~fragment)

let answer_of_reply = function
  | Bytes_reply s -> Data s
  | List_reply ds -> Digests ds

let unanswered () = integrity "terminal reply does not answer its fetch"

let range_of = function
  | Range sl -> sl
  | Data s -> { s_data = s; s_off = 0 }
  | Digests _ -> unanswered ()

let data_of = function Data s -> s | Range _ | Digests _ -> unanswered ()
let digests_of = function Digests ds -> ds | Range _ | Data _ -> unanswered ()

(* Ask the terminal for a window's fetches and absorb each reply, in
   request order: one [fetch_many] round trip for two or more fetches
   when the terminal batches, one call per fetch otherwise. *)
let fetch_window terminal fetches =
  match terminal.fetch_many with
  | Some many when List.compare_length_with fetches 2 >= 0 ->
      let replies = many (List.map fst fetches) in
      if List.compare_lengths replies fetches <> 0 then
        integrity "terminal answered %d of %d fetches" (List.length replies)
          (List.length fetches);
      List.iter2
        (fun (_, absorb) reply -> absorb (answer_of_reply reply))
        fetches replies
  | _ ->
      List.iter (fun (req, absorb) -> absorb (fetch_one terminal req)) fetches

(* units processed per pipeline window: bounds decrypt-ahead memory, and
   the worst case — 16 ECB-MHT units that each ask for a fragment suffix,
   a hash state, siblings and a chunk digest — fills one Batch of exactly
   [Xmlac_wire.Protocol.max_batch] = 64 fetches *)
let window_units = 16

let rec split_windows lst =
  let rec take n acc rest =
    match rest with
    | [] -> (List.rev acc, [])
    | _ when n = 0 -> (List.rev acc, rest)
    | x :: tl -> take (n - 1) (x :: acc) tl
  in
  match lst with
  | [] -> []
  | _ ->
      let w, rest = take window_units [] lst in
      w :: split_windows rest

(* SOE-side cache capacities, at the paper's smart-card scale: 8
   fragments is about a 2 KB working set, and one decrypted chunk is its
   model of chunk-at-a-time CBC *)
let frag_cache_capacity = 8
let chunk_cache_capacity = 1

let source_of_terminal ?(verify = true) ?engine:_ ~terminal ~key counters =
  let container = terminal.t_container in
  let scheme = C.scheme container in
  let verify_requested = verify in
  let verify = verify && scheme <> C.Ecb in
  counters.verify_requested <- verify_requested;
  counters.verify_active <- verify;
  let chunk_size = C.chunk_size container in
  let frag_size = C.fragment_size container in
  let frags_per_chunk = C.fragments_per_chunk container in
  let payload_len = C.payload_length container in
  (* one key schedule per source, not per decrypted block *)
  let cipher = Modes.of_triple_des_fast key in
  (* did a positional/CBC decrypt of [nblocks] hit the batch kernel? pure
     arithmetic over run lengths, so the engine.* counters stay
     deterministic *)
  let run_batched nblocks = nblocks >= Modes.batch_threshold in
  let cipher_block = match scheme with C.Aes_ctr -> 16 | _ -> 8 in
  let digest_blob_bytes = C.digest_blob_size_for scheme in
  let tree_levels =
    let rec go l n = if n <= 1 then l else go (l + 1) (n / 2) in
    go 0 frags_per_chunk
  in
  (* SOE-side caches, bounded like a smart card's RAM, sharing one stats
     record. All cache operations happen while a window builds its units,
     in unit order, so hit/miss/evicted depend only on the read
     sequence. *)
  let frag_cache : (int * int, frag_entry) Lru.t =
    Lru.create ~capacity:frag_cache_capacity ~stats:counters.cache
  in
  let chunk_cache : (int, chunk_entry) Lru.t =
    Lru.create ~capacity:chunk_cache_capacity ~stats:counters.cache
  in
  let digest_cache : (int, digest_cell) Lru.t =
    Lru.create ~capacity:1 ~stats:counters.cache
  in
  (* The window's terminal fetches, newest first, each with the step that
     absorbs its reply; units add to it while the window builds them. *)
  let pending = ref [] in
  let ask req absorb = pending := (req, absorb) :: !pending in
  let chunk_digest chunk =
    match Lru.find digest_cache chunk with
    | Some cell -> cell
    | None ->
        counters.bytes_to_soe <- counters.bytes_to_soe + digest_blob_bytes;
        counters.bytes_decrypted <- counters.bytes_decrypted + digest_blob_bytes;
        counters.blocks_decrypted <-
          counters.blocks_decrypted + (digest_blob_bytes / cipher_block);
        counters.digests_decrypted <- counters.digests_decrypted + 1;
        let cell = ref "" in
        ask (Fetch_digest { chunk }) (fun a ->
            (* validates the blob size before decrypting *)
            cell := C.decrypt_digest_blob ~scheme ~key ~chunk (data_of a));
        Lru.insert digest_cache chunk cell;
        cell
  in
  let cover_length frag =
    List.length
      (Merkle.sibling_cover ~leaf_count:frags_per_chunk ~lo:frag ~hi:frag)
  in
  (* One pipeline window: build its units in order against the real
     caches, each asking for what it lacks; fetch and absorb the replies;
     then compute, and commit into [out] in unit order. *)
  let run_window ~kind ~build ~compute ~commit out tuples =
    (* phase events bracket the window when a trace sink is on; field
       construction stays behind the guard like [emit_chunk_verdict] *)
    let traced = Xmlac_obs.Trace.enabled () in
    let phase name =
      if traced then
        Xmlac_obs.Span.event name
          [
            ("kind", Xmlac_obs.Json.String kind);
            ("units", Xmlac_obs.Json.Int (List.length tuples));
          ]
    in
    phase "channel.plan";
    let units = List.map build tuples in
    let fetches = List.rev !pending in
    pending := [];
    fetch_window terminal fetches;
    phase "channel.fetch";
    List.iter compute units;
    phase "channel.compute";
    commit out units;
    phase "channel.commit"
  in

  (* {2 ECB-family path: per-fragment units} *)
  let new_frag_entry () =
    {
      avail_from = frag_size;
      fe_cipher = Bytes.create frag_size;
      fe_plain = Bytes.create frag_size;
      fe_flags = Bytes.make (frag_size / 8) '\000';
      siblings = None;
    }
  in
  (* Appendix A: to let the SOE verify a fragment it reads from byte [lo]
     on, the terminal sends the ciphertext suffix, the intermediate SHA-1
     state of the prefix (the leaf hash covers chunk and fragment ids plus
     the whole fragment ciphertext), the Merkle sibling digests, and the
     encrypted ChunkDigest. Building the unit asks for what its entry
     lacks; absorbing a reply validates and charges it. Hashing, Merkle
     reconstruction and block decryption run in the compute phase. *)
  let frag_unit (chunk, frag, lo, hi, out) =
    let entry =
      match Lru.find frag_cache (chunk, frag) with
      | Some e -> e
      | None ->
          let e = new_frag_entry () in
          Lru.insert frag_cache (chunk, frag) e;
          e
    in
    let u =
      {
        fu_chunk = chunk;
        fu_frag = frag;
        fu_lo = lo;
        fu_hi = hi;
        fu_out = out;
        fu_entry = entry;
        fu_did_ext = false;
        fu_ext = 0;
        fu_state = "";
        fu_digest = no_digest;
        fu_leaf = "";
        fu_new_blocks = 0;
        fu_batched = 0;
        fu_ok = false;
        fu_wall = 0.;
      }
    in
    let aligned = lo / 8 * 8 in
    let avail = entry.avail_from in
    if aligned < avail then begin
      counters.fragment_fetches <- counters.fragment_fetches + 1;
      u.fu_did_ext <- true;
      u.fu_ext <- aligned;
      ask (Fetch_fragment { chunk; fragment = frag; lo = aligned; hi = avail })
        (fun a ->
          let sl = range_of a in
          let served = String.length sl.s_data - sl.s_off in
          if served < avail - aligned then
            integrity "chunk %d fragment %d: served %d bytes for range [%d, %d)"
              chunk frag served aligned avail;
          counters.bytes_to_soe <- counters.bytes_to_soe + (avail - aligned);
          Bytes.blit_string sl.s_data sl.s_off entry.fe_cipher aligned
            (avail - aligned);
          entry.avail_from <- aligned);
      if verify then begin
        ask (Fetch_hash_state { chunk; fragment = frag; upto = aligned })
          (fun a ->
            counters.bytes_to_soe <- counters.bytes_to_soe + hash_state_bytes;
            u.fu_state <- data_of a);
        if Option.is_none entry.siblings then
          ask (Fetch_siblings { chunk; fragment = frag }) (fun a ->
              let ds = digests_of a in
              let expect = cover_length frag in
              if List.length ds <> expect then
                integrity
                  "chunk %d fragment %d: %d sibling digests for a cover of %d"
                  chunk frag (List.length ds) expect;
              counters.bytes_to_soe <-
                counters.bytes_to_soe + (digest_bytes * List.length ds);
              entry.siblings <- Some ds);
        u.fu_digest <- chunk_digest chunk
      end
    end;
    u
  in
  let frag_needs_compute u =
    if u.fu_did_ext then true
    else begin
      let e = u.fu_entry in
      let needed = ref false in
      for b = u.fu_lo / 8 to (u.fu_hi - 1) / 8 do
        if Bytes.get e.fe_flags b = '\000' then needed := true
      done;
      !needed
    end
  in
  (* per-unit work: hash the extended suffix into its Merkle leaf, decrypt
     the blocks covering the requested range. Touches only this unit's
     entry; the root check waits for the window's chunk groups, all
     counter charges for the commit phase. *)
  let compute_frag u =
    let t0 = Xmlac_obs.Span.now () in
    let e = u.fu_entry in
    if u.fu_did_ext && verify then begin
      let ctx =
        try Sha1.import_state u.fu_state
        with Invalid_argument _ ->
          integrity "chunk %d fragment %d: malformed hash state" u.fu_chunk
            u.fu_frag
      in
      Sha1.feed_sub ctx
        (Bytes.unsafe_to_string e.fe_cipher)
        ~pos:u.fu_ext ~len:(frag_size - u.fu_ext);
      u.fu_leaf <- Sha1.finalize ctx
    end;
    (* decrypt each maximal run of still-encrypted blocks in one call, so
       whole-fragment extensions (32 blocks) reach the bitsliced kernel
       instead of going block-at-a-time *)
    let src = Bytes.unsafe_to_string e.fe_cipher in
    let b1 = (u.fu_hi - 1) / 8 in
    let b = ref (u.fu_lo / 8) in
    while !b <= b1 do
      if Bytes.get e.fe_flags !b <> '\000' then incr b
      else begin
        let run = !b in
        while !b <= b1 && Bytes.get e.fe_flags !b = '\000' do
          Bytes.set e.fe_flags !b '\001';
          incr b
        done;
        let nblocks = !b - run in
        Modes.positional_decrypt_into cipher
          ~base:
            ((u.fu_chunk * chunk_size) + (u.fu_frag * frag_size) + (run * 8))
          ~src ~src_pos:(run * 8) ~dst:e.fe_plain ~dst_pos:(run * 8)
          ~len:(nblocks * 8);
        u.fu_new_blocks <- u.fu_new_blocks + nblocks;
        if run_batched nblocks then u.fu_batched <- u.fu_batched + nblocks
      end
    done;
    u.fu_wall <- Xmlac_obs.Span.now () -. t0
  in
  (* Batched Merkle verification: one root recombination per distinct
     chunk in the window, over all the window's computed leaves of that
     chunk and their sibling digests ([Merkle.root_from_group] keeps a
     tampered leaf from hiding behind another member's cover). Runs
     between compute and commit, so verdicts are committed in unit
     order. *)
  let verify_frag_group us =
    match us with
    | [] -> ()
    | u0 :: _ ->
        let group =
          List.map
            (fun u ->
              match u.fu_entry.siblings with
              | Some ds -> (u.fu_frag, u.fu_leaf, ds)
              | None -> assert false)
            us
        in
        let root =
          match Merkle.root_from_group ~leaf_count:frags_per_chunk group with
          | Some r -> r
          | None -> raise (C.Integrity_failure "incomplete Merkle cover")
        in
        (* constant-time: the sealed root derives from the key, the digest
           came from the untrusted terminal *)
        let ok =
          Xmlac_crypto.Ct.equal
            (C.seal_root container ~chunk:u0.fu_chunk ~root)
            !(u0.fu_digest)
        in
        List.iter (fun u -> u.fu_ok <- ok) us;
        counters.engine_merkle_groups <- counters.engine_merkle_groups + 1
  in
  let verify_frag_groups units =
    let extended = List.filter (fun u -> u.fu_did_ext) units in
    List.sort_uniq compare (List.map (fun u -> u.fu_chunk) extended)
    |> List.iter (fun chunk ->
           verify_frag_group
             (List.filter (fun u -> u.fu_chunk = chunk) extended))
  in
  let commit_frag out u =
    let e = u.fu_entry in
    if u.fu_did_ext && verify then begin
      counters.bytes_hashed <-
        counters.bytes_hashed + (frag_size - u.fu_ext)
        + (2 * digest_bytes * tree_levels);
      emit_chunk_verdict ~chunk:u.fu_chunk ~ok:u.fu_ok
        (Printf.sprintf "fragment %d Merkle root %s" u.fu_frag
           (if u.fu_ok then "verified" else "mismatch"));
      if not u.fu_ok then
        integrity "chunk %d fragment %d: Merkle root mismatch" u.fu_chunk
          u.fu_frag;
      counters.hashes_verified <- counters.hashes_verified + 1
    end;
    if u.fu_new_blocks > 0 then begin
      counters.bytes_decrypted <- counters.bytes_decrypted + (8 * u.fu_new_blocks);
      counters.blocks_decrypted <- counters.blocks_decrypted + u.fu_new_blocks
    end;
    if u.fu_batched > 0 then
      counters.engine_batched_blocks <-
        counters.engine_batched_blocks + u.fu_batched;
    if u.fu_did_ext && verify then
      Xmlac_obs.Histogram.observe counters.crypto_hist u.fu_wall;
    Bytes.blit e.fe_plain u.fu_lo out u.fu_out (u.fu_hi - u.fu_lo)
  in
  let frag_window =
    run_window ~kind:"fragment" ~build:frag_unit
      ~compute:(fun u -> if frag_needs_compute u then compute_frag u)
      ~commit:(fun out units ->
        if verify then verify_frag_groups units;
        List.iter (commit_frag out) units)
  in
  (* the hot case — a small read fully inside an already-decrypted
     fragment — skips the window machinery: one counted cache hit, one
     blit, nothing else, exactly like the general path would account it *)
  let fast_frag_read out chunk frag lo hi =
    match Lru.peek frag_cache (chunk, frag) with
    | Some e ->
        let ready = ref true in
        for b = lo / 8 to (hi - 1) / 8 do
          if Bytes.get e.fe_flags b = '\000' then ready := false
        done;
        if !ready then begin
          ignore (Lru.find frag_cache (chunk, frag));
          Bytes.blit e.fe_plain lo out 0 (hi - lo);
          true
        end
        else false
    | None -> false
  in
  let read_frags out ~pos ~len =
    let rec split acc cur remaining out_off =
      if remaining = 0 then List.rev acc
      else begin
        let chunk = cur / chunk_size in
        let offset = cur mod chunk_size in
        let frag = offset / frag_size in
        let lo = offset mod frag_size in
        let take = min remaining (frag_size - lo) in
        split
          ((chunk, frag, lo, lo + take, out_off) :: acc)
          (cur + take) (remaining - take) (out_off + take)
      end
    in
    match split [] pos len 0 with
    | [ (chunk, frag, lo, hi, _) ] when fast_frag_read out chunk frag lo hi ->
        ()
    | tuples -> List.iter (frag_window out) (split_windows tuples)
  in

  (* {2 CBC path: per-chunk units (no random access inside a chunk)} *)
  let chunk_unit (chunk, off, take, out) =
    let cached = Lru.find chunk_cache chunk in
    let u =
      {
        cu_chunk = chunk;
        cu_off = off;
        cu_take = take;
        cu_out = out;
        cu_entry =
          (match cached with
          | Some e -> e
          | None ->
              {
                ce_plain = Bytes.create chunk_size;
                ce_flags = Bytes.make (chunk_size / 8) '\000';
              });
        cu_fresh = Option.is_none cached;
        cu_cipher = "";
        cu_digest = no_digest;
        cu_new_blocks = 0;
        cu_batched = 0;
        cu_ok = false;
        cu_wall = 0.;
      }
    in
    if u.cu_fresh then begin
      counters.chunk_fetches <- counters.chunk_fetches + 1;
      counters.bytes_to_soe <- counters.bytes_to_soe + chunk_size;
      ask (Fetch_chunk { chunk }) (fun a -> u.cu_cipher <- data_of a);
      Lru.insert chunk_cache chunk u.cu_entry;
      if verify then u.cu_digest <- chunk_digest chunk
    end;
    u
  in
  let chunk_needs_compute u =
    u.cu_fresh
    ||
    (scheme = C.Cbc_shac
    &&
    let e = u.cu_entry in
    let needed = ref false in
    for b = u.cu_off / 8 to (u.cu_off + u.cu_take - 1) / 8 do
      if Bytes.get e.ce_flags b = '\000' then needed := true
    done;
    !needed)
  in
  let compute_chunk u =
    let t0 = Xmlac_obs.Span.now () in
    let e = u.cu_entry in
    if u.cu_fresh then begin
      (* validates the ciphertext size before decrypting; [ctx] is the
         session's kernel cipher (unused by the AES-CTR scheme) *)
      C.decrypt_chunk_cipher_into ~ctx:cipher container ~key ~chunk:u.cu_chunk
        ~cipher:u.cu_cipher ~dst:e.ce_plain;
      (match scheme with
      | C.Aes_ctr -> ()
      | _ -> u.cu_batched <- (if run_batched (chunk_size / 8) then chunk_size / 8 else 0));
      if verify then begin
        let expected =
          match scheme with
          | C.Cbc_sha ->
              C.expected_digest_of_plain container ~chunk:u.cu_chunk
                ~plain:(Bytes.unsafe_to_string e.ce_plain)
          | C.Cbc_shac | C.Aes_ctr ->
              C.expected_digest_of_cipher container ~chunk:u.cu_chunk
                ~cipher:u.cu_cipher
          | C.Ecb | C.Ecb_mht -> assert false
        in
        u.cu_ok <- Xmlac_crypto.Ct.equal expected !(u.cu_digest)
      end
    end;
    if scheme = C.Cbc_shac then
      for b = u.cu_off / 8 to (u.cu_off + u.cu_take - 1) / 8 do
        if Bytes.get e.ce_flags b = '\000' then begin
          Bytes.set e.ce_flags b '\001';
          u.cu_new_blocks <- u.cu_new_blocks + 1
        end
      done;
    u.cu_wall <- Xmlac_obs.Span.now () -. t0
  in
  let commit_chunk out u =
    let e = u.cu_entry in
    if u.cu_fresh then begin
      (match scheme with
      | C.Cbc_sha | C.Aes_ctr ->
          (* whole-chunk decrypt on fetch; CBC-SHAC instead charges blocks
             as they are requested, below *)
          counters.bytes_decrypted <- counters.bytes_decrypted + chunk_size;
          counters.blocks_decrypted <-
            counters.blocks_decrypted + (chunk_size / cipher_block)
      | _ -> ());
      if u.cu_batched > 0 then
        counters.engine_batched_blocks <-
          counters.engine_batched_blocks + u.cu_batched;
      if verify then begin
        counters.bytes_hashed <- counters.bytes_hashed + chunk_size;
        emit_chunk_verdict ~chunk:u.cu_chunk ~ok:u.cu_ok
          (Printf.sprintf "%s digest %s"
             (if scheme = C.Cbc_sha then "plaintext" else "ciphertext")
             (if u.cu_ok then "verified" else "mismatch"));
        if not u.cu_ok then
          integrity "chunk %d: %s digest mismatch" u.cu_chunk
            (if scheme = C.Cbc_sha then "plaintext" else "ciphertext");
        counters.hashes_verified <- counters.hashes_verified + 1
      end;
      Xmlac_obs.Histogram.observe counters.crypto_hist u.cu_wall
    end;
    if u.cu_new_blocks > 0 then begin
      counters.bytes_decrypted <- counters.bytes_decrypted + (8 * u.cu_new_blocks);
      counters.blocks_decrypted <- counters.blocks_decrypted + u.cu_new_blocks
    end;
    Bytes.blit e.ce_plain u.cu_off out u.cu_out u.cu_take
  in
  let chunk_window =
    run_window ~kind:"chunk" ~build:chunk_unit
      ~compute:(fun u -> if chunk_needs_compute u then compute_chunk u)
      ~commit:(fun out units -> List.iter (commit_chunk out) units)
  in
  let fast_chunk_read out chunk off take =
    match Lru.peek chunk_cache chunk with
    | Some e ->
        let ready = ref true in
        if scheme = C.Cbc_shac then
          for b = off / 8 to (off + take - 1) / 8 do
            if Bytes.get e.ce_flags b = '\000' then ready := false
          done;
        if !ready then begin
          ignore (Lru.find chunk_cache chunk);
          Bytes.blit e.ce_plain off out 0 take;
          true
        end
        else false
    | None -> false
  in
  let read_chunks out ~pos ~len =
    let rec split acc cur remaining out_off =
      if remaining = 0 then List.rev acc
      else begin
        let chunk = cur / chunk_size in
        let offset = cur mod chunk_size in
        let take = min remaining (chunk_size - offset) in
        split
          ((chunk, offset, take, out_off) :: acc)
          (cur + take) (remaining - take) (out_off + take)
      end
    in
    match split [] pos len 0 with
    | [ (chunk, off, take, _) ] when fast_chunk_read out chunk off take -> ()
    | tuples -> List.iter (chunk_window out) (split_windows tuples)
  in

  (* The first exception that escapes a read poisons the source: a failed
     fetch or verification aborts the session, so every later read
     re-raises it instead of serving what the failed window left in the
     caches. *)
  let poisoned = ref None in
  let read ~pos ~len =
    match !poisoned with
    | Some e -> raise e
    | None -> (
        try
          if len = 0 then ""
          else begin
            let out = Bytes.create len in
            (match scheme with
            | C.Ecb | C.Ecb_mht -> read_frags out ~pos ~len
            | C.Cbc_sha | C.Cbc_shac | C.Aes_ctr -> read_chunks out ~pos ~len);
            Bytes.unsafe_to_string out
          end
        with e ->
          poisoned := Some e;
          raise e)
  in
  { Xmlac_skip_index.Decoder.read; length = payload_len }

let source ?verify ~container ~key counters =
  source_of_terminal ?verify ~terminal:(local_terminal container) ~key counters
