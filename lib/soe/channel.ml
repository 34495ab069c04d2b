module C = Xmlac_crypto.Secure_container
module Merkle = Xmlac_crypto.Merkle
module Sha1 = Xmlac_crypto.Sha1
module Modes = Xmlac_crypto.Modes
module Engine = Xmlac_crypto.Engine

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

let be_bytes value width =
  String.init width (fun i -> Char.chr ((value lsr (8 * (width - 1 - i))) land 0xFF))

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
  (* terminal-side memo of per-chunk fragment leaf hashes (the terminal is
     an ordinary computer and caches freely) *)
  let terminal_leaves : (int, string array) Hashtbl.t = Hashtbl.create 8 in
  let frags_per_chunk = C.fragments_per_chunk container in
  let frag_size = C.fragment_size container in
  let leaf_hash chunk fragment =
    C.fragment_leaf_hash_sub container ~chunk ~fragment
      ~cipher:(C.chunk_ciphertext container chunk)
      ~pos:(fragment * frag_size) ~len:frag_size
  in
  let leaves chunk =
    match Hashtbl.find_opt terminal_leaves chunk with
    | Some l -> l
    | None ->
        let l = Array.init frags_per_chunk (fun i -> leaf_hash chunk i) in
        Hashtbl.replace terminal_leaves chunk l;
        l
  in
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
        let ctx = Sha1.init () in
        Sha1.feed ctx (be_bytes chunk 4);
        Sha1.feed ctx (be_bytes fragment 4);
        Sha1.feed_sub ctx (C.chunk_ciphertext container chunk)
          ~pos:(fragment * frag_size) ~len:upto;
        Sha1.export_state ctx);
    fetch_siblings =
      (fun ~chunk ~fragment ->
        let cover =
          Merkle.sibling_cover ~leaf_count:frags_per_chunk ~lo:fragment
            ~hi:fragment
        in
        List.map (Merkle.node_hash (leaves chunk)) cover);
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

(* One per-fragment slice of a read request, carried through the window's
   fetch -> compute -> commit phases. Fields after [fu_out] are filled in
   by the fetch and compute phases. *)
type frag_unit = {
  fu_chunk : int;
  fu_frag : int;
  fu_lo : int; (* fragment-local *)
  fu_hi : int;
  fu_out : int; (* offset in the result buffer *)
  mutable fu_entry : frag_entry;
  mutable fu_did_ext : bool;
  mutable fu_ext : int; (* aligned lo of the extension *)
  mutable fu_state : string; (* imported SHA-1 mid-state (verify) *)
  mutable fu_digest : string; (* expected chunk digest (verify) *)
  mutable fu_leaf : string; (* computed leaf hash (fast engine: verdict is
                               grouped per chunk after the compute phase) *)
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
  mutable cu_entry : chunk_entry;
  mutable cu_cipher : string; (* "" on a cache hit *)
  mutable cu_fresh : bool;
  mutable cu_digest : string;
  mutable cu_new_blocks : int;
  mutable cu_batched : int;
  mutable cu_ok : bool;
  mutable cu_wall : float;
}

(* A list-backed simulation of an [Lru]'s key set, used by the prefetch
   planner to predict — exactly — which fetches the coming window will
   perform, without touching the real caches. Mirrors [Lru.find]'s
   recency refresh and [Lru.insert]'s evict-beyond-capacity. *)
module Shadow = struct
  type 'k t = { mutable keys : 'k list; cap : int }

  let of_lru lru = { keys = Lru.keys_mru lru; cap = Lru.capacity lru }

  let find t k =
    if List.mem k t.keys then begin
      t.keys <- k :: List.filter (fun x -> x <> k) t.keys;
      true
    end
    else false

  let insert t k =
    if List.mem k t.keys then
      t.keys <- k :: List.filter (fun x -> x <> k) t.keys
    else begin
      t.keys <- k :: t.keys;
      if List.length t.keys > t.cap then
        t.keys <- List.filteri (fun i _ -> i < t.cap) t.keys
    end
end

(* units processed per pipeline window: bounds decrypt-ahead memory, keeps
   a worst-case Batch well under the wire's frame caps *)
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

let source_of_terminal ?(verify = true) ?(cache_fragments = 8)
    ?(cache_chunks = 1) ?(engine = Engine.default) ~terminal ~key counters =
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
  let cipher = Engine.cipher engine key in
  (* one key schedule per source, not per decrypted block *)
  let fast = engine = Engine.Fast in
  (* did a positional/CBC decrypt of [nblocks] hit the batch kernel? pure
     arithmetic over the engine choice, so the engine.* counters stay
     deterministic *)
  let run_batched nblocks =
    cipher.Modes.decrypt_blocks <> None && nblocks >= Modes.batch_threshold
  in
  let cipher_block = match scheme with C.Aes_ctr -> 16 | _ -> 8 in
  let digest_blob_bytes = C.digest_blob_size_for scheme in
  let tree_levels =
    let rec go l n = if n <= 1 then l else go (l + 1) (n / 2) in
    go 0 frags_per_chunk
  in
  (* SOE-side caches, bounded like a smart card's RAM, sharing one stats
     record. All cache operations happen in the fetch phase, in unit order,
     so hit/miss/evicted depend only on the read sequence. *)
  let frag_cache : (int * int, frag_entry) Lru.t =
    Lru.create ~capacity:cache_fragments ~stats:counters.cache
  in
  let chunk_cache : (int, chunk_entry) Lru.t =
    Lru.create ~capacity:cache_chunks ~stats:counters.cache
  in
  let digest_cache : (int, string) Lru.t =
    Lru.create ~capacity:1 ~stats:counters.cache
  in
  (* Prefetched replies for the current window, consumed in order by the
     q_* fetchers below. The planner predicts fetches exactly; a mismatch
     is a channel bug and fails loudly rather than desynchronizing the
     byte accounting. *)
  let prefetched : (fetch_req * fetch_reply) list ref = ref [] in
  let take_prefetched req =
    match !prefetched with
    | (r, reply) :: rest when r = req ->
        prefetched := rest;
        Some reply
    | [] -> None
    | _ :: _ -> invalid_arg "Channel: prefetch desynchronized"
  in
  let q_fragment ~chunk ~fragment ~lo ~hi =
    match take_prefetched (Fetch_fragment { chunk; fragment; lo; hi }) with
    | Some (Bytes_reply s) -> { s_data = s; s_off = 0 }
    | Some (List_reply _) -> invalid_arg "Channel: prefetch desynchronized"
    | None -> terminal.fetch_fragment ~chunk ~fragment ~lo ~hi
  in
  let q_chunk ~chunk =
    match take_prefetched (Fetch_chunk { chunk }) with
    | Some (Bytes_reply s) -> s
    | Some (List_reply _) -> invalid_arg "Channel: prefetch desynchronized"
    | None -> terminal.fetch_chunk ~chunk
  in
  let q_digest ~chunk =
    match take_prefetched (Fetch_digest { chunk }) with
    | Some (Bytes_reply s) -> s
    | Some (List_reply _) -> invalid_arg "Channel: prefetch desynchronized"
    | None -> terminal.fetch_digest ~chunk
  in
  let q_state ~chunk ~fragment ~upto =
    match take_prefetched (Fetch_hash_state { chunk; fragment; upto }) with
    | Some (Bytes_reply s) -> s
    | Some (List_reply _) -> invalid_arg "Channel: prefetch desynchronized"
    | None -> terminal.fetch_hash_state ~chunk ~fragment ~upto
  in
  let q_siblings ~chunk ~fragment =
    match take_prefetched (Fetch_siblings { chunk; fragment }) with
    | Some (List_reply l) -> l
    | Some (Bytes_reply _) -> invalid_arg "Channel: prefetch desynchronized"
    | None -> terminal.fetch_siblings ~chunk ~fragment
  in
  let chunk_digest chunk =
    match Lru.find digest_cache chunk with
    | Some d -> d
    | None ->
        counters.bytes_to_soe <- counters.bytes_to_soe + digest_blob_bytes;
        counters.bytes_decrypted <- counters.bytes_decrypted + digest_blob_bytes;
        counters.blocks_decrypted <-
          counters.blocks_decrypted + (digest_blob_bytes / cipher_block);
        counters.digests_decrypted <- counters.digests_decrypted + 1;
        let blob = q_digest ~chunk in
        (* validates the blob size before decrypting *)
        let d = C.decrypt_digest_blob ~scheme ~key ~chunk blob in
        Lru.insert digest_cache chunk d;
        d
  in
  let cover_length frag =
    List.length
      (Merkle.sibling_cover ~leaf_count:frags_per_chunk ~lo:frag ~hi:frag)
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
  (* predict the window's terminal fetches by simulating the fetch phase's
     cache transitions on shadows; used only when the terminal can batch *)
  let plan_frag_window tuples =
    let shadow_frag = Shadow.of_lru frag_cache in
    let shadow_digest = Shadow.of_lru digest_cache in
    let reqs = ref [] in
    let push r = reqs := r :: !reqs in
    List.iter
      (fun (chunk, frag, lo, _hi, _out) ->
        let key = (chunk, frag) in
        let avail, sib_missing =
          if Shadow.find shadow_frag key then
            match Lru.peek frag_cache key with
            | Some e -> (e.avail_from, e.siblings = None)
            | None -> assert false (* shadow hit implies a live entry *)
          else begin
            Shadow.insert shadow_frag key;
            (frag_size, true)
          end
        in
        let aligned = lo / 8 * 8 in
        if aligned < avail then begin
          push (Fetch_fragment { chunk; fragment = frag; lo = aligned; hi = avail });
          if verify then begin
            push (Fetch_hash_state { chunk; fragment = frag; upto = aligned });
            if sib_missing then push (Fetch_siblings { chunk; fragment = frag });
            if not (Shadow.find shadow_digest chunk) then begin
              Shadow.insert shadow_digest chunk;
              push (Fetch_digest { chunk })
            end
          end
        end)
      tuples;
    List.rev !reqs
  in
  (* Appendix A: to let the SOE verify a fragment it reads from byte [lo]
     on, the terminal sends the ciphertext suffix, the intermediate SHA-1
     state of the prefix (the leaf hash covers chunk and fragment ids plus
     the whole fragment ciphertext), the Merkle sibling digests, and the
     encrypted ChunkDigest. The fetch phase gathers (and charges) all of
     that; hashing, Merkle reconstruction and block decryption run in the
     compute phase. *)
  let fetch_frag_unit (chunk, frag, lo, hi, out) =
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
        fu_digest = "";
        fu_leaf = "";
        fu_new_blocks = 0;
        fu_batched = 0;
        fu_ok = false;
        fu_wall = 0.;
      }
    in
    let aligned = lo / 8 * 8 in
    if aligned < entry.avail_from then begin
      let old_avail = entry.avail_from in
      counters.fragment_fetches <- counters.fragment_fetches + 1;
      let sl = q_fragment ~chunk ~fragment:frag ~lo:aligned ~hi:old_avail in
      let served = String.length sl.s_data - sl.s_off in
      if served < old_avail - aligned then
        integrity "chunk %d fragment %d: served %d bytes for range [%d, %d)"
          chunk frag served aligned old_avail;
      counters.bytes_to_soe <- counters.bytes_to_soe + (old_avail - aligned);
      Bytes.blit_string sl.s_data sl.s_off entry.fe_cipher aligned
        (old_avail - aligned);
      entry.avail_from <- aligned;
      u.fu_did_ext <- true;
      u.fu_ext <- aligned;
      if verify then begin
        let state = q_state ~chunk ~fragment:frag ~upto:aligned in
        counters.bytes_to_soe <- counters.bytes_to_soe + hash_state_bytes;
        u.fu_state <- state;
        (match entry.siblings with
        | Some _ -> ()
        | None ->
            let ds = q_siblings ~chunk ~fragment:frag in
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
  (* per-unit work: verify the extended suffix against the chunk digest,
     decrypt the blocks covering the requested range. Touches only this
     unit's entry; all counter charges wait for the commit phase. *)
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
      let leaf = Sha1.finalize ctx in
      if fast then
        (* batched Merkle: keep the leaf; the window groups all leaves of a
           chunk into one root recombination after the compute phase *)
        u.fu_leaf <- leaf
      else begin
        let cover =
          Merkle.sibling_cover ~leaf_count:frags_per_chunk ~lo:u.fu_frag
            ~hi:u.fu_frag
        in
        let digests =
          match e.siblings with Some ds -> ds | None -> assert false
        in
        let supplied = List.combine cover digests in
        let root =
          match
            Merkle.root_from_cover ~leaf_count:frags_per_chunk
              ~known:[ (u.fu_frag, leaf) ]
              ~supplied
          with
          | Some r -> r
          | None -> raise (C.Integrity_failure "incomplete Merkle cover")
        in
        (* constant-time: the sealed root derives from the key, the digest
           came from the untrusted terminal *)
        u.fu_ok <-
          Xmlac_crypto.Ct.equal
            (C.seal_root container ~chunk:u.fu_chunk ~root)
            u.fu_digest
      end
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
  (* Batched Merkle verification (fast engine): one root-path recombination
     per distinct chunk in the window. All the window's computed leaves of
     a chunk go in as known nodes; the union of their sibling covers backs
     the rest of the tree, minus any supplied node whose subtree contains a
     known leaf — those must be recomputed from the leaves or a tampered
     fragment could hide behind its own fetched cover. Runs between compute
     and commit, so verdicts are committed in unit order. *)
  let node_covers_known knowns (n : Merkle.node) =
    let w = 1 lsl n.Merkle.level in
    List.exists
      (fun f -> f >= n.Merkle.index * w && f < (n.Merkle.index + 1) * w)
      knowns
  in
  let verify_frag_group us =
    match us with
    | [] -> ()
    | u0 :: _ ->
        let knowns = List.map (fun u -> u.fu_frag) us in
        let known = List.map (fun u -> (u.fu_frag, u.fu_leaf)) us in
        let supplied =
          List.concat_map
            (fun u ->
              let cover =
                Merkle.sibling_cover ~leaf_count:frags_per_chunk ~lo:u.fu_frag
                  ~hi:u.fu_frag
              in
              let ds =
                match u.fu_entry.siblings with
                | Some ds -> ds
                | None -> assert false
              in
              List.combine cover ds)
            us
          |> List.filter (fun (n, _) -> not (node_covers_known knowns n))
        in
        let root =
          match
            Merkle.root_from_cover ~leaf_count:frags_per_chunk ~known ~supplied
          with
          | Some r -> r
          | None -> raise (C.Integrity_failure "incomplete Merkle cover")
        in
        let ok =
          Xmlac_crypto.Ct.equal
            (C.seal_root container ~chunk:u0.fu_chunk ~root)
            u0.fu_digest
        in
        List.iter (fun u -> u.fu_ok <- ok) us;
        counters.engine_merkle_groups <- counters.engine_merkle_groups + 1
  in
  let verify_frag_groups units =
    let order = ref [] in
    let by_chunk : (int, frag_unit list) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun u ->
        if u.fu_did_ext then begin
          if not (Hashtbl.mem by_chunk u.fu_chunk) then
            order := u.fu_chunk :: !order;
          let prev =
            match Hashtbl.find_opt by_chunk u.fu_chunk with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace by_chunk u.fu_chunk (u :: prev)
        end)
      units;
    List.iter
      (fun chunk -> verify_frag_group (List.rev (Hashtbl.find by_chunk chunk)))
      (List.rev !order)
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
  let process_frag_window out tuples =
    (* phase events bracket the window when a trace sink is on; field
       construction stays behind the guard like [emit_chunk_verdict] *)
    let traced = Xmlac_obs.Trace.enabled () in
    let phase name =
      if traced then
        Xmlac_obs.Span.event name
          [
            ("kind", Xmlac_obs.Json.String "fragment");
            ("units", Xmlac_obs.Json.Int (List.length tuples));
          ]
    in
    phase "channel.plan";
    (match terminal.fetch_many with
    | Some fetch_many ->
        let reqs = plan_frag_window tuples in
        if List.length reqs >= 2 then
          prefetched := List.combine reqs (fetch_many reqs)
    | None -> ());
    let units = List.map fetch_frag_unit tuples in
    assert (!prefetched = []);
    phase "channel.fetch";
    List.iter (fun u -> if frag_needs_compute u then compute_frag u) units;
    phase "channel.compute";
    if fast && verify then verify_frag_groups units;
    List.iter (commit_frag out) units;
    phase "channel.commit"
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
    | tuples -> List.iter (process_frag_window out) (split_windows tuples)
  in

  (* {2 CBC path: per-chunk units (no random access inside a chunk)} *)
  let plan_chunk_window tuples =
    let shadow_chunk = Shadow.of_lru chunk_cache in
    let shadow_digest = Shadow.of_lru digest_cache in
    let reqs = ref [] in
    let push r = reqs := r :: !reqs in
    List.iter
      (fun (chunk, _off, _take, _out) ->
        if not (Shadow.find shadow_chunk chunk) then begin
          Shadow.insert shadow_chunk chunk;
          push (Fetch_chunk { chunk });
          if verify && not (Shadow.find shadow_digest chunk) then begin
            Shadow.insert shadow_digest chunk;
            push (Fetch_digest { chunk })
          end
        end)
      tuples;
    List.rev !reqs
  in
  let fetch_chunk_unit (chunk, off, take, out) =
    let entry, fresh, cipher_text =
      match Lru.find chunk_cache chunk with
      | Some e -> (e, false, "")
      | None ->
          let e =
            {
              ce_plain = Bytes.create chunk_size;
              ce_flags = Bytes.make (chunk_size / 8) '\000';
            }
          in
          counters.chunk_fetches <- counters.chunk_fetches + 1;
          counters.bytes_to_soe <- counters.bytes_to_soe + chunk_size;
          let cs = q_chunk ~chunk in
          Lru.insert chunk_cache chunk e;
          (e, true, cs)
    in
    let u =
      {
        cu_chunk = chunk;
        cu_off = off;
        cu_take = take;
        cu_out = out;
        cu_entry = entry;
        cu_cipher = cipher_text;
        cu_fresh = fresh;
        cu_digest = "";
        cu_new_blocks = 0;
        cu_batched = 0;
        cu_ok = false;
        cu_wall = 0.;
      }
    in
    if fresh && verify then u.cu_digest <- chunk_digest chunk;
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
         engine-selected cipher (unused by the AES-CTR scheme) *)
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
        u.cu_ok <- Xmlac_crypto.Ct.equal expected u.cu_digest
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
  let process_chunk_window out tuples =
    let traced = Xmlac_obs.Trace.enabled () in
    let phase name =
      if traced then
        Xmlac_obs.Span.event name
          [
            ("kind", Xmlac_obs.Json.String "chunk");
            ("units", Xmlac_obs.Json.Int (List.length tuples));
          ]
    in
    phase "channel.plan";
    (match terminal.fetch_many with
    | Some fetch_many ->
        let reqs = plan_chunk_window tuples in
        if List.length reqs >= 2 then
          prefetched := List.combine reqs (fetch_many reqs)
    | None -> ());
    let units = List.map fetch_chunk_unit tuples in
    assert (!prefetched = []);
    phase "channel.fetch";
    List.iter (fun u -> if chunk_needs_compute u then compute_chunk u) units;
    phase "channel.compute";
    List.iter (commit_chunk out) units;
    phase "channel.commit"
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
    | tuples -> List.iter (process_chunk_window out) (split_windows tuples)
  in

  let read ~pos ~len =
    if len = 0 then ""
    else begin
      let out = Bytes.create len in
      (match scheme with
      | C.Ecb | C.Ecb_mht -> read_frags out ~pos ~len
      | C.Cbc_sha | C.Cbc_shac | C.Aes_ctr -> read_chunks out ~pos ~len);
      Bytes.unsafe_to_string out
    end
  in
  { Xmlac_skip_index.Decoder.read; length = payload_len }

let source ?verify ?cache_fragments ?cache_chunks ?engine ~container ~key
    counters =
  source_of_terminal ?verify ?cache_fragments ?cache_chunks ?engine
    ~terminal:(local_terminal container) ~key counters
