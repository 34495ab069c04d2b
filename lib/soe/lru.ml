(* A small LRU cache for the SOE's per-session working set (decrypted
   fragment state, chunk plaintexts, digest values).

   Capacities here are tiny — the paper's SOE is a smart card with a few KB
   of RAM — so the recency list is a plain doubly linked list plus a
   Hashtbl from key to node: O(1) find/insert/evict without amortized
   array churn.

   All caches of one session share a single [stats] record, surfaced as
   the cache.* counters in Session.metrics. The counters are driven purely
   by the (deterministic) sequence of lookups, so they are gate-checked
   like every other byte/event counter. *)

type stats = { mutable hits : int; mutable misses : int; mutable evicted : int }

let fresh_stats () = { hits = 0; misses = 0; evicted = 0 }

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable prev : ('k, 'v) node option; (* toward most-recent *)
  mutable next : ('k, 'v) node option; (* toward least-recent *)
}

type ('k, 'v) t = {
  capacity : int;
  stats : stats;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
}

let create ~capacity ~stats =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; stats; table = Hashtbl.create (2 * capacity); head = None; tail = None }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let stats t = t.stats

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

(* non-counting, non-refreshing lookup: the channel's fast path checks an
   entry before its one counted lookup *)
let peek t key =
  match Hashtbl.find_opt t.table key with
  | Some node -> Some node.value
  | None -> None

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      t.stats.hits <- t.stats.hits + 1;
      unlink t node;
      push_front t node;
      Some node.value
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      None

let insert t key value =
  (* replacing an existing binding refreshes it, no eviction *)
  (match Hashtbl.find_opt t.table key with
  | Some old ->
      unlink t old;
      Hashtbl.remove t.table key
  | None ->
      if Hashtbl.length t.table >= t.capacity then
        match t.tail with
        | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.key;
            t.stats.evicted <- t.stats.evicted + 1
        | None -> ());
  let node = { key; value; prev = None; next = None } in
  Hashtbl.replace t.table key node;
  push_front t node

(* keys in most-recent-first order *)
let keys_mru t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk (node.key :: acc) node.next
  in
  walk [] t.head
