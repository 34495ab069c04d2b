(** Least-recently-used cache for the SOE's per-session working set.

    O(1) find/insert/evict (Hashtbl + intrusive recency list). All caches
    of a session share one {!stats} record, which feeds the [cache.*]
    counters of [Session.metrics]; the counters depend only on the lookup
    sequence, never on wall time, so they are gated like any other
    deterministic counter. *)

type stats = { mutable hits : int; mutable misses : int; mutable evicted : int }

val fresh_stats : unit -> stats

type ('k, 'v) t

val create : capacity:int -> stats:stats -> ('k, 'v) t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : _ t -> int
val length : _ t -> int
val stats : _ t -> stats

val find : ('k, 'v) t -> 'k -> 'v option
(** Counting lookup: bumps [hits]/[misses] and refreshes recency. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Non-counting, non-refreshing lookup: lets a caller inspect an entry
    before deciding whether its use counts as a lookup. *)

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (or refresh) a binding, evicting the least-recently-used entry
    when at capacity. *)

val keys_mru : ('k, _) t -> 'k list
(** Keys in most-recently-used-first order. *)
