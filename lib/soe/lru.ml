(* Re-export of the shared runtime LRU: the SOE's per-session caches and
   the terminal registry's shared node-table cache are the same structure
   (see lib/runtime/lru.ml). The alias stays because the end-to-end
   benchmark (soebench/main.ml) reads the channel's cache counters through
   it, as [counters.Channel.cache.Xmlac_soe.Lru.hits]. *)

include Xmlac_runtime.Lru
