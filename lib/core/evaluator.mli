(** The streaming access-control evaluator — the paper's main contribution
    (Sections 3 and 5).

    It consumes one pass of open/text/close events, runs every rule's (and
    the optional query's) Access Rule Automaton with a Token Stack, an
    Authorization Stack and a Predicate Set, resolves conflicts
    incrementally as three-valued delivery conditions, skips subtrees when
    the input supports it (Skip index) and no automaton can progress inside
    them, defers {e pending} parts (delivery conditioned on unresolved
    predicates) and splices them back at the right position once resolved.

    Correctness contract (property-tested): the delivered view equals
    {!Oracle.authorized_view} / {!Oracle.query_view} on the same document,
    whatever the input representation and however many subtrees were
    skipped. *)

type stats = {
  mutable events_in : int;  (** input events consumed *)
  mutable transitions : int;  (** ARA transitions fired *)
  mutable ara_memo_hits : int;
  mutable ara_memo_misses : int;
      (** always 0: the evaluator has no transition memo. Both fields stay
          only because the end-to-end benchmark reads them
          ([soebench/main.ml]); {!stats_metrics} omits them. *)
  mutable tokens_peak : int;  (** max live tokens across all stack levels *)
  mutable depth_peak : int;  (** max element-stack depth reached *)
  mutable auth_pushes : int;  (** rule/query instances registered *)
  mutable atoms_created : int;  (** pending predicate instances *)
  mutable open_skips : int;  (** subtrees skipped at their open event *)
  mutable rest_skips : int;  (** tail-of-element skips at close events *)
  mutable pending_subtrees : int;  (** skipped subtrees left pending *)
  mutable readback_subtrees : int;  (** pending subtrees later delivered *)
  mutable pending_items_peak : int;  (** max simultaneously pending items *)
  mutable events_out : int;
  mutable first_output_at : int;
      (** input events consumed before the first delivery; -1 if none *)
  mutable memory_peak_bytes : int;
      (** modelled peak of the SOE working set (tokens, stacks, pending
          bookkeeping, predicate instances, value buffers) — the quantity
          the paper's smart-card RAM bounds *)
}

val stats_metrics : stats -> Xmlac_obs.Metrics.t
(** Snapshot as named metrics, in declaration order, without the two
    always-zero memo fields. *)

type options = {
  enable_skipping : bool;  (** use the input's byte-skipping at open events *)
  enable_rest_skips : bool;  (** close-triggered tail skips *)
  enable_desctag_filter : bool;  (** DescTag token filtering (SkipSubtree) *)
}

val default_options : options
(** Everything on — the paper's full design. The switches exist for the
    ablation benchmarks. *)

(** Introspection events, for tracing and for tests that check the paper's
    execution snapshots (Figure 3): rule/query instances entering the
    Authorization Stack, predicate instances resolving, per-element
    decisions, skips. *)
type observation =
  | Obs_instance of {
      rule : string;
      sign : Rule.sign;
      depth : int;
      pending : bool;  (** some predicate instance still unresolved *)
    }
  | Obs_predicate_satisfied of { rule : string; anchor_depth : int }
  | Obs_decision of { tag : string; depth : int; decision : Conflict.decision }
  | Obs_skip of { depth : int; pending : bool }

val trace_observation : observation -> string * (string * Xmlac_obs.Json.t) list
(** An observation as a named trace event, ready for
    [Xmlac_obs.Trace.emit] — the adapter CLI [--trace] flags use. *)

type result = { events : Xmlac_xml.Event.t list; stats : stats }

val run :
  ?query:Xmlac_xpath.Ast.t ->
  ?dummy_denied:string ->
  ?options:options ->
  ?on_deliver:(seq:int -> Xmlac_xml.Event.t list -> unit) ->
  ?observer:(observation -> unit) ->
  ?provenance:Provenance.collector ->
  policy:Policy.t ->
  Input.t ->
  result
(** Evaluate the authorized view (or query result) of the input document.
    The policy must be [USER]-resolved and streaming-compatible.

    [on_deliver] observes the {e eager} delivery protocol (paper Section 5):
    each output part is pushed as soon as its delivery condition — and its
    ancestors' — are decided, labelled with its document-order sequence
    number (the anchor). Pending parts therefore arrive out of order; the
    final [result.events] are exactly the deliveries sorted by sequence
    number, which is what the terminal-side reassembler produces.

    [provenance] attaches a {!Provenance.collector}: the run then also
    tracks DOM node ids and feeds the collector one entry per element and
    per skip, to be finalized with {!Provenance.records} after the run.
    @raise Invalid_argument on an unresolved or non-linear policy.
    @raise Error.Stream_error on an event stream no well-formed document
    can produce (close without open, a second root element, input ending
    with elements still open) — the typed rejection for a decoder whose
    byte stream was corrupted in a way that still decodes. *)

val view_tree : result -> Xmlac_xml.Tree.t option
(** The delivered events as a tree ([None] when nothing was delivered). *)

val run_events :
  ?query:Xmlac_xpath.Ast.t ->
  ?dummy_denied:string ->
  ?options:options ->
  ?on_deliver:(seq:int -> Xmlac_xml.Event.t list -> unit) ->
  ?observer:(observation -> unit) ->
  ?provenance:Provenance.collector ->
  policy:Policy.t ->
  Xmlac_xml.Event.t list ->
  result
(** Convenience wrapper over {!Input.of_events}. *)
