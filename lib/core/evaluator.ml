module Event = Xmlac_xml.Event
module Ast = Xmlac_xpath.Ast

type stats = {
  mutable events_in : int;
  mutable transitions : int;
  mutable ara_memo_hits : int;
  mutable ara_memo_misses : int;
  mutable tokens_peak : int;
  mutable depth_peak : int;
  mutable auth_pushes : int;
  mutable atoms_created : int;
  mutable open_skips : int;
  mutable rest_skips : int;
  mutable pending_subtrees : int;
  mutable readback_subtrees : int;
  mutable pending_items_peak : int;
  mutable events_out : int;
  mutable first_output_at : int;
  mutable memory_peak_bytes : int;
}

let fresh_stats () =
  {
    events_in = 0;
    transitions = 0;
    ara_memo_hits = 0;
    ara_memo_misses = 0;
    tokens_peak = 0;
    depth_peak = 0;
    auth_pushes = 0;
    atoms_created = 0;
    open_skips = 0;
    rest_skips = 0;
    pending_subtrees = 0;
    readback_subtrees = 0;
    pending_items_peak = 0;
    events_out = 0;
    first_output_at = -1;
    memory_peak_bytes = 0;
  }

let stats_metrics (s : stats) : Xmlac_obs.Metrics.t =
  Xmlac_obs.Metrics.
    [
      int "events_in" s.events_in;
      int "transitions" s.transitions;
      int "tokens_peak" s.tokens_peak;
      int "depth_peak" s.depth_peak;
      int "auth_pushes" s.auth_pushes;
      int "atoms_created" s.atoms_created;
      int "open_skips" s.open_skips;
      int "rest_skips" s.rest_skips;
      int "pending_subtrees" s.pending_subtrees;
      int "readback_subtrees" s.readback_subtrees;
      int "pending_items_peak" s.pending_items_peak;
      int "events_out" s.events_out;
      int "first_output_at" s.first_output_at;
      int "memory_peak_bytes" s.memory_peak_bytes;
    ]

type options = {
  enable_skipping : bool;
  enable_rest_skips : bool;
  enable_desctag_filter : bool;
}

let default_options =
  {
    enable_skipping = true;
    enable_rest_skips = true;
    enable_desctag_filter = true;
  }

type observation =
  | Obs_instance of { rule : string; sign : Rule.sign; depth : int; pending : bool }
  | Obs_predicate_satisfied of { rule : string; anchor_depth : int }
  | Obs_decision of { tag : string; depth : int; decision : Conflict.decision }
  | Obs_skip of { depth : int; pending : bool }

let trace_observation obs =
  let module J = Xmlac_obs.Json in
  match obs with
  | Obs_instance { rule; sign; depth; pending } ->
      ( "eval.instance",
        [
          ("rule", J.String rule);
          ("sign", J.String (Rule.sign_to_string sign));
          ("depth", J.Int depth);
          ("pending", J.Bool pending);
        ] )
  | Obs_predicate_satisfied { rule; anchor_depth } ->
      ( "eval.predicate_satisfied",
        [ ("rule", J.String rule); ("anchor_depth", J.Int anchor_depth) ] )
  | Obs_decision { tag; depth; decision } ->
      ( "eval.decision",
        [
          ("tag", J.String tag);
          ("depth", J.Int depth);
          ( "decision",
            J.String
              (match decision with
              | Conflict.Permit -> "permit"
              | Conflict.Deny -> "deny"
              | Conflict.Pending -> "pending") );
        ] )
  | Obs_skip { depth; pending } ->
      ("eval.skip", [ ("depth", J.Int depth); ("pending", J.Bool pending) ])

type result = { events : Event.t list; stats : stats }

(* Tokens ----------------------------------------------------------------- *)

type nav_token = {
  nt_ara : Ara.t;
  nt_state : int;  (* navigational steps matched so far *)
  nt_atoms : Condition.atom list;  (* this rule instance's predicate atoms *)
  nt_expr : Condition.t;  (* query tokens: conjunction of the view-membership
                             conditions of the elements matched so far *)
}

type atom_entry = {
  ae_atom : Condition.atom;
  ae_anchor_depth : int;
  ae_rule : string;  (* owning rule/query id, for introspection *)
  mutable ae_contribs : Condition.t list;
}

type pred_token = {
  pt_ara : Ara.t;
  pt_pred : Ara.pred;
  pt_state : int;
  pt_entry : atom_entry;
  pt_expr : Condition.t;
}

type level = {
  mutable nav : nav_token list;
  mutable pred : pred_token list;
}

type value_scope = {
  vs_entry : atom_entry;
  vs_gate : Condition.t;
  vs_cond : Ast.comparison * Ast.literal;
  vs_close_depth : int;
  vs_buf : Buffer.t;
}

(* Output items ------------------------------------------------------------

   Every document node produces an item carrying its three-valued delivery
   condition; items are delivered eagerly (out of document order, labelled
   with their sequence number — the anchor of Section 5) as soon as their
   condition and their ancestors' conditions are decided. The final,
   in-order view is the deliveries sorted by sequence number. *)

type item_kind =
  | K_start of {
      tag : string;
      attributes : Event.attribute list;
      mutable end_item : int;  (* index of the matching K_end, -1 until closed *)
    }
  | K_end of { start : int }
  | K_text of string
  | K_subtree of Input.subtree_thunk

type item = {
  it_idx : int;
  it_kind : item_kind;
  it_expr : Condition.t;
  it_parent : int;  (* index of the enclosing K_start item, -1 at the root *)
  mutable it_emitted : bool;
  mutable it_self_true : bool;  (* K_start: own condition was True at emission *)
  mutable it_pending_desc : int;  (* K_start: undelivered pending items below *)
  mutable it_closed : bool;  (* K_start: closing event reached *)
  mutable it_tag_emitted : string;  (* K_start: the tag actually output *)
}

(* Query steps match elements of the authorized *view*: an element is in
   the view when some node of its subtree is rule-permitted. A watcher
   gathers the rule-level conditions of the subtree; its atom resolves when
   the element closes. *)
type view_watcher = {
  vw_atom : Condition.atom;
  mutable vw_true : bool;
  mutable vw_pending : Condition.t list;
}

type open_elem = {
  oe_item : int;
  oe_delivery : Condition.t;
  oe_watcher : view_watcher option;
}

type st = {
  input : Input.t;
  options : options;
  dummy_denied : string option;
  on_deliver : (seq:int -> Event.t list -> unit) option;
  observer : (observation -> unit) option;
  prov : Provenance.collector option;
  (* node-id tracking (only maintained when [prov] is set): [path_rev] is
     the current element's Dom_eval.node_id reversed; [sib_counts]'s head
     is the ordinal the *next* child of the current element will get —
     text nodes count, matching the DOM oracle's numbering *)
  mutable path_rev : int list;
  mutable sib_counts : int list;
  rule_aras : Ara.t list;
  query_ara : Ara.t option;
  stats : stats;
  mutable levels : level list;  (* innermost first; always ends with level 0 *)
  mutable rule_exprs : Condition.t list;  (* innermost first *)
  mutable interests : Condition.t list;
  mutable open_elems : open_elem list;
  registry : (int * int * int, atom_entry) Hashtbl.t;
  expiry : (int, ((int * int * int) * atom_entry) list ref) Hashtbl.t;
  mutable watchers : view_watcher list;  (* active, innermost first *)
  mutable scopes : value_scope list;
  mutable items : item array;  (* growable; [item_count] slots in use *)
  mutable item_count : int;
  mutable pending : item list;  (* items whose delivery is not settled *)
  mutable pending_count : int;
  mutable out_rev : (int * Event.t list) list;  (* (seq, events) deliveries *)
  mutable resolution_tick : int;  (* bumped whenever some atom resolves *)
  mutable last_sweep_tick : int;
  mutable depth : int;
  mutable live : int;  (* tokens across all levels, kept incrementally *)
  mutable root_closed : bool;  (* a top-level element has been closed *)
}

let label_matches label tag =
  match label with Ara.Star -> true | Ara.Tag t -> String.equal t tag

let dummy_item =
  {
    it_idx = -1;
    it_kind = K_text "";
    it_expr = Condition.fls;
    it_parent = -1;
    it_emitted = false;
    it_self_true = false;
    it_pending_desc = 0;
    it_closed = false;
    it_tag_emitted = "";
  }

let get_item st idx = st.items.(idx)

let add_item st kind expr parent =
  if st.item_count = Array.length st.items then begin
    let bigger = Array.make (max 64 (2 * st.item_count)) dummy_item in
    Array.blit st.items 0 bigger 0 st.item_count;
    st.items <- bigger
  end;
  let it =
    {
      it_idx = st.item_count;
      it_kind = kind;
      it_expr = expr;
      it_parent = parent;
      it_emitted = false;
      it_self_true = false;
      it_pending_desc = 0;
      it_closed = false;
      it_tag_emitted = "";
    }
  in
  st.items.(st.item_count) <- it;
  st.item_count <- st.item_count + 1;
  it

(* Delivery engine ---------------------------------------------------------- *)

let emit st seq events =
  if events <> [] then begin
    if st.stats.first_output_at < 0 then
      st.stats.first_output_at <- st.stats.events_in;
    st.stats.events_out <- st.stats.events_out + List.length events;
    st.out_rev <- (seq, events) :: st.out_rev;
    match st.on_deliver with Some f -> f ~seq events | None -> ()
  end

(* An item can only be emitted once the conditions of all its ancestors are
   decided (their names — real or dummy — are then final). *)
let rec ancestors_decided st idx =
  idx < 0
  ||
  let it = get_item st idx in
  it.it_emitted
  || (Condition.eval it.it_expr <> Condition.Unknown
     && ancestors_decided st it.it_parent)

let rec maybe_emit_end st idx =
  let it = get_item st idx in
  match it.it_kind with
  | K_start k ->
      if it.it_emitted && it.it_closed && it.it_pending_desc = 0 && k.end_item >= 0
      then begin
        let e = get_item st k.end_item in
        if not e.it_emitted then begin
          e.it_emitted <- true;
          emit st e.it_idx [ Event.End it.it_tag_emitted ]
        end
      end
  | _ -> ()

(* Emit an element's opening tag (the Structural rule: ancestors of any
   delivered node are delivered, optionally under a dummy name). *)
and emit_start st idx =
  let it = get_item st idx in
  if not it.it_emitted then begin
    if it.it_parent >= 0 then emit_start st it.it_parent;
    match it.it_kind with
    | K_start k ->
        let self = Condition.eval it.it_expr = Condition.True in
        it.it_self_true <- self;
        let tag, attributes =
          if self then (k.tag, k.attributes)
          else (Option.value st.dummy_denied ~default:k.tag, [])
        in
        it.it_tag_emitted <- tag;
        it.it_emitted <- true;
        emit st it.it_idx [ Event.Start { tag; attributes } ];
        maybe_emit_end st idx
    | _ -> assert false
  end

(* Attempt to settle an item. Returns true when the item no longer needs
   tracking (delivered or definitively dropped). *)
let try_deliver st it =
  match Condition.eval it.it_expr with
  | Condition.Unknown -> false
  | Condition.False -> true (* dropped; a K_start may still be emitted
                               structurally when a descendant delivers *)
  | Condition.True ->
      if not (ancestors_decided st it.it_parent) then false
      else begin
        (match it.it_kind with
        | K_start _ -> emit_start st it.it_idx
        | K_text s ->
            if it.it_parent >= 0 then emit_start st it.it_parent;
            it.it_emitted <- true;
            emit st it.it_idx [ Event.Text s ]
        | K_subtree thunk ->
            if it.it_parent >= 0 then emit_start st it.it_parent;
            it.it_emitted <- true;
            st.stats.readback_subtrees <- st.stats.readback_subtrees + 1;
            emit st it.it_idx (thunk ())
        | K_end _ -> assert false);
        true
      end

let rec decrement_pending_desc st idx =
  if idx >= 0 then begin
    let it = get_item st idx in
    it.it_pending_desc <- it.it_pending_desc - 1;
    maybe_emit_end st idx;
    decrement_pending_desc st it.it_parent
  end

let rec increment_pending_desc st idx =
  if idx >= 0 then begin
    let it = get_item st idx in
    it.it_pending_desc <- it.it_pending_desc + 1;
    increment_pending_desc st it.it_parent
  end

(* Create an item and either deliver it now or queue it as pending. *)
let new_item st kind expr parent =
  let it = add_item st kind expr parent in
  if not (try_deliver st it) then begin
    st.pending <- it :: st.pending;
    st.pending_count <- st.pending_count + 1;
    increment_pending_desc st parent;
    if st.pending_count > st.stats.pending_items_peak then
      st.stats.pending_items_peak <- st.pending_count
  end;
  it

let sweep st =
  if st.resolution_tick <> st.last_sweep_tick then begin
    st.last_sweep_tick <- st.resolution_tick;
    st.pending <-
      List.filter
        (fun it ->
          if try_deliver st it then begin
            decrement_pending_desc st it.it_parent;
            st.pending_count <- st.pending_count - 1;
            false
          end
          else true)
        st.pending
  end

(* A rough model of the SOE's working set: tokens, stack frames, pending
   bookkeeping, predicate instances and value-scope buffers. The constants
   approximate a compact C implementation (the paper's prototype); the
   interesting output is how the peak scales with documents and policies. *)
let note_memory st =
  let scope_bytes =
    List.fold_left (fun acc s -> acc + 48 + Buffer.length s.vs_buf) 0 st.scopes
  in
  let mem =
    (st.live * 40) + (st.depth * 96)
    + (st.pending_count * 56)
    + (Hashtbl.length st.registry * 64)
    + scope_bytes
  in
  if mem > st.stats.memory_peak_bytes then st.stats.memory_peak_bytes <- mem

(* Predicate instances ------------------------------------------------------ *)

let observe st obs = match st.observer with Some f -> f obs | None -> ()

let contribute st entry expr =
  if not (Condition.is_resolved entry.ae_atom) then
    match Condition.eval expr with
    | Condition.True ->
        Condition.resolve entry.ae_atom Condition.tru;
        st.resolution_tick <- st.resolution_tick + 1;
        observe st
          (Obs_predicate_satisfied
             { rule = entry.ae_rule; anchor_depth = entry.ae_anchor_depth })
    | Condition.False -> ()
    | Condition.Unknown -> entry.ae_contribs <- expr :: entry.ae_contribs

let get_or_create_entry st ~ara ~pred_id ~depth =
  let key = (ara.Ara.ara_id, pred_id, depth) in
  match Hashtbl.find_opt st.registry key with
  | Some e -> (e, false)
  | None ->
      let e =
        {
          ae_atom = Condition.atom ();
          ae_anchor_depth = depth;
          ae_rule = Ara.rule_id ara;
          ae_contribs = [];
        }
      in
      Hashtbl.replace st.registry key e;
      let bucket =
        match Hashtbl.find_opt st.expiry depth with
        | Some b -> b
        | None ->
            let b = ref [] in
            Hashtbl.replace st.expiry depth b;
            b
      in
      bucket := (key, e) :: !bucket;
      st.stats.atoms_created <- st.stats.atoms_created + 1;
      (e, true)

let expire_depth st depth =
  (* close of the element at [depth]: unresolved predicate instances
     anchored there resolve to the disjunction of what they gathered *)
  match Hashtbl.find_opt st.expiry depth with
  | None -> ()
  | Some bucket ->
      List.iter
        (fun (key, e) ->
          if not (Condition.is_resolved e.ae_atom) then begin
            Condition.resolve e.ae_atom (Condition.disj e.ae_contribs);
            st.resolution_tick <- st.resolution_tick + 1
          end;
          Hashtbl.remove st.registry key)
        !bucket;
      Hashtbl.remove st.expiry depth

(* Token transitions ---------------------------------------------------------- *)

(* Advance the predicate tokens [tokens] (from the parent level) into [lvl]
   for the element [tag] opened at [depth]; [node_expr] is what query
   tokens conjoin (True for rules). *)
let advance_pred_tokens st ~tokens ~lvl ~tag ~depth ~node_expr ~want =
  List.iter
    (fun pt ->
      if want pt.pt_ara && not (Condition.is_resolved pt.pt_entry.ae_atom) then begin
        let steps = pt.pt_pred.Ara.psteps in
        let step = steps.(pt.pt_state) in
        if step.Ara.p_descend then lvl.pred <- pt :: lvl.pred;
        if label_matches step.Ara.p_label tag then begin
          st.stats.transitions <- st.stats.transitions + 1;
          let expr' =
            if Ara.is_query pt.pt_ara then
              Condition.conj [ pt.pt_expr; Lazy.force node_expr ]
            else Condition.tru
          in
          let state' = pt.pt_state + 1 in
          if state' = Array.length steps then
            match pt.pt_pred.Ara.pcondition with
            | None -> contribute st pt.pt_entry expr'
            | Some cond ->
                st.scopes <-
                  {
                    vs_entry = pt.pt_entry;
                    vs_gate = expr';
                    vs_cond = cond;
                    vs_close_depth = depth;
                    vs_buf = Buffer.create 16;
                  }
                  :: st.scopes
          else lvl.pred <- { pt with pt_state = state'; pt_expr = expr' } :: lvl.pred
        end
      end)
    tokens

(* Advance navigational tokens; returns the (rule, sign,
   instance-expression) triples of instances completed at this element. *)
let advance_nav_tokens st ~tokens ~lvl ~tag ~depth ~node_expr ~want =
  let completions = ref [] in
  List.iter
    (fun nt ->
      if want nt.nt_ara then begin
        let steps = nt.nt_ara.Ara.nsteps in
        let step = steps.(nt.nt_state) in
        if step.Ara.n_descend then lvl.nav <- nt :: lvl.nav;
        if label_matches step.Ara.n_label tag then begin
          st.stats.transitions <- st.stats.transitions + 1;
          let expr' =
            if Ara.is_query nt.nt_ara then
              Condition.conj [ nt.nt_expr; Lazy.force node_expr ]
            else Condition.tru
          in
          (* anchor this step's predicates at the current element *)
          let atoms =
            List.fold_left
              (fun atoms pred_id ->
                let entry, fresh =
                  get_or_create_entry st ~ara:nt.nt_ara ~pred_id ~depth
                in
                (* the predicate instance is shared by every rule/query
                   instance anchored at this element, so its gate starts
                   neutral and only accumulates the predicate path's own
                   node conditions *)
                if fresh then
                  lvl.pred <-
                    {
                      pt_ara = nt.nt_ara;
                      pt_pred = nt.nt_ara.Ara.preds.(pred_id);
                      pt_state = 0;
                      pt_entry = entry;
                      pt_expr = Condition.tru;
                    }
                    :: lvl.pred;
                entry.ae_atom :: atoms)
              nt.nt_atoms step.Ara.anchors
          in
          let state' = nt.nt_state + 1 in
          if state' = Array.length steps then begin
            st.stats.auth_pushes <- st.stats.auth_pushes + 1;
            let inst =
              Condition.conj (expr' :: List.map Condition.atom_expr atoms)
            in
            observe st
              (Obs_instance
                 {
                   rule = Ara.rule_id nt.nt_ara;
                   sign = Ara.sign nt.nt_ara;
                   depth;
                   pending = Condition.eval inst = Condition.Unknown;
                 });
            completions :=
              (Ara.rule_id nt.nt_ara, Ara.sign nt.nt_ara, inst) :: !completions
          end
          else
            lvl.nav <-
              { nt with nt_state = state'; nt_atoms = atoms; nt_expr = expr' }
              :: lvl.nav
        end
      end)
    tokens;
  !completions

(* DescTag filtering (SkipSubtree, Figure 6): drop tokens whose remaining
   concrete labels cannot all be found below the current element. *)
let filter_level_by_desctags lvl tags =
  let module S = Set.Make (String) in
  let set = S.of_list tags in
  let empty = S.is_empty set in
  let ok labels = (not empty) && List.for_all (fun l -> S.mem l set) labels in
  lvl.nav <-
    List.filter
      (fun nt -> ok (Ara.remaining_nav_labels nt.nt_ara ~from_state:nt.nt_state))
      lvl.nav;
  lvl.pred <-
    List.filter
      (fun pt -> ok (Ara.remaining_pred_labels pt.pt_pred ~from_state:pt.pt_state))
      lvl.pred

(* Predicate tokens whose instance already resolved are dead (the paper's
   "no need to continue to evaluate this predicate in this subtree",
   Figure 3 step 3); prune them before deciding whether a level is empty. *)
let prune_dead_pred_tokens st lvl =
  let before = List.length lvl.pred in
  lvl.pred <-
    List.filter
      (fun pt -> not (Condition.is_resolved pt.pt_entry.ae_atom))
      lvl.pred;
  st.live <- st.live - (before - List.length lvl.pred)

(* strip the enclosing Start/End of a read-back subtree *)
let strip_wrapper events =
  match events with
  | Event.Start _ :: rest ->
      let rec drop_last = function
        | [] | [ Event.End _ ] -> []
        | e :: tl -> e :: drop_last tl
      in
      drop_last rest
  | _ -> events

(* Event handlers ------------------------------------------------------------- *)

(* Guards against event streams no well-formed document can produce (a
   corrupt decoder or a hand-built event list): they raise the typed
   {!Error.Stream_error} instead of tripping internal invariants. Past
   them, [st.levels] always holds [st.depth + 1] entries and
   [st.rule_exprs]/[st.interests]/[st.open_elems] hold [st.depth], so the
   [assert false] arms on those stacks below are genuinely unreachable. *)
(* unresolved predicate instances, as (rule, anchor depth), sorted for a
   deterministic trace *)
let pending_snapshot st =
  Hashtbl.fold
    (fun _ e acc ->
      if Condition.is_resolved e.ae_atom then acc
      else (e.ae_rule, e.ae_anchor_depth) :: acc)
    st.registry []
  |> List.sort compare

let handle_open st tag attributes =
  if st.depth = 0 && st.root_closed then
    raise (Error.Stream_error "multiple root elements");
  let depth = st.depth + 1 in
  st.depth <- depth;
  if depth > st.stats.depth_peak then st.stats.depth_peak <- depth;
  if st.prov <> None then (
    match st.sib_counts with
    | [] ->
        (* the root element: node_id [] *)
        st.path_rev <- [];
        st.sib_counts <- [ 0 ]
    | n :: rest ->
        st.path_rev <- n :: st.path_rev;
        st.sib_counts <- 0 :: (n + 1) :: rest);
  let top = match st.levels with t :: _ -> t | [] -> assert false in
  let lvl = { nav = []; pred = [] } in
  (* pass A: rules *)
  let rule_completions =
    advance_nav_tokens st ~tokens:top.nav ~lvl ~tag ~depth
      ~node_expr:(lazy Condition.tru)
      ~want:(fun a -> not (Ara.is_query a))
  in
  advance_pred_tokens st ~tokens:top.pred ~lvl ~tag ~depth
    ~node_expr:(lazy Condition.tru)
    ~want:(fun a -> not (Ara.is_query a));
  let pos =
    List.filter_map
      (fun (_, s, e) -> if s = Rule.Permit then Some e else None)
      rule_completions
  in
  let neg =
    List.filter_map
      (fun (_, s, e) -> if s = Rule.Deny then Some e else None)
      rule_completions
  in
  let parent_rule_expr =
    match st.rule_exprs with e :: _ -> e | [] -> Condition.fls
  in
  let rule_expr =
    Condition.conj
      [
        Condition.neg (Condition.disj neg);
        Condition.disj [ Condition.disj pos; parent_rule_expr ];
      ]
  in
  (* pass B: the query. A query step matching this element contributes the
     element's view-membership (some rule-permitted node in its subtree),
     gathered by a lazily-created watcher resolved at the closing event. *)
  let watcher = ref None in
  let view_membership =
    lazy
      (match !watcher with
      | Some w -> Condition.atom_expr w.vw_atom
      | None ->
          let w =
            { vw_atom = Condition.atom (); vw_true = false; vw_pending = [] }
          in
          watcher := Some w;
          Condition.atom_expr w.vw_atom)
  in
  let interest =
    match st.query_ara with
    | None -> Condition.tru
    | Some _ ->
        let q_completions =
          advance_nav_tokens st ~tokens:top.nav ~lvl ~tag ~depth
            ~node_expr:view_membership ~want:Ara.is_query
        in
        advance_pred_tokens st ~tokens:top.pred ~lvl ~tag ~depth
          ~node_expr:view_membership ~want:Ara.is_query;
        let parent_interest =
          match st.interests with e :: _ -> e | [] -> Condition.fls
        in
        Condition.disj
          (parent_interest :: List.map (fun (_, _, e) -> e) q_completions)
  in
  let delivery = Condition.conj [ rule_expr; interest ] in
  st.levels <- lvl :: st.levels;
  st.rule_exprs <- rule_expr :: st.rule_exprs;
  st.interests <- interest :: st.interests;
  (* this element's rule condition feeds every active watcher, its own
     included (an element is in the view if it is permitted itself) *)
  (match !watcher with Some w -> st.watchers <- w :: st.watchers | None -> ());
  List.iter
    (fun w ->
      if not w.vw_true then
        match Condition.eval rule_expr with
        | Condition.True -> w.vw_true <- true
        | Condition.Unknown -> w.vw_pending <- rule_expr :: w.vw_pending
        | Condition.False -> ())
    st.watchers;
  observe st
    (Obs_decision
       {
         tag;
         depth;
         decision =
           (match Condition.eval delivery with
           | Condition.True -> Conflict.Permit
           | Condition.False -> Conflict.Deny
           | Condition.Unknown -> Conflict.Pending);
       });
  let parent_item =
    match st.open_elems with o :: _ -> o.oe_item | [] -> -1
  in
  let it =
    new_item st (K_start { tag; attributes; end_item = -1 }) delivery parent_item
  in
  st.open_elems <-
    { oe_item = it.it_idx; oe_delivery = delivery; oe_watcher = !watcher }
    :: st.open_elems;
  (* SkipSubtree: filter by the element's DescTag set, then skip if no
     automaton can progress inside and the subtree is not to be delivered *)
  if st.options.enable_desctag_filter then
    (match st.input.Input.desc_tags () with
    | Some tags -> filter_level_by_desctags lvl tags
    | None -> ());
  st.live <- st.live + List.length lvl.nav + List.length lvl.pred;
  if st.live > st.stats.tokens_peak then st.stats.tokens_peak <- st.live;
  note_memory st;
  prune_dead_pred_tokens st lvl;
  (match st.prov with
  | None -> ()
  | Some coll ->
      Provenance.note_open coll ~path:(List.rev st.path_rev) ~tag ~depth
        ~delivery ~rule_expr ~completions:rule_completions
        ~tokens:
          (List.map
             (fun nt ->
               (Ara.rule_id nt.nt_ara, nt.nt_state, Ara.nav_length nt.nt_ara))
             lvl.nav)
        ~pending:(pending_snapshot st));
  if
    st.options.enable_skipping
    && lvl.nav = [] && lvl.pred = [] && st.scopes = []
    && Condition.eval delivery <> Condition.True
  then
    match st.input.Input.skip () with
    | None -> ()
    | Some (thunk, bytes) -> (
        st.stats.open_skips <- st.stats.open_skips + 1;
        observe st
          (Obs_skip
             { depth; pending = Condition.eval delivery = Condition.Unknown });
        (match st.prov with
        | None -> ()
        | Some coll ->
            Provenance.note_skip coll ~path:(List.rev st.path_rev) ~tag ~depth
              ~kind:Provenance.Skip_subtree
              ~pending:(Condition.eval delivery = Condition.Unknown)
              ~expr:delivery ~bytes);
        match Condition.eval delivery with
        | Condition.False -> () (* prohibited: dropped without being read *)
        | Condition.Unknown ->
            st.stats.pending_subtrees <- st.stats.pending_subtrees + 1;
            ignore
              (new_item st
                 (K_subtree (fun () -> strip_wrapper (thunk ())))
                 delivery it.it_idx)
        | Condition.True -> assert false)

let handle_text st text =
  (* a text node takes a child ordinal too — keep node ids aligned *)
  if st.prov <> None then (
    match st.sib_counts with
    | n :: rest -> st.sib_counts <- (n + 1) :: rest
    | [] -> ());
  List.iter (fun scope -> Buffer.add_string scope.vs_buf text) st.scopes;
  match st.open_elems with
  | [] -> ()
  | { oe_delivery; oe_item; _ } :: _ -> (
      match Condition.eval oe_delivery with
      | Condition.False -> ()
      | Condition.True | Condition.Unknown ->
          ignore (new_item st (K_text text) oe_delivery oe_item))

let handle_close st =
  if st.depth = 0 then
    raise (Error.Stream_error "close event without a matching open");
  if st.depth = 1 then st.root_closed <- true;
  let depth = st.depth in
  (* value scopes attached to the element being closed *)
  let closing, remaining =
    List.partition (fun s -> s.vs_close_depth = depth) st.scopes
  in
  st.scopes <- remaining;
  List.iter
    (fun s ->
      let op, lit = s.vs_cond in
      if Ast.compare_values op (Buffer.contents s.vs_buf) lit then
        contribute st s.vs_entry s.vs_gate)
    closing;
  expire_depth st depth;
  (match st.levels with
  | top :: rest ->
      st.live <- st.live - List.length top.nav - List.length top.pred;
      st.levels <- rest
  | [] -> assert false);
  (match st.rule_exprs with _ :: r -> st.rule_exprs <- r | [] -> assert false);
  (match st.interests with _ :: r -> st.interests <- r | [] -> assert false);
  (match st.open_elems with
  | { oe_item; oe_watcher; _ } :: rest ->
      let start = get_item st oe_item in
      let end_it =
        add_item st (K_end { start = oe_item }) start.it_expr start.it_parent
      in
      (match start.it_kind with
      | K_start k -> k.end_item <- end_it.it_idx
      | _ -> assert false);
      start.it_closed <- true;
      (match oe_watcher with
      | None -> ()
      | Some w ->
          Condition.resolve w.vw_atom
            (if w.vw_true then Condition.tru else Condition.disj w.vw_pending);
          st.resolution_tick <- st.resolution_tick + 1;
          (match st.watchers with
          | top :: others when top == w -> st.watchers <- others
          | _ -> assert false));
      st.open_elems <- rest;
      (* settle whatever the just-resolved atoms decided, then see whether
         this element's End can be emitted *)
      sweep st;
      maybe_emit_end st oe_item
  | [] -> assert false);
  st.depth <- depth - 1;
  (match st.prov with
  | None -> ()
  | Some coll ->
      Provenance.note_close coll;
      (match st.sib_counts with
      | _ :: tl -> st.sib_counts <- tl
      | [] -> ());
      (match st.path_rev with
      | _ :: tl -> st.path_rev <- tl
      | [] -> ()));
  (* close-triggered skip: the rest of the parent's content may now be
     skippable (paper: "this algorithm should be triggered both on open and
     close events") *)
  if st.options.enable_rest_skips && st.depth >= 1 then begin
    (match st.levels with
    | lvl :: _ -> prune_dead_pred_tokens st lvl
    | [] -> ());
    match (st.levels, st.open_elems) with
    | lvl :: _, { oe_delivery; oe_item; _ } :: _
      when lvl.nav = [] && lvl.pred = [] && st.scopes = []
           && Condition.eval oe_delivery <> Condition.True -> (
        match st.input.Input.skip_rest () with
        | None -> ()
        | Some (thunk, bytes) -> (
            st.stats.rest_skips <- st.stats.rest_skips + 1;
            observe st
              (Obs_skip
                 {
                   depth = st.depth;
                   pending = Condition.eval oe_delivery = Condition.Unknown;
                 });
            (match st.prov with
            | None -> ()
            | Some coll ->
                let parent_tag =
                  match (get_item st oe_item).it_kind with
                  | K_start k -> k.tag
                  | _ -> assert false
                in
                Provenance.note_skip coll ~path:(List.rev st.path_rev)
                  ~tag:parent_tag ~depth:st.depth ~kind:Provenance.Skip_rest
                  ~pending:(Condition.eval oe_delivery = Condition.Unknown)
                  ~expr:oe_delivery ~bytes);
            match Condition.eval oe_delivery with
            | Condition.False -> ()
            | Condition.Unknown ->
                st.stats.pending_subtrees <- st.stats.pending_subtrees + 1;
                ignore (new_item st (K_subtree thunk) oe_delivery oe_item)
            | Condition.True -> assert false))
    | _ -> ()
  end

(* Driver ----------------------------------------------------------------------- *)

let compile_aras ?query policy =
  let next = ref 0 in
  let fresh () =
    let i = !next in
    incr next;
    i
  in
  let rule_aras =
    List.map
      (fun r -> Ara.compile ~ara_id:(fresh ()) (Ara.Rule_src r))
      (Policy.rules policy)
  in
  let query_ara =
    Option.map (fun q -> Ara.compile ~ara_id:(fresh ()) (Ara.Query_src q)) query
  in
  (rule_aras, query_ara)

let run ?query ?dummy_denied ?(options = default_options) ?on_deliver ?observer
    ?provenance ~policy input =
  (match Policy.streaming_compatible policy with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Evaluator.run: " ^ msg));
  let rule_aras, query_ara = compile_aras ?query policy in
  let initial_tokens =
    List.map
      (fun ara ->
        { nt_ara = ara; nt_state = 0; nt_atoms = []; nt_expr = Condition.tru })
      (rule_aras @ Option.to_list query_ara)
  in
  let st =
    {
      input;
      options;
      dummy_denied;
      on_deliver;
      observer;
      prov = provenance;
      path_rev = [];
      sib_counts = [];
      rule_aras;
      query_ara;
      stats = fresh_stats ();
      levels = [ { nav = initial_tokens; pred = [] } ];
      rule_exprs = [];
      interests = [];
      open_elems = [];
      registry = Hashtbl.create 64;
      expiry = Hashtbl.create 16;
      watchers = [];
      scopes = [];
      items = Array.make 64 dummy_item;
      item_count = 0;
      pending = [];
      pending_count = 0;
      out_rev = [];
      resolution_tick = 0;
      last_sweep_tick = 0;
      depth = 0;
      live = List.length initial_tokens;
      root_closed = false;
    }
  in
  let rec loop () =
    match input.Input.next () with
    | None -> ()
    | Some e ->
        st.stats.events_in <- st.stats.events_in + 1;
        (match e with
        | Event.Start { tag; attributes } -> handle_open st tag attributes
        | Event.Text s -> handle_text st s
        | Event.End _ -> handle_close st);
        loop ()
  in
  loop ();
  if st.depth > 0 then
    raise
      (Error.Stream_error
         (Printf.sprintf "input ended with %d unclosed elements" st.depth));
  (* at the end of the document every predicate scope has closed, so every
     condition is decided; a final sweep settles what is left *)
  st.resolution_tick <- st.resolution_tick + 1;
  sweep st;
  assert (st.pending = []);
  let ordered =
    List.sort (fun (a, _) (b, _) -> compare a b) (List.rev st.out_rev)
  in
  { events = List.concat_map snd ordered; stats = st.stats }

let view_tree result =
  match result.events with
  | [] -> None
  | evs -> Some (Xmlac_xml.Tree.of_events evs)

let run_events ?query ?dummy_denied ?options ?on_deliver ?observer ?provenance
    ~policy events =
  run ?query ?dummy_denied ?options ?on_deliver ?observer ?provenance ~policy
    (Input.of_events events)
