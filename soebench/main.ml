(* End-to-end SOE benchmark.

   One process runs one workload for a fixed time, checks every delivered
   view against the DOM oracle, and prints its metrics; the last line of
   stdout is a JSON object {correct, attempted, failed, metrics}.

     main.exe --workload {view-local|fleet-remote|publish-sync}
              --seed N --seconds S --trace {0|1}

   With --trace 0 every operation runs unwrapped and the end-to-end metrics
   are reported. With --trace 1 whole rotations of operations alternate
   between unwrapped and ledger-wrapped (see ledger.ml); the wrapped ones
   give the per-layer split, the unwrapped ones the untraced baseline for
   [trace_overhead] and the tail percentiles. Set-up, reference views and
   output checks run outside every timed region. *)

module W = Xmlac_workload
module Tree = Xmlac_xml.Tree
module Writer = Xmlac_xml.Writer
module Layout = Xmlac_skip_index.Layout
module Encoder = Xmlac_skip_index.Encoder
module Decoder = Xmlac_skip_index.Decoder
module Update = Xmlac_skip_index.Update
module C = Xmlac_crypto.Secure_container
module Des = Xmlac_crypto.Des
module Engine = Xmlac_crypto.Engine
module Policy = Xmlac_core.Policy
module Oracle = Xmlac_core.Oracle
module Evaluator = Xmlac_core.Evaluator
module Input = Xmlac_core.Input
module Channel = Xmlac_soe.Channel
module Remote = Xmlac_soe.Remote
module Cost_model = Xmlac_soe.Cost_model
module Wire = Xmlac_wire
module Publisher = Xmlac_dissem.Publisher

(* Command line ------------------------------------------------------------ *)

type args = { workload : string; seed : int; seconds : int; trace : bool }

let usage msg =
  Printf.eprintf
    "soebench: %s\n\
     usage: main.exe --workload {view-local|fleet-remote|publish-sync} --seed \
     N --seconds S --trace {0|1}\n"
    msg;
  exit 2

let parse_args () =
  let get = Hashtbl.create 4 in
  let argv = Sys.argv in
  let rec go i =
    if i < Array.length argv then
      if i + 1 >= Array.length argv then usage ("missing value for " ^ argv.(i))
      else begin
        Hashtbl.replace get argv.(i) argv.(i + 1);
        go (i + 2)
      end
  in
  go 1;
  let find k =
    match Hashtbl.find_opt get k with
    | Some v -> v
    | None -> usage ("missing " ^ k)
  in
  let int k =
    match int_of_string_opt (find k) with
    | Some v -> v
    | None -> usage (k ^ " needs an integer")
  in
  let workload = find "--workload" in
  if not (List.mem workload [ "view-local"; "fleet-remote"; "publish-sync" ])
  then usage ("unknown workload " ^ workload);
  let seconds = int "--seconds" in
  if seconds < 1 then usage "--seconds must be positive";
  let trace =
    match find "--trace" with
    | "0" -> false
    | "1" -> true
    | _ -> usage "--trace takes 0 or 1"
  in
  { workload; seed = int "--seed"; seconds; trace }

(* Samples and statistics -------------------------------------------------- *)

(* linear interpolation between closest ranks *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* The workloads rotate through kinds of sessions whose latencies differ
   by up to 4x. Pooled, the 90th percentile is merely the middle of the
   slowest kind; the tail is instead each kind's own quantile [q], averaged
   over the kinds. *)
let kind_quantile samples q =
  let kinds = List.sort_uniq compare (List.map fst samples) in
  match kinds with
  | [] -> 0.
  | _ ->
      List.fold_left
        (fun acc k ->
          let xs = List.filter_map (fun (k', x) -> if k = k' then Some x else None) samples in
          acc +. quantile xs q)
        0. kinds
      /. float_of_int (List.length kinds)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

let timed f =
  let t0 = Ledger.now_ns () in
  let v = f () in
  (v, s_of_ns (Ledger.now_ns () - t0))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* Deterministic per-session counters ------------------------------------- *)

(* Everything here depends only on the document, the policy and the access
   sequence, never on timing: every repeat of a session kind must reproduce
   its first occurrence exactly, and a mismatch counts as a failure. *)
type counts = {
  bytes_to_soe : int;
  bytes_decrypted : int;
  bytes_hashed : int;
  cache_hits : int;
  cache_lookups : int;
  events_decoded : int;
  bytes_skipped : int;
  encoded_bytes : int;
  transitions : int;
  events_in : int;
  memo_hits : int;
  memo_lookups : int;
  round_trips : int;
  batched : int;
  model : Cost_model.breakdown;
}

let hardware = Cost_model.of_context Cost_model.Hardware

type kinds = { table : (int, counts) Hashtbl.t; lock : Mutex.t }

let kinds () = { table = Hashtbl.create 16; lock = Mutex.create () }

(* [true] when [c] agrees with the first occurrence of [kind] *)
let same_as_first kinds kind c =
  Mutex.protect kinds.lock (fun () ->
      match Hashtbl.find_opt kinds.table kind with
      | None ->
          Hashtbl.replace kinds.table kind c;
          true
      | Some c0 -> c0 = c)

let kind_counts kinds =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) kinds.table []
  |> List.sort compare |> List.map snd

(* Per-thread accumulators ------------------------------------------------- *)

type acc = {
  ledger : Ledger.t;
  mutable untraced : (int * float) list;
      (** (kind, wall ms) of unwrapped sessions, newest first *)
  mutable traced : (int * float) list;
  mutable upd_untraced : (int * float) list;  (** likewise for updates *)
  mutable upd_traced : (int * float) list;
  layer_ns : int array;  (** self ns summed over wrapped operations *)
  layer_words : float array;
  mutable session_unattributed_ns : int;
  mutable update_unattributed_ns : int;
  mutable negative_residuals : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable check_ns : int;  (** time spent checking outputs *)
  mutable busy_ns : int;  (** measured wall time less [check_ns] *)
}

let new_acc () =
  {
    ledger = Ledger.create ();
    untraced = [];
    traced = [];
    upd_untraced = [];
    upd_traced = [];
    layer_ns = Array.make Ledger.count 0;
    layer_words = Array.make Ledger.count 0.;
    session_unattributed_ns = 0;
    update_unattributed_ns = 0;
    negative_residuals = 0;
    attempted = 0;
    failed = 0;
    failures = [];
    check_ns = 0;
    busy_ns = 0;
  }

(* Warm-up sessions count as attempts but give no latency samples. *)
let merge_warm ~into warm =
  into.attempted <- into.attempted + warm.attempted;
  into.failed <- into.failed + warm.failed;
  into.failures <- warm.failures @ into.failures

let fail acc msg =
  acc.failed <- acc.failed + 1;
  if List.length acc.failures < 5 then acc.failures <- msg :: acc.failures

(* Fold a wrapped operation's ledger into [acc]; returns its residual. *)
let absorb acc ~wall_ns =
  let attributed = ref 0 in
  for layer = 1 to Ledger.count - 1 do
    let ns = Ledger.self_ns acc.ledger layer in
    attributed := !attributed + ns;
    acc.layer_ns.(layer) <- acc.layer_ns.(layer) + ns;
    acc.layer_words.(layer) <-
      acc.layer_words.(layer) +. Ledger.words acc.ledger layer
  done;
  let residual = wall_ns - !attributed in
  if residual < 0 then acc.negative_residuals <- acc.negative_residuals + 1;
  residual

(* Sessions ---------------------------------------------------------------- *)

type spec = {
  kind : int;
  policy : Policy.t;
  query : Xmlac_xpath.Ast.t option;
  key : Des.Triple.key;
  expected : string;  (** serialized oracle view *)
}

type conn = {
  term : Channel.terminal;
  wire : unit -> Wire.Stats.t option;
  close : unit -> unit;
}

(* Connectors take the session's ledger (if traced) so opening and closing
   the terminal are charged to the layer that does the work. *)
let local_conn term _ledger = { term; wire = (fun () -> None); close = ignore }

let replica_conn mirror ledger =
  let term =
    Ledger.within ledger Ledger.terminal (fun () ->
        Channel.local_terminal (Wire.Mirror.container mirror))
  in
  local_conn term ledger

let remote_conn ~container ~scheme connector ledger =
  let r =
    Ledger.within ledger Ledger.wire_connect (fun () ->
        Remote.connect ~container ~expect_scheme:scheme connector)
  in
  {
    term = Remote.terminal r;
    wire = (fun () -> Some (Remote.wire_stats r));
    close =
      (fun () -> Ledger.within ledger Ledger.wire_connect (fun () -> Remote.close r));
  }

(* One SOE session body: channel, decoder, evaluator, serializer. *)
let evaluate ledger conn spec =
  let term =
    match ledger with Some l -> Ledger.terminal_of l conn.term | None -> conn.term
  in
  let counters = Channel.fresh_counters () in
  let source =
    Channel.source_of_terminal ~verify:true ~engine:Engine.Fast ~terminal:term
      ~key:spec.key counters
  in
  let source =
    match ledger with Some l -> Ledger.source_of l source | None -> source
  in
  let decoder =
    Ledger.within ledger Ledger.skip_index (fun () -> Decoder.of_source source)
  in
  let input =
    match ledger with
    | Some l -> Ledger.input_of l (Input.of_decoder decoder)
    | None -> Input.of_decoder decoder
  in
  let result =
    Ledger.within ledger Ledger.core (fun () ->
        Evaluator.run ?query:spec.query ~policy:spec.policy input)
  in
  let view =
    Ledger.within ledger Ledger.serialize (fun () ->
        Writer.events_to_string result.Evaluator.events)
  in
  let wire = conn.wire () in
  let index = Decoder.stats decoder in
  let eval = result.Evaluator.stats in
  let counts =
    {
      bytes_to_soe = counters.Channel.bytes_to_soe;
      bytes_decrypted = counters.Channel.bytes_decrypted;
      bytes_hashed = counters.Channel.bytes_hashed;
      cache_hits = counters.Channel.cache.Xmlac_soe.Lru.hits;
      cache_lookups =
        counters.Channel.cache.Xmlac_soe.Lru.hits
        + counters.Channel.cache.Xmlac_soe.Lru.misses;
      events_decoded = index.Decoder.events_decoded;
      bytes_skipped = index.Decoder.bytes_skipped;
      encoded_bytes = C.payload_length term.Channel.t_container;
      transitions = eval.Evaluator.transitions;
      events_in = eval.Evaluator.events_in;
      memo_hits = eval.Evaluator.ara_memo_hits;
      memo_lookups = eval.Evaluator.ara_memo_hits + eval.Evaluator.ara_memo_misses;
      round_trips =
        (match wire with Some w -> w.Wire.Stats.requests | None -> 0);
      batched =
        (match wire with Some w -> w.Wire.Stats.batched_requests | None -> 0);
      model =
        Cost_model.breakdown hardware ~bytes_in:counters.Channel.bytes_to_soe
          ~bytes_decrypted:counters.Channel.bytes_decrypted
          ~bytes_hashed:counters.Channel.bytes_hashed
          ~transitions:eval.Evaluator.transitions
          ~events:eval.Evaluator.events_in;
    }
  in
  let payload_ok =
    match wire with
    | Some w -> w.Wire.Stats.payload_bytes = counters.Channel.bytes_to_soe
    | None -> true
  in
  (view, counts, payload_ok)

(* A session from connect to a verified, serialized view; the comparison
   with the oracle happens after the clock stops. *)
let run_session acc kinds ~traced ~connect spec =
  acc.attempted <- acc.attempted + 1;
  let ledger = if traced then Some acc.ledger else None in
  let t0 = Ledger.now_ns () in
  Option.iter Ledger.start ledger;
  let outcome =
    match connect ledger with
    | exception e -> Error (Printexc.to_string e)
    | conn ->
        let r = try Ok (evaluate ledger conn spec) with e -> Error (Printexc.to_string e) in
        (try conn.close () with _ -> ());
        r
  in
  Option.iter Ledger.stop ledger;
  let t1 = Ledger.now_ns () in
  (match outcome with
  | Error msg -> fail acc (Printf.sprintf "session kind %d: %s" spec.kind msg)
  | Ok (view, counts, payload_ok) ->
      if not (String.equal view spec.expected) then
        fail acc (Printf.sprintf "session kind %d: view differs from the oracle" spec.kind)
      else if not payload_ok then
        fail acc (Printf.sprintf "session kind %d: wire payload <> bytes_to_soe" spec.kind)
      else if not (same_as_first kinds spec.kind counts) then
        fail acc (Printf.sprintf "session kind %d: counters differ from its first run" spec.kind)
      else begin
        let wall_ns = t1 - t0 in
        if traced then begin
          acc.traced <- (spec.kind, ms_of_ns wall_ns) :: acc.traced;
          let residual = absorb acc ~wall_ns in
          acc.session_unattributed_ns <- acc.session_unattributed_ns + residual
        end
        else acc.untraced <- (spec.kind, ms_of_ns wall_ns) :: acc.untraced
      end);
  acc.check_ns <- acc.check_ns + (Ledger.now_ns () - t1)

(* Closed loop: run [step n] for n = 0, 1, ... until [seconds] have passed
   and [enough n] holds. *)
let closed_loop acc ~seconds ?(enough = fun _ -> true) step =
  let t0 = Ledger.now_ns () in
  let deadline = t0 + (seconds * 1_000_000_000) in
  let check0 = acc.check_ns in
  let n = ref 0 in
  while Ledger.now_ns () < deadline || not (enough !n) do
    step !n;
    incr n
  done;
  acc.busy_ns <- acc.busy_ns + (Ledger.now_ns () - t0 - (acc.check_ns - check0))

(* Inputs shared by the workloads ----------------------------------------- *)

let hospital ~folders ~seed =
  W.Hospital.generate ~config:{ W.Hospital.default_config with folders } ~seed ()

let key_for label =
  let raw = Printf.sprintf "soebench-%-15s" label in
  Des.Triple.key_of_string (String.sub raw 0 24)

let expected_view ?query policy tree =
  let view =
    match query with
    | None -> Oracle.authorized_view policy tree
    | Some q -> Oracle.query_view ~query:q policy tree
  in
  match view with None -> "" | Some v -> Writer.tree_to_string v

let doctor = W.Profiles.doctor ~user:W.Hospital.full_time_physician

(* Set-up phases, in seconds, per repetition *)
type setup = { total : float; parse : float; encode : float; encrypt : float }

(* Set up [reps] times and keep the last instance; [dispose] releases the
   others. Reporting the median keeps one slow repetition from moving
   [setup_s]. *)
let repeat_setup ~reps ~dispose f =
  let rec go i acc =
    let v, s = f i in
    if i + 1 = reps then (v, List.rev (s :: acc))
    else begin
      dispose v;
      go (i + 1) (s :: acc)
    end
  in
  go 0 []

let parse_encode text =
  let tree, parse = timed (fun () -> Tree.parse text) in
  let encoded, encode =
    timed (fun () -> Encoder.encode ~layout:Layout.Tcsbr tree)
  in
  (encoded, parse, encode)

(* A terminal server on 127.0.0.1 TCP, accepting in its own domain so the
   client threads of this domain do not share a runtime lock with it. *)
let with_server f =
  let server = Wire.Server.create () in
  let listener = Wire.Transport.listen (Wire.Transport.Tcp ("127.0.0.1", 0)) in
  let addr = Wire.Transport.bound_addr listener in
  let stop = ref false in
  let domain =
    Domain.spawn (fun () ->
        try Wire.Server.serve ~domains:1 ~stop server listener
        with Wire.Error.Wire _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      Domain.join domain;
      Wire.Transport.close_listener listener)
    (fun () -> f server (fun () -> Wire.Transport.connect addr))

(* Workload results -------------------------------------------------------- *)

type result = {
  setups : setup list;
  accs : acc list;
  kinds : kinds;
  updates : (int * int) list;
      (** (delta bytes, chunks rewritten) of the first update cycle *)
  payload_first : int;
  payload_last : int;
}

(* view-local --------------------------------------------------------------- *)

(* One client, in-process terminal, the 1.8 MB Hospital document under
   ECB-MHT: the channel, decoder and evaluator do all the work and the wire
   none, so ingest and policy changes show here and wire changes must not. *)
let view_local args =
  let doc = hospital ~folders:900 ~seed:args.seed in
  let text = Writer.tree_to_string doc in
  let key = key_for "view-local" in
  let profiles =
    [
      (W.Profiles.secretary, None);
      (doctor, None);
      (W.Profiles.researcher ~groups:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (), None);
      (W.Profiles.secretary, Some (W.Profiles.age_query ~threshold:50));
      ( W.Profiles.view_policy W.Profiles.Full_time_doctor,
        Some (W.Profiles.age_query ~threshold:85) );
    ]
  in
  let specs =
    Array.of_list
      (List.mapi
         (fun kind (policy, query) ->
           { kind; policy; query; key; expected = expected_view ?query policy doc })
         profiles)
  in
  let term, setups =
    repeat_setup ~reps:5 ~dispose:ignore (fun _ ->
        let encoded, parse, encode = parse_encode text in
        let container, encrypt =
          timed (fun () -> C.encrypt ~scheme:C.Ecb_mht ~key encoded)
        in
        let term, start = timed (fun () -> Channel.local_terminal container) in
        (term, { total = parse +. encode +. encrypt +. start; parse; encode; encrypt }))
  in
  let kinds = kinds () in
  let rotation = Array.length specs in
  let connect = local_conn term in
  let warm = new_acc () in
  Array.iter (run_session warm kinds ~traced:false ~connect) specs;
  let acc = new_acc () in
  closed_loop acc ~seconds:args.seconds (fun n ->
      let traced = args.trace && n / rotation mod 2 = 1 in
      run_session acc kinds ~traced ~connect specs.(n mod rotation));
  merge_warm ~into:acc warm;
  { setups; accs = [ acc ]; kinds; updates = []; payload_first = 0; payload_last = 0 }

(* fleet-remote ------------------------------------------------------------- *)

(* Two client threads, each on its own mux connection to one TCP terminal
   serving four 3-folder tenants, one per integrity scheme. Sessions are
   short, so connect, framing, round trips and server dispatch dominate. *)
let fleet_remote args =
  (* Three-folder documents vary a lot in what a session costs, in steps of
     whole chunks, so each tenant serves the median-cost one of 101 seeded
     candidates: the seed still picks the document, but barely moves the
     cost. *)
  let tenant_doc i scheme key =
    let candidate c =
      let doc = hospital ~folders:3 ~seed:((args.seed * 4096) + (i * 1024) + c) in
      let container =
        C.encrypt ~chunk_size:1024 ~fragment_size:128 ~scheme ~key
          (Encoder.encode ~layout:Layout.Tcsbr doc)
      in
      let spec =
        { kind = 0; policy = W.Profiles.secretary; query = None; key; expected = "" }
      in
      let _, counts, _ =
        evaluate None (local_conn (Channel.local_terminal container) None) spec
      in
      (counts.model.Cost_model.total_s, c, doc)
    in
    let ranked = List.sort compare (List.init 101 candidate) in
    let _, _, doc = List.nth ranked 50 in
    doc
  in
  let tenants =
    List.mapi
      (fun i (label, scheme) ->
        let key = key_for label in
        let doc = tenant_doc i scheme key in
        (label, scheme, key, doc, Writer.tree_to_string doc))
      [
        ("ecb-mht", C.Ecb_mht);
        ("cbc-sha", C.Cbc_sha);
        ("cbc-shac", C.Cbc_shac);
        ("aes-ctr", C.Aes_ctr);
      ]
  in
  let rotation = List.length tenants in
  let clients = 2 in
  with_server (fun server connector ->
      let ids, setups =
        repeat_setup ~reps:25
          ~dispose:(List.iter (fun id -> ignore (Wire.Server.unpublish server ~id : bool)))
          (fun rep ->
            let parts =
              List.map
                (fun (label, scheme, key, _, text) ->
                  let encoded, parse, encode = parse_encode text in
                  let container, encrypt =
                    timed (fun () ->
                        C.encrypt ~chunk_size:1024 ~fragment_size:128 ~scheme ~key
                          encoded)
                  in
                  let id = Printf.sprintf "%s-%d" label rep in
                  let (), publish =
                    timed (fun () -> Wire.Server.publish server ~id container)
                  in
                  (id, parse, encode, encrypt, publish))
                tenants
            in
            let sum f = List.fold_left (fun a p -> a +. f p) 0. parts in
            let parse = sum (fun (_, p, _, _, _) -> p)
            and encode = sum (fun (_, _, e, _, _) -> e)
            and encrypt = sum (fun (_, _, _, c, _) -> c) in
            ( List.map (fun (id, _, _, _, _) -> id) parts,
              {
                total = parse +. encode +. encrypt +. sum (fun (_, _, _, _, p) -> p);
                parse;
                encode;
                encrypt;
              } ))
      in
      let specs =
        Array.of_list
          (List.mapi
             (fun kind (_, _, key, doc, _) ->
               {
                 kind;
                 policy = W.Profiles.secretary;
                 query = None;
                 key;
                 expected = expected_view W.Profiles.secretary doc;
               })
             tenants)
      in
      let schemes = Array.of_list (List.map (fun (_, s, _, _, _) -> s) tenants) in
      let ids = Array.of_list ids in
      let connect mux kind =
        remote_conn ~container:ids.(kind) ~scheme:schemes.(kind)
          (Wire.Mux.session mux)
      in
      let kinds = kinds () in
      let muxes = Array.init clients (fun _ -> Wire.Mux.connect connector) in
      let accs = Array.init clients (fun _ -> new_acc ()) in
      let warm = new_acc () in
      Array.iter
        (fun mux ->
          Array.iter
            (fun spec ->
              run_session warm kinds ~traced:false ~connect:(connect mux spec.kind) spec)
            specs)
        muxes;
      let client i () =
        let acc = accs.(i) in
        closed_loop acc ~seconds:args.seconds (fun n ->
            let traced = args.trace && n / rotation mod 2 = 1 in
            let spec = specs.((n + i) mod rotation) in
            run_session acc kinds ~traced ~connect:(connect muxes.(i) spec.kind) spec)
      in
      let threads = List.init clients (fun i -> Thread.create (client i) ()) in
      List.iter Thread.join threads;
      Array.iter Wire.Mux.close muxes;
      merge_warm ~into:accs.(0) warm;
      {
        setups;
        accs = Array.to_list accs;
        kinds;
        updates = [];
        payload_first = 0;
        payload_last = 0;
      })

(* publish-sync ------------------------------------------------------------- *)

(* Writes beside reads: a publisher on a ~440 KB payload applies edits that
   alternately grow and shrink the document (so its size stays in a fixed
   band however long the run), rotating the key every [rotate_every]
   updates; each update is applied to a TCP terminal and pulled by a
   syncing mirror, then read back by a Secretary and a Doctor session. *)
let rotate_every = 25

type update_op = Edit of int | Rotate of int

let publish_sync args =
  let folders = 390 in
  let doc = hospital ~folders ~seed:args.seed in
  let text = Writer.tree_to_string doc in
  let rng = Random.State.make [| args.seed; 0x50b |] in
  let near frac =
    min (folders - 1) (int_of_float (frac *. float_of_int folders) + Random.State.int rng 8)
  in
  let new_folder i =
    match hospital ~folders:1 ~seed:((args.seed * 8) + i) with
    | Tree.Element { children = folder :: _; _ } -> folder
    | _ -> invalid_arg "publish-sync: generated hospital has no folder"
  in
  let text_at path =
    let rec go node = function
      | [] -> Tree.text_content node
      | i :: rest -> go (List.nth (Tree.children node) i) rest
    in
    go doc path
  in
  (* (grow, undo) pairs; after undo the payload is byte-identical to the
     original, since the encoding is a function of the tree *)
  let pairs =
    let p0 = near 0.9 and p2 = near 0.5 in
    let ssn = [ near 0.3; 0; 0; 0 ] and fname = [ near 0.75; 0; 1; 0 ] in
    [|
      (Update.Insert_child ([], p0, new_folder 0), Update.Delete_subtree [ p0 ]);
      ( Update.Set_text (ssn, String.make 48 '7'),
        Update.Set_text (ssn, text_at ssn) );
      (Update.Insert_child ([], p2, new_folder 1), Update.Delete_subtree [ p2 ]);
      ( Update.Set_text (fname, String.concat " " (List.init 12 (fun _ -> text_at fname))),
        Update.Set_text (fname, text_at fname) );
    |]
  in
  let edits =
    Array.concat (Array.to_list (Array.map (fun (g, u) -> [| g; u |]) pairs))
  in
  (* document states: 0 = original, j + 1 = after grow edit j *)
  let states =
    Array.append [| doc |]
      (Array.map (fun (grow, _) -> Update.apply_to_tree doc grow) pairs)
  in
  let profiles = [| W.Profiles.secretary; doctor |] in
  let expected =
    Array.map (fun tree -> Array.map (fun p -> expected_view p tree) profiles) states
  in
  let master = Printf.sprintf "soebench-publish-sync-%d" args.seed in
  with_server (fun server connector ->
      let (publisher, mirror, id), setups =
        repeat_setup ~reps:5
          ~dispose:(fun (_, m, id) ->
            Wire.Mirror.close m;
            ignore (Wire.Server.unpublish server ~id : bool))
          (fun rep ->
            let encoded, parse, encode = parse_encode text in
            let p, encrypt =
              timed (fun () -> Publisher.create ~scheme:C.Ecb_mht ~master encoded)
            in
            let id = Printf.sprintf "doc-%d" rep in
            let m, start =
              timed (fun () ->
                  Wire.Server.publish server ~id (Publisher.container p);
                  Wire.Mirror.fetch
                    ~config:{ Wire.Client.default_config with Wire.Client.container = id }
                    connector)
            in
            ((p, m, id), { total = parse +. encode +. encrypt +. start; parse; encode; encrypt }))
      in
      let kinds = kinds () in
      let acc = new_acc () in
      let warm = new_acc () in
      let state = ref 0 in
      let read acc ~traced =
        Array.iteri
          (fun pi policy ->
            let spec =
              {
                kind = (!state * 2) + pi;
                policy;
                query = None;
                key = Publisher.key publisher;
                expected = expected.(!state).(pi);
              }
            in
            run_session acc kinds ~traced ~connect:(replica_conn mirror) spec)
          profiles
      in
      read warm ~traced:false;
      let payload_first = String.length (Publisher.payload publisher) in
      let updates = ref [] in
      let edits_done = ref 0 in
      let rotations = ref 0 in
      let update ~traced op =
        let kind = match op with Edit e -> e | Rotate _ -> Array.length edits in
        acc.attempted <- acc.attempted + 1;
        let ledger = if traced then Some acc.ledger else None in
        let within layer f = Ledger.within ledger layer f in
        let t0 = Ledger.now_ns () in
        Option.iter Ledger.start ledger;
        let outcome =
          try
            let delta, dirty =
              match op with
              | Edit e ->
                  let payload, cost =
                    within Ledger.update_encode (fun () ->
                        Update.update_encoded ~layout:Layout.Tcsbr
                          (Publisher.payload publisher) edits.(e))
                  in
                  let delta, rewritten =
                    within Ledger.publisher_update (fun () ->
                        Publisher.update publisher ~payload)
                  in
                  (delta, if rewritten = cost.Update.chunks_dirty then Some rewritten else None)
              | Rotate r ->
                  let delta =
                    within Ledger.publisher_update (fun () ->
                        Publisher.rotate publisher ~revoke:[ Printf.sprintf "revoked-%d" r ])
                  in
                  (delta, Some (List.init (Xmlac_dissem.Delta.chunk_count delta) Fun.id))
            in
            (match within Ledger.apply_delta (fun () -> Wire.Server.apply_delta server ~id delta) with
            | Ok _ -> ()
            | Error e -> failwith ("apply_delta: " ^ e));
            match within Ledger.mirror_sync (fun () -> Wire.Mirror.sync mirror) with
            | Wire.Mirror.Applied { to_gen; delta_bytes; _ }
              when to_gen = Publisher.generation publisher ->
                Ok (delta_bytes, dirty)
            | _ -> Error "mirror did not reach the new generation by a delta"
          with e -> Error (Printexc.to_string e)
        in
        Option.iter Ledger.stop ledger;
        let t1 = Ledger.now_ns () in
        (match outcome with
        | Error msg -> fail acc ("update: " ^ msg)
        | Ok (_, None) -> fail acc "update: rewritten chunks disagree with the update cost"
        | Ok (delta_bytes, Some dirty) ->
            let synced =
              try
                C.decrypt_all (Wire.Mirror.container mirror)
                  ~key:(Publisher.key publisher) ~verify:true
              with e -> Printexc.to_string e
            in
            if not (String.equal synced (Publisher.payload publisher)) then
              fail acc "update: synced replica differs from the publisher payload"
            else if Wire.Mirror.revoked mirror <> Publisher.revoked publisher then
              fail acc "update: revocation list lost in sync"
            else begin
              if List.length !updates <= rotate_every then
                updates := (delta_bytes, List.length dirty) :: !updates;
              let wall_ns = t1 - t0 in
              if traced then begin
                acc.upd_traced <- (kind, ms_of_ns wall_ns) :: acc.upd_traced;
                let residual = absorb acc ~wall_ns in
                acc.update_unattributed_ns <- acc.update_unattributed_ns + residual
              end
              else acc.upd_untraced <- (kind, ms_of_ns wall_ns) :: acc.upd_untraced
            end);
        acc.check_ns <- acc.check_ns + (Ledger.now_ns () - t1)
      in
      let cycle = Array.length edits in
      closed_loop acc ~seconds:args.seconds
        ~enough:(fun n -> n > rotate_every + 1)
        (fun n ->
            let traced = args.trace && n / cycle mod 2 = 1 in
            let op =
              if (n + 1) mod (rotate_every + 1) = 0 then begin
                incr rotations;
                Rotate !rotations
              end
              else begin
                let e = !edits_done mod cycle in
                incr edits_done;
                state := (if e mod 2 = 0 then (e / 2) + 1 else 0);
                Edit e
              end
            in
            update ~traced op;
            read acc ~traced);
      let payload_last = String.length (Publisher.payload publisher) in
      Wire.Mirror.close mirror;
      merge_warm ~into:acc warm;
      {
        setups;
        accs = [ acc ];
        kinds;
        updates = List.rev !updates;
        payload_first;
        payload_last;
      })

(* Reporting ---------------------------------------------------------------- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let args = parse_args () in
  let r =
    match args.workload with
    | "view-local" -> view_local args
    | "fleet-remote" -> fleet_remote args
    | _ -> publish_sync args
  in
  let accs = r.accs in
  let sum_int f = List.fold_left (fun a acc -> a + f acc) 0 accs in
  let samples f = List.concat_map f accs in
  let attempted = sum_int (fun a -> a.attempted) in
  let failed = sum_int (fun a -> a.failed) in
  let negative = sum_int (fun a -> a.negative_residuals) in
  let untraced = samples (fun a -> a.untraced) in
  let traced = samples (fun a -> a.traced) in
  let upd_untraced = samples (fun a -> a.upd_untraced) in
  let upd_traced = samples (fun a -> a.upd_traced) in
  let n_traced = List.length traced and n_upd_traced = List.length upd_traced in
  let ms = List.map snd in
  (* closed-loop throughput: each client's sessions over its busy time *)
  let sessions_per_s =
    List.fold_left
      (fun total acc ->
        let sessions = List.length acc.untraced + List.length acc.traced in
        if acc.busy_ns = 0 then total
        else total +. (float_of_int sessions /. s_of_ns acc.busy_ns))
      0. accs
  in
  let counts = kind_counts r.kinds in
  let n_kinds = max 1 (List.length counts) in
  let mean_count f = float_of_int (List.fold_left (fun a c -> a + f c) 0 counts) /. float_of_int n_kinds in
  let sum_count f = List.fold_left (fun a c -> a + f c) 0 counts in
  let mean_model f = List.fold_left (fun a c -> a +. f c.model) 0. counts /. float_of_int n_kinds in
  let modeled_session_s = mean_model (fun b -> b.Cost_model.total_s) in
  let layer_ns layer = sum_int (fun a -> a.layer_ns.(layer)) in
  let layer_words layer = List.fold_left (fun t a -> t +. a.layer_words.(layer)) 0. accs in
  let per_session_ms layer = if n_traced = 0 then 0. else ms_of_ns (layer_ns layer) /. float_of_int n_traced in
  let per_update_ms layer =
    if n_upd_traced = 0 then 0. else ms_of_ns (layer_ns layer) /. float_of_int n_upd_traced
  in
  let per_session_kwords layer =
    if n_traced = 0 then 0. else layer_words layer /. 1000. /. float_of_int n_traced
  in
  let session_unattributed_ms =
    if n_traced = 0 then 0.
    else ms_of_ns (sum_int (fun a -> a.session_unattributed_ns)) /. float_of_int n_traced
  in
  let update_unattributed_ms =
    if n_upd_traced = 0 then 0.
    else ms_of_ns (sum_int (fun a -> a.update_unattributed_ns)) /. float_of_int n_upd_traced
  in
  let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  let n_updates = max 1 (List.length r.updates) in
  let delta_kb =
    float_of_int (List.fold_left (fun a (b, _) -> a + b) 0 r.updates) /. 1024. /. float_of_int n_updates
  in
  let chunks_rewritten =
    float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 r.updates) /. float_of_int n_updates
  in
  let setup_med f = median (List.map f r.setups) in
  let p50 = median (ms untraced) in
  let trace_overhead =
    if traced = [] || p50 = 0. then 0. else (median (ms traced) /. p50) -. 1.
  in
  let kb n = float_of_int n /. 1024. in
  let deterministic =
    [
      ("channel.kb_to_soe", mean_count (fun c -> c.bytes_to_soe) /. 1024.);
      ("core.transitions", mean_count (fun c -> c.transitions));
      ("skip_index.events_decoded", mean_count (fun c -> c.events_decoded));
      ("dissem.delta_kb", delta_kb);
      ("modeled_session_s", modeled_session_s);
    ]
  in
  let end_to_end =
    [
      ("setup_s", setup_med (fun s -> s.total), "s");
      ("session_p50_ms", p50, "ms");
      ("session_p90_ms", kind_quantile untraced 0.9, "ms");
      ("sessions_per_s", sessions_per_s, "1/s");
      ("modeled_session_s", modeled_session_s, "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let per_layer =
    [
      ("terminal.fetch_ms", per_session_ms Ledger.terminal, "ms");
      ("terminal.round_trips", mean_count (fun c -> c.round_trips), "count");
      ("terminal.batched_share", ratio (sum_count (fun c -> c.batched)) (sum_count (fun c -> c.round_trips)), "ratio");
      ("wire.connect_ms", per_session_ms Ledger.wire_connect, "ms");
      ("channel.self_ms", per_session_ms Ledger.channel, "ms");
      ("channel.kb_decrypted", mean_count (fun c -> c.bytes_decrypted) /. 1024., "KiB");
      ("channel.kb_hashed", mean_count (fun c -> c.bytes_hashed) /. 1024., "KiB");
      ("channel.cache_hit_ratio", ratio (sum_count (fun c -> c.cache_hits)) (sum_count (fun c -> c.cache_lookups)), "ratio");
      ("channel.minor_kwords", per_session_kwords Ledger.channel, "kwords");
      ("channel.kb_to_soe", mean_count (fun c -> c.bytes_to_soe) /. 1024., "KiB");
      ("skip_index.decode_self_ms", per_session_ms Ledger.skip_index, "ms");
      ("skip_index.events_decoded", mean_count (fun c -> c.events_decoded), "count");
      ("skip_index.minor_kwords", per_session_kwords Ledger.skip_index, "kwords");
      ("skip_index.skip_ratio", ratio (sum_count (fun c -> c.bytes_skipped)) (sum_count (fun c -> c.encoded_bytes)), "ratio");
      ("core.eval_self_ms", per_session_ms Ledger.core, "ms");
      ("core.transitions", mean_count (fun c -> c.transitions), "count");
      ("core.events_in", mean_count (fun c -> c.events_in), "count");
      ("core.ara_memo_hit_ratio", ratio (sum_count (fun c -> c.memo_hits)) (sum_count (fun c -> c.memo_lookups)), "ratio");
      ("core.minor_kwords", per_session_kwords Ledger.core, "kwords");
      ("xml.serialize_ms", per_session_ms Ledger.serialize, "ms");
      ("session.unattributed_ms", session_unattributed_ms, "ms");
      ("session.traced_ms", mean (ms traced), "ms");
      ("skip_index.update_ms", per_update_ms Ledger.update_encode, "ms");
      ("dissem.update_ms", per_update_ms Ledger.publisher_update, "ms");
      ("dissem.delta_kb", delta_kb, "KiB");
      ("dissem.chunks_rewritten", chunks_rewritten, "count");
      ("wire.apply_delta_ms", per_update_ms Ledger.apply_delta, "ms");
      ("wire.sync_ms", per_update_ms Ledger.mirror_sync, "ms");
      ("update.unattributed_ms", update_unattributed_ms, "ms");
      ("update.traced_ms", mean (ms upd_traced), "ms");
      ("xml.parse_s", setup_med (fun s -> s.parse), "s");
      ("skip_index.encode_s", setup_med (fun s -> s.encode), "s");
      ("crypto.encrypt_s", setup_med (fun s -> s.encrypt), "s");
      ("trace_overhead", trace_overhead, "ratio");
      ("session_p99_ms", kind_quantile untraced 0.99, "ms");
      ("update_p50_ms", median (ms upd_untraced), "ms");
      ("update_p90_ms", quantile (ms upd_untraced) 0.9, "ms");
      ("dissem.payload_first_kb", kb r.payload_first, "KiB");
      ("dissem.payload_last_kb", kb r.payload_last, "KiB");
    ]
  in
  (* human-readable report *)
  Printf.printf "soebench %s seed %d seconds %d trace %d\n" args.workload args.seed
    args.seconds (if args.trace then 1 else 0);
  Printf.printf "setup: median %.4f s of %d (parse %.4f, encode %.4f, encrypt %.4f)\n"
    (setup_med (fun s -> s.total)) (List.length r.setups) (setup_med (fun s -> s.parse))
    (setup_med (fun s -> s.encode)) (setup_med (fun s -> s.encrypt));
  Printf.printf
    "sessions: %d untraced (p50 %.3f ms, p90 %.3f and p99 %.3f by kind), %d traced (p50 \
     %.3f ms), %.2f/s\n"
    (List.length untraced) p50 (kind_quantile untraced 0.9) (kind_quantile untraced 0.99)
    n_traced (median (ms traced)) sessions_per_s;
  if r.updates <> [] then
    Printf.printf
      "updates: %d untraced (p50 %.3f ms, p90 %.3f), %d traced; payload %d -> %d bytes\n"
      (List.length upd_untraced) (median (ms upd_untraced)) (quantile (ms upd_untraced) 0.9)
      n_upd_traced
      r.payload_first r.payload_last;
  Printf.printf "error_rate %g (%d failed of %d attempted)\n" (ratio failed attempted) failed
    attempted;
  List.iter (fun acc -> List.iter (Printf.printf "  failure: %s\n") (List.rev acc.failures)) accs;
  let share x total = if total = 0. then 0. else 100. *. x /. total in
  let m_total = modeled_session_s in
  Printf.printf "modeled split per session (Table 1 hardware context, %d kinds):\n" n_kinds;
  List.iter
    (fun (name, f) ->
      let v = mean_model f in
      Printf.printf "  %-16s %9.4f s %5.1f%%\n" name v (share v m_total))
    [
      ("communication", fun b -> b.Cost_model.communication_s);
      ("decryption", fun b -> b.Cost_model.decryption_s);
      ("integrity", fun b -> b.Cost_model.integrity_s);
      ("access control", fun b -> b.Cost_model.access_control_s);
    ];
  if n_traced > 0 then begin
    let wall = mean (ms traced) in
    Printf.printf "measured split per traced session (%d sessions, %.3f ms):\n" n_traced wall;
    List.iter
      (fun (name, v) -> Printf.printf "  %-16s %9.4f ms %5.1f%%\n" name v (share v wall))
      [
        ("wire.connect", per_session_ms Ledger.wire_connect);
        ("terminal", per_session_ms Ledger.terminal);
        ("channel", per_session_ms Ledger.channel);
        ("skip_index", per_session_ms Ledger.skip_index);
        ("core", per_session_ms Ledger.core);
        ("xml.serialize", per_session_ms Ledger.serialize);
        ("unattributed", session_unattributed_ms);
      ]
  end;
  if n_upd_traced > 0 then begin
    let wall = mean (ms upd_traced) in
    Printf.printf "measured split per traced update (%d updates, %.3f ms):\n" n_upd_traced wall;
    List.iter
      (fun (name, v) -> Printf.printf "  %-16s %9.4f ms %5.1f%%\n" name v (share v wall))
      [
        ("skip_index.update", per_update_ms Ledger.update_encode);
        ("dissem.update", per_update_ms Ledger.publisher_update);
        ("wire.apply_delta", per_update_ms Ledger.apply_delta);
        ("wire.sync", per_update_ms Ledger.mirror_sync);
        ("unattributed", update_unattributed_ms);
      ]
  end;
  Printf.printf "counters {%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number v)) deterministic));
  if negative > 0 then
    Printf.printf "error: %d traced operations have a negative unattributed residual\n" negative;
  let correct = failed = 0 && negative = 0 && attempted > 0 in
  let metrics = if args.trace then per_layer else end_to_end in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics));
  exit (if correct then 0 else 1)
