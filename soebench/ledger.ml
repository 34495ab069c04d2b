(* Per-thread layer ledger for one traced operation (an SOE session or a
   publisher update).

   The ledger keeps a stack of the layers currently executing. Every time a
   wrapped call enters or leaves a layer, the monotonic clock and the
   domain's minor-heap word counter are read, and the interval since the
   previous reading is charged to the layer on top of the stack. Self times
   therefore partition the operation's wall time exactly: a layer's self
   time excludes every nested call into another layer, and whatever runs
   outside all wrapped calls lands in [base], the unattributed residual.

   The wrappers below interpose on the records the layers exchange
   (Channel.terminal, Decoder.source, Input.t) without touching the
   libraries. On the per-event and per-read paths they allocate nothing,
   so the word counts they report are the layers' own. *)

module Channel = Xmlac_soe.Channel
module Decoder = Xmlac_skip_index.Decoder
module Input = Xmlac_core.Input

type layer = int

let base = 0
let terminal = 1
let wire_connect = 2
let channel = 3
let skip_index = 4
let core = 5
let serialize = 6
let update_encode = 7
let publisher_update = 8
let apply_delta = 9
let mirror_sync = 10
let count = 11

type t = {
  self_ns : int array;
  words : float array;
      (* minor words per layer; slot [count] holds the last reading *)
  stack : layer array;
  mutable depth : int;
  mutable mark_ns : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create () =
  {
    self_ns = Array.make count 0;
    words = Array.make (count + 1) 0.;
    stack = Array.make 64 base;
    depth = 0;
    mark_ns = 0;
  }

let charge t =
  let now = now_ns () in
  let w = Gc.minor_words () in
  let top = t.stack.(t.depth) in
  t.self_ns.(top) <- t.self_ns.(top) + (now - t.mark_ns);
  t.words.(top) <- t.words.(top) +. (w -. t.words.(count));
  t.mark_ns <- now;
  t.words.(count) <- w

let enter t layer =
  charge t;
  t.depth <- t.depth + 1;
  t.stack.(t.depth) <- layer

let leave t =
  charge t;
  t.depth <- t.depth - 1

(* Zero the ledger and open the base layer. *)
let start t =
  Array.fill t.self_ns 0 count 0;
  Array.fill t.words 0 count 0.;
  t.depth <- 0;
  t.stack.(0) <- base;
  t.words.(count) <- Gc.minor_words ();
  t.mark_ns <- now_ns ()

(* Close the operation: charge the last interval to whatever is open. *)
let stop t = charge t

let self_ns t layer = t.self_ns.(layer)
let words t layer = t.words.(layer)

(* [f x], charged to [layer] *)
let call t layer f x =
  enter t layer;
  match f x with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let within ledger layer f =
  match ledger with None -> f () | Some t -> call t layer f ()

let terminal_of t (term : Channel.terminal) : Channel.terminal =
  let fetch_chunk chunk = term.Channel.fetch_chunk ~chunk in
  let fetch_digest chunk = term.Channel.fetch_digest ~chunk in
  {
    term with
    Channel.fetch_fragment =
      (fun ~chunk ~fragment ~lo ~hi ->
        call t terminal
          (fun () -> term.Channel.fetch_fragment ~chunk ~fragment ~lo ~hi)
          ());
    fetch_chunk = (fun ~chunk -> call t terminal fetch_chunk chunk);
    fetch_digest = (fun ~chunk -> call t terminal fetch_digest chunk);
    fetch_hash_state =
      (fun ~chunk ~fragment ~upto ->
        call t terminal
          (fun () -> term.Channel.fetch_hash_state ~chunk ~fragment ~upto)
          ());
    fetch_siblings =
      (fun ~chunk ~fragment ->
        call t terminal (fun () -> term.Channel.fetch_siblings ~chunk ~fragment) ());
    fetch_many =
      Option.map (fun many reqs -> call t terminal many reqs) term.Channel.fetch_many;
  }

(* The decoder reads a few bytes at a time, so this wrapper is written out
   to avoid a closure per read. *)
let source_of t (src : Decoder.source) : Decoder.source =
  let read ~pos ~len =
    enter t channel;
    match src.Decoder.read ~pos ~len with
    | v ->
        leave t;
        v
    | exception e ->
        leave t;
        raise e
  in
  { src with Decoder.read }

(* The read-back thunks handed out by [skip]/[skip_rest] run later, inside
   the evaluator; they decode, so they are charged to the Skip index and
   their channel reads nest under it. *)
let input_of t (input : Input.t) : Input.t =
  let skip_with f () =
    match call t skip_index f () with
    | None -> None
    | Some (thunk, n) -> Some ((fun () -> call t skip_index thunk ()), n)
  in
  {
    input with
    Input.next = (fun () -> call t skip_index input.Input.next ());
    desc_tags = (fun () -> call t skip_index input.Input.desc_tags ());
    skip = skip_with input.Input.skip;
    skip_rest = skip_with input.Input.skip_rest;
  }
