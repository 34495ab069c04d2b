type kind = Truncate | Corrupt | Stale | Stall | Duplicate

let all_kinds = [ Truncate; Corrupt; Stale; Stall; Duplicate ]

type plan = { probability : float; kinds : kind list }

let default_plan = { probability = 0.3; kinds = all_kinds }

(* The wrapper intercepts whole reply frames on the read side (requests pass
   through untouched: the adversary is the terminal, not the SOE). Each
   frame read from the inner transport is delivered intact or sabotaged
   according to [plan], using the caller's deterministic [rng n] (uniform in
   [0, n)) so every harness failure replays. *)
let wrap ~rng ?(plan = default_plan) inner =
  let injected = ref 0 in
  let pending = ref "" in
  let pos = ref 0 in
  let closed = ref false in
  let last_frame = ref None in
  let push s =
    pending := String.sub !pending !pos (String.length !pending - !pos) ^ s;
    pos := 0
  in
  let decide () =
    if plan.kinds <> [] && rng 1000 < int_of_float (plan.probability *. 1000.)
    then Some (List.nth plan.kinds (rng (List.length plan.kinds)))
    else None
  in
  let refill () =
    let payload = Frame.read inner in
    let frame = Frame.encode payload in
    match decide () with
    | None ->
        push frame;
        last_frame := Some frame
    | Some fault -> (
        incr injected;
        match fault with
        | Truncate ->
            (* deliver a proper prefix, then act as a dead connection *)
            push (String.sub frame 0 (1 + rng (String.length frame - 1)));
            closed := true
        | Corrupt ->
            (* flip one payload byte; the length header is left alone so the
               damage lands in the message, not in the framing arithmetic *)
            let b = Bytes.of_string frame in
            let i =
              Frame.header_bytes
              + rng (Bytes.length b - Frame.header_bytes)
            in
            Bytes.set b i
              (Char.chr (Char.code (Bytes.get b i) lxor (1 + rng 255)));
            push (Bytes.unsafe_to_string b)
        | Stale -> (
            (* replay an earlier reply instead of the fresh one *)
            match !last_frame with
            | Some old ->
                push old;
                last_frame := Some frame
            | None ->
                push frame;
                last_frame := Some frame)
        | Stall ->
            (* the reply never arrives; surface what a receive timeout
               would *)
            Error.transportf "%s: injected stall" (Transport.peer inner)
        | Duplicate ->
            push (frame ^ frame);
            last_frame := Some frame)
  in
  let read buf off len =
    if !closed && !pos >= String.length !pending then 0
    else begin
      if !pos >= String.length !pending then refill ();
      let avail = String.length !pending - !pos in
      let n = min len avail in
      Bytes.blit_string !pending !pos buf off n;
      pos := !pos + n;
      n
    end
  in
  let t =
    Transport.make ~local:(Transport.local inner) ~read
      ~write:(fun s -> if not !closed then Transport.write inner s)
      ~close:(fun () -> Transport.close inner)
      ~peer:(Transport.peer inner ^ "+faults")
      ()
  in
  (t, fun () -> !injected)
