(* Client side of session multiplexing.

   One probe hello (plain-framed) asks the terminal to switch the
   connection to mux framing. Once granted, each SOE session gets a
   virtual transport: its writes re-frame the session's ordinary plain
   frames as mux frames tagged with the session id, its reads reassemble
   plain frames from demultiplexed replies. The per-session {!Client}
   stack is reused unchanged on top — each session still performs its own
   hello (naming its container) inside the mux stream.

   Demultiplexing is leader/follower: whichever session thread needs bytes
   first becomes the leader, drops the lock, blocks in [read_mux], routes
   the frame to its session's inbox, and broadcasts; followers wait on the
   condition variable. No dedicated reader thread, no reply buffering
   beyond what sessions actually await.

   A probe that is refused, or answered without the mux grant (the
   in-process loopback never grants it), fails the connect with a
   [Handshake] error. *)

type inbox = {
  q : string Queue.t;
  mutable cur : string;
  mutable cpos : int;
  mutable bye_answered : bool;
      (* the terminal answered a Bye of this session: its binding is
         retired, so closing the transport needs no Bye of its own *)
}

let inbox_make () =
  { q = Queue.create (); cur = ""; cpos = 0; bye_answered = false }

let inbox_add ib s = Queue.push s ib.q
let bye_ok = Protocol.encode_response Protocol.Bye_ok

let inbox_take ib buf off len =
  if ib.cpos >= String.length ib.cur then (
    match Queue.take_opt ib.q with
    | Some s ->
        ib.cur <- s;
        ib.cpos <- 0
    | None -> ());
  let avail = String.length ib.cur - ib.cpos in
  if avail <= 0 then 0
  else begin
    let n = min len avail in
    Bytes.blit_string ib.cur ib.cpos buf off n;
    ib.cpos <- ib.cpos + n;
    n
  end

type conn = {
  tr : Transport.t;
  m : Mutex.t;  (* guards inboxes, leader, dead, next_sid *)
  resume : Condition.t;
  wm : Mutex.t;  (* serializes writes so mux frames never interleave *)
  inboxes : (int, inbox) Hashtbl.t;
  mutable next_sid : int;
  mutable leader : bool;
  mutable dead : string option;
  max_payload : int;
  traced : bool;
      (* probe hello negotiated trace propagation: every frame on this
         connection carries a u64 span id after the session id *)
}

type t = {
  connector : unit -> Transport.t;
  max_payload : int;
  trace : string;  (* trace id offered by the endpoint's probe hello *)
  m : Mutex.t;
  mutable conn : conn option;  (* [None] once the endpoint is closed *)
}

let conn_make tr max_payload traced =
  {
    tr;
    m = Mutex.create ();
    resume = Condition.create ();
    wm = Mutex.create ();
    inboxes = Hashtbl.create 16;
    next_sid = 1;
    leader = false;
    dead = None;
    max_payload;
    traced;
  }

let mark_dead (conn : conn) msg =
  Mutex.lock conn.m;
  if conn.dead = None then conn.dead <- Some msg;
  Condition.broadcast conn.resume;
  Mutex.unlock conn.m

(* One leader/follower step for the session [sid] waiting on [ib]:
   returns bytes if any arrived for us, raises if the connection is dead,
   loops otherwise. Called with [conn.m] held; returns with it held. *)
let rec await_bytes (conn : conn) sid ib buf off len =
  let n = inbox_take ib buf off len in
  if n > 0 then n
  else
    match conn.dead with
    | Some msg ->
        Mutex.unlock conn.m;
        Error.transportf "%s session %d: mux connection down: %s"
          (Transport.peer conn.tr) sid msg
    | None ->
        if conn.leader then begin
          Condition.wait conn.resume conn.m;
          await_bytes conn sid ib buf off len
        end
        else begin
          conn.leader <- true;
          Mutex.unlock conn.m;
          (match
             Frame.read_mux ~max_payload:conn.max_payload ~traced:conn.traced
               conn.tr
           with
          | sid', _span, payload -> (
              Mutex.lock conn.m;
              match Hashtbl.find_opt conn.inboxes sid' with
              | Some ib' ->
                  if String.equal payload bye_ok then ib'.bye_answered <- true;
                  (* re-frame for the session's ordinary Frame.read *)
                  inbox_add ib' (Frame.encode payload)
              | None -> () (* session retired locally: drop the reply *))
          | exception e ->
              Mutex.lock conn.m;
              if conn.dead = None then
                conn.dead <-
                  Some
                    (match e with
                    | Error.Wire we -> Error.to_string we
                    | e -> Printexc.to_string e));
          conn.leader <- false;
          Condition.broadcast conn.resume;
          await_bytes conn sid ib buf off len
        end

let session_transport (conn : conn) =
  Mutex.lock conn.m;
  let sid = conn.next_sid in
  conn.next_sid <- sid + 1;
  let ib = inbox_make () in
  Hashtbl.replace conn.inboxes sid ib;
  Mutex.unlock conn.m;
  let peer = Printf.sprintf "%s#%d" (Transport.peer conn.tr) sid in
  let read buf off len =
    Mutex.lock conn.m;
    if not (Hashtbl.mem conn.inboxes sid) then begin
      Mutex.unlock conn.m;
      0 (* locally closed: reads see end-of-stream *)
    end
    else begin
      let n = await_bytes conn sid ib buf off len in
      Mutex.unlock conn.m;
      n
    end
  in
  let write data =
    (* [data] is one or more complete plain frames from the session's
       client; re-frame each as a mux frame and send them in one write *)
    Mutex.lock conn.m;
    let dead = conn.dead in
    Mutex.unlock conn.m;
    (match dead with
    | Some msg -> Error.transportf "%s: mux connection down: %s" peer msg
    | None -> ());
    (* On a traced connection every frame carries the writing thread's
       innermost open span (the client's wire.request span) so the server
       can parent its own span under it; 0 when nothing is open. *)
    let span =
      if not conn.traced then None
      else
        Some
          (match Xmlac_obs.Context.current_span () with
          | Some s -> s
          | None -> 0)
    in
    let b = Buffer.create (String.length data + Frame.mux_overhead) in
    let off = ref 0 in
    while !off < String.length data do
      let payload, next =
        Frame.split ~max_payload:conn.max_payload data ~off:!off
      in
      Buffer.add_string b (Frame.encode_mux ~sid ?span payload);
      off := next
    done;
    Mutex.lock conn.wm;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.wm)
      (fun () -> Transport.write conn.tr (Buffer.contents b))
  in
  let close () =
    Mutex.lock conn.m;
    let live =
      Hashtbl.mem conn.inboxes sid && conn.dead = None && not ib.bye_answered
    in
    Hashtbl.remove conn.inboxes sid;
    Condition.broadcast conn.resume;
    Mutex.unlock conn.m;
    (* Best-effort Bye so the terminal retires this sid's per-connection
       binding: the client's retry path closes a session transport without
       a protocol Bye, and a terminal that only evicts on Bye would creep
       toward its per-connection session cap under churn. A session whose
       Bye was already answered ([Client.close]'s round trip) is retired
       and gets none. Our inbox is already gone, so the Bye_ok reply is
       dropped by the demultiplexer. *)
    if live then
      try
        let frame =
          Frame.encode_mux ~sid
            ?span:(if conn.traced then Some 0 else None)
            (Protocol.encode_request Protocol.Bye)
        in
        Mutex.lock conn.wm;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock conn.wm)
          (fun () -> Transport.write conn.tr frame)
      with _ -> ()
  in
  Transport.make
    ~local:(Transport.local conn.tr)
    ~read ~write ~close ~peer ()

let probe (t : t) =
  let tr = t.connector () in
  match
    Transport.write tr
      (Frame.encode
         (Protocol.encode_request
            (Protocol.Hello { container = ""; mux = true; trace = t.trace })));
    Protocol.decode_response (Frame.read ~max_payload:t.max_payload tr)
  with
  | Protocol.Hello_ok meta when meta.Protocol.mux ->
      conn_make tr t.max_payload meta.Protocol.trace
  | resp -> (
      Transport.close tr;
      let refuse fmt =
        Printf.ksprintf (fun m -> raise (Error.Wire (Error.Handshake m))) fmt
      in
      match resp with
      | Protocol.Err { code; message } when code = Protocol.err_busy ->
          raise (Error.Wire (Error.Busy message))
      | Protocol.Err { code; message } ->
          refuse "terminal refused the mux probe (%d): %s" code message
      | Protocol.Hello_ok _ ->
          refuse "terminal did not grant session multiplexing"
      | _ -> Error.protocolf "expected hello reply to mux probe")
  | exception e ->
      Transport.close tr;
      raise e

(* The live connection, re-probing one that died. *)
let ensure (t : t) =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      match t.conn with
      | None -> invalid_arg "Mux.session: endpoint closed"
      | Some conn when conn.dead = None -> conn
      | Some conn ->
          Transport.close conn.tr;
          let fresh = probe t in
          t.conn <- Some fresh;
          fresh)

let connect ?(max_payload = Frame.max_payload_default) ?(trace = "") connector
    =
  if String.length trace > Protocol.max_trace_id then
    invalid_arg "Mux.connect: trace id too long";
  let t = { connector; max_payload; trace; m = Mutex.create (); conn = None } in
  t.conn <- Some (probe t);
  t

(* The connector per-session clients plug into [Client.connect]: every
   call yields a fresh session on the shared mux connection. *)
let session t () = session_transport (ensure t)

let close (t : t) =
  Mutex.lock t.m;
  (match t.conn with
  | Some conn ->
      mark_dead conn "endpoint closed";
      Transport.close conn.tr
  | None -> ());
  t.conn <- None;
  Mutex.unlock t.m
