let header_bytes = 4
let max_payload_default = 1 lsl 20
let max_request_payload = 4096

let encode payload =
  let n = String.length payload in
  if n = 0 then invalid_arg "Frame.encode: empty payload";
  if n > 0xFFFFFFFF then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

let read_exactly t buf len ~what =
  let got = ref 0 in
  while !got < len do
    let n = Transport.read t buf !got (len - !got) in
    if n <= 0 then
      Error.framef "%s: connection closed mid-frame (%d/%d bytes of %s)"
        (Transport.peer t) !got len what;
    got := !got + n
  done

let read ?(max_payload = max_payload_default) t =
  let header = Bytes.create header_bytes in
  (* End-of-stream on the first header byte is a clean close (transport
     level); anywhere later the frame itself is truncated. *)
  let first = Transport.read t header 0 header_bytes in
  if first <= 0 then
    Error.transportf "%s: connection closed" (Transport.peer t);
  let got = ref first in
  while !got < header_bytes do
    let n = Transport.read t header !got (header_bytes - !got) in
    if n <= 0 then
      Error.framef "%s: connection closed mid-frame (%d/%d bytes of header)"
        (Transport.peer t) !got header_bytes;
    got := !got + n
  done;
  let len = Int32.to_int (Bytes.get_int32_be header 0) land 0xFFFFFFFF in
  if len = 0 then Error.framef "%s: empty frame" (Transport.peer t);
  if len > max_payload then
    Error.framef "%s: frame of %d bytes exceeds limit %d" (Transport.peer t)
      len max_payload;
  let payload = Bytes.create len in
  read_exactly t payload len ~what:"payload";
  Bytes.unsafe_to_string payload

let write t payload = Transport.write t (encode payload)

(* {2 Multiplexed framing (XWTP v1.2)}

   After a hello exchange grants mux, both sides switch to frames whose
   payload is prefixed with a big-endian u32 session id:
   [u32 (4 + |payload|)][u32 sid][payload]. When the connection's probe
   hello also negotiated trace propagation, a big-endian u64 span id
   follows the session id: [u32 len][u32 sid][u64 span][payload], span 0
   meaning "no span". The traced shape is a property of the whole
   connection — both sides agreed to it at the probe hello — so there is
   no per-frame flag to parse from hostile input. A mux frame is an
   ordinary frame to the length-prefix layer, so the same
   truncation/oversize defenses apply. *)

let mux_overhead = 4
let span_overhead = 8

let encode_mux ~sid ?span payload =
  let n = String.length payload in
  if n = 0 then invalid_arg "Frame.encode_mux: empty payload";
  if sid < 0 || sid > 0xFFFFFFFF then
    invalid_arg "Frame.encode_mux: session id out of range";
  if n > 0xFFFFFFFF - mux_overhead - span_overhead then
    invalid_arg "Frame.encode_mux: payload too large";
  match span with
  | None ->
      let b = Bytes.create (header_bytes + mux_overhead + n) in
      Bytes.set_int32_be b 0 (Int32.of_int (mux_overhead + n));
      Bytes.set_int32_be b header_bytes (Int32.of_int sid);
      Bytes.blit_string payload 0 b (header_bytes + mux_overhead) n;
      Bytes.unsafe_to_string b
  | Some span ->
      if span < 0 then invalid_arg "Frame.encode_mux: span id out of range";
      let b = Bytes.create (header_bytes + mux_overhead + span_overhead + n) in
      Bytes.set_int32_be b 0
        (Int32.of_int (mux_overhead + span_overhead + n));
      Bytes.set_int32_be b header_bytes (Int32.of_int sid);
      Bytes.set_int64_be b (header_bytes + mux_overhead) (Int64.of_int span);
      Bytes.blit_string payload 0 b
        (header_bytes + mux_overhead + span_overhead)
        n;
      Bytes.unsafe_to_string b

let demux ?(traced = false) ~peer raw =
  let prefix = if traced then mux_overhead + span_overhead else mux_overhead in
  if String.length raw <= prefix then
    Error.framef "%s: mux frame of %d bytes lacks a session id and payload"
      peer (String.length raw);
  let sid = Int32.to_int (String.get_int32_be raw 0) land 0xFFFFFFFF in
  let span =
    if not traced then 0
    else
      let v = String.get_int64_be raw mux_overhead in
      if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
      then Error.framef "%s: mux span id out of range" peer;
      Int64.to_int v
  in
  (sid, span, String.sub raw prefix (String.length raw - prefix))

let read_mux ?(max_payload = max_payload_default) ?(traced = false) t =
  let prefix = if traced then mux_overhead + span_overhead else mux_overhead in
  let raw = read ~max_payload:(max_payload + prefix) t in
  demux ~traced ~peer:(Transport.peer t) raw

let split ?(max_payload = max_payload_default) buf ~off =
  let avail = String.length buf - off in
  if avail < header_bytes then
    Error.framef "loopback: truncated frame header (%d bytes)" avail;
  let len =
    Int32.to_int (String.get_int32_be buf off) land 0xFFFFFFFF
  in
  if len = 0 then Error.framef "loopback: empty frame";
  if len > max_payload then
    Error.framef "loopback: frame of %d bytes exceeds limit %d" len max_payload;
  if avail - header_bytes < len then
    Error.framef "loopback: truncated frame body (%d/%d bytes)"
      (avail - header_bytes) len;
  (String.sub buf (off + header_bytes) len, off + header_bytes + len)
