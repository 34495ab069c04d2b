(* Bitsliced 3DES: 63 blocks per pass over 63-bit native-int lanes (the
   widest unboxed integer OCaml has), with the round function run as
   machine-generated straight-line boolean circuits (Des_circuits.apply,
   one op per gate, all 63 blocks at once).

   Layout: lane j holds bit j+1 (FIPS MSB-first numbering) of every block
   in the pass — blocks 0..31 at int bits 31..0 and blocks 32..62 at int
   bits 62..32, so a pass is four 32x32 word transposes plus one OR per
   lane. IP and FP cost nothing: they are relabelings of whole lanes. The
   three DES passes of EDE chain directly — FP of one pass and IP of the
   next cancel, leaving a single L/R swap.

   The key schedule is precomputed per session: 48 rounds x 48 lane masks
   (0 or -1). Nothing in a pass depends on the direction: the schedule's
   subkey order alone makes it EDE decryption (k3 reversed, k2 forward, k1
   reversed) or EDE encryption (k1 forward, k2 reversed, k3 forward). *)

let blocks_per_pass = 63

type schedule = int array (* 48 * 48 masks *)

let lane_masks dst ~off subkeys ~reverse =
  for rnd = 0 to 15 do
    let sk = subkeys.(if reverse then 15 - rnd else rnd) in
    let base = off + (rnd * 48) in
    for t = 0 to 47 do
      dst.(base + t) <- (if (sk lsr (47 - t)) land 1 = 1 then -1 else 0)
    done
  done

let schedule (first, rev1) (second, rev2) (third, rev3) =
  let s = Array.make (48 * 48) 0 in
  lane_masks s ~off:0 (Des.subkeys first) ~reverse:rev1;
  lane_masks s ~off:(16 * 48) (Des.subkeys second) ~reverse:rev2;
  lane_masks s ~off:(32 * 48) (Des.subkeys third) ~reverse:rev3;
  s

let decrypt_schedule key =
  let k1, k2, k3 = Des.Triple.components key in
  schedule (k3, true) (k2, false) (k1, true)

let encrypt_schedule key =
  let k1, k2, k3 = Des.Triple.components key in
  schedule (k1, false) (k2, true) (k3, false)

(* 0-based lane relabelings *)
let ip = Array.map (fun b -> b - 1) Des.Internal.initial_permutation
let fp = Array.map (fun b -> b - 1) Des.Internal.final_permutation

(* Hacker's Delight 32x32 bit-matrix transpose (an involution). Row r's
   bit (31-c) is column c, matching a big-endian word load where block b
   lands at int bit 31-b after transposition. *)
let transpose32 (a : int array) =
  let j = ref 16 and m = ref 0xFFFF in
  while !j <> 0 do
    let k = ref 0 in
    while !k < 32 do
      let i = !k and j' = !j in
      let t =
        (Array.unsafe_get a i lxor (Array.unsafe_get a (i + j') lsr j'))
        land !m
      in
      Array.unsafe_set a i (Array.unsafe_get a i lxor t);
      Array.unsafe_set a (i + j') (Array.unsafe_get a (i + j') lxor (t lsl j'));
      k := (!k + j' + 1) land lnot j'
    done;
    j := !j lsr 1;
    m := !m lxor (!m lsl !j)
  done

type scratch = {
  ta_hi : int array; (* blocks 0..31, bits 1..32 *)
  ta_lo : int array; (* blocks 0..31, bits 33..64 *)
  tb_hi : int array; (* blocks 32..62 (row 31 zero-padded) *)
  tb_lo : int array;
  l : int array;
  r : int array;
}

let make_scratch () =
  {
    ta_hi = Array.make 32 0;
    ta_lo = Array.make 32 0;
    tb_hi = Array.make 32 0;
    tb_lo = Array.make 32 0;
    l = Array.make 32 0;
    r = Array.make 32 0;
  }

let word32 src pos =
  (Char.code (Bytes.unsafe_get src pos) lsl 24)
  lor (Char.code (Bytes.unsafe_get src (pos + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get src (pos + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get src (pos + 3))

let store32 dst pos v =
  Bytes.unsafe_set dst pos (Char.unsafe_chr ((v lsr 24) land 0xFF));
  Bytes.unsafe_set dst (pos + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set dst (pos + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set dst (pos + 3) (Char.unsafe_chr (v land 0xFF))

(* one pass: run [n] blocks (1 <= n <= 63) at [src_pos] into [dst_pos].
   Every input word is loaded before any output is stored, so [src] and
   [dst] may be the same buffer at the same position. *)
let pass sched sc src src_pos dst dst_pos n =
  let { ta_hi; ta_lo; tb_hi; tb_lo; l; r } = sc in
  for b = 0 to 31 do
    if b < n then begin
      let p = src_pos + (8 * b) in
      Array.unsafe_set ta_hi b (word32 src p);
      Array.unsafe_set ta_lo b (word32 src (p + 4))
    end
    else begin
      Array.unsafe_set ta_hi b 0;
      Array.unsafe_set ta_lo b 0
    end;
    let b' = b + 32 in
    if b' < n then begin
      let p = src_pos + (8 * b') in
      Array.unsafe_set tb_hi b (word32 src p);
      Array.unsafe_set tb_lo b (word32 src (p + 4))
    end
    else begin
      Array.unsafe_set tb_hi b 0;
      Array.unsafe_set tb_lo b 0
    end
  done;
  transpose32 ta_hi;
  transpose32 ta_lo;
  transpose32 tb_hi;
  transpose32 tb_lo;
  (* merge the two 32-block groups and relabel through IP in one go:
     lane j = bit j+1 of every block; l/r hold the IP-selected lanes *)
  let lane j =
    if j < 32 then
      Array.unsafe_get ta_hi j lor (Array.unsafe_get tb_hi j lsl 31)
    else
      Array.unsafe_get ta_lo (j - 32)
      lor (Array.unsafe_get tb_lo (j - 32) lsl 31)
  in
  for j = 0 to 31 do
    Array.unsafe_set l j (lane (Array.unsafe_get ip j));
    Array.unsafe_set r j (lane (Array.unsafe_get ip (j + 32)))
  done;
  let l = ref l and r = ref r in
  for pass = 0 to 2 do
    for rnd = 0 to 15 do
      Des_circuits.apply !l !r sched (((pass * 16) + rnd) * 48);
      let t = !l in
      l := !r;
      r := t
    done;
    (* preoutput is R16 ‖ L16 — one more swap un-swaps round 16; FP of
       this pass and IP of the next cancel, so nothing else moves *)
    let t = !l in
    l := !r;
    r := t
  done;
  (* FP relabel out of (pre = R16 ‖ L16) = (!l, !r) *)
  let l = !l and r = !r in
  let pre j = if j < 32 then Array.unsafe_get l j else Array.unsafe_get r (j - 32) in
  for j = 0 to 31 do
    let v = pre (Array.unsafe_get fp j) in
    Array.unsafe_set ta_hi j (v land 0xFFFFFFFF);
    Array.unsafe_set tb_hi j ((v lsr 31) land 0xFFFFFFFF);
    let v = pre (Array.unsafe_get fp (j + 32)) in
    Array.unsafe_set ta_lo j (v land 0xFFFFFFFF);
    Array.unsafe_set tb_lo j ((v lsr 31) land 0xFFFFFFFF)
  done;
  transpose32 ta_hi;
  transpose32 ta_lo;
  transpose32 tb_hi;
  transpose32 tb_lo;
  for b = 0 to n - 1 do
    let p = dst_pos + (8 * b) in
    if b < 32 then begin
      store32 dst p (Array.unsafe_get ta_hi b);
      store32 dst (p + 4) (Array.unsafe_get ta_lo b)
    end
    else begin
      store32 dst p (Array.unsafe_get tb_hi (b - 32));
      store32 dst (p + 4) (Array.unsafe_get tb_lo (b - 32))
    end
  done

let run sched ~src ~src_pos ~dst ~dst_pos ~nblocks =
  if Array.length sched <> 48 * 48 then
    invalid_arg "Bitslice_des.crypt_blocks: bad schedule";
  if
    src_pos < 0 || nblocks < 0
    || src_pos + (8 * nblocks) > Bytes.length src
    || dst_pos < 0
    || dst_pos + (8 * nblocks) > Bytes.length dst
  then invalid_arg "Bitslice_des.crypt_blocks: range out of bounds";
  if nblocks > 0 then begin
    let sc = make_scratch () in
    let remaining = ref nblocks and off = ref 0 in
    while !remaining > 0 do
      let n = min blocks_per_pass !remaining in
      pass sched sc src (src_pos + (8 * !off)) dst (dst_pos + (8 * !off)) n;
      off := !off + n;
      remaining := !remaining - n
    done
  end

(* the kernel only reads [src]: viewing the string as bytes is safe *)
let crypt_blocks sched ~src ~src_pos ~dst ~dst_pos ~nblocks =
  run sched ~src:(Bytes.unsafe_of_string src) ~src_pos ~dst ~dst_pos ~nblocks

let crypt_blocks_in_place sched buf ~pos ~nblocks =
  run sched ~src:buf ~src_pos:pos ~dst:buf ~dst_pos:pos ~nblocks
