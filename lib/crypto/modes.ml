type cipher = {
  encrypt : int64 -> int64;
  decrypt : int64 -> int64;
  decrypt_blocks :
    (src:string ->
    src_pos:int ->
    dst:Bytes.t ->
    dst_pos:int ->
    nblocks:int ->
    unit)
    option;
      (* optional batched raw-ECB-direction kernel; mode XORs are applied
         on top as a second pass over [dst] *)
  encrypt_blocks : (Bytes.t -> pos:int -> nblocks:int -> unit) option;
      (* its in-place encrypting twin; mode XORs are applied first *)
}

let of_triple_des k =
  {
    encrypt = Des.Triple.encrypt_block k;
    decrypt = Des.Triple.decrypt_block k;
    decrypt_blocks = None;
    encrypt_blocks = None;
  }

let of_triple_des_fast k =
  let sched = Bitslice_des.decrypt_schedule k in
  {
    encrypt = Des.Triple.encrypt_block k;
    decrypt = Des.Triple.decrypt_block k;
    decrypt_blocks = Some (Bitslice_des.crypt_blocks sched);
    encrypt_blocks = None;
  }

let of_triple_des_fast_encrypt k =
  let sched = Bitslice_des.encrypt_schedule k in
  {
    encrypt = Des.Triple.encrypt_block k;
    decrypt = Des.Triple.decrypt_block k;
    decrypt_blocks = None;
    encrypt_blocks = Some (Bitslice_des.crypt_blocks_in_place sched);
  }

(* Below this many blocks the bitsliced kernel's fixed per-pass cost (the
   transposes run over all 63 lanes regardless) cancels its gain, so short
   runs stay on the scalar path. *)
let batch_threshold = 16

let check_aligned name s =
  if String.length s mod 8 <> 0 then
    invalid_arg (name ^ ": length must be a multiple of 8")

let map_blocks f s =
  let out = Bytes.create (String.length s) in
  let nblocks = String.length s / 8 in
  for i = 0 to nblocks - 1 do
    Des.block_to_bytes out ~pos:(8 * i) (f i (Des.block_of_bytes s ~pos:(8 * i)))
  done;
  Bytes.to_string out

let ecb_encrypt c s =
  check_aligned "Modes.ecb_encrypt" s;
  map_blocks (fun _ b -> c.encrypt b) s

let position_mask ~base i = Int64.of_int (base + (8 * i))

(* In-place variants: decrypt a slice of [src] straight into [dst] without
   materialising an intermediate string. When the cipher carries a batched
   kernel and the run is long enough, all blocks go through it in one call
   and the mode XOR is applied as a bytewise second pass over [dst] —
   native-int arithmetic only, no boxed Int64 per block. *)

let check_into name ~src ~src_pos ~dst ~dst_pos ~len =
  if len mod 8 <> 0 then invalid_arg (name ^ ": length must be a multiple of 8");
  if src_pos < 0 || len < 0 || src_pos + len > String.length src then
    invalid_arg (name ^ ": source range out of bounds");
  if dst_pos < 0 || dst_pos + len > Bytes.length dst then
    invalid_arg (name ^ ": destination range out of bounds");
  (* a Bytes.t smuggled in as the source would let raw and mode-XORed
     bytes interleave mid-pass; reject the only aliasing OCaml allows *)
  if Obj.repr src == Obj.repr dst then
    invalid_arg (name ^ ": src and dst must not alias")

(* XOR the 8 big-endian bytes of a native-int mask into dst at [pos]
   (the positional masks always fit: document offsets are well under
   2^62). *)
let xor_mask_bytes dst pos m =
  let k = ref 7 and m = ref m in
  while !m <> 0 do
    let byte = !m land 0xFF in
    if byte <> 0 then
      Bytes.unsafe_set dst (pos + !k)
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst (pos + !k)) lxor byte));
    m := !m lsr 8;
    decr k
  done

let xor_iv_bytes dst pos iv =
  for k = 0 to 7 do
    let byte =
      Int64.to_int (Int64.shift_right_logical iv (8 * (7 - k))) land 0xFF
    in
    if byte <> 0 then
      Bytes.unsafe_set dst (pos + k)
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst (pos + k)) lxor byte))
  done

(* Encryption: the mode XOR goes in before the block cipher, so the
   batched kernel runs in place over a buffer that already holds the
   masked plaintext. *)

let cbc_encrypt_into c ~iv ~src ~src_pos ~dst ~dst_pos ~len =
  check_into "Modes.cbc_encrypt_into" ~src ~src_pos ~dst ~dst_pos ~len;
  let prev = ref iv in
  for i = 0 to (len / 8) - 1 do
    let e =
      c.encrypt
        (Int64.logxor (Des.block_of_bytes src ~pos:(src_pos + (8 * i))) !prev)
    in
    Des.block_to_bytes dst ~pos:(dst_pos + (8 * i)) e;
    prev := e
  done

let cbc_encrypt c ~iv s =
  check_aligned "Modes.cbc_encrypt" s;
  let len = String.length s in
  let out = Bytes.create len in
  cbc_encrypt_into c ~iv ~src:s ~src_pos:0 ~dst:out ~dst_pos:0 ~len;
  Bytes.unsafe_to_string out

let positional_encrypt_in_place c ~base buf ~pos ~len =
  if len mod 8 <> 0 || len < 0 then
    invalid_arg
      "Modes.positional_encrypt_in_place: length must be a multiple of 8";
  if base mod 8 <> 0 then
    invalid_arg "Modes.positional_encrypt_in_place: unaligned base";
  if pos < 0 || pos + len > Bytes.length buf then
    invalid_arg "Modes.positional_encrypt_in_place: range out of bounds";
  let nblocks = len / 8 in
  match c.encrypt_blocks with
  | Some f when nblocks >= batch_threshold ->
      for i = 0 to nblocks - 1 do
        xor_mask_bytes buf (pos + (8 * i)) (base + (8 * i))
      done;
      f buf ~pos ~nblocks
  | _ ->
      for i = 0 to nblocks - 1 do
        let p = pos + (8 * i) in
        Des.block_to_bytes buf ~pos:p
          (c.encrypt
             (Int64.logxor (Bytes.get_int64_be buf p) (position_mask ~base i)))
      done

let positional_encrypt c ~base s =
  check_aligned "Modes.positional_encrypt" s;
  if base mod 8 <> 0 then
    invalid_arg "Modes.positional_encrypt: unaligned base";
  let buf = Bytes.of_string s in
  positional_encrypt_in_place c ~base buf ~pos:0 ~len:(Bytes.length buf);
  Bytes.unsafe_to_string buf

let ecb_decrypt_into c ~src ~src_pos ~dst ~dst_pos ~len =
  check_into "Modes.ecb_decrypt_into" ~src ~src_pos ~dst ~dst_pos ~len;
  let nblocks = len / 8 in
  match c.decrypt_blocks with
  | Some f when nblocks >= batch_threshold ->
      f ~src ~src_pos ~dst ~dst_pos ~nblocks
  | _ ->
      for i = 0 to nblocks - 1 do
        Des.block_to_bytes dst
          ~pos:(dst_pos + (8 * i))
          (c.decrypt (Des.block_of_bytes src ~pos:(src_pos + (8 * i))))
      done

let cbc_decrypt_into c ~iv ~src ~src_pos ~dst ~dst_pos ~len =
  check_into "Modes.cbc_decrypt_into" ~src ~src_pos ~dst ~dst_pos ~len;
  if src_pos mod 8 <> 0 then
    invalid_arg "Modes.cbc_decrypt_into: unaligned source position";
  let nblocks = len / 8 in
  match c.decrypt_blocks with
  | Some f when nblocks >= batch_threshold ->
      f ~src ~src_pos ~dst ~dst_pos ~nblocks;
      (* chain XOR second pass: block i XORs the previous cipher block,
         still pristine in [src] (aliasing was rejected above) *)
      if src_pos = 0 then xor_iv_bytes dst dst_pos iv
      else
        for k = 0 to 7 do
          Bytes.unsafe_set dst (dst_pos + k)
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get dst (dst_pos + k))
               lxor Char.code (String.unsafe_get src (src_pos - 8 + k))))
        done;
      for i = 1 to nblocks - 1 do
        let dp = dst_pos + (8 * i) and sp = src_pos + (8 * (i - 1)) in
        for k = 0 to 7 do
          Bytes.unsafe_set dst (dp + k)
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get dst (dp + k))
               lxor Char.code (String.unsafe_get src (sp + k))))
        done
      done
  | _ ->
      let prev =
        ref
          (if src_pos = 0 then iv else Des.block_of_bytes src ~pos:(src_pos - 8))
      in
      for i = 0 to nblocks - 1 do
        let b = Des.block_of_bytes src ~pos:(src_pos + (8 * i)) in
        Des.block_to_bytes dst
          ~pos:(dst_pos + (8 * i))
          (Int64.logxor (c.decrypt b) !prev);
        prev := b
      done

let positional_decrypt_into c ~base ~src ~src_pos ~dst ~dst_pos ~len =
  check_into "Modes.positional_decrypt_into" ~src ~src_pos ~dst ~dst_pos ~len;
  if base mod 8 <> 0 then
    invalid_arg "Modes.positional_decrypt_into: unaligned base";
  let nblocks = len / 8 in
  match c.decrypt_blocks with
  | Some f when nblocks >= batch_threshold ->
      f ~src ~src_pos ~dst ~dst_pos ~nblocks;
      for i = 0 to nblocks - 1 do
        xor_mask_bytes dst (dst_pos + (8 * i)) (base + (8 * i))
      done
  | _ ->
      for i = 0 to nblocks - 1 do
        Des.block_to_bytes dst
          ~pos:(dst_pos + (8 * i))
          (Int64.logxor
             (c.decrypt (Des.block_of_bytes src ~pos:(src_pos + (8 * i))))
             (position_mask ~base i))
      done

(* Allocating decrypts ride on the [_into] kernels: one output buffer per
   call (instead of per-block closures and boxed chaining state), and the
   batched path when the cipher has one. *)

let ecb_decrypt c s =
  check_aligned "Modes.ecb_decrypt" s;
  let len = String.length s in
  let out = Bytes.create len in
  ecb_decrypt_into c ~src:s ~src_pos:0 ~dst:out ~dst_pos:0 ~len;
  Bytes.unsafe_to_string out

let cbc_decrypt c ~iv s =
  check_aligned "Modes.cbc_decrypt" s;
  let len = String.length s in
  let out = Bytes.create len in
  cbc_decrypt_into c ~iv ~src:s ~src_pos:0 ~dst:out ~dst_pos:0 ~len;
  Bytes.unsafe_to_string out

let positional_decrypt c ~base s =
  check_aligned "Modes.positional_decrypt" s;
  if base mod 8 <> 0 then invalid_arg "Modes.positional_decrypt: unaligned base";
  let len = String.length s in
  let out = Bytes.create len in
  positional_decrypt_into c ~base ~src:s ~src_pos:0 ~dst:out ~dst_pos:0 ~len;
  Bytes.unsafe_to_string out

let positional_decrypt_sub c ~base s ~pos ~len =
  if pos mod 8 <> 0 || len mod 8 <> 0 then
    invalid_arg "Modes.positional_decrypt_sub: unaligned range";
  if pos < 0 || pos + len > String.length s then
    invalid_arg "Modes.positional_decrypt_sub: range out of bounds";
  let out = Bytes.create len in
  positional_decrypt_into c ~base:(base + pos) ~src:s ~src_pos:pos ~dst:out
    ~dst_pos:0 ~len;
  Bytes.unsafe_to_string out

let pad s =
  let n = String.length s in
  let padded = 8 * ((n / 8) + 1) in
  let b = Bytes.make padded '\000' in
  Bytes.blit_string s 0 b 0 n;
  Bytes.set b n '\x80';
  Bytes.to_string b

let unpad s =
  let rec find i =
    if i < 0 then invalid_arg "Modes.unpad: no padding marker"
    else
      match s.[i] with
      | '\000' -> find (i - 1)
      | '\x80' -> i
      | _ -> invalid_arg "Modes.unpad: malformed padding"
  in
  let n = String.length s in
  if n = 0 || n mod 8 <> 0 then invalid_arg "Modes.unpad: bad length";
  let marker = find (n - 1) in
  if n - marker > 8 then invalid_arg "Modes.unpad: padding too long";
  String.sub s 0 marker
