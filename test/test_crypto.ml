(* Tests for the cryptographic substrate: SHA-1 and DES against published
   vectors, mode properties, Merkle trees and the chunked secure container. *)

open Xmlac_crypto

let check = Alcotest.check
let string_t = Alcotest.string
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

(* SHA-1 ------------------------------------------------------------------ *)

let test_sha1_vectors () =
  let cases =
    [
      ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
      ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
      ( String.make 1000000 'a',
        "34aa973cd4c4daa4f61eeb2bdbad27316534016f" );
    ]
  in
  List.iter
    (fun (msg, expected) ->
      check string_t
        (Printf.sprintf "sha1 of %d bytes" (String.length msg))
        expected
        (Sha1.hex (Sha1.digest msg)))
    cases

let test_sha1_incremental () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let whole = Sha1.digest msg in
  (* feed in uneven pieces *)
  let c = Sha1.init () in
  let rec go pos step =
    if pos < String.length msg then begin
      let len = min step (String.length msg - pos) in
      Sha1.feed_sub c msg ~pos ~len;
      go (pos + len) ((step * 2) + 1)
    end
  in
  go 0 1;
  check string_t "incremental = whole" (Sha1.hex whole) (Sha1.hex (Sha1.finalize c))

let test_sha1_state_roundtrip () =
  let msg = String.init 777 (fun i -> Char.chr ((i * 7) mod 256)) in
  let c = Sha1.init () in
  Sha1.feed_sub c msg ~pos:0 ~len:300;
  let state = Sha1.export_state c in
  let c' = Sha1.import_state state in
  Sha1.feed_sub c' msg ~pos:300 ~len:477;
  check string_t "resumed from exported state" (Sha1.hex (Sha1.digest msg))
    (Sha1.hex (Sha1.finalize c'))

let test_sha1_finalize_idempotent () =
  let c = Sha1.init () in
  Sha1.feed c "hello";
  let d1 = Sha1.finalize c in
  Sha1.feed c " world";
  let d2 = Sha1.finalize c in
  check string_t "finalize leaves ctx usable" (Sha1.hex (Sha1.digest "hello")) (Sha1.hex d1);
  check string_t "continued feeding works" (Sha1.hex (Sha1.digest "hello world")) (Sha1.hex d2)

let test_sha1_import_rejects_garbage () =
  Alcotest.check_raises "truncated" (Invalid_argument "Sha1.import_state: truncated")
    (fun () -> ignore (Sha1.import_state "short"));
  let c = Sha1.init () in
  Sha1.feed c "x";
  let s = Sha1.export_state c in
  Alcotest.check_raises "padded" (Invalid_argument "Sha1.import_state: malformed")
    (fun () -> ignore (Sha1.import_state (s ^ "junk")))

(* SHA-256 ---------------------------------------------------------------- *)

let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1000000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (msg, expected) ->
      check string_t
        (Printf.sprintf "sha256 of %d bytes" (String.length msg))
        expected
        (Sha256.hex (Sha256.digest msg)))
    cases

let test_sha256_incremental () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let c = Sha256.init () in
  let rec go pos step =
    if pos < String.length msg then begin
      let len = min step (String.length msg - pos) in
      Sha256.feed_sub c msg ~pos ~len;
      go (pos + len) ((step * 2) + 1)
    end
  in
  go 0 1;
  check string_t "incremental = whole" (Sha256.hex (Sha256.digest msg))
    (Sha256.hex (Sha256.finalize c));
  (* finalize works on a copy: the context keeps accepting input *)
  Sha256.feed c "!";
  check string_t "context survives finalize"
    (Sha256.hex (Sha256.digest (msg ^ "!")))
    (Sha256.hex (Sha256.finalize c))

(* Both hashes expose an allocation-free [digest_into]; it must write the
   exact digest and nothing outside [dst_pos, dst_pos + size). *)
let digest_into_agrees name size digest digest_into =
  qtest ~count:200 (name ^ ".digest_into ≡ digest")
    QCheck2.Gen.(pair (string_size (int_range 0 300)) (int_range 0 5))
    (fun (msg, off) ->
      let dst = Bytes.make (off + size + 3) '\xAA' in
      digest_into msg ~dst ~dst_pos:off;
      Bytes.sub_string dst off size = digest msg
      && Bytes.sub_string dst 0 off = String.make off '\xAA'
      && Bytes.sub_string dst (off + size) 3 = String.make 3 '\xAA')

let test_digest_into_bounds_checked () =
  let rejected f = match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool_t "sha1 overrun rejected" true
    (rejected (fun () -> Sha1.digest_into "msg" ~dst:(Bytes.create 19) ~dst_pos:0));
  check bool_t "sha256 overrun rejected" true
    (rejected (fun () -> Sha256.digest_into "msg" ~dst:(Bytes.create 40) ~dst_pos:9));
  check bool_t "negative position rejected" true
    (rejected (fun () -> Sha256.digest_into "msg" ~dst:(Bytes.create 40) ~dst_pos:(-1)))

(* DES -------------------------------------------------------------------- *)

let hex64 = Printf.sprintf "%016Lx"

let test_des_vectors () =
  (* (key, plaintext, ciphertext) triples from FIPS validation suites *)
  let cases =
    [
      ("\x13\x34\x57\x79\x9B\xBC\xDF\xF1", 0x0123456789ABCDEFL, 0x85E813540F0AB405L);
      ("\x01\x01\x01\x01\x01\x01\x01\x01", 0x0000000000000000L, 0x8CA64DE9C1B123A7L);
      ("\xFE\xFE\xFE\xFE\xFE\xFE\xFE\xFE", 0xFFFFFFFFFFFFFFFFL, 0x7359B2163E4EDC58L);
      ("\x30\x00\x00\x00\x00\x00\x00\x00", 0x1000000000000001L, 0x958E6E627A05557BL);
      ("\x01\x23\x45\x67\x89\xAB\xCD\xEF", 0x1111111111111111L, 0x17668DFC7292532DL);
      ("\xFE\xDC\xBA\x98\x76\x54\x32\x10", 0x0123456789ABCDEFL, 0xED39D950FA74BCC4L);
    ]
  in
  List.iter
    (fun (kb, pt, expected) ->
      let k = Des.key_of_string kb in
      check string_t "encrypt" (hex64 expected) (hex64 (Des.encrypt_block k pt));
      check string_t "decrypt" (hex64 pt) (hex64 (Des.decrypt_block k expected)))
    cases

let test_triple_des_degenerates_to_des () =
  let kb = "\x13\x34\x57\x79\x9B\xBC\xDF\xF1" in
  let k1 = Des.key_of_string kb in
  let k3 = Des.Triple.key_of_string kb in
  let pt = 0xDEADBEEF01234567L in
  check string_t "EDE with equal keys = single DES"
    (hex64 (Des.encrypt_block k1 pt))
    (hex64 (Des.Triple.encrypt_block k3 pt))

let test_triple_des_two_key_form () =
  let k16 = "\x01\x23\x45\x67\x89\xAB\xCD\xEF\xFE\xDC\xBA\x98\x76\x54\x32\x10" in
  let k24 = k16 ^ String.sub k16 0 8 in
  let a = Des.Triple.key_of_string k16 in
  let b = Des.Triple.key_of_string k24 in
  let pt = 0x0011223344556677L in
  check string_t "16-byte key = k1k2k1"
    (hex64 (Des.Triple.encrypt_block b pt))
    (hex64 (Des.Triple.encrypt_block a pt))

let test_key_length_checked () =
  Alcotest.check_raises "des key" (Invalid_argument "Des.key_of_string: need 8 bytes")
    (fun () -> ignore (Des.key_of_string "short"));
  Alcotest.check_raises "3des key"
    (Invalid_argument "Des.Triple.key_of_string: need 8, 16 or 24 bytes")
    (fun () -> ignore (Des.Triple.key_of_string "123456789"))

let des_complementation =
  qtest "DES complementation property"
    QCheck2.Gen.(pair (string_size (return 8)) int64)
    (fun (kb, pt) ->
      let complement s = String.map (fun c -> Char.chr (lnot (Char.code c) land 0xFF)) s in
      let k = Des.key_of_string kb in
      let kc = Des.key_of_string (complement kb) in
      Int64.lognot (Des.encrypt_block k pt) = Des.encrypt_block kc (Int64.lognot pt))

let des_roundtrip =
  qtest "DES decrypt ∘ encrypt = id" QCheck2.Gen.(pair (string_size (return 8)) int64)
    (fun (kb, pt) ->
      let k = Des.key_of_string kb in
      Des.decrypt_block k (Des.encrypt_block k pt) = pt)

let triple_roundtrip =
  qtest "3DES decrypt ∘ encrypt = id"
    QCheck2.Gen.(pair (string_size (return 24)) int64)
    (fun (kb, pt) ->
      let k = Des.Triple.key_of_string kb in
      Des.Triple.decrypt_block k (Des.Triple.encrypt_block k pt) = pt)

(* Modes ------------------------------------------------------------------ *)

let test_key () = Des.Triple.key_of_string "0123456789abcdefFEDCBA98"

let aligned_string =
  QCheck2.Gen.(
    map
      (fun (n, seed) ->
        String.init (8 * (1 + (abs n mod 64))) (fun i -> Char.chr ((seed + (i * 31)) mod 256)))
      (pair small_int small_int))

let mode_roundtrips =
  [
    qtest "ECB roundtrip" aligned_string (fun s ->
        let c = Modes.of_triple_des (test_key ()) in
        Modes.ecb_decrypt c (Modes.ecb_encrypt c s) = s);
    qtest "CBC roundtrip" aligned_string (fun s ->
        let c = Modes.of_triple_des (test_key ()) in
        Modes.cbc_decrypt c ~iv:42L (Modes.cbc_encrypt c ~iv:42L s) = s);
    qtest "positional roundtrip" aligned_string (fun s ->
        let c = Modes.of_triple_des (test_key ()) in
        Modes.positional_decrypt c ~base:4096 (Modes.positional_encrypt c ~base:4096 s) = s);
  ]

(* The in-place [_into] variants must agree with their allocating
   counterparts on every aligned slice, and must not touch the destination
   outside [dst_pos, dst_pos + len). *)
let aligned_slice =
  QCheck2.Gen.(
    aligned_string >>= fun ct ->
    let blocks = String.length ct / 8 in
    int_range 0 (blocks - 1) >>= fun b0 ->
    int_range 1 (blocks - b0) >>= fun nb ->
    int_range 0 3 >>= fun dst_off -> return (ct, 8 * b0, 8 * nb, dst_off))

let into_agrees name decrypt_into reference =
  qtest ~count:300 name aligned_slice (fun (ct, pos, len, dst_off) ->
      let dst = Bytes.make (dst_off + len + 5) '\xAA' in
      decrypt_into ~src:ct ~src_pos:pos ~dst ~dst_pos:dst_off ~len;
      Bytes.sub_string dst dst_off len = String.sub (reference ct) pos len
      && Bytes.sub_string dst 0 dst_off = String.make dst_off '\xAA'
      && Bytes.sub_string dst (dst_off + len) 5 = String.make 5 '\xAA')

(* Run the slice-equivalence property on both ciphers: with the fast
   cipher, slices of >= 16 blocks route through the bitsliced kernel at
   arbitrary src/dst offsets, the reference decrypts stay scalar, and the
   two must still agree bit-for-bit. *)
let mode_into_equivalence =
  List.concat_map
    (fun (tag, c) ->
      let reference = Modes.of_triple_des (test_key ()) in
      [
        into_agrees (tag ^ " ecb_decrypt_into ≡ ecb_decrypt slice")
          (Modes.ecb_decrypt_into c)
          (Modes.ecb_decrypt reference);
        into_agrees (tag ^ " cbc_decrypt_into ≡ cbc_decrypt slice")
          (Modes.cbc_decrypt_into c ~iv:42L)
          (Modes.cbc_decrypt reference ~iv:42L);
        into_agrees (tag ^ " positional_decrypt_into ≡ positional_decrypt slice")
          (fun ~src ~src_pos ~dst ~dst_pos ~len ->
            Modes.positional_decrypt_into c ~base:(4096 + src_pos) ~src ~src_pos
              ~dst ~dst_pos ~len)
          (Modes.positional_decrypt reference ~base:4096);
      ])
    [
      ("reference", Modes.of_triple_des (test_key ()));
      ("fast", Modes.of_triple_des_fast (test_key ()));
    ]

let test_into_rejects_misuse () =
  let c = Modes.of_triple_des (test_key ()) in
  let ct = String.make 32 '\x5C' in
  let rejected f = match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool_t "unaligned length rejected" true
    (rejected (fun () ->
         Modes.ecb_decrypt_into c ~src:ct ~src_pos:0 ~dst:(Bytes.create 32)
           ~dst_pos:0 ~len:7));
  check bool_t "source overrun rejected" true
    (rejected (fun () ->
         Modes.ecb_decrypt_into c ~src:ct ~src_pos:16 ~dst:(Bytes.create 64)
           ~dst_pos:0 ~len:24));
  check bool_t "destination overrun rejected" true
    (rejected (fun () ->
         Modes.ecb_decrypt_into c ~src:ct ~src_pos:0 ~dst:(Bytes.create 8)
           ~dst_pos:0 ~len:16));
  check bool_t "unaligned CBC slice start rejected" true
    (rejected (fun () ->
         Modes.cbc_decrypt_into c ~iv:0L ~src:ct ~src_pos:4
           ~dst:(Bytes.create 32) ~dst_pos:0 ~len:8))

let test_into_zero_length () =
  (* len = 0 is a valid no-op on every mode and both ciphers *)
  List.iter
    (fun c ->
      let dst = Bytes.make 16 '\xAA' in
      let src = String.make 32 '\x5C' in
      Modes.ecb_decrypt_into c ~src ~src_pos:8 ~dst ~dst_pos:4 ~len:0;
      Modes.cbc_decrypt_into c ~iv:7L ~src ~src_pos:8 ~dst ~dst_pos:4 ~len:0;
      Modes.positional_decrypt_into c ~base:64 ~src ~src_pos:8 ~dst ~dst_pos:4
        ~len:0;
      check string_t "destination untouched" (String.make 16 '\xAA')
        (Bytes.to_string dst))
    [ Modes.of_triple_des (test_key ()); Modes.of_triple_des_fast (test_key ()) ]

let test_into_rejects_aliasing () =
  (* a Bytes.t smuggled in as the source must be rejected: the batched
     kernel reads [src] after writing [dst] *)
  List.iter
    (fun c ->
      let buf = Bytes.make 256 '\x51' in
      let aliased = Bytes.unsafe_to_string buf in
      let rejected f = match f () with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      check bool_t "ecb aliasing rejected" true
        (rejected (fun () ->
             Modes.ecb_decrypt_into c ~src:aliased ~src_pos:0 ~dst:buf
               ~dst_pos:0 ~len:256));
      check bool_t "cbc aliasing rejected" true
        (rejected (fun () ->
             Modes.cbc_decrypt_into c ~iv:0L ~src:aliased ~src_pos:0 ~dst:buf
               ~dst_pos:0 ~len:256));
      check bool_t "positional aliasing rejected" true
        (rejected (fun () ->
             Modes.positional_decrypt_into c ~base:0 ~src:aliased ~src_pos:0
               ~dst:buf ~dst_pos:0 ~len:256)))
    [ Modes.of_triple_des (test_key ()); Modes.of_triple_des_fast (test_key ()) ]

let test_positional_into_rejects_unaligned_base () =
  let c = Modes.of_triple_des_fast (test_key ()) in
  match
    Modes.positional_decrypt_into c ~base:4 ~src:(String.make 16 'x')
      ~src_pos:0 ~dst:(Bytes.create 16) ~dst_pos:0 ~len:16
  with
  | () -> Alcotest.fail "unaligned base accepted"
  | exception Invalid_argument _ -> ()

(* Bitsliced DES ≡ scalar reference ---------------------------------------- *)

(* The raw kernel, across run lengths straddling the batch threshold (16)
   and the 63-block lane width: partial lanes, exactly-full passes, and
   multi-pass runs with scalar tails. *)
let test_bitslice_kernel_differential () =
  let key = test_key () in
  let sched = Bitslice_des.decrypt_schedule key in
  let reference = Modes.of_triple_des key in
  let src = String.init (8 * 260) (fun i -> Char.chr ((i * 89 + 3) mod 256)) in
  List.iter
    (fun nblocks ->
      List.iter
        (fun b0 ->
          if 8 * (b0 + nblocks) <= String.length src then begin
            let dst = Bytes.make ((8 * nblocks) + 4) '\xEE' in
            Bitslice_des.crypt_blocks sched ~src ~src_pos:(8 * b0) ~dst
              ~dst_pos:0 ~nblocks;
            let expected =
              Modes.ecb_decrypt reference (String.sub src (8 * b0) (8 * nblocks))
            in
            check string_t
              (Printf.sprintf "bitslice = scalar (%d blocks at %d)" nblocks b0)
              expected
              (Bytes.sub_string dst 0 (8 * nblocks));
            check string_t "no overwrite past the run" "\xEE\xEE\xEE\xEE"
              (Bytes.sub_string dst (8 * nblocks) 4)
          end)
        [ 0; 1; 3 ])
    [ 1; 2; 15; 16; 17; 62; 63; 64; 126; 127; 128; 256 ]

(* The encrypt schedule turns the same kernel into EDE encryption: raw ECB
   against the scalar cipher, then through the positional mode at a
   non-zero base, below and above the batch threshold, across the lane
   width, and over one container encryption segment (16 full passes). *)
let test_bitslice_encrypt_differential () =
  let key = test_key () in
  let sched = Bitslice_des.encrypt_schedule key in
  let reference = Modes.of_triple_des key
  and fast = Modes.of_triple_des_fast_encrypt key in
  List.iter
    (fun nblocks ->
      let plain =
        String.init (8 * nblocks) (fun i ->
            Char.chr (((i * 73) + nblocks) mod 256))
      in
      let buf = Bytes.of_string (plain ^ "\xEE\xEE\xEE\xEE") in
      Bitslice_des.crypt_blocks_in_place sched buf ~pos:0 ~nblocks;
      check string_t
        (Printf.sprintf "encrypt kernel = scalar (%d blocks)" nblocks)
        (Modes.ecb_encrypt reference plain)
        (Bytes.sub_string buf 0 (8 * nblocks));
      check string_t "no overwrite past the run" "\xEE\xEE\xEE\xEE"
        (Bytes.sub_string buf (8 * nblocks) 4);
      List.iter
        (fun base ->
          check string_t
            (Printf.sprintf "positional encrypt = scalar (%d blocks at %d)"
               nblocks base)
            (Modes.positional_encrypt reference ~base plain)
            (Modes.positional_encrypt fast ~base plain))
        [ 0; 8; 4096 + 2048 ])
    [ 1; 15; 16; 62; 63; 64; 126; 127; 1008; 1009 ]

let test_positional_encrypt_in_place_misuse () =
  let c = Modes.of_triple_des_fast_encrypt (test_key ()) in
  let rejected f = match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool_t "unaligned base rejected" true
    (rejected (fun () ->
         Modes.positional_encrypt_in_place c ~base:4 (Bytes.create 256) ~pos:0
           ~len:256));
  check bool_t "overrun rejected" true
    (rejected (fun () ->
         Modes.positional_encrypt_in_place c ~base:0 (Bytes.create 256) ~pos:8
           ~len:256));
  check bool_t "unaligned length rejected" true
    (rejected (fun () ->
         Modes.positional_encrypt_in_place c ~base:0 (Bytes.create 256) ~pos:0
           ~len:250))

let test_bitslice_kernel_bounds_checked () =
  let sched = Bitslice_des.decrypt_schedule (test_key ()) in
  let rejected f = match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool_t "source overrun rejected" true
    (rejected (fun () ->
         Bitslice_des.crypt_blocks sched ~src:(String.make 64 'x') ~src_pos:8
           ~dst:(Bytes.create 64) ~dst_pos:0 ~nblocks:8));
  check bool_t "destination overrun rejected" true
    (rejected (fun () ->
         Bitslice_des.crypt_blocks sched ~src:(String.make 64 'x') ~src_pos:0
           ~dst:(Bytes.create 63) ~dst_pos:0 ~nblocks:8))

(* The fast cipher must be byte-for-byte the reference cipher through every
   mode, on buffers long enough to cross into the batched kernel. *)
let long_aligned_string =
  QCheck2.Gen.(
    map
      (fun (n, seed) ->
        String.init
          (8 * (1 + (abs n mod 200)))
          (fun i -> Char.chr ((seed + (i * 31)) mod 256)))
      (pair small_int small_int))

let fast_engine_differential =
  let reference = Modes.of_triple_des (test_key ()) in
  let fast = Modes.of_triple_des_fast (test_key ()) in
  [
    qtest ~count:300 "fast ECB decrypt ≡ reference" long_aligned_string
      (fun s -> Modes.ecb_decrypt fast s = Modes.ecb_decrypt reference s);
    qtest ~count:300 "fast CBC decrypt ≡ reference" long_aligned_string
      (fun s ->
        Modes.cbc_decrypt fast ~iv:42L s = Modes.cbc_decrypt reference ~iv:42L s);
    qtest ~count:300 "fast positional decrypt ≡ reference" long_aligned_string
      (fun s ->
        Modes.positional_decrypt fast ~base:4096 s
        = Modes.positional_decrypt reference ~base:4096 s);
    qtest ~count:300 "fast positional roundtrip" long_aligned_string (fun s ->
        Modes.positional_decrypt fast ~base:0
          (Modes.positional_encrypt fast ~base:0 s)
        = s);
  ]

let test_ecb_leaks_equal_blocks () =
  let c = Modes.of_triple_des (test_key ()) in
  let s = String.make 16 'A' in
  let e = Modes.ecb_encrypt c s in
  check bool_t "equal blocks leak under plain ECB" true
    (String.sub e 0 8 = String.sub e 8 8)

let test_positional_hides_equal_blocks () =
  let c = Modes.of_triple_des (test_key ()) in
  let s = String.make 16 'A' in
  let e = Modes.positional_encrypt c ~base:0 s in
  check bool_t "equal blocks differ under positional ECB" false
    (String.sub e 0 8 = String.sub e 8 8)

let test_positional_random_access () =
  let c = Modes.of_triple_des (test_key ()) in
  let s = String.init 256 (fun i -> Char.chr (i mod 256)) in
  let e = Modes.positional_encrypt c ~base:1024 s in
  let part = Modes.positional_decrypt_sub c ~base:1024 e ~pos:64 ~len:32 in
  check string_t "random access decrypts the right window" (String.sub s 64 32) part

let test_pad_unpad () =
  for n = 0 to 20 do
    let s = String.init n (fun i -> Char.chr (i + 65)) in
    let p = Modes.pad s in
    check int_t "padded length multiple of 8" 0 (String.length p mod 8);
    check bool_t "padding grows" true (String.length p > n);
    check string_t "unpad inverts pad" s (Modes.unpad p)
  done

let test_unpad_rejects_garbage () =
  Alcotest.check_raises "bad length" (Invalid_argument "Modes.unpad: bad length")
    (fun () -> ignore (Modes.unpad "1234567"));
  Alcotest.check_raises "no marker" (Invalid_argument "Modes.unpad: no padding marker")
    (fun () -> ignore (Modes.unpad (String.make 8 '\000')))

(* AES-128 / CTR ------------------------------------------------------------ *)

let aes_key_bytes = String.init 16 Char.chr
let aes_nonce = "\x01\x02\x03\x04\x05\x06\x07\x08"

let test_aes_fips197_vector () =
  (* FIPS-197 Appendix C.1 *)
  let key = Aes.expand aes_key_bytes in
  let pt = String.init 16 (fun i -> Char.chr ((i * 0x11) land 0xFF)) in
  check string_t "AES-128 known answer" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Sha256.hex (Aes.encrypt_block key pt))

let test_aes_key_length_checked () =
  Alcotest.check_raises "15-byte key"
    (Invalid_argument "Aes.expand: need a 16-byte key")
    (fun () -> ignore (Aes.expand (String.make 15 'k')))

let aes_ctr_involution =
  qtest ~count:300 "AES-CTR transform is an involution"
    QCheck2.Gen.(
      triple (string_size (int_range 0 200)) (string_size (return 8))
        (int_range 0 100_000))
    (fun (msg, nonce, stream_pos) ->
      let k = Aes.expand aes_key_bytes in
      Aes.ctr_transform k ~nonce ~stream_pos
        (Aes.ctr_transform k ~nonce ~stream_pos msg)
      = msg)

(* Byte-granular random access: decrypting any sub-range with the right
   absolute stream position must match the same bytes of a whole-stream
   transform — including ranges that start mid-counter-block. *)
let aes_ctr_random_access =
  qtest ~count:300 "AES-CTR slice ≡ whole-stream slice"
    QCheck2.Gen.(
      string_size (int_range 1 300) >>= fun msg ->
      int_range 0 (String.length msg - 1) >>= fun pos ->
      int_range 1 (String.length msg - pos) >>= fun len ->
      int_range 0 10_000 >>= fun stream_pos -> return (msg, pos, len, stream_pos))
    (fun (msg, pos, len, stream_pos) ->
      let k = Aes.expand aes_key_bytes in
      let whole = Aes.ctr_transform k ~nonce:aes_nonce ~stream_pos msg in
      let dst = Bytes.make (len + 4) '\xAA' in
      Aes.ctr_xor_into k ~nonce:aes_nonce ~src:msg ~src_pos:pos ~dst ~dst_pos:0
        ~len ~stream_pos:(stream_pos + pos);
      Bytes.sub_string dst 0 len = String.sub whole pos len
      && Bytes.sub_string dst len 4 = String.make 4 '\xAA')

let test_aes_ctr_rejects_misuse () =
  let k = Aes.expand aes_key_bytes in
  let rejected f = match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool_t "7-byte nonce rejected" true
    (rejected (fun () ->
         Aes.ctr_xor_into k ~nonce:"1234567" ~src:"01234567" ~src_pos:0
           ~dst:(Bytes.create 8) ~dst_pos:0 ~len:8 ~stream_pos:0));
  check bool_t "source overrun rejected" true
    (rejected (fun () ->
         Aes.ctr_xor_into k ~nonce:aes_nonce ~src:"0123" ~src_pos:0
           ~dst:(Bytes.create 8) ~dst_pos:0 ~len:8 ~stream_pos:0));
  check bool_t "destination overrun rejected" true
    (rejected (fun () ->
         Aes.ctr_xor_into k ~nonce:aes_nonce ~src:"01234567" ~src_pos:0
           ~dst:(Bytes.create 4) ~dst_pos:0 ~len:8 ~stream_pos:0))

(* Merkle ----------------------------------------------------------------- *)

let leaves n = Array.init n (fun i -> Sha1.digest (Printf.sprintf "leaf-%d" i))

let test_merkle_root_deterministic () =
  let l = leaves 8 in
  check string_t "same leaves, same root"
    (Sha1.hex (Merkle.root_of_leaves l))
    (Sha1.hex (Merkle.root_of_leaves (Array.copy l)))

let test_merkle_rejects_non_power_of_two () =
  Alcotest.check_raises "n=3"
    (Invalid_argument "Merkle.root_of_leaves: leaf count must be a power of two")
    (fun () -> ignore (Merkle.root_of_leaves (leaves 3)))

let test_merkle_single_leaf () =
  let l = leaves 1 in
  check string_t "root of one leaf is the leaf" (Sha1.hex l.(0))
    (Sha1.hex (Merkle.root_of_leaves l))

let test_merkle_cover_matches_paper_figure () =
  (* Figure F1: SOE reads fragment F3 (index 2) among 8; terminal sends
     H4, H12, H5678. *)
  let cover = Merkle.sibling_cover ~leaf_count:8 ~lo:2 ~hi:2 in
  let expected = [ { Merkle.level = 0; index = 3 }; { level = 1; index = 0 }; { level = 2; index = 1 } ] in
  check bool_t "cover = {H4, H12, H5678}" true
    (List.sort compare cover = List.sort compare expected)

let test_merkle_cover_verifies () =
  let l = leaves 16 in
  let root = Merkle.root_of_leaves l in
  for lo = 0 to 15 do
    for hi = lo to 15 do
      let cover = Merkle.sibling_cover ~leaf_count:16 ~lo ~hi in
      let supplied = List.map (fun n -> (n, Merkle.node_hash l n)) cover in
      let known =
        List.init (hi - lo + 1) (fun i -> (lo + i, l.(lo + i)))
      in
      match Merkle.root_from_cover ~leaf_count:16 ~known ~supplied with
      | None -> Alcotest.failf "incomplete cover for [%d,%d]" lo hi
      | Some r ->
          if not (String.equal r root) then
            Alcotest.failf "wrong root for [%d,%d]" lo hi
    done
  done

let test_merkle_detects_wrong_leaf () =
  let l = leaves 8 in
  let root = Merkle.root_of_leaves l in
  let cover = Merkle.sibling_cover ~leaf_count:8 ~lo:2 ~hi:2 in
  let supplied = List.map (fun n -> (n, Merkle.node_hash l n)) cover in
  let forged = Sha1.digest "forged" in
  match Merkle.root_from_cover ~leaf_count:8 ~known:[ (2, forged) ] ~supplied with
  | None -> Alcotest.fail "cover should be complete"
  | Some r -> check bool_t "forged leaf changes root" false (String.equal r root)

let merkle_cover_minimal =
  qtest ~count:100 "cover size is logarithmic"
    QCheck2.Gen.(pair (int_range 0 31) (int_range 0 31))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let cover = Merkle.sibling_cover ~leaf_count:32 ~lo ~hi in
      List.length cover <= 2 * 5)

(* Grouped recombination. A case is a tree of 1 to 32 leaves drawn from a
   seed, a non-empty group of its leaves, the member whose leaf hash a
   tamperer changes, and whether the sibling digests are the honest ones
   or arbitrary bytes. *)
let gen_merkle_group =
  QCheck2.Gen.(
    let* k = int_range 0 5 in
    let m = 1 lsl k in
    let* mask = list_repeat m bool in
    let* forced = int_range 0 (m - 1) in
    let* pick = int_range 0 (m - 1) in
    let* seed = int_range 0 1_000_000 in
    let* honest = bool in
    let members =
      List.filter (fun i -> i = forced || List.nth mask i) (List.init m Fun.id)
    in
    return
      (m, members, List.nth members (pick mod List.length members), seed, honest))

let print_merkle_group (m, members, tampered, seed, honest) =
  Printf.sprintf "%d leaves, group [%s], tamper %d, seed %d, %s siblings" m
    (String.concat ";" (List.map string_of_int members))
    tampered seed
    (if honest then "honest" else "arbitrary")

let group_leaves m seed =
  Array.init m (fun i -> Sha1.digest (Printf.sprintf "leaf-%d-%d" seed i))

(* (index, leaf hash, sibling digests) for every member of [members] *)
let merkle_group ~honest l m seed members =
  List.map
    (fun i ->
      let siblings =
        List.map
          (fun (n : Merkle.node) ->
            if honest then Merkle.node_hash l n
            else
              Sha1.digest
                (Printf.sprintf "sibling-%d-%d-%d-%d" seed i n.level n.index))
          (Merkle.sibling_cover ~leaf_count:m ~lo:i ~hi:i)
      in
      (i, l.(i), siblings))
    members

let merkle_group_honest =
  qtest ~print:print_merkle_group
    "grouped root of honest inputs = root of leaves" gen_merkle_group
    (fun (m, members, _, seed, _) ->
      let l = group_leaves m seed in
      Merkle.root_from_group ~leaf_count:m
        (merkle_group ~honest:true l m seed members)
      = Some (Merkle.root_of_leaves l))

(* the supplied siblings stay as they were, honest ones included: a
   changed known leaf must still change the root. Without the filter a
   sibling digest of another member would stand in for the changed leaf. *)
let merkle_group_leaf_tamper =
  qtest ~print:print_merkle_group "grouped root changes with any known leaf"
    gen_merkle_group
    (fun (m, members, tampered, seed, honest) ->
      let l = group_leaves m seed in
      let group = merkle_group ~honest l m seed members in
      let forged =
        List.map
          (fun (i, h, ds) ->
            if i = tampered then (i, Sha1.digest ("forged" ^ h), ds)
            else (i, h, ds))
          group
      in
      match
        ( Merkle.root_from_group ~leaf_count:m group,
          Merkle.root_from_group ~leaf_count:m forged )
      with
      | Some r, Some r' -> not (String.equal r r')
      | _ -> false)

let merkle_group_single_leaf =
  qtest ~print:print_merkle_group "one-leaf group = per-path root"
    gen_merkle_group (fun (m, _, i, seed, honest) ->
      let l = group_leaves m seed in
      let group = merkle_group ~honest l m seed [ i ] in
      let supplied =
        match group with
        | [ (_, _, ds) ] ->
            List.combine (Merkle.sibling_cover ~leaf_count:m ~lo:i ~hi:i) ds
        | _ -> assert false
      in
      Merkle.root_from_group ~leaf_count:m group
      = Merkle.root_from_cover ~leaf_count:m ~known:[ (i, l.(i)) ] ~supplied)

(* the node table against the per-node reference *)
let merkle_tree_lookup =
  qtest "node table: root and sibling lookups = node_hash"
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 1_000_000))
    (fun (k, seed) ->
      let m = 1 lsl k in
      let l = group_leaves m seed in
      let tree = Merkle.tree l in
      tree.(1) = Merkle.root_of_leaves l
      && List.for_all
           (fun f ->
             Merkle.siblings tree ~fragment:f
             = List.map (Merkle.node_hash l)
                 (Merkle.sibling_cover ~leaf_count:m ~lo:f ~hi:f))
           (List.init m Fun.id))

(* Secure container ------------------------------------------------------- *)

let payload n = String.init n (fun i -> Char.chr ((i * 131 + 7) mod 256))

let container_roundtrip scheme () =
  let key = test_key () in
  List.iter
    (fun n ->
      let p = payload n in
      let t = Secure_container.encrypt ~chunk_size:512 ~fragment_size:64 ~scheme ~key p in
      check string_t
        (Printf.sprintf "%s roundtrip %dB" (Secure_container.scheme_to_string scheme) n)
        p
        (Secure_container.decrypt_all t ~key ~verify:(scheme <> Secure_container.Ecb)))
    [ 0; 1; 63; 512; 513; 5000 ]

let container_serialization scheme () =
  let key = test_key () in
  let p = payload 3000 in
  let t = Secure_container.encrypt ~chunk_size:512 ~fragment_size:64 ~scheme ~key p in
  let bytes = Secure_container.to_bytes t in
  let t' = Secure_container.of_bytes bytes in
  check string_t "payload survives serialization" p
    (Secure_container.decrypt_all t' ~key ~verify:(scheme <> Secure_container.Ecb))

let tamper_detected scheme () =
  let key = test_key () in
  let p = payload 3000 in
  let t = Secure_container.encrypt ~chunk_size:512 ~fragment_size:64 ~scheme ~key p in
  let t' = Secure_container.substitute_block t ~chunk:2 ~block:5 (String.make 8 'X') in
  match Secure_container.decrypt_all t' ~key ~verify:true with
  | exception Secure_container.Integrity_failure _ -> ()
  | _ -> Alcotest.fail "tampering not detected"

let test_block_substitution_across_chunks_detected () =
  (* swap identical positions between chunks: digests embed the chunk index
     so this must fail even though each block is a valid ciphertext *)
  let key = test_key () in
  let p = payload 3000 in
  let t =
    Secure_container.encrypt ~chunk_size:512 ~fragment_size:64
      ~scheme:Secure_container.Ecb_mht ~key p
  in
  let stolen = String.sub (Secure_container.chunk_ciphertext t 0) 0 8 in
  let t' = Secure_container.substitute_block t ~chunk:1 ~block:0 stolen in
  match Secure_container.decrypt_all t' ~key ~verify:true with
  | exception Secure_container.Integrity_failure _ -> ()
  | _ -> Alcotest.fail "cross-chunk substitution not detected"

let test_ecb_scheme_has_no_integrity () =
  let key = test_key () in
  let p = payload 1000 in
  let t =
    Secure_container.encrypt ~chunk_size:512 ~fragment_size:64
      ~scheme:Secure_container.Ecb ~key p
  in
  let t' = Secure_container.substitute_block t ~chunk:0 ~block:0 (String.make 8 'X') in
  (* decrypts to garbage but does not raise: the baseline is not tamper-proof *)
  let out = Secure_container.decrypt_all t' ~key ~verify:true in
  check bool_t "silently corrupted" false (String.equal out p)

let test_container_header_checks () =
  Alcotest.check_raises "bad magic"
    (Secure_container.Corrupt "bad magic")
    (fun () -> ignore (Secure_container.of_bytes (String.make 64 'z')));
  let key = test_key () in
  let t =
    Secure_container.encrypt ~scheme:Secure_container.Ecb_mht ~key (payload 100)
  in
  let b = Secure_container.to_bytes t in
  Alcotest.check_raises "truncated body"
    (Secure_container.Corrupt "bad total length")
    (fun () -> ignore (Secure_container.of_bytes (String.sub b 0 (String.length b - 1))));
  (match Secure_container.of_bytes_result (String.make 64 'z') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_bytes_result accepted garbage")

let test_fragment_random_access () =
  let key = test_key () in
  let p = payload 4096 in
  let t =
    Secure_container.encrypt ~chunk_size:1024 ~fragment_size:128
      ~scheme:Secure_container.Ecb_mht ~key p
  in
  let cipher = Secure_container.fragment_ciphertext t ~chunk:2 ~fragment:3 in
  let plain = Secure_container.decrypt_fragment t ~key ~chunk:2 ~fragment:3 ~cipher in
  check string_t "fragment decrypts to the right window"
    (String.sub p ((2 * 1024) + (3 * 128)) 128)
    plain

let test_invalid_geometry_rejected () =
  let key = test_key () in
  Alcotest.check_raises "ratio not a power of two"
    (Invalid_argument
       "Secure_container.encrypt: chunk/fragment ratio must be a power of two")
    (fun () ->
      ignore
        (Secure_container.encrypt ~chunk_size:768 ~fragment_size:256
           ~scheme:Secure_container.Ecb_mht ~key "x"))

(* Container encryption runs positional-ECB chunk runs and digest blobs
   through the bitsliced kernel. Positional ECB is a bijection on each
   block, so a verified decryption with the scalar cipher pins the
   ciphertext; the fixture test below pins the bytes against containers
   built before the kernel encrypted. Payload lengths straddle chunk
   boundaries and the encryption segment, and the edits dirty isolated
   chunks, runs of chunks, a shifted tail, a shrink and an extension. *)
let container_kernel_roundtrip scheme () =
  let key = test_key () in
  let verify = scheme <> Secure_container.Ecb in
  List.iter
    (fun len ->
      let p = payload len in
      let t =
        Secure_container.encrypt ~chunk_size:512 ~fragment_size:64
          ~generation:3 ~key_epoch:1 ~scheme ~key p
      in
      check string_t
        (Printf.sprintf "encrypt, %d bytes" len)
        p
        (Secure_container.decrypt_all t ~key ~verify);
      List.iter
        (fun p' ->
          let t', _ =
            Secure_container.reencrypt t ~key ~old_payload:p ~payload:p'
          in
          check string_t
            (Printf.sprintf "reencrypt, %d -> %d bytes" len (String.length p'))
            p'
            (Secure_container.decrypt_all t' ~key ~verify))
        [
          String.mapi (fun i c -> if i mod 1500 = 7 then 'Z' else c) p;
          String.sub p 0 (len / 3)
          ^ "inserted"
          ^ String.sub p (len / 3) (len - (len / 3));
          String.sub p 0 (len / 2);
          p ^ String.make 700 'q';
        ])
    [ 1; 511; 512; 4000; 9000 ]

(* Serialized containers (and rewritten-chunk lists) from encrypt,
   reencrypt and the publisher, on every scheme, against digests recorded
   when every container was encrypted with the scalar cipher. *)
let test_containers_match_fixture () =
  let expected =
    In_channel.with_open_text "fixture/containers.expected"
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let actual = Container_fixture.lines () in
  check int_t "fixture cases" (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      let name = List.hd (String.split_on_char ':' e) in
      check string_t name e a)
    expected actual

let scheme_suites =
  List.concat_map
    (fun scheme ->
      let name = Secure_container.scheme_to_string scheme in
      [
        Alcotest.test_case (name ^ " roundtrip") `Quick (container_roundtrip scheme);
        Alcotest.test_case (name ^ " serialization") `Quick (container_serialization scheme);
        Alcotest.test_case (name ^ " kernel encryption round trips") `Quick
          (container_kernel_roundtrip scheme);
      ])
    Secure_container.all_schemes
  @ List.filter_map
      (fun scheme ->
        if scheme = Secure_container.Ecb then None
        else
          Some
            (Alcotest.test_case
               (Secure_container.scheme_to_string scheme ^ " tamper detection")
               `Quick (tamper_detected scheme)))
      Secure_container.all_schemes

(* Fuzz: no silent corruption ----------------------------------------------- *)

let prop_any_corruption_detected =
  (* For every integrity-checked scheme: flipping any single byte anywhere
     in the serialized container either fails parsing, fails verification,
     or — if it only hit padding — still yields the exact payload. It must
     never yield a different payload. *)
  qtest ~count:300 "single-byte corruption never silently alters the payload"
    QCheck2.Gen.(
      triple
        (oneofl
           [
             Secure_container.Cbc_sha;
             Secure_container.Cbc_shac;
             Secure_container.Ecb_mht;
             Secure_container.Aes_ctr;
           ])
        (int_range 0 100_000) (int_range 1 255))
    (fun (scheme, pos_seed, delta) ->
      let key = test_key () in
      let p = payload 2600 in
      let t = Secure_container.encrypt ~chunk_size:512 ~fragment_size:64 ~scheme ~key p in
      let raw = Secure_container.to_bytes t in
      let pos = pos_seed mod String.length raw in
      let b = Bytes.of_string raw in
      Bytes.set b pos (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xFF));
      match Secure_container.of_bytes (Bytes.to_string b) with
      | exception Secure_container.Corrupt _ -> true
      | t' -> (
          match Secure_container.decrypt_all t' ~key ~verify:true with
          | exception Secure_container.Integrity_failure _ -> true
          | out -> String.equal out p))

let prop_wrong_key_never_succeeds_quietly =
  qtest ~count:100 "wrong key yields an integrity failure or garbage, never the payload"
    QCheck2.Gen.(string_size (return 24))
    (fun other_key_bytes ->
      let key = test_key () in
      let other = Des.Triple.key_of_string other_key_bytes in
      let p = payload 1500 in
      let t =
        Secure_container.encrypt ~chunk_size:512 ~fragment_size:64
          ~scheme:Secure_container.Ecb_mht ~key p
      in
      match Secure_container.decrypt_all t ~key:other ~verify:true with
      | exception Secure_container.Integrity_failure _ -> true
      | out -> not (String.equal out p))

(* Node tables ------------------------------------------------------------- *)

(* Every chunk's table is the tree over the leaves its own ciphertext
   hashes to, whichever operation made the container. *)
let check_tables what t =
  let fs = Secure_container.fragment_size t in
  for i = 0 to Secure_container.chunk_count t - 1 do
    let cipher = Secure_container.chunk_ciphertext t i in
    let leaves =
      Array.init (Secure_container.fragments_per_chunk t) (fun f ->
          Secure_container.fragment_leaf_hash_sub t ~chunk:i ~fragment:f
            ~cipher ~pos:(f * fs) ~len:fs)
    in
    if Secure_container.chunk_tree t i <> Merkle.tree leaves then
      Alcotest.failf "%s: chunk %d's table is not its ciphertext's tree" what i
  done

(* chunk [i] of [child] kept its ciphertext from [parent], so it must
   share the parent's table, not a rebuilt copy *)
let check_carried what ~parent ~child ~rewritten =
  let kept = min (Secure_container.chunk_count parent) (Secure_container.chunk_count child) in
  for i = 0 to kept - 1 do
    if not (List.mem i rewritten) then
      if Secure_container.chunk_tree child i
         != Secure_container.chunk_tree parent i
      then Alcotest.failf "%s: kept chunk %d rebuilt its table" what i
  done

let test_node_tables () =
  let key = test_key () in
  let p = payload 3000 in
  let t =
    Secure_container.encrypt ~chunk_size:512 ~fragment_size:64
      ~scheme:Secure_container.Ecb_mht ~key p
  in
  check_tables "encrypt" t;
  check_tables "of_bytes" (Secure_container.of_bytes (Secure_container.to_bytes t));
  let edited =
    String.mapi (fun i c -> if i = 1000 then Char.chr (Char.code c lxor 1) else c) p
  in
  List.iter
    (fun (what, p') ->
      let t', rewritten =
        Secure_container.reencrypt t ~key ~old_payload:p ~payload:p'
      in
      check_tables ("reencrypt, " ^ what) t';
      check_carried ("reencrypt, " ^ what) ~parent:t ~child:t' ~rewritten;
      (* the mirror's side: graft the rewritten chunks onto the parent *)
      let full =
        List.map
          (fun i ->
            ( i,
              Secure_container.chunk_version t' i,
              Secure_container.chunk_ciphertext t' i,
              Secure_container.encrypted_digest t' i ))
          rewritten
      in
      let reseals =
        List.init (Secure_container.chunk_count t') (fun i ->
            (i, Secure_container.encrypted_digest t' i))
        |> List.filter (fun (i, _) -> not (List.mem i rewritten))
      in
      match
        Secure_container.patch t
          ~payload_length:(Secure_container.payload_length t')
          ~generation:(Secure_container.generation t')
          ~key_epoch:(Secure_container.key_epoch t') ~full ~reseals
      with
      | Error e -> Alcotest.failf "patch, %s: %s" what e
      | Ok patched ->
          check_tables ("patch, " ^ what) patched;
          check_carried ("patch, " ^ what) ~parent:t ~child:patched ~rewritten;
          check string_t ("patch, " ^ what ^ ": bytes") (Secure_container.to_bytes t')
            (Secure_container.to_bytes patched))
    [
      ("same length", edited);
      ("grown", edited ^ String.make 700 'x');
      ("shrunk", String.sub edited 0 1700);
    ];
  let tampered = Secure_container.substitute_block t ~chunk:2 ~block:5 "XXXXXXXX" in
  check_tables "substitute_block" tampered;
  check_tables "substitute_block's parent" t

let () =
  Alcotest.run "crypto"
    [
      ( "sha1",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "incremental feeding" `Quick test_sha1_incremental;
          Alcotest.test_case "state export/import" `Quick test_sha1_state_roundtrip;
          Alcotest.test_case "finalize is non-destructive" `Quick test_sha1_finalize_idempotent;
          Alcotest.test_case "import rejects garbage" `Quick test_sha1_import_rejects_garbage;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "incremental feeding" `Quick test_sha256_incremental;
          digest_into_agrees "sha1" 20 Sha1.digest Sha1.digest_into;
          digest_into_agrees "sha256" 32 Sha256.digest Sha256.digest_into;
          Alcotest.test_case "digest_into bounds" `Quick test_digest_into_bounds_checked;
        ] );
      ( "aes",
        [
          Alcotest.test_case "FIPS-197 known answer" `Quick test_aes_fips197_vector;
          Alcotest.test_case "key length check" `Quick test_aes_key_length_checked;
          aes_ctr_involution;
          aes_ctr_random_access;
          Alcotest.test_case "CTR misuse rejected" `Quick test_aes_ctr_rejects_misuse;
        ] );
      ( "des",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_des_vectors;
          Alcotest.test_case "3DES with equal keys = DES" `Quick test_triple_des_degenerates_to_des;
          Alcotest.test_case "two-key 3DES" `Quick test_triple_des_two_key_form;
          Alcotest.test_case "key length checks" `Quick test_key_length_checked;
          des_complementation;
          des_roundtrip;
          triple_roundtrip;
        ] );
      ( "modes",
        mode_roundtrips @ mode_into_equivalence
        @ [
            Alcotest.test_case "into-APIs reject misuse" `Quick test_into_rejects_misuse;
            Alcotest.test_case "into-APIs accept len=0" `Quick test_into_zero_length;
            Alcotest.test_case "into-APIs reject aliasing" `Quick test_into_rejects_aliasing;
            Alcotest.test_case "positional base alignment" `Quick
              test_positional_into_rejects_unaligned_base;
            Alcotest.test_case "plain ECB leaks" `Quick test_ecb_leaks_equal_blocks;
            Alcotest.test_case "positional ECB hides" `Quick test_positional_hides_equal_blocks;
            Alcotest.test_case "positional random access" `Quick test_positional_random_access;
            Alcotest.test_case "pad/unpad" `Quick test_pad_unpad;
            Alcotest.test_case "unpad rejects garbage" `Quick test_unpad_rejects_garbage;
          ] );
      ( "bitslice",
        [
          Alcotest.test_case "kernel ≡ scalar across run lengths" `Quick
            test_bitslice_kernel_differential;
          Alcotest.test_case "kernel bounds checks" `Quick
            test_bitslice_kernel_bounds_checked;
          Alcotest.test_case "encrypt kernel ≡ scalar" `Quick
            test_bitslice_encrypt_differential;
          Alcotest.test_case "in-place positional encrypt misuse" `Quick
            test_positional_encrypt_in_place_misuse;
        ]
        @ fast_engine_differential );
      ( "merkle",
        [
          Alcotest.test_case "deterministic root" `Quick test_merkle_root_deterministic;
          Alcotest.test_case "rejects non-power-of-two" `Quick test_merkle_rejects_non_power_of_two;
          Alcotest.test_case "single leaf" `Quick test_merkle_single_leaf;
          Alcotest.test_case "paper Figure F1 cover" `Quick test_merkle_cover_matches_paper_figure;
          Alcotest.test_case "all ranges verify" `Quick test_merkle_cover_verifies;
          Alcotest.test_case "forged leaf detected" `Quick test_merkle_detects_wrong_leaf;
          merkle_cover_minimal;
          merkle_group_honest;
          merkle_group_leaf_tamper;
          merkle_group_single_leaf;
          merkle_tree_lookup;
        ] );
      ( "container",
        scheme_suites
        @ [
            Alcotest.test_case "cross-chunk substitution detected" `Quick
              test_block_substitution_across_chunks_detected;
            Alcotest.test_case "node tables match their ciphertext" `Quick
              test_node_tables;
            Alcotest.test_case "plain ECB gives no integrity" `Quick
              test_ecb_scheme_has_no_integrity;
            Alcotest.test_case "header validation" `Quick test_container_header_checks;
            Alcotest.test_case "fragment random access" `Quick test_fragment_random_access;
            Alcotest.test_case "geometry validation" `Quick test_invalid_geometry_rejected;
            Alcotest.test_case "bytes ≡ scalar-cipher fixture" `Quick
              test_containers_match_fixture;
          ] );
      ( "fuzz",
        [ prop_any_corruption_detected; prop_wrong_key_never_succeeds_quietly ] );
    ]
