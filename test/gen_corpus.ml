(* Regenerates the triaged regression corpus in test/corpus/.

   Each file is a hostile input that crashed (or could crash) a pipeline
   layer before the typed-error hardening: the filename prefix names the
   trust boundary it targets (xml / skip / container / policy) and the rest
   names the bug class. test_fuzz_regressions.ml replays every file and
   asserts a typed rejection.

   Usage: gen_corpus.exe DIR *)

module Bitio = Xmlac_skip_index.Bitio
module Encoder = Xmlac_skip_index.Encoder
module Layout = Xmlac_skip_index.Layout
module Tree = Xmlac_xml.Tree
module C = Xmlac_crypto.Secure_container

let cases : (string * string) list Lazy.t =
  lazy
    (let be_bytes value width =
       String.init width (fun i ->
           Char.chr ((value lsr (8 * (width - 1 - i))) land 0xFF))
     in
     let tree = Tree.parse "<r><a>hello</a><b><c>world</c></b></r>" in
     let tcsbr = Encoder.encode ~layout:Layout.Tcsbr tree in
     let key = Xmlac_crypto.Des.Triple.key_of_string "xmlac-fuzz-24-byte-key!!" in
     let mht =
       C.to_bytes
         (C.encrypt ~chunk_size:512 ~fragment_size:64 ~scheme:C.Ecb_mht ~key
            tcsbr)
     in
     let set_byte s i c =
       let b = Bytes.of_string s in
       Bytes.set b i c;
       Bytes.to_string b
     in
     let skip_header layout_byte tail =
       let w = Bitio.Writer.create () in
       Bitio.Writer.bytes w "XSKI";
       Bitio.Writer.bits w ~width:8 layout_byte;
       Bitio.Writer.bytes w tail;
       Bitio.Writer.contents w
     in
     (* TC body that closes an element that was never opened *)
     let close_without_open =
       let w = Bitio.Writer.create () in
       Bitio.Writer.bytes w "XSKI";
       Bitio.Writer.bits w ~width:8 (Layout.to_byte Layout.Tc);
       (* dictionary: one tag "a" *)
       Bitio.Writer.varint w 1;
       Bitio.Writer.varint w 1;
       Bitio.Writer.bytes w "a";
       Bitio.Writer.varint w 1 (* element count *);
       Bitio.Writer.varint w 1 (* body size *);
       Bitio.Writer.bits w ~width:2 3 (* kind_close with nothing open *);
       Bitio.Writer.bits w ~width:6 0;
       Bitio.Writer.contents w
     in
     [
       (* xml — Parser.Malformed, never an assert or OOB *)
       ("xml__unclosed_root.bin", "<r><a>hel");
       ("xml__stray_close.bin", "</r>");
       ("xml__mismatched_close.bin", "<r><a></b></r>");
       ("xml__text_outside_root.bin", "stray<r/>trailing");
       ("xml__bad_entity.bin", "<r>&#xZZZZ;</r>");
       ("xml__bad_attr.bin", "<r a=unquoted></r>");
       ("xml__second_root.bin", "<r></r><r2></r2>");
       ("xml__binary_garbage.bin", "\xff\xfe<\x00\x01>");
       (* skip index — previously OCaml [lsl] overflow, allocation bombs,
          assert-false and out-of-bounds reads *)
       ("skip__bad_magic.bin", "ZZZZ" ^ String.sub tcsbr 4 32);
       ("skip__unknown_layout.bin", skip_header 9 "");
       ("skip__nc_body_refused.bin", Encoder.encode ~layout:Layout.Nc tree);
       ( "skip__varint_overflow.bin",
         (* unbounded continuation bits once shifted past bit 62 of the
            OCaml int, yielding negative sizes *)
         skip_header (Layout.to_byte Layout.Tcs) (String.make 12 '\xff') );
       ( "skip__dict_bomb.bin",
         (* dictionary announcing ~2^40 entries: Array.init allocation *)
         let w = Bitio.Writer.create () in
         Bitio.Writer.bytes w "XSKI";
         Bitio.Writer.bits w ~width:8 (Layout.to_byte Layout.Tcs);
         Bitio.Writer.varint w (1 lsl 40);
         Bitio.Writer.contents w );
       ("skip__truncated_header.bin", String.sub tcsbr 0 5);
       ( "skip__truncated_body.bin",
         String.sub tcsbr 0 (String.length tcsbr - 3) );
       ("skip__close_without_open.bin", close_without_open);
       (* container — previously Invalid_argument / String.sub crashes *)
       ("container__truncated_header.bin", "XACR1\x03");
       ("container__bad_magic.bin", set_byte mht 0 'Z');
       ("container__bad_scheme.bin", set_byte mht 5 '\x09');
       ( "container__zero_chunk_size.bin",
         "XACR1\x03" ^ be_bytes 0 4 ^ be_bytes 64 4 ^ be_bytes 0 8 );
       ( "container__payload_overflow.bin",
         (* 8-byte length field overflowing the 63-bit OCaml int into a
            negative value, formerly a String.sub crash in decrypt_all *)
         "XACR1\x03" ^ be_bytes 512 4 ^ be_bytes 64 4
         ^ String.make 8 '\xff'
         ^ String.make 1024 'p' );
       ( "container__oversized_payload.bin",
         "XACR1\x03" ^ be_bytes 512 4 ^ be_bytes 64 4 ^ be_bytes 100_000 8 );
       ( "container__truncated_body.bin",
         String.sub mht 0 (String.length mht - 7) );
       ( "container__scheme_flip.bin",
         (* ECB-MHT bytes relabelled as plain ECB: geometry no longer adds
            up and must be rejected before any decryption *)
         set_byte mht 5 '\x00' );
       (* wire — hostile frames and replies against the terminal protocol;
          the frame reader, both payload decoders and the metadata
          validator must answer with a typed wire error, never an
          exception or a hostile-sized allocation *)
       ("wire__truncated_header.bin", "\x00\x00");
       ("wire__empty_frame.bin", be_bytes 0 4);
       ("wire__oversized_frame.bin", be_bytes (2 * 1024 * 1024) 4 ^ "x");
       ("wire__truncated_body.bin", be_bytes 100 4 ^ "short");
       ("wire__bad_opcode.bin", Xmlac_wire.Frame.encode "\x7f\x00\x00");
       ( "wire__hello_bad_magic.bin",
         Xmlac_wire.Frame.encode "\x01ZZTP\x00\x03" );
       (* a Siblings reply announcing 65535 digests *)
       ("wire__siblings_bomb.bin", "\x86\xff\xff");
       (* a Hash_state reply whose length field exceeds the padded size *)
       ("wire__hash_state_oversize.bin", "\x85\x03\xe8" ^ String.make 92 '\x00');
       (* a handshake advertising a geometry past the allocation cap, at the
          protocol version so it reaches the geometry check *)
       ( "wire__hello_bomb_metadata.bin",
         Xmlac_wire.Protocol.encode_response
           (Xmlac_wire.Protocol.Hello_ok
              {
                Xmlac_wire.Protocol.scheme = C.Ecb_mht;
                chunk_size = 512;
                fragment_size = 64;
                payload_length = ((1 lsl 22) + 1) * 512;
                chunk_count = (1 lsl 22) + 1;
                integrity = true;
                mux = false;
                trace = false;
                generation = 0;
                key_epoch = 0;
              }) );
       (* a hello whose trace-id length field is zero (reserved) *)
       ( "wire__hello_trace_zero_len.bin",
         Xmlac_wire.Frame.encode "\x01XWTP\x00\x03\x02\x00\x00\x00" );
       (* a hello whose container-id length field overshoots the cap *)
       ( "wire__hello_container_bomb.bin",
         Xmlac_wire.Frame.encode "\x01XWTP\x00\x03\x01\xff\xffx" );
       (* policy — Policy.of_string must return Error, never raise *)
       ("policy__bad_sign.bin", "p1 % //a\n");
       ("policy__bad_xpath.bin", "p1 + //a[[[\n");
       ("policy__duplicate_ids.bin", "p1 + //a\np1 - //b\n");
       ("policy__missing_fields.bin", "justoneword\n");
       ("policy__binary_garbage.bin", "\x00\xffp \x01+ //\xfe\n");
     ])

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "corpus" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, bytes) ->
      let oc = open_out_bin (Filename.concat dir name) in
      output_string oc bytes;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" name (String.length bytes))
    (Lazy.force cases)
