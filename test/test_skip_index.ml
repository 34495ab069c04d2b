(* Tests for the Skip index: bit I/O, all five layouts, decoding, skipping,
   descendant-tag sets, subtree handles, storage statistics. *)

open Xmlac_skip_index
module Tree = Xmlac_xml.Tree
module Event = Xmlac_xml.Event

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let qtest ?(count = 300) name gen ?print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

(* Bit I/O ---------------------------------------------------------------- *)

let test_bits_for () =
  check int_t "value 0" 0 (Bitio.bits_for_value 0);
  check int_t "value 1" 1 (Bitio.bits_for_value 1);
  check int_t "value 255" 8 (Bitio.bits_for_value 255);
  check int_t "value 256" 9 (Bitio.bits_for_value 256);
  check int_t "index 1" 0 (Bitio.bits_for_index 1);
  check int_t "index 2" 1 (Bitio.bits_for_index 2);
  check int_t "index 3" 2 (Bitio.bits_for_index 3);
  check int_t "index 250" 8 (Bitio.bits_for_index 250)

let test_bitio_roundtrip_manual () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w ~width:2 3;
  Bitio.Writer.bits w ~width:5 17;
  Bitio.Writer.bits w ~width:13 4099;
  Bitio.Writer.align w;
  Bitio.Writer.varint w 300;
  Bitio.Writer.bytes w "xy";
  Bitio.Writer.bits w ~width:1 1;
  let s = Bitio.Writer.contents w in
  let r = Bitio.Reader.of_string s in
  check int_t "2 bits" 3 (Bitio.Reader.bits r ~width:2);
  check int_t "5 bits" 17 (Bitio.Reader.bits r ~width:5);
  check int_t "13 bits" 4099 (Bitio.Reader.bits r ~width:13);
  Bitio.Reader.align r;
  check int_t "varint" 300 (Bitio.Reader.varint r);
  check Alcotest.string "bytes" "xy" (Bitio.Reader.bytes r 2);
  check int_t "trailing bit" 1 (Bitio.Reader.bits r ~width:1)

let prop_bitio_roundtrip =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (int_range 1 30 >>= fun width ->
         int_range 0 ((1 lsl width) - 1) >>= fun v -> return (width, v)))
  in
  qtest "bit sequences roundtrip" gen (fun fields ->
      let w = Bitio.Writer.create () in
      List.iter (fun (width, v) -> Bitio.Writer.bits w ~width v) fields;
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      List.for_all (fun (width, v) -> Bitio.Reader.bits r ~width = v) fields)

let prop_varint_roundtrip =
  qtest "varints roundtrip with declared length"
    QCheck2.Gen.(oneof [ int_range 0 1000; int_range 0 1000000000 ])
    (fun v ->
      let w = Bitio.Writer.create () in
      Bitio.Writer.varint w v;
      let s = Bitio.Writer.contents w in
      String.length s = Bitio.varint_length v
      && Bitio.Reader.varint (Bitio.Reader.of_string s) = v)

let test_reader_seek () =
  let r = Bitio.Reader.of_string "abcdef" in
  Bitio.Reader.seek r 3;
  check Alcotest.string "after seek" "def" (Bitio.Reader.bytes r 3);
  check bool_t "at end" true (Bitio.Reader.at_end r)

let test_reader_bounds () =
  let r = Bitio.Reader.of_string "a" in
  ignore (Bitio.Reader.bits r ~width:8);
  Alcotest.check_raises "past end"
    (Error.Error (Error.Corrupt "read past end of input"))
    (fun () -> ignore (Bitio.Reader.bits r ~width:1))

(* Dictionary ------------------------------------------------------------- *)

let test_dict () =
  let d = Dict.of_tags [ "b"; "a"; "b"; "c" ] in
  check int_t "size" 3 (Dict.size d);
  check int_t "index a" 0 (Dict.index d "a");
  check Alcotest.string "tag 2" "c" (Dict.tag d 2);
  check bool_t "missing" true (Dict.index_opt d "z" = None);
  let w = Bitio.Writer.create () in
  Dict.write w d;
  let d' = Dict.read (Bitio.Reader.of_string (Bitio.Writer.contents w)) in
  check int_t "roundtrip size" 3 (Dict.size d');
  check int_t "roundtrip index" 1 (Dict.index d' "b")

(* Encode/decode ---------------------------------------------------------- *)

let decodable = [ Layout.Tc; Layout.Tcs; Layout.Tcsb; Layout.Tcsbr ]

let drain dec =
  let rec go acc =
    match Decoder.next dec with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

let strip_attrs evs =
  List.map
    (function
      | Event.Start { tag; _ } -> Event.Start { tag; attributes = [] }
      | e -> e)
    evs

let roundtrip_layout layout tree =
  let encoded = Encoder.encode ~layout tree in
  let dec = Decoder.of_string encoded in
  let evs = drain dec in
  let expected = strip_attrs (Tree.to_events tree) in
  List.length evs = List.length expected
  && List.for_all2 Event.equal evs expected

let sample_trees =
  [
    Tree.parse "<a/>";
    Tree.parse "<a>text</a>";
    Tree.parse "<a><b/><b>x</b><c><d>yy</d></c></a>";
    Tree.parse "<r><a><b>1</b></a><a><b>2</b><c/></a>mixed</r>";
    Tree.element "deep"
      [ Tree.element "deep" [ Tree.element "deep" [ Tree.text "v" ] ] ];
  ]

let test_roundtrips () =
  List.iter
    (fun layout ->
      List.iteri
        (fun i tree ->
          if not (roundtrip_layout layout tree) then
            Alcotest.failf "%s failed on sample %d" (Layout.to_string layout) i)
        sample_trees)
    decodable

let prop_roundtrip layout =
  qtest
    (Layout.to_string layout ^ " decode ∘ encode = id")
    Testkit.gen_tree ~print:Testkit.tree_print
    (fun tree -> roundtrip_layout layout tree)

let test_nc_is_xml () =
  let tree = Tree.parse "<a><b>x</b></a>" in
  let encoded = Encoder.encode ~layout:Layout.Nc tree in
  check bool_t "NC decoder refuses" true
    (match Decoder.of_string encoded with
    | exception Error.Error (Error.Corrupt _) -> true
    | _ -> false);
  let hdr = Encoder.read_header (Bitio.Reader.of_string encoded) in
  check int_t "element count" 2 hdr.Encoder.element_count;
  let xml =
    String.sub encoded hdr.Encoder.body_start hdr.Encoder.body_size
  in
  check bool_t "NC body reparses" true (Tree.equal tree (Tree.parse xml))

let test_attributes_rejected () =
  let tree = Tree.parse "<a x=\"1\"/>" in
  Alcotest.check_raises "attributes unsupported"
    (Invalid_argument "Skip_index.Encoder: attributes are not representable")
    (fun () -> ignore (Encoder.encode ~layout:Layout.Tcsbr tree))

(* Descendant-tag sets ---------------------------------------------------- *)

let expected_desctags tree =
  (* map from element start order to its strict descendant tag set *)
  let rec go acc node =
    match node with
    | Tree.Text _ -> (acc, [])
    | Tree.Element { children; _ } ->
        let acc, sets =
          List.fold_left
            (fun (acc, sets) child ->
              let acc, s = go acc child in
              ( acc,
                match child with
                | Tree.Element { tag; _ } -> (tag :: s) :: sets
                | Tree.Text _ -> sets ))
            (acc, []) children
        in
        let own = List.sort_uniq compare (List.concat sets) in
        (acc @ [ own ], own)
  in
  (* pre-order: rebuild by walking again *)
  let rec pre acc node =
    match node with
    | Tree.Text _ -> acc
    | Tree.Element { children; _ } ->
        let own =
          let rec collect n =
            match n with
            | Tree.Text _ -> []
            | Tree.Element { tag = _; children; _ } ->
                List.concat_map
                  (fun c ->
                    match c with
                    | Tree.Element { tag; _ } -> tag :: collect c
                    | Tree.Text _ -> [])
                  children
          in
          List.sort_uniq compare (collect node)
        in
        List.fold_left pre (acc @ [ own ]) children
  in
  ignore go;
  pre [] tree

let desctags_reported layout tree =
  let encoded = Encoder.encode ~layout tree in
  let dec = Decoder.of_string encoded in
  let rec go acc =
    match Decoder.next dec with
    | None -> List.rev acc
    | Some (Event.Start _) ->
        let tags = Decoder.descendant_tags dec in
        go (Option.map (List.sort compare) tags :: acc)
    | Some _ -> go acc
  in
  go []

let test_desctags_tcsbr () =
  let tree = Tree.parse "<a><b><c>x</c></b><d/>t</a>" in
  let reported = desctags_reported Layout.Tcsbr tree in
  let expected = List.map Option.some (expected_desctags tree) in
  check bool_t "desc tags match" true (reported = expected)

let prop_desctags layout =
  qtest
    (Layout.to_string layout ^ " advertises exact descendant sets")
    Testkit.gen_tree ~print:Testkit.tree_print
    (fun tree ->
      desctags_reported layout tree
      = List.map Option.some (expected_desctags tree))

let test_desctags_absent_for_tcs () =
  let tree = Tree.parse "<a><b><c>x</c></b></a>" in
  (* intermediate nodes have no bitmaps in TCS; leaves are still known *)
  let reported = desctags_reported Layout.Tcs tree in
  check bool_t "a and b unknown, c known-empty" true
    (reported = [ None; None; Some [] ])

(* Skipping --------------------------------------------------------------- *)

let test_skip_subtree () =
  let tree = Tree.parse "<r><big><x>1</x><y>2</y></big><small>s</small></r>" in
  let encoded = Encoder.encode ~layout:Layout.Tcsbr tree in
  let dec = Decoder.of_string encoded in
  let seen = ref [] in
  let rec go () =
    match Decoder.next dec with
    | None -> ()
    | Some (Event.Start { tag = "big"; _ }) ->
        Decoder.skip dec;
        go ()
    | Some e ->
        seen := Event.to_string e :: !seen;
        go ()
  in
  go ();
  check (Alcotest.list Alcotest.string) "skipped content invisible"
    [ "<r>"; "</big>"; "<small>"; "\"s\""; "</small>"; "</r>" ]
    (List.rev !seen)

let prop_skip_preserves_siblings =
  qtest ~count:200 "skipping any first child leaves the rest intact"
    Testkit.gen_tree ~print:Testkit.tree_print (fun tree ->
      let encoded = Encoder.encode ~layout:Layout.Tcsbr tree in
      let with_skip =
        let dec = Decoder.of_string encoded in
        let skipped_one = ref false in
        let rec go depth acc =
          match Decoder.next dec with
          | None -> List.rev acc
          | Some (Event.Start _ as e) when depth = 1 && not !skipped_one ->
              skipped_one := true;
              Decoder.skip dec;
              go depth (e :: acc)
          | Some e -> go (Event.depth_after depth e) (e :: acc)
        in
        go 0 []
      in
      let without_skip =
        (* reference: drop the first top-level element subtree's inner events *)
        let dec = Decoder.of_string encoded in
        let rec go depth ~dropping ~dropped acc =
          match Decoder.next dec with
          | None -> List.rev acc
          | Some e ->
              let depth' = Event.depth_after depth e in
              if dropping then
                if depth' = 1 then
                  (* the End that closes the dropped subtree *)
                  go depth' ~dropping:false ~dropped:true (e :: acc)
                else go depth' ~dropping ~dropped acc
              else if (not dropped) && depth = 1 && depth' = 2 then
                (* first top-level Start: keep it, drop its content *)
                go depth' ~dropping:true ~dropped (e :: acc)
              else go depth' ~dropping ~dropped (e :: acc)
        in
        go 0 ~dropping:false ~dropped:false []
      in
      List.length with_skip = List.length without_skip
      && List.for_all2 Event.equal with_skip without_skip)

let test_skip_not_available_in_tc () =
  let tree = Tree.parse "<a><b/></a>" in
  let dec = Decoder.of_string (Encoder.encode ~layout:Layout.Tc tree) in
  check bool_t "cannot skip" false (Decoder.can_skip dec);
  ignore (Decoder.next dec);
  ignore (Decoder.next dec);
  Alcotest.check_raises "skip refused"
    (Invalid_argument "Skip_index.Decoder: this layout cannot skip")
    (fun () -> Decoder.skip dec)

let test_skip_requires_start_position () =
  let tree = Tree.parse "<a>t<b/></a>" in
  let dec = Decoder.of_string (Encoder.encode ~layout:Layout.Tcsbr tree) in
  ignore (Decoder.next dec);
  ignore (Decoder.next dec);
  (* after a Text event *)
  Alcotest.check_raises "skip refused"
    (Invalid_argument "Skip_index.Decoder: not positioned right after a Start event")
    (fun () -> Decoder.skip dec)

(* Subtree handles (pending read-back) ------------------------------------ *)

let test_subtree_handle_readback () =
  let tree = Tree.parse "<r><keep>1</keep><pend><in1>x</in1><in2/></pend><after/></r>" in
  let encoded = Encoder.encode ~layout:Layout.Tcsbr tree in
  let dec = Decoder.of_string encoded in
  let handle = ref None in
  let rec go () =
    match Decoder.next dec with
    | None -> ()
    | Some (Event.Start { tag = "pend"; _ }) ->
        handle := Some (Decoder.subtree_handle dec);
        Decoder.skip dec;
        go ()
    | Some _ -> go ()
  in
  go ();
  match !handle with
  | None -> Alcotest.fail "no handle captured"
  | Some h ->
      check Alcotest.string "handle tag" "pend" (Decoder.handle_tag h);
      let evs = Decoder.read_subtree dec h in
      let expected =
        strip_attrs (Tree.to_events (Tree.parse "<pend><in1>x</in1><in2/></pend>"))
      in
      check bool_t "read-back equals subtree" true
        (List.length evs = List.length expected
        && List.for_all2 Event.equal evs expected)

let prop_handle_readback =
  qtest ~count:200 "any first-child handle reads back exactly"
    Testkit.gen_tree ~print:Testkit.tree_print (fun tree ->
      let encoded = Encoder.encode ~layout:Layout.Tcsbr tree in
      let dec = Decoder.of_string encoded in
      (* capture handle of the first top-level element child, if any *)
      let rec hunt depth =
        match Decoder.next dec with
        | None -> None
        | Some (Event.Start { tag; _ }) when depth = 1 ->
            Some (tag, Decoder.subtree_handle dec)
        | Some e -> hunt (Event.depth_after depth e)
      in
      match hunt 0 with
      | None -> true
      | Some (tag, h) ->
          let evs = Decoder.read_subtree dec h in
          let expected =
            match tree with
            | Tree.Element { children; _ } ->
                List.find_map
                  (function
                    | Tree.Element { tag = t; _ } as sub when t = tag ->
                        Some (strip_attrs (Tree.to_events sub))
                    | _ -> None)
                  children
            | _ -> None
          in
          (match expected with
          | Some exp ->
              List.length evs = List.length exp && List.for_all2 Event.equal evs exp
          | None -> false))

let test_rest_handle_and_read_range () =
  let tree = Tree.parse "<r><a>1</a><b>2</b><c>3</c></r>" in
  let dec = Decoder.of_string (Encoder.encode ~layout:Layout.Tcsbr tree) in
  (* consume <r><a>1</a>: the rest of r's content is <b>2</b><c>3</c> *)
  let rec consume n = if n > 0 then (ignore (Decoder.next dec); consume (n - 1)) in
  consume 4;
  (match Decoder.rest_handle dec with
  | None -> Alcotest.fail "rest handle expected"
  | Some h ->
      check bool_t "range has positive size" true (Decoder.range_size h > 0);
      let evs = Decoder.read_range dec h in
      let expected =
        strip_attrs
          (Tree.to_events (Tree.parse "<x><b>2</b><c>3</c></x>"))
        |> List.filter (fun e -> Event.tag e <> Some "x")
      in
      check bool_t "range decodes the remaining siblings" true
        (List.length evs = List.length expected
        && List.for_all2 Event.equal evs expected));
  (* skip the rest: only </r> remains *)
  Decoder.skip_rest dec;
  (match Decoder.next dec with
  | Some (Event.End "r") -> ()
  | _ -> Alcotest.fail "expected </r> after skip_rest");
  check bool_t "stream exhausted" true (Decoder.next dec = None)

let test_rest_handle_when_nothing_open () =
  let tree = Tree.parse "<r><a>1</a></r>" in
  let dec = Decoder.of_string (Encoder.encode ~layout:Layout.Tcsbr tree) in
  (* before the first event there is no open element *)
  check bool_t "no handle before the root opens" true
    (Decoder.rest_handle dec = None)

let test_decoder_rejects_corrupt_input () =
  let tree = Tree.parse "<r><a>hello</a><b>world</b></r>" in
  let encoded = Encoder.encode ~layout:Layout.Tcsbr tree in
  (* truncation *)
  (match
     let dec = Decoder.of_string (String.sub encoded 0 (String.length encoded - 3)) in
     drain dec
   with
  | exception Error.Error (Error.Corrupt _) -> ()
  | _ -> Alcotest.fail "truncated body accepted");
  (* bad magic *)
  (match Decoder.of_string ("ZZZZ" ^ String.sub encoded 4 (String.length encoded - 4)) with
  | exception Error.Error (Error.Corrupt _) -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* unknown layout byte *)
  let b = Bytes.of_string encoded in
  Bytes.set b 4 '\255';
  match Decoder.of_string (Bytes.to_string b) with
  | exception Error.Error (Error.Corrupt _) -> ()
  | _ -> Alcotest.fail "unknown layout accepted"

let test_fixpoint_on_power_of_two_boundaries () =
  (* documents whose subtree sizes hover around powers of two exercise the
     width fixpoint: text lengths 120..140 straddle the 127/128 boundary of
     a 7-vs-8-bit size field *)
  for len = 120 to 140 do
    let tree =
      Tree.element "r"
        [ Tree.element "a" [ Tree.text (String.make len 'x') ];
          Tree.element "b" [ Tree.text "tail" ] ]
    in
    if not (roundtrip_layout Layout.Tcsbr tree) then
      Alcotest.failf "fixpoint roundtrip failed at text length %d" len
  done

let test_fixpoint_widening_path () =
  (* bodies swept across 2^k boundaries force the fixpoint through its
     widening rounds: a subtree size crossing a varint-width boundary grows
     the header it is stored in, which can push the enclosing sizes — and
     the body's own size width — over the next boundary in turn. Every
     sweep point must converge to a typed Ok and roundtrip exactly. *)
  List.iter
    (fun base ->
      for delta = -24 to 24 do
        let len = max 2 (base + delta) in
        let tree =
          Tree.element "r"
            [
              Tree.element "a" [ Tree.text (String.make (len / 2) 'x') ];
              Tree.element "b"
                [ Tree.element "c" [ Tree.text (String.make (len - (len / 2)) 'y') ] ];
            ]
        in
        List.iter
          (fun layout ->
            (match Encoder.encode_result ~layout tree with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "encode_result %s at %d: %s"
                  (Layout.to_string layout) len (Error.to_string e));
            if not (roundtrip_layout layout tree) then
              Alcotest.failf "%s widening roundtrip failed at %d"
                (Layout.to_string layout) len)
          [ Layout.Tcs; Layout.Tcsb; Layout.Tcsbr ]
      done)
    [ 128; 256; 512; 1024 ]

let test_huge_fanout_roundtrip () =
  let tree =
    Tree.element "root"
      (List.init 3000 (fun i ->
           Tree.element (Printf.sprintf "t%d" (i mod 40)) [ Tree.text (string_of_int i) ]))
  in
  List.iter
    (fun layout ->
      if not (roundtrip_layout layout tree) then
        Alcotest.failf "%s failed on wide document" (Layout.to_string layout))
    decodable

(* Updates ------------------------------------------------------------------ *)

let test_update_apply_semantics () =
  let t = Tree.parse "<a><b>x</b><c><d>y</d></c></a>" in
  let got op = Xmlac_xml.Writer.tree_to_string (Update.apply_to_tree t op) in
  check Alcotest.string "replace" "<a><b>x</b><z>n</z></a>"
    (got (Update.Replace_subtree ([ 1 ], Tree.parse "<z>n</z>")));
  check Alcotest.string "delete" "<a><c><d>y</d></c></a>"
    (got (Update.Delete_subtree [ 0 ]));
  check Alcotest.string "insert" "<a><b>x</b><n></n><c><d>y</d></c></a>"
    (got (Update.Insert_child ([], 1, Tree.parse "<n/>")));
  check Alcotest.string "append" "<a><b>x</b><c><d>y</d></c><n></n></a>"
    (got (Update.Insert_child ([], 2, Tree.parse "<n/>")));
  check Alcotest.string "set text" "<a><b>X2</b><c><d>y</d></c></a>"
    (got (Update.Set_text ([ 0; 0 ], "X2")))

let test_update_rejects_bad_paths () =
  let t = Tree.parse "<a><b>x</b></a>" in
  let expect_invalid op =
    match Update.apply_to_tree t op with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (Update.Delete_subtree []);
  expect_invalid (Update.Delete_subtree [ 5 ]);
  expect_invalid (Update.Set_text ([ 0 ], "z"));
  expect_invalid (Update.Insert_child ([ 0; 0 ], 0, Tree.parse "<q/>"));
  expect_invalid (Update.Insert_child ([], 9, Tree.parse "<q/>"))

let gen_update_case =
  QCheck2.Gen.(
    pair Testkit.gen_tree
      (oneof
         [
           map (fun t -> Update.Insert_child ([], 0, t)) Testkit.gen_tree;
           return (Update.Set_text ([ 0 ], "patched"));
           return (Update.Delete_subtree [ 0 ]);
           map (fun t -> Update.Replace_subtree ([ 0 ], t)) Testkit.gen_tree;
         ]))

let prop_update_encoded_correct layout =
  qtest ~count:200
    (Layout.to_string layout ^ " update_encoded ≡ apply_to_tree")
    gen_update_case
    ~print:(fun (t, _) -> Testkit.tree_print t)
    (fun (tree, op) ->
      (* only run ops that are valid on this tree *)
      match Update.apply_to_tree tree op with
      | exception Invalid_argument _ -> true
      | expected ->
          let encoded = Encoder.encode ~layout tree in
          let encoded', _cost = Update.update_encoded ~layout encoded op in
          Tree.equal expected (Update.decode_tree encoded'))

let test_update_cost_localized () =
  (* same-length text patch: sizes unchanged, rewrite stays local *)
  let tree =
    Tree.parse
      "<r><pad><x>aaaaaaaaaaaaaaaa</x></pad><mid>hello</mid><pad2><y>bbbbbbbbbbbbbbbb</y></pad2></r>"
  in
  let encoded = Encoder.encode ~layout:Layout.Tcsbr tree in
  let _, cost =
    Update.update_encoded ~layout:Layout.Tcsbr encoded
      (Update.Set_text ([ 1; 0 ], "HELLO"))
  in
  check bool_t "no dictionary change" false cost.Update.dictionary_changed;
  check Alcotest.int "sizes preserved" cost.Update.old_bytes cost.Update.new_bytes;
  check bool_t "rewrite is local" true
    (cost.Update.rewritten_bytes <= 16 && cost.Update.unchanged_prefix > 0
   && cost.Update.unchanged_suffix > 0)

let test_update_cost_dictionary_change () =
  let tree = Tree.parse "<r><a>x</a><a>y</a></r>" in
  let encoded = Encoder.encode ~layout:Layout.Tcsbr tree in
  let _, cost =
    Update.update_encoded ~layout:Layout.Tcsbr encoded
      (Update.Insert_child ([], 0, Tree.parse "<brandnew>z</brandnew>"))
  in
  check bool_t "dictionary changed" true cost.Update.dictionary_changed;
  check bool_t "rewrite is large" true
    (cost.Update.rewritten_bytes > cost.Update.new_bytes / 2)

let test_update_grows_sizes_upward () =
  (* growing an inner subtree rewrites its ancestors' size fields: the
     prefix before the edit point shrinks accordingly *)
  let tree = Tree.parse "<r><a><b>x</b></a><c>tail</c></r>" in
  let encoded = Encoder.encode ~layout:Layout.Tcsbr tree in
  let _, cost =
    Update.update_encoded ~layout:Layout.Tcsbr encoded
      (Update.Insert_child ([ 0 ], 1, Tree.parse "<b>morecontent</b>"))
  in
  check bool_t "document grew" true (cost.Update.new_bytes > cost.Update.old_bytes);
  check bool_t "some shared prefix remains" true (cost.Update.unchanged_prefix > 0)

(* The splice against the full re-encode ----------------------------------- *)

(* The cost record straight from its definition in update.mli, byte by
   byte: the oracle both update paths are held to. *)
let naive_cost ~chunk_size ~dictionary_changed a b =
  let la = String.length a and lb = String.length b in
  let shared = min la lb in
  let prefix = ref 0 in
  while !prefix < shared && a.[!prefix] = b.[!prefix] do
    incr prefix
  done;
  let suffix = ref 0 in
  while
    !suffix < min (la - !prefix) (lb - !prefix)
    && a.[la - 1 - !suffix] = b.[lb - 1 - !suffix]
  do
    incr suffix
  done;
  let dirty = ref [] and rewritten = ref 0 in
  let mark c = if not (List.mem c !dirty) then dirty := c :: !dirty in
  for i = 0 to lb - 1 do
    if i >= shared || a.[i] <> b.[i] then begin
      incr rewritten;
      mark (i / chunk_size)
    end
  done;
  if lb < la && lb > 0 then mark ((lb - 1) / chunk_size);
  let dirty = List.sort compare !dirty in
  {
    Update.old_bytes = la;
    new_bytes = lb;
    unchanged_prefix = !prefix;
    unchanged_suffix = !suffix;
    rewritten_bytes = !rewritten;
    chunks_to_reencrypt = List.length dirty;
    chunks_dirty = dirty;
    dictionary_changed;
  }

let binary_layouts = [ Layout.Tc; Layout.Tcs; Layout.Tcsb; Layout.Tcsbr ]

let rec node_paths path node acc =
  let acc = (List.rev path, node) :: acc in
  match node with
  | Tree.Text _ -> acc
  | Tree.Element { children; _ } ->
      snd
        (List.fold_left
           (fun (i, acc) c -> (i + 1, node_paths (i :: path) c acc))
           (0, acc) children)

(* Random edits anywhere in a random tree: all four operations, new nodes
   drawn from the tree itself (the dictionary stays), from fresh trees
   over the same alphabet, as texts long enough to push sizes across
   powers of two, or with a tag the document lacks. *)
let gen_splice_case =
  let open QCheck2.Gen in
  let text = string_size ~gen:(char_range 'a' 'z') (int_range 0 300) in
  Testkit.gen_tree >>= fun tree ->
  let nodes = node_paths [] tree [] in
  let node =
    frequency
      [
        (3, oneofl (List.map snd nodes));
        (1, Testkit.gen_tree);
        (1, map Tree.text text);
        (1, return (Tree.element "zz" [ Tree.text "new" ]));
      ]
  in
  let elements =
    List.filter_map
      (function
        | p, Tree.Element { children; _ } -> Some (p, List.length children)
        | _, Tree.Text _ -> None)
      nodes
  in
  let texts =
    List.filter_map (function p, Tree.Text _ -> Some p | _ -> None) nodes
  in
  let below_root = List.filter (( <> ) []) (List.map fst nodes) in
  let ops =
    [
      ( oneofl elements >>= fun (p, n) ->
        int_range 0 n >>= fun i ->
        node >|= fun t -> Update.Insert_child (p, i, t) );
    ]
    @ (if below_root = [] then []
       else
         [
           map (fun p -> Update.Delete_subtree p) (oneofl below_root);
           ( oneofl below_root >>= fun p ->
             node >|= fun t -> Update.Replace_subtree (p, t) );
         ])
    @
    if texts = [] then []
    else
      [ (oneofl texts >>= fun p -> text >|= fun s -> Update.Set_text (p, s)) ]
  in
  oneof ops >|= fun op -> (tree, op)

let print_case (tree, op) =
  let path p = String.concat "." (List.map string_of_int p) in
  Testkit.tree_print tree ^ " / "
  ^
  match op with
  | Update.Insert_child (p, i, t) ->
      Printf.sprintf "insert %s@%d %s" (path p) i (Testkit.tree_print t)
  | Update.Delete_subtree p -> "delete " ^ path p
  | Update.Replace_subtree (p, t) ->
      Printf.sprintf "replace %s %s" (path p) (Testkit.tree_print t)
  | Update.Set_text (p, s) ->
      Printf.sprintf "set-text %s (%d bytes)" (path p) (String.length s)

(* Same bytes and same cost as the full re-encode, on every binary layout,
   with chunks small enough that costs span several. *)
let splice_agrees layout tree op =
  let chunk_size = 16 in
  let encoded = Encoder.encode ~layout tree in
  match Update.update_encoded_reference ~chunk_size ~layout encoded op with
  | exception Invalid_argument msg -> (
      match Update.update_encoded ~chunk_size ~layout encoded op with
      | exception Invalid_argument msg' -> msg = msg'
      | _ -> false)
  | expected, expected_cost ->
      let got, cost = Update.update_encoded ~chunk_size ~layout encoded op in
      String.equal got expected && cost = expected_cost
      && cost
         = naive_cost ~chunk_size
             ~dictionary_changed:expected_cost.Update.dictionary_changed encoded
             got

let prop_splice_equals_reencode =
  qtest ~count:500
    "splice ≡ full re-encode (bytes and cost, TC/TCS/TCSB/TCSBR)"
    gen_splice_case ~print:print_case (fun (tree, op) ->
      List.for_all (fun layout -> splice_agrees layout tree op) binary_layouts)

(* A deep text whose new length pushes its ancestors' sizes across powers
   of two, up and down: under TCSBR every rebuilt ancestor's other
   children get new headers. *)
let prop_splice_size_crossings =
  let gen =
    QCheck2.Gen.(pair (int_range 0 700) (int_range 0 700))
  in
  qtest ~count:200 "splice across power-of-two sizes" gen
    ~print:(fun (a, b) -> Printf.sprintf "%d -> %d" a b)
    (fun (before, after) ->
      let tree =
        Tree.parse
          (Printf.sprintf
             "<r><a><b><c>%s</c><d>x</d></b><e>y</e></a><f>z</f></r>"
             (String.make before 't'))
      in
      let op = Update.Set_text ([ 0; 0; 0; 0 ], String.make after 'u') in
      List.for_all (fun layout -> splice_agrees layout tree op) binary_layouts)

(* The splice reads part of its input with its own header walker: on
   corrupted bytes it must fail typed (or as a path error, when the
   corruption changed the document's shape), never with a stray exception. *)
let prop_splice_hostile_input =
  let gen =
    QCheck2.Gen.(
      quad Testkit.gen_tree
        (oneofl [ Layout.Tcs; Layout.Tcsb; Layout.Tcsbr ])
        (list_size (int_range 1 3) (pair nat (int_range 0 255)))
        (oneofl
           [
             Update.Insert_child ([], 0, Tree.parse "<a>x</a>");
             Update.Delete_subtree [ 0 ];
             Update.Set_text ([ 0; 0 ], "zz");
             Update.Replace_subtree ([ 0 ], Tree.parse "<b>y</b>");
             Update.Insert_child ([ 0 ], 0, Tree.Text "t");
           ]))
  in
  qtest ~count:500 "splice fails typed on corrupted encodings" gen
    (fun (tree, layout, flips, op) ->
      let enc = Bytes.of_string (Encoder.encode ~layout tree) in
      List.iter
        (fun (i, v) -> Bytes.set enc (i mod Bytes.length enc) (Char.chr v))
        flips;
      match Update.update_encoded ~layout (Bytes.to_string enc) op with
      | _ -> true
      | exception Error.Error _ -> true
      | exception Invalid_argument m ->
          String.length m >= 7 && String.sub m 0 7 = "Update:")

let test_splice_crosses_both_ways () =
  let doc len =
    Tree.parse
      (Printf.sprintf "<r><a><b>%s</b><c>k</c></a><d>tail</d></r>"
         (String.make len 'x'))
  in
  List.iter
    (fun (before, after) ->
      let encoded = Encoder.encode ~layout:Layout.Tcsbr (doc before) in
      let op = Update.Set_text ([ 0; 0; 0 ], String.make after 'y') in
      let spliced = Update.splice ~layout:Layout.Tcsbr encoded op in
      check bool_t
        (Printf.sprintf "%d -> %d spliced, not re-encoded" before after)
        true (spliced <> None);
      check Alcotest.string
        (Printf.sprintf "%d -> %d equals the full encoder" before after)
        (fst (Update.update_encoded_reference ~layout:Layout.Tcsbr encoded op))
        (Option.get spliced))
    [ (200, 300); (300, 200); (100, 140); (140, 100); (250, 260); (260, 250) ]

let test_splice_dictionary_fallback () =
  (* the padding keeps the body well inside one power of two, so the
     document-wide width of TCS/TCSB does not move *)
  let tree =
    Tree.parse
      (Printf.sprintf "<r><a>x</a><b>y</b><a>z</a><p>%s</p></r>"
         (String.make 90 '.'))
  in
  List.iter
    (fun layout ->
      let encoded = Encoder.encode ~layout tree in
      let case name op ~spliced ~changed =
        check bool_t (name ^ " takes the splice") spliced
          (Update.splice ~layout encoded op <> None);
        let got, cost = Update.update_encoded ~layout encoded op in
        let expected, _ = Update.update_encoded_reference ~layout encoded op in
        check Alcotest.string (name ^ " bytes") expected got;
        check bool_t (name ^ " dictionary flag") changed
          cost.Update.dictionary_changed
      in
      let tag = Layout.to_string layout in
      case (tag ^ ": new tag")
        (Update.Insert_child ([], 1, Tree.parse "<q>n</q>"))
        ~spliced:false ~changed:true;
      case (tag ^ ": last b removed") (Update.Delete_subtree [ 1 ])
        ~spliced:false ~changed:true;
      case (tag ^ ": one of two a removed") (Update.Delete_subtree [ 0 ])
        ~spliced:true ~changed:false;
      case (tag ^ ": b replaced by an a")
        (Update.Replace_subtree ([ 1 ], Tree.parse "<a>w</a>"))
        ~spliced:false ~changed:true;
      case (tag ^ ": known tag inserted")
        (Update.Insert_child ([ 1 ], 0, Tree.parse "<a>v</a>"))
        ~spliced:true ~changed:false)
    [ Layout.Tcs; Layout.Tcsb; Layout.Tcsbr ]

let test_splice_rejects_like_apply () =
  let tree = Tree.parse "<a><b>x</b><c><d>y</d></c></a>" in
  List.iter
    (fun layout ->
      let encoded = Encoder.encode ~layout tree in
      let message f =
        match f () with
        | _ -> "accepted"
        | exception Invalid_argument m -> m
      in
      List.iter
        (fun (name, op) ->
          check Alcotest.string
            (Layout.to_string layout ^ ": " ^ name)
            (message (fun () -> Update.apply_to_tree tree op))
            (message (fun () -> Update.update_encoded ~layout encoded op)))
        [
          ("dangling path", Update.Delete_subtree [ 5 ]);
          ( "dangling deep path",
            Update.Replace_subtree ([ 1; 3 ], Tree.parse "<z/>") );
          ("root delete", Update.Delete_subtree []);
          ("Set_text on an element", Update.Set_text ([ 1 ], "t"));
          ("Set_text on the root", Update.Set_text ([], "t"));
          ("path through a text", Update.Delete_subtree [ 0; 0; 0 ]);
          ( "insert under a text",
            Update.Insert_child ([ 0; 0 ], 0, Tree.parse "<q/>") );
          ("bad insert index", Update.Insert_child ([], 9, Tree.parse "<q/>"));
          ("text root", Update.Replace_subtree ([], Tree.Text "t"));
        ])
    binary_layouts

(* Stats ------------------------------------------------------------------ *)

let test_stats_ordering () =
  (* a structure-heavy doc: compression must help, TCSB must cost more than
     TCS, and TCSBR must come back below TCSB *)
  let tree =
    Tree.parse
      "<library><shelf><book><title>aa</title><author>bb</author></book>\
       <book><title>cc</title><author>dd</author></book></shelf>\
       <shelf><book><title>ee</title><author>ff</author></book></shelf></library>"
  in
  let get layout =
    (Stats.measure ~layout tree).Stats.structure_bytes
  in
  let nc = get Layout.Nc
  and tc = get Layout.Tc
  and tcs = get Layout.Tcs
  and tcsb = get Layout.Tcsb
  and tcsbr = get Layout.Tcsbr in
  check bool_t "TC < NC" true (tc < nc);
  check bool_t "TCS >= TC" true (tcs >= tc);
  check bool_t "TCSB >= TCS" true (tcsb >= tcs);
  check bool_t "TCSBR <= TCSB" true (tcsbr <= tcsb)

let test_stats_text_accounting () =
  let tree = Tree.parse "<a><b>hello</b><c>world</c></a>" in
  let s = Stats.measure ~layout:Layout.Tcsbr tree in
  check int_t "text bytes" 10 s.Stats.text_bytes;
  check int_t "structure = encoded - text" s.Stats.structure_bytes
    (s.Stats.encoded_bytes - 10)

let prop_all_layouts_measure =
  qtest ~count:100 "measurement works for every layout on any tree"
    Testkit.gen_tree (fun tree ->
      let all = Stats.measure_all tree in
      List.length all = 5
      && List.for_all (fun s -> s.Stats.encoded_bytes > 0) all)

let () =
  Alcotest.run "skip_index"
    [
      ( "bitio",
        [
          Alcotest.test_case "bits_for" `Quick test_bits_for;
          Alcotest.test_case "manual roundtrip" `Quick test_bitio_roundtrip_manual;
          Alcotest.test_case "reader seek" `Quick test_reader_seek;
          Alcotest.test_case "reader bounds" `Quick test_reader_bounds;
          prop_bitio_roundtrip;
          prop_varint_roundtrip;
        ] );
      ("dict", [ Alcotest.test_case "basic + serialization" `Quick test_dict ]);
      ( "codec",
        [
          Alcotest.test_case "sample roundtrips" `Quick test_roundtrips;
          Alcotest.test_case "NC is raw XML" `Quick test_nc_is_xml;
          Alcotest.test_case "attributes rejected" `Quick test_attributes_rejected;
        ]
        @ List.map prop_roundtrip decodable );
      ( "desctags",
        [
          Alcotest.test_case "TCSBR example" `Quick test_desctags_tcsbr;
          Alcotest.test_case "TCS has no bitmaps" `Quick test_desctags_absent_for_tcs;
          prop_desctags Layout.Tcsb;
          prop_desctags Layout.Tcsbr;
        ] );
      ( "skipping",
        [
          Alcotest.test_case "skip hides content" `Quick test_skip_subtree;
          Alcotest.test_case "TC cannot skip" `Quick test_skip_not_available_in_tc;
          Alcotest.test_case "skip needs a Start" `Quick test_skip_requires_start_position;
          prop_skip_preserves_siblings;
        ] );
      ( "handles",
        [
          Alcotest.test_case "read-back" `Quick test_subtree_handle_readback;
          prop_handle_readback;
          Alcotest.test_case "rest handle + read_range" `Quick test_rest_handle_and_read_range;
          Alcotest.test_case "rest handle needs an open element" `Quick
            test_rest_handle_when_nothing_open;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "corrupt input rejected" `Quick test_decoder_rejects_corrupt_input;
          Alcotest.test_case "size-field width boundaries" `Quick
            test_fixpoint_on_power_of_two_boundaries;
          Alcotest.test_case "fixpoint widening path" `Quick
            test_fixpoint_widening_path;
          Alcotest.test_case "wide documents" `Quick test_huge_fanout_roundtrip;
        ] );
      ( "updates",
        [
          Alcotest.test_case "apply semantics" `Quick test_update_apply_semantics;
          Alcotest.test_case "bad paths rejected" `Quick test_update_rejects_bad_paths;
          Alcotest.test_case "localized cost" `Quick test_update_cost_localized;
          Alcotest.test_case "dictionary change cost" `Quick test_update_cost_dictionary_change;
          Alcotest.test_case "size growth propagates" `Quick test_update_grows_sizes_upward;
          prop_update_encoded_correct Layout.Tcs;
          prop_update_encoded_correct Layout.Tcsb;
          prop_update_encoded_correct Layout.Tcsbr;
          prop_splice_equals_reencode;
          prop_splice_size_crossings;
          prop_splice_hostile_input;
          Alcotest.test_case "splice across powers of two, both ways" `Quick
            test_splice_crosses_both_ways;
          Alcotest.test_case "dictionary changes fall back" `Quick
            test_splice_dictionary_fallback;
          Alcotest.test_case "splice rejects bad edits like apply_to_tree"
            `Quick test_splice_rejects_like_apply;
        ] );
      ( "stats",
        [
          Alcotest.test_case "layout ordering" `Quick test_stats_ordering;
          Alcotest.test_case "text accounting" `Quick test_stats_text_accounting;
          prop_all_layouts_measure;
        ] );
    ]
