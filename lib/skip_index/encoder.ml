module Tree = Xmlac_xml.Tree

type header = {
  layout : Layout.t;
  dict : Dict.t option;
  element_count : int;
  body_start : int;
  body_size : int;
}

(* Annotated tree: dictionary indices, descendant-tag sets (sorted arrays of
   dictionary indices, strict descendants only) and mutable subtree sizes
   refined by the fixpoint. *)
type anode =
  | Elem of {
      tag : int;
      desctag : int array;
      mutable size : int;  (* byte length of the encoded children *)
      children : anode array;
    }
  | Text of string

module Int_set = Set.Make (Int)

let annotate dict tree =
  let rec go = function
    | Tree.Text s -> (Text s, Int_set.empty)
    | Tree.Element { tag; attributes; children } ->
        if attributes <> [] then
          invalid_arg "Skip_index.Encoder: attributes are not representable";
        let annotated = List.map go children in
        let desc =
          List.fold_left
            (fun acc (child, child_desc) ->
              match child with
              | Elem e -> Int_set.add e.tag (Int_set.union child_desc acc)
              | Text _ -> acc)
            Int_set.empty annotated
        in
        ( Elem
            {
              tag = Dict.index dict tag;
              desctag = Array.of_list (Int_set.elements desc);
              size = 0;
              children = Array.of_list (List.map fst annotated);
            },
          desc )
  in
  fst (go tree)

(* Position of [v] in a sorted array. *)
let index_in_set set v =
  let rec go lo hi =
    if lo >= hi then invalid_arg "Skip_index.Encoder: tag not in parent set"
    else
      let mid = (lo + hi) / 2 in
      if set.(mid) = v then mid else if set.(mid) < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length set)

let is_intermediate = function
  | Elem { desctag; _ } -> Array.length desctag > 0
  | Text _ -> false

(* Field widths (tag, size, bitmap) of one element header, given its
   parent's context. In the recursive layout they derive from the parent's
   descendant-tag set and content size; otherwise they are global, and
   [global_size_width] is the width TCS/TCSB derive from the whole body
   size. *)
let widths layout ~dict_size ~global_size_width ~parent_set_size ~parent_size
    ~intermediate =
  match layout with
  | Layout.Nc -> invalid_arg "Skip_index.Encoder: NC has no element headers"
  | Layout.Tc -> (Bitio.bits_for_index dict_size, 0, 0)
  | Layout.Tcs -> (Bitio.bits_for_index dict_size, global_size_width, 0)
  | Layout.Tcsb ->
      ( Bitio.bits_for_index dict_size,
        global_size_width,
        if intermediate then dict_size else 0 )
  | Layout.Tcsbr ->
      ( Bitio.bits_for_index parent_set_size,
        Bitio.bits_for_value parent_size,
        if intermediate then parent_set_size else 0 )

let header_bytes_of_bits bits = (bits + 7) / 8

let header_length layout ~dict_size ~global_size_width ~parent_set_size
    ~parent_size ~intermediate =
  let tag_w, size_w, bitmap_w =
    widths layout ~dict_size ~global_size_width ~parent_set_size ~parent_size
      ~intermediate
  in
  header_bytes_of_bits (2 + tag_w + size_w + bitmap_w)

(* One fixpoint round: recompute every element's encoded-children size using
   the sizes of the previous round for field widths. Returns the body size
   (the encoded size of the root node). *)
let fixpoint_round layout ~dict_size ~global_size_width ~full_set ~prev_body root =
  let rec enc_size ~parent_set ~parent_size node =
    match node with
    | Text s -> Wire.text_overhead (String.length s) + String.length s
    | Elem e ->
        let prev_self = e.size in
        let header =
          header_length layout ~dict_size ~global_size_width
            ~parent_set_size:(Array.length parent_set) ~parent_size
            ~intermediate:(is_intermediate node)
        in
        let content =
          Array.fold_left
            (fun acc child ->
              acc + enc_size ~parent_set:e.desctag ~parent_size:prev_self child)
            0 e.children
        in
        e.size <- content;
        let close = if layout = Layout.Tc then 1 else 0 in
        header + content + close
  in
  enc_size ~parent_set:full_set ~parent_size:prev_body root

let resolve_sizes layout ~dict_size ~full_set root =
  let prev_body = ref 0 in
  let stable = ref false in
  let rounds = ref 0 in
  let body = ref 0 in
  while not !stable do
    incr rounds;
    (* sizes only grow round to round and each growth widens some varint or
       size field, so 64 rounds bound any document an OCaml string can hold;
       the guard is a safety net against a broken sizing model, surfaced as
       a typed error rather than a crash *)
    if !rounds > 64 then
      raise
        (Error.Error
           (Error.Encode_failure
              (Printf.sprintf "size fixpoint did not converge after %d rounds"
                 (!rounds - 1))));
    let global_size_width = Bitio.bits_for_value !prev_body in
    let snapshot =
      (* body size and all element sizes from the previous round *)
      !prev_body
    in
    body :=
      fixpoint_round layout ~dict_size ~global_size_width ~full_set
        ~prev_body:snapshot root;
    if !body = !prev_body then stable := true else prev_body := !body
  done;
  !body

(* A second full pass after the fixpoint converges would find all sizes
   unchanged, so the sizes stored in the nodes are consistent with the
   widths derived from them. *)

(* One element header: kind, tag code, size field and (for the bitmap
   layouts) one membership bit per tag of the reference set, MSB first,
   padded to a byte frontier. [desctag] is only read when the layout
   records bitmaps. *)
let write_header w layout ~dict_size ~global_size_width ~parent_set
    ~parent_size ~tag ~desctag ~intermediate ~size =
  let tag_w, size_w, bitmap_w =
    widths layout ~dict_size ~global_size_width
      ~parent_set_size:(Array.length parent_set) ~parent_size ~intermediate
  in
  Bitio.Writer.bits w ~width:2
    (if intermediate then Wire.kind_intermediate else Wire.kind_leaf);
  let tag_code =
    match layout with Layout.Tcsbr -> index_in_set parent_set tag | _ -> tag
  in
  Bitio.Writer.bits w ~width:tag_w tag_code;
  Bitio.Writer.bits w ~width:size_w size;
  if bitmap_w > 0 then begin
    (* both sets are sorted: one merge walk; written bit by bit since the
       reference set can exceed the word size *)
    let j = ref 0 in
    let bit t =
      while !j < Array.length desctag && desctag.(!j) < t do
        incr j
      done;
      Bitio.Writer.bits w ~width:1
        (if !j < Array.length desctag && desctag.(!j) = t then 1 else 0)
    in
    match layout with
    | Layout.Tcsbr -> Array.iter bit parent_set
    | _ ->
        for t = 0 to dict_size - 1 do
          bit t
        done
  end;
  Bitio.Writer.align w

let rec emit layout ~dict_size ~global_size_width w ~parent_set ~parent_size
    node =
  match node with
  | Text s ->
      Bitio.Writer.bits w ~width:2 Wire.kind_text;
      Bitio.Writer.varint w (String.length s);
      Bitio.Writer.bytes w s
  | Elem e ->
      write_header w layout ~dict_size ~global_size_width ~parent_set
        ~parent_size ~tag:e.tag ~desctag:e.desctag
        ~intermediate:(is_intermediate node) ~size:e.size;
      Array.iter
        (emit layout ~dict_size ~global_size_width w ~parent_set:e.desctag
           ~parent_size:e.size)
        e.children;
      if layout = Layout.Tc then begin
        Bitio.Writer.bits w ~width:2 Wire.kind_close;
        Bitio.Writer.align w
      end

let write_body layout ~dict_size ~body_size ~full_set w root =
  emit layout ~dict_size
    ~global_size_width:(Bitio.bits_for_value body_size)
    w ~parent_set:full_set ~parent_size:body_size root

let encode ~layout tree =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bytes w Wire.magic;
  Bitio.Writer.bits w ~width:8 (Layout.to_byte layout);
  (match layout with
  | Layout.Nc ->
      let xml = Xmlac_xml.Writer.tree_to_string tree in
      Bitio.Writer.varint w (Tree.count_elements tree);
      Bitio.Writer.varint w (String.length xml);
      Bitio.Writer.bytes w xml
  | _ ->
      let dict = Dict.of_tree tree in
      let full_set = Array.init (Dict.size dict) Fun.id in
      let root = annotate dict tree in
      let body_size =
        if Layout.has_sizes layout then
          resolve_sizes layout ~dict_size:(Dict.size dict) ~full_set root
        else
          (* no size fields: a single sizing pass suffices *)
          fixpoint_round layout ~dict_size:(Dict.size dict)
            ~global_size_width:0 ~full_set ~prev_body:0 root
      in
      Dict.write w dict;
      Bitio.Writer.varint w (Tree.count_elements tree);
      Bitio.Writer.varint w body_size;
      write_body layout ~dict_size:(Dict.size dict) ~body_size ~full_set w root);
  Bitio.Writer.contents w

(* Splice building blocks (see the interface). *)

type fragment =
  | Element_fragment of {
      tag : int;
      desctag : int array;
      size : int;
      content : string;
    }
  | Text_fragment of string

let encode_fragment ~layout ~dict ~global_size_width tree =
  let dict_size = Dict.size dict in
  let w = Bitio.Writer.create () in
  match annotate dict tree with
  | Text _ as node ->
      emit layout ~dict_size ~global_size_width w ~parent_set:[||]
        ~parent_size:0 node;
      Some (Text_fragment (Bitio.Writer.contents w))
  | Elem e as node ->
      (* the full encoder's fixpoint, run over the subtree alone under a
         fixed stand-in parent context: an element's content depends only
         on its own subtree (and, under TCS/TCSB, on the document-wide
         width passed in), so the sizes it settles on are the ones the
         whole-document fixpoint reaches *)
      let full_set = Array.init dict_size Fun.id in
      let rec settle prev =
        let total =
          fixpoint_round layout ~dict_size ~global_size_width ~full_set
            ~prev_body:0 node
        in
        if total <> prev then settle total
      in
      settle (-1);
      if
        layout <> Layout.Tcsbr
        && Bitio.bits_for_value e.size > global_size_width
      then None
      else begin
        Array.iter
          (emit layout ~dict_size ~global_size_width w ~parent_set:e.desctag
             ~parent_size:e.size)
          e.children;
        Some
          (Element_fragment
             {
               tag = e.tag;
               desctag = e.desctag;
               size = e.size;
               content = Bitio.Writer.contents w;
             })
      end

let encode_result ~layout tree =
  match encode ~layout tree with
  | s -> Ok s
  | exception Error.Error e -> Error e

(* Sanity bounds shared by both header shapes: the body must fit in the
   source, and every element costs at least one encoded byte, so the
   element count can never exceed the body size. Rejecting absurd values
   here keeps all field widths derived from them within [Bitio]'s limits. *)
let check_header_bounds r ~element_count ~body_size =
  let body_start = Bitio.Reader.position r in
  if body_size > Bitio.Reader.length r - body_start then
    Error.corrupt "body size %d exceeds remaining input" body_size;
  if element_count > body_size then
    Error.corrupt "element count %d exceeds body size %d" element_count
      body_size;
  body_start

let read_header r =
  let m = Bitio.Reader.bytes r (String.length Wire.magic) in
  if m <> Wire.magic then Error.corrupt "bad magic";
  let layout =
    match Layout.of_byte (Bitio.Reader.bits r ~width:8) with
    | Some l -> l
    | None -> Error.corrupt "unknown layout byte"
  in
  match layout with
  | Layout.Nc ->
      let element_count = Bitio.Reader.varint r in
      let body_size = Bitio.Reader.varint r in
      let body_start = check_header_bounds r ~element_count ~body_size in
      { layout; dict = None; element_count; body_start; body_size }
  | _ ->
      let dict = Dict.read r in
      let element_count = Bitio.Reader.varint r in
      let body_size = Bitio.Reader.varint r in
      let body_start = check_header_bounds r ~element_count ~body_size in
      { layout; dict = Some dict; element_count; body_start; body_size }
