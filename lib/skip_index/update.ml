module Tree = Xmlac_xml.Tree

type path = int list

type operation =
  | Replace_subtree of path * Tree.t
  | Insert_child of path * int * Tree.t
  | Delete_subtree of path
  | Set_text of path * string

let rec edit_at node path ~(f : Tree.t -> Tree.t option) : Tree.t option =
  match path with
  | [] -> f node
  | i :: rest -> (
      match node with
      | Tree.Text _ -> invalid_arg "Update: path descends into a text node"
      | Tree.Element { tag; attributes; children } ->
          if i < 0 || i >= List.length children then
            invalid_arg "Update: dangling path";
          let children =
            List.concat
              (List.mapi
                 (fun j child ->
                   if j <> i then [ child ]
                   else
                     match edit_at child rest ~f with
                     | Some c -> [ c ]
                     | None -> [])
                 children)
          in
          Some (Tree.Element { tag; attributes; children }))

let apply_to_tree tree = function
  | Replace_subtree (path, replacement) -> (
      (match replacement with
      | Tree.Text _ when path = [] ->
          invalid_arg "Update: the root must stay an element"
      | _ -> ());
      match edit_at tree path ~f:(fun _ -> Some replacement) with
      | Some t -> t
      | None -> invalid_arg "Update: cannot delete the root")
  | Delete_subtree path -> (
      if path = [] then invalid_arg "Update: cannot delete the root";
      match edit_at tree path ~f:(fun _ -> None) with
      | Some t -> t
      | None -> invalid_arg "Update: cannot delete the root")
  | Insert_child (parent, index, node) -> (
      let insert parent_node =
        match parent_node with
        | Tree.Text _ -> invalid_arg "Update: cannot insert under a text node"
        | Tree.Element { tag; attributes; children } ->
            let n = List.length children in
            if index < 0 || index > n then invalid_arg "Update: bad insert index";
            let before = List.filteri (fun j _ -> j < index) children in
            let after = List.filteri (fun j _ -> j >= index) children in
            Some (Tree.Element { tag; attributes; children = before @ [ node ] @ after })
      in
      match edit_at tree parent ~f:insert with
      | Some t -> t
      | None -> assert false)
  | Set_text (path, text) -> (
      let set node =
        match node with
        | Tree.Text _ -> Some (Tree.Text text)
        | Tree.Element _ -> invalid_arg "Update: Set_text targets an element"
      in
      if path = [] then invalid_arg "Update: Set_text targets the root";
      match edit_at tree path ~f:set with
      | Some t -> t
      | None -> assert false)

let decode_tree encoded =
  let dec = Decoder.of_string encoded in
  let rec drain acc =
    match Decoder.next dec with None -> List.rev acc | Some e -> drain (e :: acc)
  in
  Tree.of_events (drain [])

type cost = {
  old_bytes : int;
  new_bytes : int;
  unchanged_prefix : int;
  unchanged_suffix : int;
  rewritten_bytes : int;
  chunks_to_reencrypt : int;
  chunks_dirty : int list;
  dictionary_changed : bool;
}

(* The diff below compares eight bytes at a time: word loads at the same
   offset of both strings, a differing word then examined bytewise. *)
let word a i = String.get_int64_ne a i

let common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i + 8 <= n && word a !i = word b !i do
    i := !i + 8
  done;
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  !i

let common_suffix ~bound a b =
  let la = String.length a and lb = String.length b in
  let n = min (min la lb) (min (la - bound) (lb - bound)) in
  let i = ref 0 in
  while !i + 8 <= n && word a (la - 8 - !i) = word b (lb - 8 - !i) do
    i := !i + 8
  done;
  while !i < n && a.[la - 1 - !i] = b.[lb - 1 - !i] do
    incr i
  done;
  !i

(* The container binds every cipher block to its absolute position, so
   re-encryption is needed exactly where the new encoding differs from the
   old one *at the same position* — a shifted tail counts in full, a
   truncated tail costs nothing. One pass over the shared range flags the
   chunks in a bool array. *)
let cost_of ~chunk_size ~dictionary_changed encoded encoded' =
  let unchanged_prefix = common_prefix encoded encoded' in
  let unchanged_suffix = common_suffix ~bound:unchanged_prefix encoded encoded' in
  let old_len = String.length encoded and new_len = String.length encoded' in
  let shared = min old_len new_len in
  let dirty =
    Array.make (max 1 ((new_len + chunk_size - 1) / chunk_size)) false
  in
  let rewritten_bytes = ref (new_len - shared) in
  if new_len > shared then
    for c = shared / chunk_size to (new_len - 1) / chunk_size do
      dirty.(c) <- true
    done;
  let differs i =
    if encoded.[i] <> encoded'.[i] then begin
      incr rewritten_bytes;
      dirty.(i / chunk_size) <- true
    end
  in
  let i = ref 0 in
  while !i + 8 <= shared do
    let x = Int64.logxor (word encoded !i) (word encoded' !i) in
    if x <> 0L then
      if chunk_size land 7 = 0 then begin
        (* the word lies in one chunk: count its non-zero bytes by folding
           each byte onto its low bit and summing the low bits *)
        let x = Int64.logor x (Int64.shift_right_logical x 4) in
        let x = Int64.logor x (Int64.shift_right_logical x 2) in
        let x = Int64.logor x (Int64.shift_right_logical x 1) in
        let x = Int64.logand x 0x0101010101010101L in
        rewritten_bytes :=
          !rewritten_bytes
          + Int64.to_int
              (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56);
        dirty.(!i / chunk_size) <- true
      end
      else
        for j = !i to !i + 7 do
          differs j
        done;
    i := !i + 8
  done;
  for j = !i to shared - 1 do
    differs j
  done;
  (* shrinking the document truncates trailing chunks: the last surviving
     chunk must be re-sealed even if its bytes are unchanged *)
  if new_len < old_len && new_len > 0 then
    dirty.((new_len - 1) / chunk_size) <- true;
  let chunks_dirty = ref [] in
  for c = Array.length dirty - 1 downto 0 do
    if dirty.(c) then chunks_dirty := c :: !chunks_dirty
  done;
  {
    old_bytes = old_len;
    new_bytes = new_len;
    unchanged_prefix;
    unchanged_suffix;
    rewritten_bytes = !rewritten_bytes;
    chunks_to_reencrypt = List.length !chunks_dirty;
    chunks_dirty = !chunks_dirty;
    dictionary_changed;
  }

let update_encoded_reference ?(chunk_size = 2048) ~layout encoded operation =
  if layout = Layout.Nc then invalid_arg "Update: NC layout";
  let tree = decode_tree encoded in
  let old_dict = Dict.of_tree tree in
  let tree' = apply_to_tree tree operation in
  let new_dict = Dict.of_tree tree' in
  let encoded' = Encoder.encode ~layout tree' in
  ( encoded',
    cost_of ~chunk_size
      ~dictionary_changed:(Dict.tags old_dict <> Dict.tags new_dict)
      encoded encoded' )

(* Splice ------------------------------------------------------------------- *)

(* An element as the splice sees it: the fields its header is built from,
   and where its content bytes live — the old encoding for a kept element,
   a fresh encoding for an inserted one. [start] is the position of a
   header that may be reused as it stands, -1 when there is none (an
   inserted element, or one rebuilt on the edit path). *)
type elem = {
  tag : int;
  set : int array;  (* descendant tags, sorted; [||] for a leaf and under TCS *)
  intermediate : bool;
  size : int;  (* content size *)
  src : string;
  start : int;
  content : int;
}

type child =
  | Elem of elem
  | Text of { src : string; start : int; stop : int }
  | Below  (* the element on the edit path, rebuilt from the level below *)

type walk = {
  enc : string;
  r : Bitio.Reader.t;
  hdr : Encoder.header;
  dict : Dict.t;
  full_set : int array;
  layout : Layout.t;
  dict_size : int;
  width : int;  (* the document-wide size width of TCS/TCSB *)
}

(* Read the node at [pos] inside [parent]; element headers go through the
   decoder's own reader, with its range and overrun checks. *)
let read_child w ~parent pos =
  let r = w.r in
  Bitio.Reader.seek r pos;
  let kind = Bitio.Reader.bits r ~width:2 in
  if kind = Wire.kind_text then begin
    let len = Bitio.Reader.varint r in
    let stop = Bitio.Reader.position r + len in
    if stop > String.length w.enc then Error.corrupt "text overruns the body";
    Text { src = w.enc; start = pos; stop }
  end
  else if kind = Wire.kind_close then
    Error.corrupt "close marker in a sized layout"
  else
    let f =
      Decoder.read_element_header r w.hdr w.dict ~full_set:w.full_set ~parent
        ~kind
    in
    Elem
      {
        tag = f.Decoder.tag_index;
        set = f.Decoder.set;
        intermediate = kind = Wire.kind_intermediate;
        size = f.Decoder.size;
        src = w.enc;
        start = pos;
        content = f.Decoder.content_start;
      }

(* The children of an old element, found by skipping from header to
   header. *)
let children w e =
  let stop = e.content + e.size in
  (* [has_set] matters only under TCSBR, where every element has a set *)
  let parent =
    {
      Decoder.tag = "";
      tag_index = e.tag;
      set = e.set;
      has_set = true;
      size = e.size;
      content_start = e.content;
    }
  in
  let rec go pos acc =
    if pos >= stop then begin
      if pos > stop then Error.corrupt "child overruns its parent";
      Array.of_list (List.rev acc)
    end
    else
      let c = read_child w ~parent pos in
      let next =
        match c with
        | Elem c -> c.content + c.size
        | Text t -> t.stop
        | Below -> assert false
      in
      go next (c :: acc)
  in
  go e.content []

(* Every element strictly below [e] in document order, except the subtree
   whose header sits at [skip]; [f] returning [false] stops the walk. *)
let iter_elements ?(skip = -1) w e f =
  let exception Stop in
  let rec go e =
    Array.iter
      (function
        | Elem c when c.start <> skip ->
            if not (f c) then raise Stop;
            go c
        | Elem _ | Text _ | Below -> ())
      (children w e)
  in
  try go e with Stop -> ()

type level = {
  old : elem;  (* the element on the path, as encoded *)
  entries : child array;  (* its new child list *)
}

(* The element's header, rebuilt under its parent's new context. *)
let header_string w ~pset ~psize e =
  let b = Bitio.Writer.create () in
  Encoder.write_header b w.layout ~dict_size:w.dict_size
    ~global_size_width:w.width ~parent_set:pset ~parent_size:psize ~tag:e.tag
    ~desctag:e.set ~intermediate:e.intermediate ~size:e.size;
  Bitio.Writer.contents b

let union_sets ~dict_size elems =
  let mark = Bytes.make dict_size '\000' in
  List.iter
    (fun e ->
      Bytes.set mark e.tag '\001';
      Array.iter (fun t -> Bytes.set mark t '\001') e.set)
    elems;
  let out = ref [] in
  for t = dict_size - 1 downto 0 do
    if Bytes.get mark t = '\001' then out := t :: !out
  done;
  Array.of_list !out

(* Sizes only grow with the widths they induce, so iterating from 0 reaches
   the least fixpoint — the one the full encoder's rounds reach. *)
let least_fixpoint f =
  let rec go x =
    let x' = f x in
    if x' = x then x else go x'
  in
  go 0

(* Rebuild a path element over its new child list: descendant tags, kind,
   and the content size. Under TCSBR the size is the least fixpoint of the
   children's header widths, iterated from 0 exactly as the full encoder's
   rounds do; under TCS/TCSB the width is document-wide and fixed. *)
let rebuild w ~old ~below entries =
  let elems =
    Array.fold_right
      (fun c acc ->
        match c with
        | Elem e -> e :: acc
        | Below -> Option.get below :: acc
        | Text _ -> acc)
      entries []
  in
  let set =
    match w.layout with
    | Layout.Tcs -> [||]
    | _ -> union_sets ~dict_size:w.dict_size elems
  in
  let fixed =
    Array.fold_left
      (fun acc c -> match c with Text t -> acc + t.stop - t.start | _ -> acc)
      0 entries
    + List.fold_left (fun acc e -> acc + e.size) 0 elems
  in
  let n_inter = List.length (List.filter (fun e -> e.intermediate) elems) in
  let n_leaf = List.length elems - n_inter in
  let content_size x =
    let hdr intermediate =
      Encoder.header_length w.layout ~dict_size:w.dict_size
        ~global_size_width:w.width ~parent_set_size:(Array.length set)
        ~parent_size:x ~intermediate
    in
    fixed
    + (if n_inter > 0 then n_inter * hdr true else 0)
    + if n_leaf > 0 then n_leaf * hdr false else 0
  in
  {
    old with
    set;
    intermediate = elems <> [];
    size =
      (match w.layout with
      | Layout.Tcsbr -> least_fixpoint content_size
      | _ -> content_size 0);
    start = -1;
  }

let varint_string v =
  let b = Bitio.Writer.create () in
  Bitio.Writer.varint b v;
  Bitio.Writer.contents b

exception Fallback

(* The splice: walk the old encoding down the edit path with the decoder's
   skips, encode only the new subtree, rebuild the path's headers bottom-up
   and copy every other byte. Raises [Fallback] wherever the full encoder
   must run instead: TC, a layout change, a root replacement, a tag
   entering or leaving the dictionary, or (TCS/TCSB) a change of the
   document-wide size width. *)
let splice_exn ~layout encoded operation =
  let module L = Layout in
  (match layout with
  | L.Tcs | L.Tcsb | L.Tcsbr -> ()
  | L.Nc | L.Tc -> raise Fallback);
  let r = Bitio.Reader.of_string encoded in
  let hdr = Encoder.read_header r in
  if hdr.Encoder.layout <> layout then raise Fallback;
  let dict = match hdr.Encoder.dict with Some d -> d | None -> raise Fallback in
  let dict_size = Dict.size dict in
  let full_set = Array.init dict_size Fun.id in
  let body_size = hdr.Encoder.body_size in
  let width = Bitio.bits_for_value body_size in
  let w =
    { enc = encoded; r; hdr; dict; full_set; layout; dict_size; width }
  in
  (* the operation as (parent path, position, children removed, node
     inserted), with apply_to_tree's argument checks *)
  let parent_path, last =
    let split path =
      match List.rev path with
      | [] -> raise Fallback
      | i :: rev -> (List.rev rev, i)
    in
    match operation with
    | Replace_subtree ([], Tree.Text _) ->
        invalid_arg "Update: the root must stay an element"
    | Replace_subtree (path, _) -> split path
    | Delete_subtree [] -> invalid_arg "Update: cannot delete the root"
    | Delete_subtree path -> split path
    | Set_text ([], _) -> invalid_arg "Update: Set_text targets the root"
    | Set_text (path, _) -> split path
    | Insert_child (parent, index, _) -> (parent, index)
  in
  let root =
    match
      read_child w
        ~parent:(Decoder.body_frame hdr ~full_set)
        hdr.Encoder.body_start
    with
    | Elem e -> e
    | _ -> Error.corrupt "the body does not start with an element"
  in
  (* down the parent path, raising as edit_at does *)
  let rec descend e kids acc = function
    | [] -> List.rev ((e, kids, -1) :: acc)
    | i :: rest -> (
        if i < 0 || i >= Array.length kids then
          invalid_arg "Update: dangling path";
        match kids.(i) with
        | Elem c -> descend c (children w c) ((e, kids, i) :: acc) rest
        | Text _ when rest = [] -> (
            match operation with
            | Insert_child _ ->
                invalid_arg "Update: cannot insert under a text node"
            | _ -> invalid_arg "Update: path descends into a text node")
        | _ -> invalid_arg "Update: path descends into a text node")
  in
  let path = Array.of_list (descend root (children w root) [] parent_path) in
  let m = Array.length path - 1 in
  let _, kids, _ = path.(m) in
  let n = Array.length kids in
  let target () =
    if last < 0 || last >= n then invalid_arg "Update: dangling path";
    kids.(last)
  in
  let removed, inserted =
    match operation with
    | Insert_child (_, _, node) ->
        if last < 0 || last > n then invalid_arg "Update: bad insert index";
        (None, Some node)
    | Replace_subtree (_, node) -> (Some (target ()), Some node)
    | Delete_subtree _ -> (Some (target ()), None)
    | Set_text (_, text) -> (
        match target () with
        | Text _ as t -> (Some t, Some (Tree.Text text))
        | _ -> invalid_arg "Update: Set_text targets an element")
  in
  (* the dictionary must not change: every inserted tag is already in it,
     and (checked below) no tag loses its last occurrence *)
  let inserted_tags =
    match inserted with Some node -> Tree.distinct_tags node | None -> []
  in
  if List.exists (fun t -> Dict.index_opt dict t = None) inserted_tags then
    raise Fallback;
  let removed_elems = ref 0 in
  (match removed with
  | Some (Elem gone) ->
      (* TCS records no descendant-tag sets: every removed tag the inserted
         node does not bring back must occur again outside the removed
         subtree; that scan stops once all have been seen *)
      let missing = ref [] in
      let note c =
        incr removed_elems;
        let tag = Dict.tag dict c.tag in
        if
          layout = L.Tcs
          && not (List.mem tag inserted_tags || List.mem tag !missing)
        then missing := tag :: !missing;
        true
      in
      ignore (note gone : bool);
      iter_elements w gone note;
      let seen c =
        let tag = Dict.tag dict c.tag in
        missing := List.filter (fun t -> t <> tag) !missing;
        !missing <> []
      in
      if !missing <> [] && seen root then
        iter_elements ~skip:gone.start w root seen;
      if !missing <> [] then raise Fallback
  | Some (Text _ | Below) | None -> ());
  let fresh =
    Option.map
      (fun node ->
        match
          Encoder.encode_fragment ~layout ~dict ~global_size_width:w.width node
        with
        | None -> raise Fallback
        | Some (Encoder.Element_fragment f) ->
            Elem
              {
                tag = f.tag;
                set = (if layout = L.Tcs then [||] else f.desctag);
                intermediate = Array.length f.desctag > 0;
                size = f.size;
                src = f.content;
                start = -1;
                content = 0;
              }
        | Some (Encoder.Text_fragment s) ->
            Text { src = s; start = 0; stop = String.length s })
      inserted
  in
  let levels =
    Array.mapi
      (fun k (e, kids, i) ->
        let entries =
          if k < m then Array.mapi (fun j c -> if j = i then Below else c) kids
          else
            let drop = if removed = None then 0 else 1 in
            Array.concat
              [
                Array.sub kids 0 last;
                (match fresh with Some c -> [| c |] | None -> [||]);
                Array.sub kids (last + drop) (n - last - drop);
              ]
        in
        { old = e; entries })
      path
  in
  (* bottom-up: each path element over its new children *)
  let rebuilt = Array.make (m + 1) root in
  for k = m downto 0 do
    let below = if k < m then Some rebuilt.(k + 1) else None in
    rebuilt.(k) <- rebuild w ~old:levels.(k).old ~below levels.(k).entries
  done;
  let root' = rebuilt.(0) in
  (match layout with
  | L.Tcs -> ()
  | _ ->
      let present =
        Array.length root'.set + if Array.mem root'.tag root'.set then 0 else 1
      in
      if present <> dict_size then raise Fallback);
  let element_count =
    hdr.Encoder.element_count - !removed_elems
    + match inserted with Some node -> Tree.count_elements node | None -> 0
  in
  let root_header y =
    Encoder.header_length layout ~dict_size ~global_size_width:w.width
      ~parent_set_size:dict_size ~parent_size:y ~intermediate:root'.intermediate
  in
  let body =
    match layout with
    | L.Tcsbr -> least_fixpoint (fun y -> root_header y + root'.size)
    | _ ->
        (* the full encoder's fixpoint over the document-wide width W
           settles on the least W with bits (body(W)) <= W. The old W is
           kept only if the new body still needs exactly W bits and one bit
           less would not do: body(W-1) >= 2^(W-1), which then also holds
           for every smaller width. Headers shrink by at most one byte each
           from W to W-1, so [element_count] bounds the loss. *)
        let y = root_header 0 + root'.size in
        let shrinks intermediate =
          let h wd =
            Encoder.header_length layout ~dict_size ~global_size_width:wd
              ~parent_set_size:dict_size ~parent_size:0 ~intermediate
          in
          width > 0 && h (width - 1) < h width
        in
        let loss = if shrinks true || shrinks false then element_count else 0 in
        if Bitio.bits_for_value y <> width then raise Fallback;
        if width > 0 && y - loss < 1 lsl (width - 1) then raise Fallback;
        y
  in
  (* emission, into a buffer of the exact final size *)
  let prefix =
    hdr.Encoder.body_start
    - Bitio.varint_length hdr.Encoder.element_count
    - Bitio.varint_length body_size
  in
  let count_s = varint_string element_count and body_s = varint_string body in
  let total = prefix + String.length count_s + String.length body_s + body in
  let out = Bytes.create total in
  let pos = ref 0 in
  (* pending copy from [src], merged while the ranges stay contiguous *)
  let p_src = ref "" and p_start = ref 0 and p_stop = ref 0 in
  let flush () =
    let len = !p_stop - !p_start in
    if len > 0 then begin
      Bytes.blit_string !p_src !p_start out !pos len;
      pos := !pos + len
    end;
    p_src := "";
    p_start := 0;
    p_stop := 0
  in
  let copy src start stop =
    if not (src == !p_src && start = !p_stop) then begin
      flush ();
      p_src := src;
      p_start := start
    end;
    p_stop := stop
  in
  let put s = copy s 0 (String.length s) in
  copy encoded 0 prefix;
  put count_s;
  put body_s;
  let rec emit k ~pset ~psize =
    let e = rebuilt.(k) and old = levels.(k).old in
    put (header_string w ~pset ~psize e);
    let same_context =
      layout <> L.Tcsbr
      || (e.set = old.set
         && Bitio.bits_for_value e.size = Bitio.bits_for_value old.size)
    in
    Array.iter
      (function
        | Text t -> copy t.src t.start t.stop
        | Elem c when same_context && c.start >= 0 ->
            copy c.src c.start (c.content + c.size)
        | Elem c ->
            put (header_string w ~pset:e.set ~psize:e.size c);
            copy c.src c.content (c.content + c.size)
        | Below -> emit (k + 1) ~pset:e.set ~psize:e.size)
      levels.(k).entries
  in
  emit 0 ~pset:full_set ~psize:body;
  flush ();
  if !pos <> total then
    raise (Error.Error (Error.Encode_failure "splice length mismatch"));
  Bytes.unsafe_to_string out

let splice ~layout encoded operation =
  match splice_exn ~layout encoded operation with
  | s -> Some s
  | exception Fallback -> None

let update_encoded ?(chunk_size = 2048) ~layout encoded operation =
  if layout = Layout.Nc then invalid_arg "Update: NC layout";
  match splice_exn ~layout encoded operation with
  | encoded' ->
      (encoded', cost_of ~chunk_size ~dictionary_changed:false encoded encoded')
  | exception Fallback ->
      update_encoded_reference ~chunk_size ~layout encoded operation
