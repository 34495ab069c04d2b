module Event = Xmlac_xml.Event

type source = { read : pos:int -> len:int -> string; length : int }

let source_of_string s =
  { read = (fun ~pos ~len -> String.sub s pos len); length = String.length s }

(* Byte-level skip accounting (the paper's Section 7 currency: how much of
   the encoded document the SOE never has to examine). Shared by the
   sub-decoders that re-read pending subtrees, so readback work is counted
   against the same snapshot. *)
type stats = {
  mutable events_decoded : int;
  mutable subtree_skips : int;  (* skip() calls: whole subtrees jumped over *)
  mutable rest_skips : int;  (* skip_rest() calls: element tails jumped over *)
  mutable bytes_skipped : int;  (* encoded bytes never streamed past *)
  mutable readback_subtrees : int;  (* pending regions re-read after a skip *)
  mutable readback_bytes : int;
}

let fresh_stats () =
  {
    events_decoded = 0;
    subtree_skips = 0;
    rest_skips = 0;
    bytes_skipped = 0;
    readback_subtrees = 0;
    readback_bytes = 0;
  }

let stats_metrics (s : stats) : Xmlac_obs.Metrics.t =
  Xmlac_obs.Metrics.
    [
      int "events_decoded" s.events_decoded;
      int "subtree_skips" s.subtree_skips;
      int "rest_skips" s.rest_skips;
      int "bytes_skipped" s.bytes_skipped;
      int "readback_subtrees" s.readback_subtrees;
      int "readback_bytes" s.readback_bytes;
    ]

type frame = {
  tag : string;
  tag_index : int;  (* -1 for the body and for read_range's sentinel *)
  set : int array;  (* DescTag of this element; [||] for leaves / no bitmap *)
  has_set : bool;  (* false when the layout records no bitmaps *)
  size : int;  (* content size in bytes; -1 when unknown (TC layout) *)
  content_start : int;
}

(* content_start + size; -1 when unknown *)
let end_pos f = if f.size < 0 then -1 else f.content_start + f.size

type t = {
  source : source;
  reader : Bitio.Reader.t;
  hdr : Encoder.header;
  dict : Dict.t;
  body : frame;
      (* the root's parent context: every tag (the TCSB bitmap reference)
         and the body's extent *)
  stats : stats;
  mutable stack : frame list;
  mutable after_start : bool;  (* the last event was a Start *)
  mutable finished : bool;
}

let body_frame (hdr : Encoder.header) ~full_set =
  {
    tag = "";
    tag_index = -1;
    set = full_set;
    has_set = true;
    size = hdr.Encoder.body_size;
    content_start = hdr.Encoder.body_start;
  }

let reader_of_source source =
  Bitio.Reader.create ~read:source.read ~length:source.length

let of_source source =
  let reader = reader_of_source source in
  let hdr = Encoder.read_header reader in
  match hdr.Encoder.dict with
  | None ->
      (* a valid layout, but not one this decoder can stream: callers of the
         binary decoder treat an NC payload like any other undecodable input *)
      Error.corrupt "the NC layout has no binary body"
  | Some dict ->
      {
        source;
        reader;
        hdr;
        dict;
        body = body_frame hdr ~full_set:(Array.init (Dict.size dict) Fun.id);
        stats = fresh_stats ();
        stack = [];
        after_start = false;
        finished = false;
      }

let of_string s = of_source (source_of_string s)

let layout t = t.hdr.Encoder.layout
let dict t = t.dict
let header t = t.hdr
let stats t = t.stats
let position t = Bitio.Reader.position t.reader
let can_skip t = Layout.has_sizes (layout t)

let read_bitmap r reference =
  let selected = ref [] in
  Array.iter
    (fun tag_idx ->
      if Bitio.Reader.bits r ~width:1 = 1 then selected := tag_idx :: !selected)
    reference;
  Array.of_list (List.rev !selected)

(* [of_source] refuses NC inputs, so the layout is never NC below; the
   remaining [assert false] arms on NC are internal invariants, not
   reachable from input bytes. All field values, however, COME from input
   bytes: tag and size fields are range-checked here because their bit
   widths usually allow values beyond the valid range (e.g. a 3-entry
   dictionary is indexed by 2 bits that can also encode 3). *)
let read_element_header r (hdr : Encoder.header) dict ~full_set ~parent
    ~kind =
  let lay = hdr.Encoder.layout in
  let dict_size = Dict.size dict in
  let tag_idx =
    match lay with
    | Layout.Tcsbr ->
        if not parent.has_set then Error.corrupt "missing parent tag set";
        if Array.length parent.set = 0 then
          Error.corrupt "element inside content declared leaf-only";
        let w = Bitio.bits_for_index (Array.length parent.set) in
        let i = Bitio.Reader.bits r ~width:w in
        if i >= Array.length parent.set then
          Error.corrupt "tag code %d outside parent set of %d" i
            (Array.length parent.set);
        parent.set.(i)
    | _ ->
        if dict_size = 0 then Error.corrupt "element with an empty dictionary";
        let i = Bitio.Reader.bits r ~width:(Bitio.bits_for_index dict_size) in
        if i >= dict_size then
          Error.corrupt "tag index %d outside dictionary of %d" i dict_size;
        i
  in
  let size =
    match lay with
    | Layout.Tc -> -1
    | Layout.Tcs | Layout.Tcsb ->
        Bitio.Reader.bits r
          ~width:(Bitio.bits_for_value hdr.Encoder.body_size)
    | Layout.Tcsbr ->
        if parent.size < 0 then Error.corrupt "missing parent size";
        Bitio.Reader.bits r ~width:(Bitio.bits_for_value parent.size)
    | Layout.Nc -> assert false
  in
  let set, has_set =
    (* a leaf has no element children, so its DescTag set is known to be
       empty in every layout *)
    if kind = Wire.kind_leaf then ([||], true)
    else
      match lay with
      | Layout.Tcsbr -> (read_bitmap r parent.set, true)
      | Layout.Tcsb -> (read_bitmap r full_set, true)
      | Layout.Tc | Layout.Tcs -> ([||], false)
      | Layout.Nc -> assert false
  in
  Bitio.Reader.align r;
  let content_start = Bitio.Reader.position r in
  (* a subtree must lie inside its parent's content (or the body, at the
     root): anything else would let hostile sizes aim [skip]/[seek] outside
     the valid region *)
  (if size >= 0 then
     let limit = end_pos parent in
     if limit >= 0 && content_start + size > limit then
       Error.corrupt "subtree size %d overruns its parent (at byte %d)" size
         content_start);
  {
    tag = Dict.tag dict tag_idx;
    tag_index = tag_idx;
    set;
    has_set;
    size;
    content_start;
  }

let read_element t kind =
  let parent = match t.stack with [] -> t.body | f :: _ -> f in
  let frame =
    read_element_header t.reader t.hdr t.dict ~full_set:t.body.set ~parent
      ~kind
  in
  t.stack <- frame :: t.stack;
  t.after_start <- true;
  Event.Start { tag = frame.tag; attributes = [] }

let rec next t : Event.t option =
  let e = next_raw t in
  if e <> None then t.stats.events_decoded <- t.stats.events_decoded + 1;
  e

and next_raw t : Event.t option =
  if t.finished then None
  else begin
    let pop () =
      match t.stack with
      | [] -> Error.corrupt "close marker without an open element"
      | f :: rest ->
          t.stack <- rest;
          if rest = [] then t.finished <- true;
          t.after_start <- false;
          Some (Event.End f.tag)
    in
    (* implicit close: reached the end of the innermost element's content *)
    match t.stack with
    | f :: _ when f.size >= 0 && position t >= f.content_start + f.size ->
        pop ()
    | _ ->
        if Bitio.Reader.at_end t.reader then
          if t.stack = [] then None
          else Error.corrupt "truncated body: %d elements still open"
                 (List.length t.stack)
        else begin
          let kind = Bitio.Reader.bits t.reader ~width:2 in
          if kind = Wire.kind_text then begin
            let len = Bitio.Reader.varint t.reader in
            let s = Bitio.Reader.bytes t.reader len in
            t.after_start <- false;
            Some (Event.Text s)
          end
          else if kind = Wire.kind_close then begin
            (* the closing marker occupies a full padded byte *)
            Bitio.Reader.align t.reader;
            pop ()
          end
          else Some (read_element t kind)
        end
  end

let top_frame_after_start t =
  if not t.after_start then
    invalid_arg "Skip_index.Decoder: not positioned right after a Start event";
  (* internal invariant: [after_start] is only ever set by [read_element],
     which pushes the frame it describes *)
  match t.stack with [] -> assert false | f :: _ -> f

let descendant_tags t =
  if not t.after_start then None
  else
    match t.stack with
    | f :: _ when f.has_set ->
        Some (Array.to_list (Array.map (Dict.tag t.dict) f.set))
    | _ -> None

let skip t =
  let f = top_frame_after_start t in
  if f.size < 0 then invalid_arg "Skip_index.Decoder: this layout cannot skip";
  let stop = end_pos f in
  t.stats.subtree_skips <- t.stats.subtree_skips + 1;
  t.stats.bytes_skipped <-
    t.stats.bytes_skipped + (stop - Bitio.Reader.position t.reader);
  Bitio.Reader.seek t.reader stop;
  t.after_start <- false

(* the element's own frame: its content range and decoding context *)
type subtree_handle = frame

let subtree_handle t =
  let f = top_frame_after_start t in
  if f.size < 0 then
    invalid_arg "Skip_index.Decoder: this layout records no subtree sizes";
  f

let handle_tag h = h.tag
let handle_size h = h.size

type range_handle = {
  r_set : int array;
  r_has_set : bool;
  r_parent_size : int;  (* full content size of the parent, for field widths *)
  r_start : int;
  r_end : int;
}

let rest_handle t =
  match t.stack with
  | [] -> None
  | f :: _ ->
      if f.size < 0 then None
      else
        Some
          {
            r_set = f.set;
            r_has_set = f.has_set;
            r_parent_size = f.size;
            r_start = Bitio.Reader.position t.reader;
            r_end = end_pos f;
          }

let skip_rest t =
  match t.stack with
  | [] -> invalid_arg "Skip_index.Decoder.skip_rest: no open element"
  | f :: _ ->
      if f.size < 0 then
        invalid_arg "Skip_index.Decoder.skip_rest: this layout cannot skip";
      let stop = end_pos f in
      t.stats.rest_skips <- t.stats.rest_skips + 1;
      t.stats.bytes_skipped <-
        t.stats.bytes_skipped + (stop - Bitio.Reader.position t.reader);
      Bitio.Reader.seek t.reader stop;
      t.after_start <- false

let range_size h = h.r_end - h.r_start

(* Readbacks re-read a pending region whose extent is already known, so
   instead of dribbling byte-level reads through the backing channel, the
   whole region is fetched as one slab — bulk reads are the channel
   pipeline's best case — and the sub-decoder parses from memory. The slab
   is block-aligned, so the channel fetches exactly the cipher blocks the
   byte-level reads would have touched. A hostile size field that escapes
   the region maps outside the slab and fails as typed corruption. *)
let slab_source t ~start ~stop =
  let lo = start - (start mod 8) in
  let hi = min t.source.length ((stop + 7) / 8 * 8) in
  let slab = t.source.read ~pos:lo ~len:(hi - lo) in
  {
    read =
      (fun ~pos ~len ->
        if pos < lo || pos + len > hi then
          Error.corrupt "readback outside its region";
        String.sub slab (pos - lo) len);
    length = t.source.length;
  }

let read_subtree t h =
  t.stats.readback_subtrees <- t.stats.readback_subtrees + 1;
  t.stats.readback_bytes <- t.stats.readback_bytes + h.size;
  let sub =
    {
      t with
      reader =
        reader_of_source
          (slab_source t ~start:h.content_start ~stop:(end_pos h));
      stack = [ h ];
      after_start = true;
      finished = false;
    }
  in
  Bitio.Reader.seek sub.reader h.content_start;
  let rec drain acc =
    match next sub with None -> List.rev acc | Some e -> drain (e :: acc)
  in
  Event.Start { tag = h.tag; attributes = [] } :: drain []

let events_result s =
  Error.guard (fun () ->
      let t = of_string s in
      let rec drain acc =
        match next t with None -> List.rev acc | Some e -> drain (e :: acc)
      in
      drain [])

let read_range t h =
  t.stats.readback_subtrees <- t.stats.readback_subtrees + 1;
  t.stats.readback_bytes <- t.stats.readback_bytes + range_size h;
  (* a synthetic frame bounds the range; its closing event is dropped. Its
     size is the parent's, which sets the children's field widths, so its
     content start is placed for the frame to end at the range's end. *)
  let sentinel = "#range" in
  let sub =
    {
      t with
      reader = reader_of_source (slab_source t ~start:h.r_start ~stop:h.r_end);
      stack =
        [
          {
            tag = sentinel;
            tag_index = -1;
            set = h.r_set;
            has_set = h.r_has_set;
            size = h.r_parent_size;
            content_start = h.r_end - h.r_parent_size;
          };
        ];
      after_start = false;
      finished = false;
    }
  in
  Bitio.Reader.seek sub.reader h.r_start;
  let rec drain acc =
    match next sub with
    | None -> List.rev acc
    | Some (Event.End tag) when tag == sentinel && sub.finished -> List.rev acc
    | Some e -> drain (e :: acc)
  in
  drain []
