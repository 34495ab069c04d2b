exception Malformed of string * int

type cursor = {
  input : string;
  mutable pos : int;
  mutable stack : string list;  (* open elements, innermost first *)
  mutable seen_root : bool;
  mutable done_ : bool;
  mutable pending_end : string option;  (* End queued by an empty-element tag *)
  strip_whitespace : bool;
}

let cursor ?(strip_whitespace = false) input =
  {
    input;
    pos = 0;
    stack = [];
    seen_root = false;
    done_ = false;
    pending_end = None;
    strip_whitespace;
  }

let fail c reason = raise (Malformed (reason, c.pos))
let eof c = c.pos >= String.length c.input
let peek c = c.input.[c.pos]

let advance c n =
  c.pos <- c.pos + n;
  if c.pos > String.length c.input then fail c "unexpected end of input"

let is_space ch = ch = ' ' || ch = '\t' || ch = '\n' || ch = '\r'

let is_name_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || ch = ':'

let is_name_char ch =
  is_name_start ch || (ch >= '0' && ch <= '9') || ch = '-' || ch = '.'

let skip_spaces c =
  while (not (eof c)) && is_space (peek c) do
    c.pos <- c.pos + 1
  done

let looking_at c s =
  let n = String.length s in
  c.pos + n <= String.length c.input && String.sub c.input c.pos n = s

(* Skip until [terminator] included; used for comments, PIs, DOCTYPE. *)
let skip_until c terminator what =
  match
    let rec search i =
      if i + String.length terminator > String.length c.input then None
      else if String.sub c.input i (String.length terminator) = terminator then
        Some i
      else search (i + 1)
    in
    search c.pos
  with
  | Some i -> c.pos <- i + String.length terminator
  | None -> fail c (Printf.sprintf "unterminated %s" what)

let read_name c =
  if eof c || not (is_name_start (peek c)) then fail c "expected a name";
  let start = c.pos in
  while (not (eof c)) && is_name_char (peek c) do
    c.pos <- c.pos + 1
  done;
  String.sub c.input start (c.pos - start)

(* Decode an entity reference starting at '&'. *)
let read_entity c =
  advance c 1;
  let start = c.pos in
  while (not (eof c)) && peek c <> ';' do
    c.pos <- c.pos + 1
  done;
  if eof c then fail c "unterminated entity reference";
  let name = String.sub c.input start (c.pos - start) in
  advance c 1;
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ ->
      if String.length name > 1 && name.[0] = '#' then begin
        let code =
          try
            if name.[1] = 'x' || name.[1] = 'X' then
              int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
            else int_of_string (String.sub name 1 (String.length name - 1))
          with Failure _ -> fail c "bad character reference"
        in
        if code < 0 || code > 0x10FFFF then fail c "character reference out of range";
        (* encode as UTF-8 *)
        let b = Buffer.create 4 in
        if code < 0x80 then Buffer.add_char b (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else if code < 0x10000 then begin
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end;
        Buffer.contents b
      end
      else fail c (Printf.sprintf "unknown entity &%s;" name)

let read_attribute_value c =
  if eof c then fail c "expected attribute value";
  let quote = peek c in
  if quote <> '"' && quote <> '\'' then fail c "attribute value must be quoted";
  advance c 1;
  let b = Buffer.create 16 in
  let rec loop () =
    if eof c then fail c "unterminated attribute value"
    else if peek c = quote then advance c 1
    else if peek c = '&' then begin
      Buffer.add_string b (read_entity c);
      loop ()
    end
    else if peek c = '<' then fail c "'<' in attribute value"
    else begin
      Buffer.add_char b (peek c);
      advance c 1;
      loop ()
    end
  in
  loop ();
  Buffer.contents b

let read_attributes c =
  let rec loop acc =
    skip_spaces c;
    if eof c then fail c "unterminated start tag"
    else if peek c = '>' || peek c = '/' then List.rev acc
    else begin
      let name = read_name c in
      skip_spaces c;
      if eof c || peek c <> '=' then fail c "expected '=' after attribute name";
      advance c 1;
      skip_spaces c;
      let value = read_attribute_value c in
      if List.exists (fun (a : Event.attribute) -> a.name = name) acc then
        fail c (Printf.sprintf "duplicate attribute %s" name);
      loop ({ Event.name; value } :: acc)
    end
  in
  loop []

(* Parse markup at '<'.  Returns an event, or None for skipped markup
   (comment, PI, doctype). *)
let read_markup c : Event.t option =
  if looking_at c "<!--" then begin
    advance c 4;
    skip_until c "-->" "comment";
    None
  end
  else if looking_at c "<![CDATA[" then begin
    advance c 9;
    let start = c.pos in
    skip_until c "]]>" "CDATA section";
    Some (Event.Text (String.sub c.input start (c.pos - 3 - start)))
  end
  else if looking_at c "<!DOCTYPE" then begin
    (* naive: skip to the next '>' not inside an internal subset *)
    advance c 9;
    let depth = ref 0 in
    let rec loop () =
      if eof c then fail c "unterminated DOCTYPE"
      else
        match peek c with
        | '[' ->
            incr depth;
            advance c 1;
            loop ()
        | ']' ->
            decr depth;
            advance c 1;
            loop ()
        | '>' when !depth = 0 -> advance c 1
        | _ ->
            advance c 1;
            loop ()
    in
    loop ();
    None
  end
  else if looking_at c "<?" then begin
    advance c 2;
    skip_until c "?>" "processing instruction";
    None
  end
  else if looking_at c "</" then begin
    advance c 2;
    let name = read_name c in
    skip_spaces c;
    if eof c || peek c <> '>' then fail c "expected '>' in end tag";
    advance c 1;
    (match c.stack with
    | top :: rest when String.equal top name ->
        c.stack <- rest;
        if rest = [] then c.done_ <- true
    | top :: _ ->
        fail c (Printf.sprintf "mismatched end tag </%s>, expected </%s>" name top)
    | [] -> fail c (Printf.sprintf "end tag </%s> without open element" name));
    Some (Event.End name)
  end
  else begin
    advance c 1;
    let name = read_name c in
    let attributes = read_attributes c in
    if eof c then fail c "unterminated start tag";
    if peek c = '/' then begin
      advance c 1;
      if eof c || peek c <> '>' then fail c "expected '/>'";
      advance c 1;
      if c.stack = [] && c.seen_root then fail c "multiple root elements";
      c.seen_root <- true;
      (* Empty-element tag: report the Start now, queue the End event. *)
      c.pending_end <- Some name;
      Some (Event.Start { tag = name; attributes })
    end
    else begin
      if peek c <> '>' then fail c "expected '>' in start tag";
      advance c 1;
      if c.stack = [] && c.seen_root then fail c "multiple root elements";
      c.seen_root <- true;
      c.stack <- name :: c.stack;
      Some (Event.Start { tag = name; attributes })
    end
  end

let read_text c =
  let b = Buffer.create 32 in
  let rec loop () =
    if eof c || peek c = '<' then Buffer.contents b
    else if peek c = '&' then begin
      Buffer.add_string b (read_entity c);
      loop ()
    end
    else begin
      Buffer.add_char b (peek c);
      advance c 1;
      loop ()
    end
  in
  loop ()

(* After the root element only whitespace, comments and PIs are allowed. *)
let rec skip_trailing c =
  skip_spaces c;
  if not (eof c) then
    if looking_at c "<!--" then begin
      advance c 4;
      skip_until c "-->" "comment";
      skip_trailing c
    end
    else if looking_at c "<?" then begin
      advance c 2;
      skip_until c "?>" "processing instruction";
      skip_trailing c
    end
    else fail c "content after root element"

let rec next c : Event.t option =
  match c.pending_end with
  | Some name ->
      c.pending_end <- None;
      if c.stack = [] then c.done_ <- true;
      Some (Event.End name)
  | None ->
      if c.done_ then begin
        skip_trailing c;
        None
      end
      else if eof c then
        if c.stack <> [] then fail c "unexpected end of input: unclosed elements"
        else fail c "empty document: no root element"
      else if peek c = '<' then (
        match read_markup c with None -> next c | Some e -> Some e)
      else begin
        let start_pos = c.pos in
        let text = read_text c in
        if c.stack = [] then
          if String.for_all is_space text then next c
          else begin
            c.pos <- start_pos;
            fail c "text outside root element"
          end
        else if c.strip_whitespace && String.for_all is_space text then next c
        else if text = "" then next c
        else Some (Event.Text text)
      end

let events ?strip_whitespace input =
  let c = cursor ?strip_whitespace input in
  let rec loop acc =
    match next c with None -> List.rev acc | Some e -> loop (e :: acc)
  in
  loop []

let events_result ?strip_whitespace input =
  match events ?strip_whitespace input with
  | evs -> Ok evs
  | exception Malformed (reason, pos) -> Error (reason, pos)

let fold ?strip_whitespace input ~init ~f =
  let c = cursor ?strip_whitespace input in
  let rec loop acc =
    match next c with None -> acc | Some e -> loop (f acc e)
  in
  loop init
