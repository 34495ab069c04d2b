exception Error of string * int

type state = { input : string; mutable pos : int }

let fail st reason = raise (Error (reason, st.pos))
let eof st = st.pos >= String.length st.input
let peek st = st.input.[st.pos]

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.input && String.sub st.input st.pos n = s

let skip st n = st.pos <- st.pos + n

let skip_spaces st =
  while (not (eof st)) && (peek st = ' ' || peek st = '\t') do
    skip st 1
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let read_bareword st =
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    skip st 1
  done;
  if st.pos = start then fail st "expected a name";
  String.sub st.input start (st.pos - start)

let read_quoted st quote =
  skip st 1;
  let start = st.pos in
  while (not (eof st)) && peek st <> quote do
    skip st 1
  done;
  if eof st then fail st "unterminated string literal";
  let s = String.sub st.input start (st.pos - start) in
  skip st 1;
  s

let read_literal st =
  skip_spaces st;
  if eof st then fail st "expected a literal"
  else if peek st = '"' || peek st = '\'' then
    Ast.String (read_quoted st (peek st))
  else begin
    let w = read_bareword st in
    if w = "USER" then Ast.User
    else
      match float_of_string_opt w with
      | Some n -> Ast.Number n
      | None -> Ast.String w
  end

let read_comparison st =
  skip_spaces st;
  if looking_at st "!=" then (skip st 2; Some Ast.Neq)
  else if looking_at st "<=" then (skip st 2; Some Ast.Le)
  else if looking_at st ">=" then (skip st 2; Some Ast.Ge)
  else if looking_at st "=" then (skip st 1; Some Ast.Eq)
  else if looking_at st "<" then (skip st 1; Some Ast.Lt)
  else if looking_at st ">" then (skip st 1; Some Ast.Gt)
  else None

(* A separator before a step: '//' gives the descendant axis, '/' the child
   axis. *)
let read_separator st =
  if looking_at st "//" then (skip st 2; Some Ast.Descendant)
  else if looking_at st "/" then (skip st 1; Some Ast.Child)
  else None

let rec read_step st axis =
  skip_spaces st;
  let test =
    if (not (eof st)) && peek st = '*' then (skip st 1; Ast.Wildcard)
    else Ast.Name (read_bareword st)
  in
  let predicates = read_predicates st [] in
  { Ast.axis; test; predicates }

and read_predicates st acc =
  skip_spaces st;
  if (not (eof st)) && peek st = '[' then begin
    skip st 1;
    let p = read_predicate_body st in
    skip_spaces st;
    if eof st || peek st <> ']' then fail st "expected ']'";
    skip st 1;
    read_predicates st (p :: acc)
  end
  else List.rev acc

and read_predicate_body st =
  skip_spaces st;
  let first_axis =
    if looking_at st "//" then (skip st 2; Ast.Descendant) else Ast.Child
  in
  let first = read_step st first_axis in
  let steps = read_more_steps st [ first ] in
  skip_spaces st;
  let condition =
    match read_comparison st with
    | None -> None
    | Some op -> Some (op, read_literal st)
  in
  { Ast.path = steps; condition }

and read_more_steps st acc =
  skip_spaces st;
  match read_separator st with
  | None -> List.rev acc
  | Some axis -> read_more_steps st (read_step st axis :: acc)

let path input =
  let st = { input; pos = 0 } in
  skip_spaces st;
  match read_separator st with
  | None -> fail st "an absolute path must start with '/' or '//'"
  | Some axis ->
      let first = read_step st axis in
      let steps = read_more_steps st [ first ] in
      skip_spaces st;
      if not (eof st) then fail st "trailing characters after path";
      { Ast.steps }


(* Printing --------------------------------------------------------------- *)

let is_bareword s =
  String.length s > 0
  && String.for_all is_name_char s
  && s <> "USER"
  && float_of_string_opt s = None

let number_to_string n =
  if Float.is_integer n && Float.abs n < 1e15 then
    Printf.sprintf "%.0f" n
  else Printf.sprintf "%.17g" n

let literal_to_buffer b = function
  | Ast.User -> Buffer.add_string b "USER"
  | Ast.Number n -> Buffer.add_string b (number_to_string n)
  | Ast.String s ->
      if is_bareword s then Buffer.add_string b s
      else begin
        Buffer.add_char b '\'';
        Buffer.add_string b s;
        Buffer.add_char b '\''
      end

let comparison_to_string = function
  | Ast.Eq -> "="
  | Ast.Neq -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

let rec step_to_buffer ~leading b (s : Ast.step) =
  (match (s.axis, leading) with
  | Ast.Child, true -> Buffer.add_char b '/'
  | Ast.Child, false -> Buffer.add_char b '/'
  | Ast.Descendant, _ -> Buffer.add_string b "//");
  (match s.test with
  | Ast.Wildcard -> Buffer.add_char b '*'
  | Ast.Name n -> Buffer.add_string b n);
  List.iter (predicate_to_buffer b) s.predicates

and predicate_to_buffer b (p : Ast.predicate) =
  Buffer.add_char b '[';
  (match p.path with
  | [] -> ()
  | first :: rest ->
      (match first.axis with
      | Ast.Child -> ()  (* no leading '/' inside predicates *)
      | Ast.Descendant -> Buffer.add_string b "//");
      (match first.test with
      | Ast.Wildcard -> Buffer.add_char b '*'
      | Ast.Name n -> Buffer.add_string b n);
      List.iter (predicate_to_buffer b) first.predicates;
      List.iter (step_to_buffer ~leading:false b) rest);
  (match p.condition with
  | None -> ()
  | Some (op, lit) ->
      Buffer.add_string b (comparison_to_string op);
      literal_to_buffer b lit);
  Buffer.add_char b ']'

let to_string (t : Ast.t) =
  let b = Buffer.create 64 in
  List.iter (step_to_buffer ~leading:true b) t.steps;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)
