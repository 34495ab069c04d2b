type value = True | False | Unknown

type atom = { id : int; mutable resolution : t option }

and t =
  | Const of bool
  | Atom of atom
  | And of t list
  | Or of t list
  | Not of t

let tru = Const true
let fls = Const false

let counter = ref 0

let atom () =
  incr counter;
  { id = !counter; resolution = None }

let atom_expr a = Atom a
let is_resolved a = a.resolution <> None

let resolve a e = if a.resolution = None then a.resolution <- Some e

(* Constructors with cheap simplification; full evaluation happens lazily in
   [eval] because atoms resolve over time. *)
let conj es =
  let es = List.filter (fun e -> e <> Const true) es in
  if List.exists (fun e -> e = Const false) es then Const false
  else match es with [] -> Const true | [ e ] -> e | es -> And es

let disj es =
  let es = List.filter (fun e -> e <> Const false) es in
  if List.exists (fun e -> e = Const true) es then Const true
  else match es with [] -> Const false | [ e ] -> e | es -> Or es

let neg = function
  | Const b -> Const (not b)
  | Not e -> e
  | e -> Not e

let rec eval = function
  | Const true -> True
  | Const false -> False
  | Atom a -> ( match a.resolution with None -> Unknown | Some e -> eval e)
  | Not e -> (
      match eval e with True -> False | False -> True | Unknown -> Unknown)
  | And es ->
      List.fold_left
        (fun acc e ->
          match (acc, eval e) with
          | False, _ | _, False -> False
          | Unknown, _ | _, Unknown -> Unknown
          | True, True -> True)
        True es
  | Or es ->
      List.fold_left
        (fun acc e ->
          match (acc, eval e) with
          | True, _ | _, True -> True
          | Unknown, _ | _, Unknown -> Unknown
          | False, False -> False)
        False es

let decided e =
  match eval e with True -> Some true | False -> Some false | Unknown -> None

let rec pp ppf = function
  | Const b -> Fmt.bool ppf b
  | Atom a -> (
      match a.resolution with
      | None -> Fmt.pf ppf "?%d" a.id
      | Some e -> Fmt.pf ppf "?%d=%a" a.id pp e)
  | And es -> Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any " ∧ ") pp) es
  | Or es -> Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any " ∨ ") pp) es
  | Not e -> Fmt.pf ppf "¬%a" pp e
