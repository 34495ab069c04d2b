type axis = Child | Descendant
type test = Name of string | Wildcard
type comparison = Eq | Neq | Lt | Le | Gt | Ge
type literal = Number of float | String of string | User

type step = { axis : axis; test : test; predicates : predicate list }

and predicate = {
  path : step list;
  condition : (comparison * literal) option;
}

type t = { steps : step list }

let name n = Name n
let path steps = { steps }

let rec resolve_user_step ~user s =
  { s with predicates = List.map (resolve_user_predicate ~user) s.predicates }

and resolve_user_predicate ~user p =
  {
    path = List.map (resolve_user_step ~user) p.path;
    condition =
      (match p.condition with
      | Some (op, User) -> Some (op, String user)
      | other -> other);
  }

let resolve_user ~user t = { steps = List.map (resolve_user_step ~user) t.steps }

let predicate_is_linear p =
  List.for_all (fun s -> s.predicates = []) p.path

let is_linear t =
  List.for_all (fun s -> List.for_all predicate_is_linear s.predicates) t.steps

let trim = String.trim

let compare_op op c = match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let compare_values op node_value lit =
  match lit with
  | User -> invalid_arg "Ast.compare_values: unresolved USER literal"
  | Number n -> (
      match float_of_string_opt (trim node_value) with
      | None -> false
      | Some v -> compare_op op (Float.compare v n))
  | String s -> compare_op op (String.compare (trim node_value) s)

let equal (a : t) (b : t) = a = b

let size t =
  let rec step_size s =
    1
    + List.fold_left
        (fun acc p -> acc + List.fold_left (fun n s -> n + step_size s) 0 p.path)
        0 s.predicates
  in
  List.fold_left (fun n s -> n + step_size s) 0 t.steps
