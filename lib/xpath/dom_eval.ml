module Tree = Xmlac_xml.Tree

type node_id = int list

let compare_id = Stdlib.compare

let rec is_ancestor a b =
  match (a, b) with
  | [], [] -> false
  | [], _ :: _ -> true
  | _ :: _, [] -> false
  | x :: a', y :: b' -> x = y && is_ancestor a' b'

let ancestors id =
  let rec go prefix acc = function
    | [] -> List.rev acc
    | x :: rest -> go (prefix @ [ x ]) (prefix :: acc) rest
  in
  go [] [] id

let node_at tree id =
  let rec go node = function
    | [] -> Some node
    | i :: rest -> (
        match List.nth_opt (Tree.children node) i with
        | Some child -> go child rest
        | None -> None)
  in
  go tree id

(* Indexed element children of a node. *)
let element_children (id, node) =
  Tree.children node
  |> List.mapi (fun i child -> (id @ [ i ], child))
  |> List.filter (fun (_, c) -> match c with Tree.Element _ -> true | _ -> false)

let rec descendants_with_ids (id, node) =
  Tree.children node
  |> List.mapi (fun i child -> (id @ [ i ], child))
  |> List.concat_map (fun (cid, child) ->
         match child with
         | Tree.Element _ -> (cid, child) :: descendants_with_ids (cid, child)
         | Tree.Text _ -> [])

let test_ok test node =
  match (test, node) with
  | Ast.Wildcard, Tree.Element _ -> true
  | Ast.Name n, Tree.Element { tag; _ } -> String.equal n tag
  | _, Tree.Text _ -> false

(* All evaluation below optionally restricts step matches to nodes accepted
   by [filter] (given their absolute ids): this implements queries over the
   authorized view, where a step may only match an authorized element. The
   value of a node for comparisons remains its original text content. *)

let rec predicate_holds_f ~filter (p : Ast.predicate) context =
  let finals = eval_relative ~filter [ context ] p.path in
  match p.condition with
  | None -> finals <> []
  | Some (op, lit) ->
      List.exists
        (fun (_, node) -> Ast.compare_values op (Tree.text_content node) lit)
        finals

and step_filter ~filter (s : Ast.step) candidates =
  List.filter
    (fun (id, node) ->
      test_ok s.test node
      && filter id
      && List.for_all (fun p -> predicate_holds_f ~filter p (id, node)) s.predicates)
    candidates

and eval_relative ~filter contexts steps =
  match steps with
  | [] -> contexts
  | s :: rest ->
      let candidates =
        List.concat_map
          (fun ctx ->
            match s.axis with
            | Ast.Child -> element_children ctx
            | Ast.Descendant -> descendants_with_ids ctx)
          contexts
      in
      let matched = step_filter ~filter s candidates in
      let deduped =
        List.sort_uniq (fun (a, _) (b, _) -> compare_id a b) matched
      in
      eval_relative ~filter deduped rest

let no_filter = fun (_ : node_id) -> true

let select_filtered ~filter (path : Ast.t) tree =
  match path.steps with
  | [] -> []
  | first :: rest ->
      let initial =
        match first.axis with
        | Ast.Child ->
            (* absolute '/step': only the document root can match *)
            step_filter ~filter first [ ([], tree) ]
        | Ast.Descendant ->
            (* absolute '//step': the root or any descendant *)
            step_filter ~filter first
              (([], tree) :: descendants_with_ids ([], tree))
      in
      eval_relative ~filter initial rest |> List.map fst

let select path tree = select_filtered ~filter:no_filter path tree

let matches path tree id = List.exists (fun m -> m = id) (select path tree)
