type node = { level : int; index : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* feed both halves into one context: no [a ^ b] intermediate on the
   verification hot path *)
let combine a b =
  let c = Sha1.init () in
  Sha1.feed c a;
  Sha1.feed c b;
  Sha1.finalize c

let levels leaf_count =
  let rec go l n = if n = 1 then l else go (l + 1) (n / 2) in
  go 0 leaf_count

let root_of_leaves leaves =
  let n = Array.length leaves in
  if not (is_power_of_two n) then
    invalid_arg "Merkle.root_of_leaves: leaf count must be a power of two";
  let rec reduce layer =
    match Array.length layer with
    | 1 -> layer.(0)
    | m ->
        reduce
          (Array.init (m / 2) (fun i -> combine layer.(2 * i) layer.((2 * i) + 1)))
  in
  reduce leaves

let node_hash leaves { level; index } =
  let n = Array.length leaves in
  if not (is_power_of_two n) then
    invalid_arg "Merkle.node_hash: leaf count must be a power of two";
  let width = 1 lsl level in
  if index < 0 || (index + 1) * width > n then invalid_arg "Merkle.node_hash: bad node";
  root_of_leaves (Array.sub leaves (index * width) width)

(* Walk up from the known range; at each level, the range of known node
   indexes shrinks by half and the missing siblings at the boundaries must
   be supplied. *)
let sibling_cover ~leaf_count ~lo ~hi =
  if not (is_power_of_two leaf_count) then
    invalid_arg "Merkle.sibling_cover: leaf count must be a power of two";
  if lo < 0 || hi >= leaf_count || lo > hi then
    invalid_arg "Merkle.sibling_cover: bad range";
  let rec go level lo hi acc =
    if 1 lsl level >= leaf_count then List.rev acc
    else begin
      let acc = if lo land 1 = 1 then { level; index = lo - 1 } :: acc else acc in
      let acc = if hi land 1 = 0 then { level; index = hi + 1 } :: acc else acc in
      go (level + 1) (lo / 2) (hi / 2) acc
    end
  in
  go 0 lo hi []

let root_from_cover ~leaf_count ~known ~supplied =
  if not (is_power_of_two leaf_count) then
    invalid_arg "Merkle.root_from_cover: leaf count must be a power of two";
  let table = Hashtbl.create 32 in
  List.iter (fun (i, h) -> Hashtbl.replace table (0, i) h) known;
  List.iter (fun ({ level; index }, h) -> Hashtbl.replace table (level, index) h) supplied;
  let rec hash_of level index =
    match Hashtbl.find_opt table (level, index) with
    | Some h -> Some h
    | None ->
        if level = 0 then None
        else
          Option.bind (hash_of (level - 1) (2 * index)) (fun l ->
              Option.map (fun r -> combine l r) (hash_of (level - 1) ((2 * index) + 1)))
  in
  hash_of (levels leaf_count) 0

let root_from_group ~leaf_count group =
  let known = List.map (fun (i, h, _) -> (i, h)) group in
  let holds_known { level; index } =
    let w = 1 lsl level in
    List.exists (fun (i, _) -> i >= index * w && i < (index + 1) * w) known
  in
  let supplied =
    List.concat_map
      (fun (i, _, digests) ->
        List.combine (sibling_cover ~leaf_count ~lo:i ~hi:i) digests)
      group
    |> List.filter (fun (n, _) -> not (holds_known n))
  in
  root_from_cover ~leaf_count ~known ~supplied
