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

(* Heap layout: node 1 is the root, the children of node k are 2k and
   2k + 1, and leaf i of an m-leaf tree is node m + i; slot 0 is unused. *)
let tree_unchecked leaves =
  let m = Array.length leaves in
  let t = Array.make (2 * m) "" in
  Array.blit leaves 0 t m m;
  for k = m - 1 downto 1 do
    t.(k) <- combine t.(2 * k) t.((2 * k) + 1)
  done;
  t

let tree leaves =
  if not (is_power_of_two (Array.length leaves)) then
    invalid_arg "Merkle.tree: leaf count must be a power of two";
  tree_unchecked leaves

let root_of_leaves leaves =
  if not (is_power_of_two (Array.length leaves)) then
    invalid_arg "Merkle.root_of_leaves: leaf count must be a power of two";
  (tree_unchecked leaves).(1)

(* a one-leaf cover holds one node per level, bottom-up: the sibling of
   the leaf, then of each ancestor below the root *)
let siblings tree ~fragment =
  let m = Array.length tree / 2 in
  if fragment < 0 || fragment >= m then invalid_arg "Merkle.siblings: bad fragment";
  let rec up k = if k = 1 then [] else tree.(k lxor 1) :: up (k lsr 1) in
  up (m + fragment)

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
  if not (is_power_of_two leaf_count) then
    invalid_arg "Merkle.root_from_group: leaf count must be a power of two";
  let m = leaf_count in
  let nodes = Array.make (2 * m) "" in
  (* flags, never a digest value a terminal could send: whether a node's
     digest is in [nodes], and whether a known leaf lies at or below it *)
  let present = Array.make (2 * m) false in
  let holds_known = Array.make (2 * m) false in
  let leaf i =
    if i < 0 || i >= m then invalid_arg "Merkle.root_from_group: bad leaf index";
    m + i
  in
  List.iter
    (fun (i, h, _) ->
      let k = leaf i in
      nodes.(k) <- h;
      present.(k) <- true;
      let a = ref k in
      while !a >= 1 && not holds_known.(!a) do
        holds_known.(!a) <- true;
        a := !a lsr 1
      done)
    group;
  (* each member's cover, bottom-up: a digest lands only where no known
     leaf lies below it, so every known leaf reaches the root *)
  List.iter
    (fun (i, _, digests) ->
      let rec place k = function
        | [] -> if k <> 1 then invalid_arg "Merkle.root_from_group: short sibling list"
        | d :: ds ->
            if k = 1 then invalid_arg "Merkle.root_from_group: long sibling list";
            let s = k lxor 1 in
            if not holds_known.(s) then begin
              nodes.(s) <- d;
              present.(s) <- true
            end;
            place (k lsr 1) ds
      in
      place (leaf i) digests)
    group;
  for k = m - 1 downto 1 do
    if (not present.(k)) && present.(2 * k) && present.((2 * k) + 1) then begin
      nodes.(k) <- combine nodes.(2 * k) nodes.((2 * k) + 1);
      present.(k) <- true
    end
  done;
  if present.(1) then Some nodes.(1) else None
