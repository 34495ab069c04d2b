(* Deterministic containers over every scheme: [Secure_container.encrypt]
   at two geometries, [reencrypt] after edits that dirty isolated chunks,
   shift the tail, shrink and extend the payload, and a publisher's
   create, spliced updates and key rotation on each sized layout. Each
   line names a case and gives the SHA-256 of the container's serialized
   bytes, plus the rewritten chunks where there are any.

   containers.expected was produced by this module at commit dd9eb1b,
   where every container was encrypted with the scalar 3DES cipher and
   every update re-encoded the whole document; the tests rebuild the same
   containers and compare. *)

module C = Xmlac_crypto.Secure_container
module Sha256 = Xmlac_crypto.Sha256
module Tree = Xmlac_xml.Tree
module Layout = Xmlac_skip_index.Layout
module Encoder = Xmlac_skip_index.Encoder
module Update = Xmlac_skip_index.Update
module Publisher = Xmlac_dissem.Publisher

let key = Xmlac_crypto.Des.Triple.key_of_string "0123456789abcdefFEDCBA98"
let payload n = String.init n (fun i -> Char.chr (((i * 131) + 7) mod 256))

let line name ?rewritten c =
  Printf.sprintf "%s: %s%s" name
    (Sha256.hex (Sha256.digest (C.to_bytes c)))
    (match rewritten with
    | None -> ""
    | Some l -> " [" ^ String.concat "," (List.map string_of_int l) ^ "]")

let edits p =
  let len = String.length p in
  [
    ("edit", String.mapi (fun i c -> if i mod 1500 = 7 then 'Z' else c) p);
    ( "insert",
      String.sub p 0 (len / 3)
      ^ "inserted"
      ^ String.sub p (len / 3) (len - (len / 3)) );
    ("shrink", String.sub p 0 (len / 2));
    ("extend", p ^ String.make 700 'q');
  ]

let container_lines scheme =
  let name = C.scheme_to_string scheme in
  line
    (Printf.sprintf "%s encrypt 20000 (default geometry)" name)
    (C.encrypt ~scheme ~key (payload 20000))
  :: List.concat_map
       (fun len ->
         let p = payload len in
         let t =
           C.encrypt ~chunk_size:512 ~fragment_size:64 ~generation:3
             ~key_epoch:1 ~scheme ~key p
         in
         line (Printf.sprintf "%s encrypt %d" name len) t
         :: List.map
              (fun (what, p') ->
                let t', rewritten =
                  C.reencrypt t ~key ~old_payload:p ~payload:p'
                in
                line (Printf.sprintf "%s reencrypt %d %s" name len what)
                  ~rewritten t')
              (edits p))
       [ 1; 511; 512; 4000; 9000 ]

let document =
  let folder i =
    Printf.sprintf
      "<Folder><Patient><Name>n%d</Name><Age>%d</Age></Patient><Notes>%s</Notes></Folder>"
      i
      (20 + (i mod 50))
      (String.make (i mod 97) 'x')
  in
  Tree.parse
    ("<Hospital>" ^ String.concat "" (List.init 120 folder) ^ "</Hospital>")

let publisher_lines scheme layout =
  let name =
    Printf.sprintf "%s %s publisher" (C.scheme_to_string scheme)
      (Layout.to_string layout)
  in
  let p =
    Publisher.create ~chunk_size:512 ~fragment_size:64 ~scheme ~master:"s3cret"
      (Encoder.encode ~layout document)
  in
  let created = line (name ^ " create") (Publisher.container p) in
  let updates =
    List.map
      (fun (what, op) ->
        let payload, _ =
          Update.update_encoded ~chunk_size:512 ~layout (Publisher.payload p) op
        in
        let _, rewritten = Publisher.update p ~payload in
        line (name ^ " update " ^ what) ~rewritten (Publisher.container p))
      [
        ( "insert",
          Update.Insert_child
            ([], 1, Tree.parse "<Folder><Age>33</Age></Folder>") );
        ("set-text", Update.Set_text ([ 2; 0; 0; 0 ], "123456789"));
        ( "set-text-long",
          Update.Set_text ([ 40; 1; 0 ], String.make 300 'y') );
        ("delete", Update.Delete_subtree [ 1 ]);
      ]
  in
  ignore (Publisher.rotate p ~revoke:[ "mallory" ]);
  (created :: updates) @ [ line (name ^ " rotate") (Publisher.container p) ]

let lines () =
  List.concat_map container_lines C.all_schemes
  @ List.concat_map
      (fun scheme ->
        List.concat_map (publisher_lines scheme)
          [ Layout.Tcs; Layout.Tcsb; Layout.Tcsbr ])
      C.all_schemes
