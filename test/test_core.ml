(* Tests for the access-control core: conflict resolution, the DOM oracle,
   and — centrally — the differential properties stating that the streaming
   evaluator computes exactly the oracle's view, with and without the Skip
   index, with and without queries. *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Event = Xmlac_xml.Event
module Parse = Xmlac_xpath.Parse
module Skip = Xmlac_skip_index

let check = Alcotest.check
let bool_t = Alcotest.bool

let qtest ?(count = 500) name gen ?print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

let tree_opt_t =
  Alcotest.testable
    (Fmt.option ~none:(Fmt.any "<empty>") Tree.pp)
    (fun a b ->
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> Tree.equal a b
      | _ -> false)

let policy_of rules =
  Policy.make
    (List.mapi
       (fun i (sign, path) ->
         Rule.make
           ~id:(Printf.sprintf "R%d" i)
           ~sign:(if sign then Rule.Permit else Rule.Deny)
           path)
       rules)

let xp = Parse.path

(* Conflict resolution ----------------------------------------------------- *)

let status_gen =
  QCheck2.Gen.(
    list_size (int_range 0 4)
      (list_size (int_range 0 3)
         (oneofl
            Conflict.
              [ Positive_active; Positive_pending; Negative_active; Negative_pending ])))

let prop_decide_equivalence =
  qtest ~count:2000 "Figure 4 algorithm ≡ three-valued condition" status_gen
    (fun levels ->
      Conflict.decide_node levels = Conflict.decide_node_via_conditions levels)

let test_decide_paper_cases () =
  let open Conflict in
  (* closed policy *)
  check bool_t "empty stack denies" true (decide_node [] = Deny);
  check bool_t "lone positive permits" true (decide_node [ [ Positive_active ] ] = Permit);
  check bool_t "denial takes precedence" true
    (decide_node [ [ Positive_active; Negative_active ] ] = Deny);
  check bool_t "most specific wins" true
    (decide_node [ [ Negative_active ]; [ Positive_active ] ] = Permit);
  check bool_t "most specific deny wins" true
    (decide_node [ [ Positive_active ]; [ Negative_active ] ] = Deny);
  check bool_t "pending negative blocks same-level positive" true
    (decide_node [ [ Positive_active; Negative_pending ] ] = Pending);
  check bool_t "pending positive over deny stays pending" true
    (decide_node [ [ Negative_active ]; [ Positive_pending ] ] = Pending);
  check bool_t "pending positive over permit is permit" true
    (decide_node [ [ Positive_active ]; [ Positive_pending ] ] = Permit);
  check bool_t "pending negative alone still denies (either way it denies)" true
    (decide_node [ [ Negative_pending ] ] = Deny);
  check bool_t "pending negative over deny is deny" true
    (decide_node [ [ Negative_active ]; [ Negative_pending ] ] = Deny)

(* Oracle ------------------------------------------------------------------ *)

let test_oracle_motivating_semantics () =
  let doc =
    Tree.parse
      "<r><a><b>1</b><secret>x</secret></a><a><b>2</b></a></r>"
  in
  (* permit //a, deny //secret *)
  let policy = policy_of [ (true, xp "//a"); (false, xp "//secret") ] in
  let view = Oracle.authorized_view policy doc in
  check tree_opt_t "secret removed"
    (Some (Tree.parse "<r><a><b>1</b></a><a><b>2</b></a></r>"))
    view

let test_oracle_structural_rule () =
  let doc = Tree.parse "<r><mid><leaf>v</leaf></mid></r>" in
  let policy = policy_of [ (true, xp "//leaf") ] in
  check tree_opt_t "ancestors delivered without their text"
    (Some (Tree.parse "<r><mid><leaf>v</leaf></mid></r>"))
    (Oracle.authorized_view policy doc);
  let doc2 = Tree.parse "<r>t1<mid>t2<leaf>v</leaf></mid></r>" in
  check tree_opt_t "denied ancestors lose their text"
    (Some (Tree.parse "<r><mid><leaf>v</leaf></mid></r>"))
    (Oracle.authorized_view policy doc2)

let test_oracle_dummy_names () =
  let doc = Tree.parse "<r><mid><leaf>v</leaf></mid></r>" in
  let policy = policy_of [ (true, xp "//leaf") ] in
  check tree_opt_t "structural elements dummied"
    (Some (Tree.parse "<X><X><leaf>v</leaf></X></X>"))
    (Oracle.authorized_view ~dummy_denied:"X" policy doc)

let test_oracle_most_specific () =
  let doc = Tree.parse "<r><acts><act><details>d</details><id>1</id></act></acts></r>" in
  let policy =
    policy_of [ (true, xp "//acts"); (false, xp "//act/details") ]
  in
  check tree_opt_t "inner denial carves out subtree"
    (Some (Tree.parse "<r><acts><act><id>1</id></act></acts></r>"))
    (Oracle.authorized_view policy doc)

let test_oracle_deny_then_repermit () =
  let doc = Tree.parse "<r><a><b><c>v</c></b></a></r>" in
  let policy =
    policy_of
      [ (true, xp "/r"); (false, xp "//a"); (true, xp "//a/b/c") ]
  in
  check tree_opt_t "re-permission under denial"
    (Some (Tree.parse "<r><a><b><c>v</c></b></a></r>"))
    (Oracle.authorized_view policy doc)

let test_oracle_empty_when_all_denied () =
  let doc = Tree.parse "<r><a>x</a></r>" in
  check tree_opt_t "closed policy delivers nothing" None
    (Oracle.authorized_view Policy.empty doc);
  let deny_all = policy_of [ (false, xp "//*") ] in
  check tree_opt_t "deny-all delivers nothing" None
    (Oracle.authorized_view deny_all doc)

let test_oracle_query_view () =
  let doc =
    Tree.parse "<r><f><age>10</age><g>a</g></f><f><age>20</age><g>b</g></f></r>"
  in
  let policy = policy_of [ (true, xp "//f") ] in
  let q = xp "//f[age > 15]" in
  check tree_opt_t "query filters folders"
    (Some (Tree.parse "<r><f><age>20</age><g>b</g></f></r>"))
    (Oracle.query_view ~query:q policy doc)

let test_oracle_query_cannot_probe_denied () =
  (* the query predicate names a denied element: it must not match *)
  let doc = Tree.parse "<r><f><secret>1</secret><v>x</v></f></r>" in
  let policy = policy_of [ (true, xp "//f"); (false, xp "//secret") ] in
  let q = xp "//f[secret]" in
  check tree_opt_t "denied element invisible to query predicates" None
    (Oracle.query_view ~query:q policy doc);
  let q2 = xp "//f[v]" in
  check tree_opt_t "authorized sibling visible"
    (Some (Tree.parse "<r><f><v>x</v></f></r>"))
    (Oracle.query_view ~query:q2 policy doc)

(* Streaming evaluator: unit cases ----------------------------------------- *)

let run_stream ?query ?dummy_denied policy doc =
  Evaluator.view_tree
    (Evaluator.run_events ?query ?dummy_denied ~policy (Tree.to_events doc))

let test_input_of_string () =
  (* the lazy-parsing input: same result as pre-parsed events *)
  let xml = "<r><a><b>1</b><secret>x</secret></a></r>" in
  let policy = policy_of [ (true, xp "//a"); (false, xp "//secret") ] in
  let via_string =
    Evaluator.view_tree (Evaluator.run ~policy (Input.of_string xml))
  in
  let via_events = run_stream policy (Tree.parse xml) in
  check tree_opt_t "of_string ≡ of_events"
    via_events via_string

let test_printers_do_not_crash () =
  let policy = policy_of [ (true, xp "//a[b = 1]/c"); (false, xp "//d") ] in
  let rendered = Fmt.str "%a" Policy.pp policy in
  check bool_t "policy printer output non-empty" true (String.length rendered > 10);
  let ara = Ara.compile ~ara_id:0 (Ara.Rule_src (List.hd (Policy.rules policy))) in
  check bool_t "ARA printer output non-empty" true
    (String.length (Fmt.str "%a" Ara.pp ara) > 5)

let test_stream_basic () =
  let doc = Tree.parse "<r><a><b>1</b><secret>x</secret></a></r>" in
  let policy = policy_of [ (true, xp "//a"); (false, xp "//secret") ] in
  check tree_opt_t "basic filtering"
    (Some (Tree.parse "<r><a><b>1</b></a></r>"))
    (run_stream policy doc)

let test_stream_paper_figure3 () =
  (* Figure 3: R: ⊕ //b[c]/d ; S: ⊖ //c on the abstract document *)
  let doc =
    Tree.parse
      "<a><b><d>v1</d><c>v2</c></b><b><d>v3</d><c>v4</c><b><d>v5</d><c>v6</c></b></b></a>"
  in
  let policy = policy_of [ (true, xp "//b[c]/d"); (false, xp "//c") ] in
  (* every b has a c child, so every direct d child of a b is delivered;
     every c is denied *)
  check tree_opt_t "Figure 3 delivery"
    (Some
       (Tree.parse "<a><b><d>v1</d></b><b><d>v3</d><b><d>v5</d></b></b></a>"))
    (run_stream policy doc)

let test_stream_pending_positive () =
  (* predicate appears after the conditioned subtree: d precedes c *)
  let doc = Tree.parse "<a><b><d>keep</d><c>1</c></b><b><d>drop</d></b></a>" in
  let policy = policy_of [ (true, xp "//b[c]/d") ] in
  check tree_opt_t "pending predicate resolved true then false"
    (Some (Tree.parse "<a><b><d>keep</d></b></a>"))
    (run_stream policy doc)

let test_stream_pending_negative () =
  let doc = Tree.parse "<r><b><d>x</d><c>1</c></b><b><d>y</d></b></r>" in
  let policy = policy_of [ (true, xp "//d"); (false, xp "//b[c]/d") ] in
  check tree_opt_t "pending negative rule"
    (Some (Tree.parse "<r><b><d>y</d></b></r>"))
    (run_stream policy doc)

let test_stream_value_predicates () =
  let doc =
    Tree.parse
      "<r><g><chol>200</chol><lab>l1</lab></g><g><chol>300</chol><lab>l2</lab></g></r>"
  in
  let policy = policy_of [ (true, xp "//g[chol > 250]") ] in
  check tree_opt_t "numeric comparison"
    (Some (Tree.parse "<r><g><chol>300</chol><lab>l2</lab></g></r>"))
    (run_stream policy doc)

let test_stream_user_rule () =
  let doc =
    Tree.parse
      "<r><act><phys>house</phys><data>a</data></act><act><phys>wilson</phys><data>b</data></act></r>"
  in
  let policy =
    Policy.resolve_user ~user:"house"
      (Policy.of_specs [ ("D", Rule.Permit, "//act[phys = USER]") ])
  in
  check tree_opt_t "USER-parameterized rule"
    (Some (Tree.parse "<r><act><phys>house</phys><data>a</data></act></r>"))
    (run_stream policy doc)

let test_stream_dummy_denied () =
  let doc = Tree.parse "<r><mid><leaf>v</leaf></mid></r>" in
  let policy = policy_of [ (true, xp "//leaf") ] in
  check tree_opt_t "streaming dummies structural elements"
    (Some (Tree.parse "<X><X><leaf>v</leaf></X></X>"))
    (run_stream ~dummy_denied:"X" policy doc)

let test_stream_rejects_nonlinear () =
  let policy = policy_of [ (true, xp "//a[b[c]]") ] in
  match Evaluator.run_events ~policy [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nested predicate should be rejected"

let test_stream_attributes_pass_through () =
  let doc = Tree.parse "<r><a x=\"1\">t</a></r>" in
  let policy = policy_of [ (true, xp "//a") ] in
  check tree_opt_t "attributes preserved on permitted elements"
    (Some (Tree.parse "<r><a x=\"1\">t</a></r>"))
    (run_stream policy doc)

(* Streaming ≡ oracle ------------------------------------------------------ *)

let gen_case =
  QCheck2.Gen.(pair Testkit.gen_tree Testkit.gen_rules)

let print_case (tree, rules) =
  Printf.sprintf "doc=%s rules=[%s]" (Testkit.tree_print tree)
    (Testkit.rules_print rules)

let equiv_with_input make_input (tree, rules) =
  let policy = policy_of rules in
  let oracle = Oracle.authorized_view policy tree in
  let streaming =
    Evaluator.view_tree (Evaluator.run ~policy (make_input tree))
  in
  (match (oracle, streaming) with
  | None, None -> true
  | Some a, Some b -> Tree.equal a b
  | _ -> false)

let prop_stream_equals_oracle =
  qtest "streaming(events) ≡ oracle" gen_case ~print:print_case
    (equiv_with_input (fun tree -> Input.of_events (Tree.to_events tree)))

let prop_stream_equals_oracle_tcsbr =
  qtest "streaming(TCSBR, skipping) ≡ oracle" gen_case ~print:print_case
    (equiv_with_input (fun tree ->
         Input.of_decoder
           (Skip.Decoder.of_string (Skip.Encoder.encode ~layout:Skip.Layout.Tcsbr tree))))

let prop_stream_equals_oracle_tcs =
  qtest ~count:200 "streaming(TCS) ≡ oracle" gen_case ~print:print_case
    (equiv_with_input (fun tree ->
         Input.of_decoder
           (Skip.Decoder.of_string (Skip.Encoder.encode ~layout:Skip.Layout.Tcs tree))))

let gen_query_case =
  QCheck2.Gen.(triple Testkit.gen_tree Testkit.gen_rules (Testkit.gen_path ()))

let print_query_case (tree, rules, q) =
  Printf.sprintf "%s query=%s" (print_case (tree, rules)) (Testkit.path_print q)

let equiv_query_with_input make_input (tree, rules, q) =
  let policy = policy_of rules in
  let oracle = Oracle.query_view ~query:q policy tree in
  let streaming =
    Evaluator.view_tree (Evaluator.run ~query:q ~policy (make_input tree))
  in
  (match (oracle, streaming) with
  | None, None -> true
  | Some a, Some b -> Tree.equal a b
  | _ -> false)

let prop_query_equals_oracle =
  qtest "streaming query ≡ oracle query" gen_query_case ~print:print_query_case
    (equiv_query_with_input (fun tree -> Input.of_events (Tree.to_events tree)))

let prop_query_equals_oracle_tcsbr =
  qtest "streaming query(TCSBR) ≡ oracle query" gen_query_case
    ~print:print_query_case
    (equiv_query_with_input (fun tree ->
         Input.of_decoder
           (Skip.Decoder.of_string (Skip.Encoder.encode ~layout:Skip.Layout.Tcsbr tree))))

let prop_dummy_equivalence =
  qtest ~count:200 "dummy naming agrees between oracle and streaming" gen_case
    ~print:print_case (fun (tree, rules) ->
      let policy = policy_of rules in
      let oracle = Oracle.authorized_view ~dummy_denied:"XX" policy tree in
      let streaming = run_stream ~dummy_denied:"XX" policy tree in
      match (oracle, streaming) with
      | None, None -> true
      | Some a, Some b -> Tree.equal a b
      | _ -> false)

let prop_dummy_equivalence_tcsbr =
  qtest ~count:200 "dummy naming with skipping ≡ oracle" gen_case
    ~print:print_case (fun (tree, rules) ->
      let policy = policy_of rules in
      let oracle = Oracle.authorized_view ~dummy_denied:"XX" policy tree in
      let streaming =
        Evaluator.view_tree
          (Evaluator.run ~dummy_denied:"XX" ~policy
             (Input.of_decoder
                (Skip.Decoder.of_string
                   (Skip.Encoder.encode ~layout:Skip.Layout.Tcsbr tree))))
      in
      match (oracle, streaming) with
      | None, None -> true
      | Some a, Some b -> Tree.equal a b
      | _ -> false)

let prop_dummy_query_equivalence =
  qtest ~count:200 "dummy naming with a query ≡ oracle" gen_query_case
    ~print:print_query_case (fun (tree, rules, q) ->
      let policy = policy_of rules in
      let oracle = Oracle.query_view ~dummy_denied:"XX" ~query:q policy tree in
      let streaming =
        Evaluator.view_tree
          (Evaluator.run_events ~dummy_denied:"XX" ~query:q ~policy
             (Tree.to_events tree))
      in
      match (oracle, streaming) with
      | None, None -> true
      | Some a, Some b -> Tree.equal a b
      | _ -> false)

(* Skipping must only change costs, never results; it must actually occur. *)

let test_skip_stats_fire () =
  let doc =
    Tree.parse
      "<r><keep>k</keep><big><x>1</x><y>2</y><z>3</z></big><keep>k2</keep></r>"
  in
  let policy = policy_of [ (true, xp "//keep") ] in
  let dec =
    Skip.Decoder.of_string (Skip.Encoder.encode ~layout:Skip.Layout.Tcsbr doc)
  in
  let result = Evaluator.run ~policy (Input.of_decoder dec) in
  check bool_t "some subtree was skipped" true
    (result.Evaluator.stats.Evaluator.open_skips > 0);
  check tree_opt_t "output unaffected"
    (Some (Tree.parse "<r><keep>k</keep><keep>k2</keep></r>"))
    (Evaluator.view_tree result)

let test_pending_subtree_readback () =
  (* the protocol subtree decides the folder after the lab subtree: lab must
     be skipped pending and read back *)
  let doc =
    Tree.parse
      "<r><f><lab><v1>a</v1><v2>b</v2></lab><proto>G3</proto></f>\
       <f><lab><v1>c</v1></lab><proto>G1</proto></f></r>"
  in
  let policy = policy_of [ (true, xp "//f[proto = 'G3']/lab") ] in
  let dec =
    Skip.Decoder.of_string (Skip.Encoder.encode ~layout:Skip.Layout.Tcsbr doc)
  in
  let result = Evaluator.run ~policy (Input.of_decoder dec) in
  check tree_opt_t "pending lab delivered for the G3 folder only"
    (Some (Tree.parse "<r><f><lab><v1>a</v1><v2>b</v2></lab></f></r>"))
    (Evaluator.view_tree result);
  check bool_t "a pending subtree was recorded" true
    (result.Evaluator.stats.Evaluator.pending_subtrees > 0);
  check bool_t "one pending subtree was read back" true
    (result.Evaluator.stats.Evaluator.readback_subtrees > 0)

let test_paper_figure3_snapshot () =
  (* Figure 3's execution on its abstract document (children ordered as the
     event trace shows: left b holds c then d; right b holds d, c, then an
     inner b with d and c). Rules R: ⊕//b[c]/d and S: ⊖//c. We observe the
     Authorization-Stack pushes, predicate satisfactions and per-node
     decisions the figure depicts. *)
  let doc =
    Tree.parse
      "<a><b><c>1</c><d>2</d></b><b><d>3</d><c>4</c><b><d>5</d><c>6</c></b></b></a>"
  in
  let policy = policy_of [ (true, xp "//b[c]/d"); (false, xp "//c") ] in
  let obs = ref [] in
  let result =
    Evaluator.run_events ~policy
      ~observer:(fun o -> obs := o :: !obs)
      (Tree.to_events doc)
  in
  let obs = List.rev !obs in
  (* the delivered view: every b has a c, so every direct d is delivered *)
  check tree_opt_t "Figure 3 deliveries"
    (Some (Tree.parse "<a><b><d>2</d></b><b><d>3</d><b><d>5</d></b></b></a>"))
    (Evaluator.view_tree result);
  let count p = List.length (List.filter p obs) in
  (* S (⊖//c) becomes active at each of the four c elements *)
  check Alcotest.int "three negative-active S instances" 3
    (count (function
      | Evaluator.Obs_instance { rule = "R1"; sign = Rule.Deny; pending; _ } ->
          not pending
      | _ -> false));
  (* R completes at each of the three d elements; at the first (left b) the
     predicate c was already satisfied, at the other two it is pending *)
  check Alcotest.int "one active R instance" 1
    (count (function
      | Evaluator.Obs_instance { rule = "R0"; pending = false; _ } -> true
      | _ -> false));
  check Alcotest.int "two pending R instances (step 16 of the figure)" 2
    (count (function
      | Evaluator.Obs_instance { rule = "R0"; pending = true; _ } -> true
      | _ -> false));
  (* the predicate [c] is satisfied once per b instance (steps 3 and 18) *)
  check Alcotest.int "three predicate satisfactions" 3
    (count (function
      | Evaluator.Obs_predicate_satisfied { rule = "R0"; _ } -> true
      | _ -> false));
  (* decisions: every c is denied on the spot, the first d is permitted
     immediately (step 5), the other two are pending at their open *)
  check Alcotest.int "three immediate denials" 3
    (count (function
      | Evaluator.Obs_decision { tag = "c"; decision = Conflict.Deny; _ } -> true
      | _ -> false));
  check Alcotest.int "one immediate permit on d" 1
    (count (function
      | Evaluator.Obs_decision { tag = "d"; decision = Conflict.Permit; _ } -> true
      | _ -> false));
  check Alcotest.int "two pending d decisions" 2
    (count (function
      | Evaluator.Obs_decision { tag = "d"; decision = Conflict.Pending; _ } -> true
      | _ -> false))

let test_footnote5_rule_instances_not_confused () =
  (* Paper footnote 5: with //b[c]/d, tokens reaching the predicate final
     state and the navigational final state from *different* b instances
     must not combine into one rule instance. *)
  let policy = policy_of [ (true, xp "//b[c]/d") ] in
  (* outer b has the c, inner b has the d: no instance is complete *)
  check tree_opt_t "outer-c + inner-d is no match" None
    (run_stream policy (Tree.parse "<a><b><b><d>x</d></b><c>y</c></b></a>"));
  (* inner b has the c, outer b has the d: still no instance *)
  check tree_opt_t "inner-c + outer-d is no match" None
    (run_stream policy (Tree.parse "<a><b><d>x</d><b><c>y</c></b></b></a>"));
  (* positive control: the outer instance alone is complete *)
  check tree_opt_t "complete outer instance delivers only its own d"
    (Some (Tree.parse "<a><b><d>x</d></b></a>"))
    (run_stream policy
       (Tree.parse "<a><b><d>x</d><c>y</c><b><d>z</d></b></b></a>"));
  (* both instances complete: both ds delivered *)
  check tree_opt_t "nested complete instances"
    (Some (Tree.parse "<a><b><d>x</d><b><d>z</d></b></b></a>"))
    (run_stream policy
       (Tree.parse "<a><b><d>x</d><c>y</c><b><d>z</d><c>w</c></b></b></a>"))

let test_multi_predicate_instances () =
  (* two predicates on one step: both must hold for the same instance
     (paper footnote 6) *)
  let policy = policy_of [ (true, xp "//b[c][e]/d") ] in
  check tree_opt_t "both predicates in the same b"
    (Some (Tree.parse "<a><b><d>x</d></b></a>"))
    (run_stream policy (Tree.parse "<a><b><d>x</d><c>1</c><e>2</e></b></a>"));
  check tree_opt_t "predicates split across instances do not combine" None
    (run_stream policy
       (Tree.parse "<a><b><c>1</c><b><d>x</d><e>2</e></b></b></a>"))

let test_value_predicate_concatenated_text () =
  (* an element's comparison value is its concatenated descendant text *)
  let doc = Tree.parse "<r><a><v><p>1</p><p>2</p></v>keep</a><a><v>3</v>drop</a></r>" in
  let policy = policy_of [ (true, xp "//a[v = 12]") ] in
  check tree_opt_t "concatenation 1^2 = 12 matches"
    (Some (Tree.parse "<r><a><v><p>1</p><p>2</p></v>keep</a></r>"))
    (run_stream policy doc)

let test_same_rule_multiple_instances_same_level () =
  (* one rule matching an element through two different // paths still
     yields a single consistent decision *)
  let doc = Tree.parse "<r><a><a><t>x</t></a></a></r>" in
  let policy = policy_of [ (true, xp "//a//t") ] in
  check tree_opt_t "no duplication of delivered nodes"
    (Some (Tree.parse "<r><a><a><t>x</t></a></a></r>"))
    (run_stream policy doc)

let test_deep_recursive_differential () =
  (* a Treebank-shaped deep recursive document against the oracle *)
  let doc =
    Xmlac_workload.Datasets.generate Xmlac_workload.Datasets.Treebank ~seed:5
      ~target_bytes:20_000
  in
  let policy =
    policy_of
      [
        (true, xp "//NP//S");
        (false, xp "//VP[S]");
        (true, xp "//S/NP[//VP]");
      ]
  in
  let oracle = Oracle.authorized_view policy doc in
  let streaming =
    Evaluator.view_tree
      (Evaluator.run ~policy
         (Input.of_decoder
            (Skip.Decoder.of_string
               (Skip.Encoder.encode ~layout:Skip.Layout.Tcsbr doc))))
  in
  let ok =
    match (oracle, streaming) with
    | None, None -> true
    | Some a, Some b -> Tree.equal a b
    | _ -> false
  in
  check bool_t "deep recursion: streaming = oracle" true ok

let test_paper_figure7_walkthrough () =
  (* Figure 7: rules R:+/a[d=4]/c, S:-//c/e[m=3], T:-//c[//i=3]//f,
     U:+//h[k=2] over the abstract document. The narrative the paper gives:
     - the b subtree is skipped outright (TagArray_b stops every rule);
     - inside e, once m=3 makes S negative-active, the rest of e is skipped
       on a closing event;
     - c's delivery pends on [d=4], which arrives last, so parts of c are
       skipped pending and read back at the end. *)
  let doc =
    Tree.parse
      "<a><b><m>1</m><o>1</o><p>1</p></b>\
       <c><e><m>3</m><t>1</t><p>1</p></e>\
       <f><m>1</m><p>1</p></f>\
       <g>1</g>\
       <h><m>1</m><k>2</k><i>3</i></h></c>\
       <d>4</d></a>"
  in
  let policy =
    Policy.make
      [
        Rule.parse ~id:"R" ~sign:Rule.Permit "/a[d = 4]/c";
        Rule.parse ~id:"S" ~sign:Rule.Deny "//c/e[m = 3]";
        Rule.parse ~id:"T" ~sign:Rule.Deny "//c[//i = 3]//f";
        Rule.parse ~id:"U" ~sign:Rule.Permit "//h[k = 2]";
      ]
  in
  let expected =
    Tree.parse "<a><c><g>1</g><h><m>1</m><k>2</k><i>3</i></h></c></a>"
  in
  (* oracle agrees with the narrative *)
  check tree_opt_t "oracle view" (Some expected)
    (Oracle.authorized_view policy doc);
  (* streaming over the skip index: same view, and the narrative's skips *)
  let dec =
    Skip.Decoder.of_string (Skip.Encoder.encode ~layout:Skip.Layout.Tcsbr doc)
  in
  let result = Evaluator.run ~policy (Input.of_decoder dec) in
  check tree_opt_t "streaming view" (Some expected) (Evaluator.view_tree result);
  let s = result.Evaluator.stats in
  check bool_t "some subtree skipped at open (b)" true (s.Evaluator.open_skips > 0);
  check bool_t "a tail skip fired (rest of e after m=3)" true
    (s.Evaluator.rest_skips > 0);
  check bool_t "pending subtrees recorded (inside c, waiting on d=4)" true
    (s.Evaluator.pending_subtrees > 0);
  check bool_t "pending subtrees read back" true
    (s.Evaluator.readback_subtrees > 0)

(* Eager delivery (Section 5) ---------------------------------------------- *)

let test_eager_stream_is_out_of_order_but_complete () =
  (* d's delivery waits for the later c, while its sibling k is delivered
     immediately: k (later in document order) is delivered before d *)
  let doc = Tree.parse "<a><b><d>wait</d><k>now</k><c>1</c></b></a>" in
  let policy = policy_of [ (true, xp "//b[c]/d"); (true, xp "//k") ] in
  let deliveries = ref [] in
  let result =
    Evaluator.run_events ~policy
      ~on_deliver:(fun ~seq events -> deliveries := (seq, events) :: !deliveries)
      (Tree.to_events doc)
  in
  let seqs = List.rev_map fst !deliveries in
  check bool_t "sequence numbers are not monotone (out-of-order delivery)"
    true
    (List.exists2
       (fun a b -> a > b)
       (List.filteri (fun i _ -> i < List.length seqs - 1) seqs)
       (List.tl seqs));
  let reassembled =
    List.concat_map snd
      (List.sort (fun (a, _) (b, _) -> compare a b) !deliveries)
  in
  check bool_t "reassembled stream equals the batch result" true
    (List.length reassembled = List.length result.Evaluator.events
    && List.for_all2 Event.equal reassembled result.Evaluator.events)

let test_eager_latency_with_definite_rules () =
  (* a definite permit delivers while the document is still streaming *)
  let doc =
    Tree.parse "<r><a>one</a><a>two</a><a>three</a><a>four</a></r>"
  in
  let policy = policy_of [ (true, xp "//a") ] in
  let result = Evaluator.run_events ~policy (Tree.to_events doc) in
  check bool_t "first delivery almost immediately" true
    (result.Evaluator.stats.Evaluator.first_output_at >= 0
    && result.Evaluator.stats.Evaluator.first_output_at <= 3)

let prop_eager_callback_equals_result =
  qtest ~count:300 "callback deliveries reassemble to the result" gen_case
    ~print:print_case (fun (tree, rules) ->
      let policy = policy_of rules in
      let acc = ref [] in
      let result =
        Evaluator.run_events ~policy
          ~on_deliver:(fun ~seq events -> acc := (seq, events) :: !acc)
          (Tree.to_events tree)
      in
      let reassembled =
        List.concat_map snd (List.sort (fun (a, _) (b, _) -> compare a b) !acc)
      in
      List.length reassembled = List.length result.Evaluator.events
      && List.for_all2 Event.equal reassembled result.Evaluator.events)

(* Ablation switches must never change results, only costs ------------------- *)

let ablation_configs =
  [
    { Evaluator.enable_skipping = false; enable_rest_skips = false; enable_desctag_filter = false };
    { Evaluator.enable_skipping = true; enable_rest_skips = false; enable_desctag_filter = false };
    { Evaluator.enable_skipping = true; enable_rest_skips = true; enable_desctag_filter = false };
    { Evaluator.enable_skipping = true; enable_rest_skips = false; enable_desctag_filter = true };
    Evaluator.default_options;
  ]

let prop_options_never_change_output =
  qtest ~count:200 "ablation switches preserve the view" gen_case
    ~print:print_case (fun (tree, rules) ->
      let policy = policy_of rules in
      let encoded = Skip.Encoder.encode ~layout:Skip.Layout.Tcsbr tree in
      let reference =
        Evaluator.run ~policy (Input.of_events (Tree.to_events tree))
      in
      List.for_all
        (fun options ->
          let r =
            Evaluator.run ~options ~policy
              (Input.of_decoder (Skip.Decoder.of_string encoded))
          in
          List.length r.Evaluator.events
          = List.length reference.Evaluator.events
          && List.for_all2 Event.equal r.Evaluator.events
               reference.Evaluator.events)
        ablation_configs)

let test_options_disable_skipping () =
  let doc = Tree.parse "<r><keep>k</keep><big><x>1</x><y>2</y></big></r>" in
  let policy = policy_of [ (true, xp "//keep") ] in
  let encoded = Skip.Encoder.encode ~layout:Skip.Layout.Tcsbr doc in
  let no_skip =
    Evaluator.run
      ~options:
        {
          Evaluator.enable_skipping = false;
          enable_rest_skips = false;
          enable_desctag_filter = false;
        }
      ~policy
      (Input.of_decoder (Skip.Decoder.of_string encoded))
  in
  check Alcotest.int "no skips happen when disabled" 0
    (no_skip.Evaluator.stats.Evaluator.open_skips
    + no_skip.Evaluator.stats.Evaluator.rest_skips)

(* Policy minimization ------------------------------------------------------ *)

(* Policy textual format ----------------------------------------------------- *)

let test_policy_format_roundtrip () =
  let p =
    Policy.of_specs
      [
        ("D1", Rule.Permit, "//Folder/Admin");
        ("D2", Rule.Permit, "//MedActs[//RPhys = USER]");
        ("D3", Rule.Deny, "//Act[RPhys != USER]/Details");
      ]
  in
  match Policy.of_string (Policy.to_string p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      check Alcotest.string "textual roundtrip" (Policy.to_string p)
        (Policy.to_string p')

let test_policy_format_comments_and_blanks () =
  let text = "# a policy\n\nA + //x # trailing comment\n  B  -  //y[z = 'a b']  \n" in
  match Policy.of_string text with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check Alcotest.int "two rules" 2 (List.length (Policy.rules p));
      check Alcotest.string "quoted value with space survives" "//y[z='a b']"
        (Xmlac_xpath.Parse.to_string (List.nth (Policy.rules p) 1).Rule.path)

let test_policy_format_errors () =
  let bad = [ "A ? //x"; "A +"; "justoneword"; "A + //x[" ; "A + //x\nA - //y" ] in
  List.iter
    (fun text ->
      match Policy.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" text)
    bad

let prop_policy_format_roundtrip =
  qtest ~count:200 "random policies roundtrip through text" Testkit.gen_rules
    ~print:Testkit.rules_print (fun rules ->
      let p = policy_of rules in
      match Policy.of_string (Policy.to_string p) with
      | Error _ -> false
      | Ok p' -> Policy.to_string p = Policy.to_string p')

let test_minimize_duplicates () =
  let p =
    Policy.make
      [
        Rule.parse ~id:"A" ~sign:Rule.Permit "//a";
        Rule.parse ~id:"B" ~sign:Rule.Permit "//a";
        Rule.parse ~id:"C" ~sign:Rule.Deny "//b";
      ]
  in
  let p', removed = Policy.minimize p in
  check Alcotest.int "one duplicate removed" 1 (List.length removed);
  check Alcotest.int "two rules left" 2 (List.length (Policy.rules p'))

let test_minimize_containment_without_opposition () =
  let p =
    Policy.make
      [
        Rule.parse ~id:"Wide" ~sign:Rule.Permit "//a";
        Rule.parse ~id:"Narrow" ~sign:Rule.Permit "//b/a";
      ]
  in
  let p', removed = Policy.minimize p in
  check Alcotest.int "narrow rule removed" 1 (List.length removed);
  check Alcotest.int "one rule left" 1 (List.length (Policy.rules p'))

let test_minimize_keeps_when_opposed () =
  (* with an opposite-sign rule around, containment elimination is unsafe *)
  let p =
    Policy.make
      [
        Rule.parse ~id:"Wide" ~sign:Rule.Permit "//a";
        Rule.parse ~id:"Narrow" ~sign:Rule.Permit "//b/a";
        Rule.parse ~id:"Deny" ~sign:Rule.Deny "//b";
      ]
  in
  let _, removed = Policy.minimize p in
  check Alcotest.int "nothing removed" 0 (List.length removed)

let prop_minimize_preserves_semantics =
  qtest ~count:300 "minimize preserves the authorized view"
    (QCheck2.Gen.pair Testkit.gen_tree Testkit.gen_rules)
    ~print:print_case
    (fun (tree, rules) ->
      let policy = policy_of rules in
      let minimized, _ = Policy.minimize policy in
      let a = Oracle.authorized_view policy tree in
      let b = Oracle.authorized_view minimized tree in
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> Tree.equal a b
      | _ -> false)

let () =
  Alcotest.run "core"
    [
      ( "conflict",
        [
          Alcotest.test_case "paper cases" `Quick test_decide_paper_cases;
          prop_decide_equivalence;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "motivating semantics" `Quick test_oracle_motivating_semantics;
          Alcotest.test_case "structural rule" `Quick test_oracle_structural_rule;
          Alcotest.test_case "dummy names" `Quick test_oracle_dummy_names;
          Alcotest.test_case "most specific object" `Quick test_oracle_most_specific;
          Alcotest.test_case "re-permission" `Quick test_oracle_deny_then_repermit;
          Alcotest.test_case "closed policy" `Quick test_oracle_empty_when_all_denied;
          Alcotest.test_case "query view" `Quick test_oracle_query_view;
          Alcotest.test_case "query blind to denied" `Quick test_oracle_query_cannot_probe_denied;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "input from a string" `Quick test_input_of_string;
          Alcotest.test_case "printers" `Quick test_printers_do_not_crash;
          Alcotest.test_case "basic" `Quick test_stream_basic;
          Alcotest.test_case "paper Figure 3" `Quick test_stream_paper_figure3;
          Alcotest.test_case "pending positive" `Quick test_stream_pending_positive;
          Alcotest.test_case "pending negative" `Quick test_stream_pending_negative;
          Alcotest.test_case "value predicates" `Quick test_stream_value_predicates;
          Alcotest.test_case "USER rules" `Quick test_stream_user_rule;
          Alcotest.test_case "dummy names" `Quick test_stream_dummy_denied;
          Alcotest.test_case "nonlinear rejected" `Quick test_stream_rejects_nonlinear;
          Alcotest.test_case "attributes pass through" `Quick test_stream_attributes_pass_through;
          Alcotest.test_case "paper Figure 3 snapshot" `Quick
            test_paper_figure3_snapshot;
          Alcotest.test_case "footnote 5: instances not confused" `Quick
            test_footnote5_rule_instances_not_confused;
          Alcotest.test_case "footnote 6: multi-predicate instances" `Quick
            test_multi_predicate_instances;
          Alcotest.test_case "concatenated text values" `Quick
            test_value_predicate_concatenated_text;
          Alcotest.test_case "duplicate instances, one delivery" `Quick
            test_same_rule_multiple_instances_same_level;
          Alcotest.test_case "deep recursive differential" `Quick
            test_deep_recursive_differential;
        ] );
      ( "differential",
        [
          prop_stream_equals_oracle;
          prop_stream_equals_oracle_tcsbr;
          prop_stream_equals_oracle_tcs;
          prop_query_equals_oracle;
          prop_query_equals_oracle_tcsbr;
          prop_dummy_equivalence;
          prop_dummy_equivalence_tcsbr;
          prop_dummy_query_equivalence;
        ] );
      ( "skipping",
        [
          Alcotest.test_case "skips fire" `Quick test_skip_stats_fire;
          Alcotest.test_case "pending subtree readback" `Quick test_pending_subtree_readback;
          Alcotest.test_case "paper Figure 7 walkthrough" `Quick
            test_paper_figure7_walkthrough;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "out-of-order, complete" `Quick
            test_eager_stream_is_out_of_order_but_complete;
          Alcotest.test_case "low latency on definite rules" `Quick
            test_eager_latency_with_definite_rules;
          prop_eager_callback_equals_result;
        ] );
      ( "ablation",
        [
          prop_options_never_change_output;
          Alcotest.test_case "switch disables skipping" `Quick
            test_options_disable_skipping;
        ] );
      ( "policy-format",
        [
          Alcotest.test_case "roundtrip" `Quick test_policy_format_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick
            test_policy_format_comments_and_blanks;
          Alcotest.test_case "errors rejected" `Quick test_policy_format_errors;
          prop_policy_format_roundtrip;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "duplicates" `Quick test_minimize_duplicates;
          Alcotest.test_case "containment" `Quick test_minimize_containment_without_opposition;
          Alcotest.test_case "opposition blocks" `Quick test_minimize_keeps_when_opposed;
          prop_minimize_preserves_semantics;
        ] );
    ]
