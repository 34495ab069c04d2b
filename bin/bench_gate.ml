(* bench_gate — perf-regression gate over machine-readable bench reports.

   Usage: bench_gate.exe CURRENT.json BASELINE.json [--tolerance T]

   Checks (see Xmlac_obs.Gate):
   - drift: every gated (non-wall-clock) metric of every baseline record
     must stay within a relative tolerance of its baseline value;
   - shape: the paper's cost orderings must hold within the current report.

   Exit status: 0 = pass, 1 = violations found, 2 = usage or I/O error. *)

module Gate = Xmlac_obs.Gate
module Bench_report = Xmlac_obs.Bench_report

let usage () =
  prerr_endline
    "usage: bench_gate.exe CURRENT.json BASELINE.json [--tolerance T]";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_gate: " ^ m); exit 2) fmt

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error msg -> fail "%s" msg

let load what path =
  match Bench_report.parse (read_file path) with
  | Ok t -> t
  | Error msg -> fail "%s %s: %s" what path msg

let () =
  let current_path = ref None
  and baseline_path = ref None
  and tolerance = ref Gate.default_tolerance in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t >= 0. -> tolerance := t
        | _ -> fail "invalid tolerance %S" v);
        parse rest
    | "--help" :: _ | "-h" :: _ -> usage ()
    | arg :: rest ->
        (if String.length arg > 0 && arg.[0] = '-' then
           fail "unknown option %S" arg
         else
           match (!current_path, !baseline_path) with
           | None, _ -> current_path := Some arg
           | Some _, None -> baseline_path := Some arg
           | Some _, Some _ -> usage ());
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!current_path, !baseline_path) with
  | Some cur, Some base ->
      let current = load "current report" cur in
      let baseline = load "baseline report" base in
      let violations =
        Gate.check ~tolerance:!tolerance ~baseline ~current ()
      in
      if violations = [] then begin
        Printf.printf
          "bench_gate: PASS — %d records, %d baseline records, tolerance \
           %.0f%%\n"
          (List.length current.Bench_report.records)
          (List.length baseline.Bench_report.records)
          (100. *. !tolerance);
        exit 0
      end
      else begin
        Printf.eprintf "bench_gate: FAIL — %d violation(s):\n"
          (List.length violations);
        List.iter
          (fun v -> Format.eprintf "  %a@." Gate.pp_violation v)
          violations;
        exit 1
      end
  | _ -> usage ()
