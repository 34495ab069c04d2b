type context = Hardware | Software_internet | Software_lan

type t = {
  name : string;
  comm_bytes_per_s : float;
  decrypt_bytes_per_s : float;
  hash_bytes_per_s : float;
  transition_s : float;
  event_s : float;
}

let mb = 1024. *. 1024.

(* Table 1, plus CPU constants calibrated so that access control lands in
   the 2-15% band the paper reports on the Hospital workload: the hardware
   SOE is a 40 MHz smart card, the software SOEs run on a 1 GHz PC. *)
let of_context = function
  | Hardware ->
      {
        name = "Hardware (smart card)";
        comm_bytes_per_s = 0.5 *. mb;
        decrypt_bytes_per_s = 0.15 *. mb;
        hash_bytes_per_s = 1.0 *. mb;
        transition_s = 1.2e-6;
        event_s = 1.5e-6;
      }
  | Software_internet ->
      {
        name = "Software - Internet";
        comm_bytes_per_s = 0.1 *. mb;
        decrypt_bytes_per_s = 1.2 *. mb;
        hash_bytes_per_s = 8.0 *. mb;
        transition_s = 4.8e-8;
        event_s = 6.0e-8;
      }
  | Software_lan ->
      {
        name = "Software - LAN";
        comm_bytes_per_s = 10. *. mb;
        decrypt_bytes_per_s = 1.2 *. mb;
        hash_bytes_per_s = 8.0 *. mb;
        transition_s = 4.8e-8;
        event_s = 6.0e-8;
      }

let all_contexts = [ Hardware; Software_internet; Software_lan ]

let table1 = List.map (fun c -> (c, of_context c)) all_contexts

type breakdown = {
  communication_s : float;
  decryption_s : float;
  access_control_s : float;
  integrity_s : float;
  total_s : float;
}

let breakdown t ~bytes_in ~bytes_decrypted ~bytes_hashed ~transitions ~events =
  let communication_s = float_of_int bytes_in /. t.comm_bytes_per_s in
  let decryption_s = float_of_int bytes_decrypted /. t.decrypt_bytes_per_s in
  let integrity_s = float_of_int bytes_hashed /. t.hash_bytes_per_s in
  let access_control_s =
    (float_of_int transitions *. t.transition_s)
    +. (float_of_int events *. t.event_s)
  in
  {
    communication_s;
    decryption_s;
    access_control_s;
    integrity_s;
    total_s = communication_s +. decryption_s +. access_control_s +. integrity_s;
  }

let breakdown_metrics (b : breakdown) : Xmlac_obs.Metrics.t =
  Xmlac_obs.Metrics.
    [
      float "communication_s" b.communication_s;
      float "decryption_s" b.decryption_s;
      float "access_control_s" b.access_control_s;
      float "integrity_s" b.integrity_s;
      float "total_s" b.total_s;
    ]

let pp_breakdown ppf b =
  Fmt.pf ppf "total %.3fs (comm %.3fs, decrypt %.3fs, AC %.3fs, integrity %.3fs)"
    b.total_s b.communication_s b.decryption_s b.access_control_s b.integrity_s
