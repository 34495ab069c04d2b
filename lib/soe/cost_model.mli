(** The simulated-time model of the SOE (paper Table 1).

    The paper's prototype ran in C on a cycle-accurate smart-card simulator;
    its own analysis attributes execution time to three components:
    communication into the SOE, decryption inside the SOE, and the access
    control computation itself (reported at 2–15 % of the total). This
    module reproduces that model: time = bytes-in / communication bandwidth
    + bytes-decrypted / decryption bandwidth + CPU term, with Table 1's
    constants verbatim. Absolute wall-clock speed of this OCaml process
    never enters any reported figure. *)

type context =
  | Hardware  (** forthcoming smart card: USB + hardwired 3DES *)
  | Software_internet
  | Software_lan

type t = {
  name : string;
  comm_bytes_per_s : float;
  decrypt_bytes_per_s : float;
  hash_bytes_per_s : float;  (** SHA-1 inside the SOE *)
  transition_s : float;  (** CPU cost of one ARA token transition *)
  event_s : float;  (** CPU cost of decoding/dispatching one event *)
}

val of_context : context -> t
val table1 : (context * t) list
val all_contexts : context list

type breakdown = {
  communication_s : float;
  decryption_s : float;
  access_control_s : float;
  integrity_s : float;
  total_s : float;
}

val breakdown :
  t ->
  bytes_in:int ->
  bytes_decrypted:int ->
  bytes_hashed:int ->
  transitions:int ->
  events:int ->
  breakdown

val pp_breakdown : Format.formatter -> breakdown -> unit

val breakdown_metrics : breakdown -> Xmlac_obs.Metrics.t
(** Modeled-time components as named metrics (seconds). *)
