(** The adversarial terminal: a transport wrapper that sabotages reply
    frames. Used by the fuzz harness and the tamper-matrix tests to check
    the client's contract — every injected fault ends in a successful
    (bounded, logged) retry or a typed error; never an uncaught exception,
    never silently wrong verified output. *)

type kind =
  | Truncate  (** deliver a prefix of the frame, then act as a dead peer *)
  | Corrupt  (** flip one byte of the message (framing left intact) *)
  | Stale  (** replay an earlier reply instead of the fresh one *)
  | Stall  (** the reply never arrives (surfaces as a receive timeout) *)
  | Duplicate  (** deliver the frame twice, desynchronizing the stream *)

val all_kinds : kind list

type plan = { probability : float; kinds : kind list }

val default_plan : plan
(** Probability 0.3, all kinds. *)

val wrap :
  rng:(int -> int) -> ?plan:plan -> Transport.t -> Transport.t * (unit -> int)
(** [wrap ~rng inner] is the sabotaged transport plus a count of faults
    injected so far. [rng n] must return a uniform value in [\[0, n)] —
    deterministic (seeded) in the harness so failures replay. *)
