(** The evaluator's typed input error.

    Each trust boundary of the system signals hostile or damaged input
    through its own typed exception or result (see DESIGN.md, "Error
    taxonomy & fuzzing"), and that is what callers catch; this module
    holds the one that belongs to the event-stream boundary of
    {!Evaluator}. *)

exception Stream_error of string
(** Raised by the streaming evaluator on an event stream no well-formed
    input can produce: a close without a matching open, a second root, or
    an input that ends with elements still open. *)
