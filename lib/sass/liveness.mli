(** Register liveness over SASS programs.

    The SASSI injector uses this to spill exactly the live registers
    at each instrumentation site — "the compiler knows exactly which
    registers to spill" (paper, Section 3.2). *)

type t

val analyze : Instr.t array -> t
(** A backward {!Dataflow} domain over the CFG. Guarded (predicated)
    instructions are treated as may-writes: their definitions do not
    kill. *)

val live_gprs_before : t -> int -> Reg.t list
(** GPRs live immediately before the instruction at the given PC,
    sorted by register index. *)

val live_preds_before : t -> int -> Pred.t list

val live_gprs_after : t -> int -> Reg.t list

val live_preds_after : t -> int -> Pred.t list
