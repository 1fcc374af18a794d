(** Architectural traps raised by the simulated machine. These are the
    observable failure modes the error-injection case study classifies
    (crash, hang, failure symptom). *)

type fault_kind =
  | Out_of_bounds
  | Misaligned
  | Invalid_instruction

exception Memory_fault of {
    space : Sass.Opcode.space;
    addr : int;
    kind : fault_kind;
  }

exception Register_fault of {
    reg : int;
    regs : int;  (** the register file's size per lane *)
  }
(** A write to a register beyond the warp's register file, which holds
    only the registers its kernel names. *)

exception Hang of { cycles : int }
(** The per-launch watchdog expired. *)

exception Device_assert of string
(** A kernel-detected failure (the "failure symptom" outcome). *)

val fault_kind_to_string : fault_kind -> string

val describe : exn -> string option
(** Short description for trap exceptions, [None] for other
    exceptions. *)
