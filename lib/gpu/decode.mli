(** Kernels decoded once per device for the interpreter: each
    instruction becomes a flat record of resolved indices, so
    {!Exec.step} matches an opcode and indexes arrays instead of
    walking operand lists. *)

type instr = {
  op : Sass.Opcode.t;
  guard : int;  (** guard predicate index; 7 = [PT] *)
  negated : bool;
  dsts : int array;  (** GPR indices; [RZ] = 255 *)
  pdst : int;  (** first predicate destination; -1 when there is none *)
  kinds : int array;  (** per source operand: {!k_reg} ... {!k_pred} *)
  srcs : int array;
      (** per source operand: GPR index, 32-bit immediate, parameter
          byte offset or predicate index, by its kind *)
  target : int;  (** branch/call target PC; -1 if unresolved *)
  reconv : int;  (** reconvergence PC; -1 if none *)
  classes : int;  (** {!Stats.classes} of [op] *)
  name : string;  (** [Opcode.to_string op], as trace records print it *)
  cond_branch : bool;
  mem : bool;  (** [Opcode.is_mem op]: the stall class *)
  fault : string;
      (** [""], or the [Invalid_argument] message the instruction raises
          when it issues: an operand its opcode needs is missing, a
          register index is negative, or a branch target is
          unresolved *)
}

type kernel = {
  code : instr array;  (** one record per PC *)
  regs : int;
      (** register-file size per lane: highest GPR index named by any
          instruction + 1, at least 2 (R1 is the stack pointer) *)
  operands : int;  (** most source operands of any instruction *)
  shardable : bool;  (** the launch-independent sharding verdict *)
}

val k_reg : int

val k_imm : int

val k_param : int

val k_pred : int

val no_pred : int
(** Index of [PT]. *)

val kernel : shardable:bool -> Sass.Program.kernel -> kernel
