(** Control-flow graph over an instruction array.

    PCs are instruction indices. Basic blocks are maximal straight-line
    ranges; [CAL] and [HCALL] are treated as straight-line (they return
    to the following instruction). The kernel backend builds the same
    record over its IR items through {!make}, with its own leader rule.

    {b Invariants} (relied upon by {!Dataflow} and every analysis on it):
    - The blocks partition the instruction array: every PC in
      [0, Array.length instrs) belongs to exactly one block, and
      [block_of_pc] is total — this includes code that is unreachable
      from the entry (PC 0), such as instructions following an
      unconditional [EXIT] that are not branch targets.
    - [block_of_pc.(pc)] agrees with the block ranges:
      [blocks.(block_of_pc.(pc)).first <= pc <= blocks.(block_of_pc.(pc)).last].
    - Unreachable blocks carry real successor/predecessor edges like
      any other block, and a reachable block never has an unreachable
      predecessor (otherwise that predecessor would itself be
      reachable). Dataflow over the CFG therefore cannot leak state
      from unreachable code into reachable code.
    - [reachable] marks reachability from the entry block (the block
      containing PC 0); analyses that only want live code (linters,
      dead-code checks) filter on it, while the {!Dataflow} solver
      (and so [Liveness]) still computes sound states for unreachable
      blocks. *)

type block = {
  id : int;
  first : int;  (** PC of first instruction *)
  last : int;  (** PC of last instruction (inclusive) *)
  succs : int list;  (** successor block ids *)
  preds : int list;  (** predecessor block ids *)
}

type t = {
  blocks : block array;
  block_of_pc : int array;  (** PC -> block id; total (see invariants) *)
  reachable : bool array;
      (** per block id: reachable from the entry block via [succs] *)
}

val instr_successors : Instr.t array -> int -> int list
(** Successor PCs of the instruction at the given PC. *)

val make : leader:bool array -> succs:(int -> int list) -> t
(** The block constructor behind every CFG. Blocks start at PC 0 and at
    every PC whose [leader] flag is set, and run to the next leader;
    each block links to the blocks holding [succs last], the successor
    PCs of its last instruction.
    @raise Invalid_argument on an empty [leader] array. *)

val build : Instr.t array -> t
(** Leaders are branch targets and the PCs after [BRA], [RET] and
    [EXIT]; edges are {!instr_successors}. *)

val block_at : t -> int -> block
(** Block containing the given PC. *)

val exit_blocks : t -> int list
(** Ids of blocks with no successors. *)

val reachable_block : t -> int -> bool
(** [reachable_block t b] is true iff block [b] is reachable from the
    entry block (reflexively: the entry block is reachable). *)

val pp : Format.formatter -> t -> unit
