(** Generic worklist dataflow over a {!Cfg.t}, the one dataflow solver
    in the tree. A domain names the instruction type it transfers
    over, so it runs over SASS instructions and over the kernel
    backend's IR items alike (see {!Cfg.make}).

    The solver iterates block-level states to a fixpoint in
    reverse-postorder (postorder for backward problems), then expands
    the solution to per-PC states in one final pass. All blocks are
    solved, including blocks unreachable from the entry: because a
    reachable block never has an unreachable predecessor (see
    [cfg.mli]), unreachable state can never leak into reachable code,
    and must-style analyses that seed interior blocks with top simply
    stay silent there. Starting from [init] = bottom, the result is the
    least fixpoint, which does not depend on the visiting order. *)

type direction =
  | Forward
  | Backward

module type DOMAIN = sig
  type t

  type instr
  (** What a CFG node holds: {!Instr.t}, or an IR item. *)

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Merge at control-flow confluences (set union for may-analyses,
      intersection for must-analyses). *)

  val widen : t -> t -> t
  (** [widen old next] accelerates convergence at loop heads: from the
      second sweep on, a block with a retreating in-edge receives
      [widen previous_input joined_input] instead of the plain join.
      Finite-height domains can use [let widen = join]; domains with
      infinite ascending chains (intervals) must jump unstable bounds
      to a sentinel. *)

  val transfer : pc:int -> instr -> t -> t
  (** Effect of one instruction. For [Backward] problems the input is
      the state {e after} the instruction and the result the state
      before it. *)
end

module Make (D : DOMAIN) : sig
  type result = {
    before : D.t array;  (** per-PC state before the instruction *)
    after : D.t array;  (** per-PC state after the instruction *)
    passes : int;  (** sweeps over the block list until fixpoint *)
  }

  val solve :
    direction:direction ->
    boundary:D.t ->
    init:D.t ->
    D.instr array ->
    Cfg.t ->
    result
  (** [boundary] is the state at the kernel entry ([Forward]) or at
      every exit block ([Backward]); [init] seeds all other block
      inputs (use the lattice top for must-analyses, bottom for
      may-analyses). *)
end
