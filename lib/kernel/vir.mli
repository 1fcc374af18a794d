(** The backend's virtual-register IR (the PTX analogue): SASS opcodes
    over unbounded virtual registers and virtual predicates, with
    symbolic labels. Lowering produces it; optimization and register
    allocation rewrite it; {!Emit} turns it into SASS. *)

type vsrc =
  | VReg of int
  | VImm of int
  | VParam of int  (** byte offset in the constant bank *)
  | VPred of int

type guard = {
  g_pred : int option;  (** [None]: always execute *)
  g_neg : bool;
}

val always : guard

type vinstr = {
  vop : Sass.Opcode.t;
  vguard : guard;
  vdsts : int list;  (** virtual registers written *)
  vpdsts : int list;  (** virtual predicates written *)
  vsrcs : vsrc list;
  vtarget : string option;  (** branch target label *)
}

type item =
  | Label of string
  | Ins of vinstr

val ins :
  ?guard:guard ->
  ?dsts:int list ->
  ?pdsts:int list ->
  ?srcs:vsrc list ->
  ?target:string ->
  Sass.Opcode.t ->
  item

val reg_uses : vinstr -> int list

val pred_uses : vinstr -> int list

val has_side_effect : vinstr -> bool
(** Memory writes, atomics, control flow, barriers: instructions DCE
    must keep even if their results are dead. *)

(** {1 CFG and liveness over item arrays} *)

val build_cfg : item array -> Sass.Cfg.t
(** Blocks over item indices. Unlike {!Sass.Cfg.build}, every label
    starts a block, targeted or not: {!Regalloc} widens live ranges to
    whole blocks, so the block boundaries set its intervals.
    @raise Invalid_argument on a branch to an unknown label. *)

type liveness

val liveness : item array -> Sass.Cfg.t -> liveness
(** Backward {!Sass.Dataflow} over virtual registers and predicates;
    guarded definitions do not kill. *)

val live_out_regs : liveness -> block:int -> int list

val live_out_preds : liveness -> block:int -> int list

val reg_live_ranges :
  item array -> Sass.Cfg.t -> liveness -> (int * (int * int)) list
(** Conservative live interval (first, last item index) per virtual
    register, suitable for linear-scan allocation. *)

val pred_live_ranges :
  item array -> Sass.Cfg.t -> liveness -> (int * (int * int)) list

val pp_item : Format.formatter -> item -> unit

val pp_items : Format.formatter -> item array -> unit
