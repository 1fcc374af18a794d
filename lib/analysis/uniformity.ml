open Sass

module D = struct
  type instr = Instr.t

  type t = {
    regs : Regset.t;  (* may-variant GPR indices *)
    preds : int;  (* may-variant predicate bitmask, bits 0..6 *)
  }

  let equal a b = Regset.equal a.regs b.regs && a.preds = b.preds

  let join a b =
    { regs = Regset.union a.regs b.regs; preds = a.preds lor b.preds }

  let widen = join

  let pred_variant st = function
    | Pred.PT -> false
    | Pred.P i -> st.preds land (1 lsl i) <> 0

  let reg_variant st = function
    | Reg.RZ -> false
    | Reg.R i -> Regset.mem i st.regs

  let src_variant st = function
    | Instr.SReg r -> reg_variant st r
    | Instr.SImm _ | Instr.SParam _ -> false
    | Instr.SPred p -> pred_variant st p

  (* Values that differ across lanes no matter what they read. *)
  let inherently_variant : Opcode.t -> bool = function
    | Opcode.S2R
        ( Opcode.Sr_tid_x | Opcode.Sr_tid_y | Opcode.Sr_laneid
        | Opcode.Sr_warpid | Opcode.Sr_clock ) ->
      true
    | Opcode.ATOM _ -> true  (* returned old value is per-thread *)
    | Opcode.LD (Opcode.Local, _) -> true  (* local memory is per-thread *)
    | _ -> false

  let transfer ~pc:_ (i : Instr.t) st =
    let guarded = not (Pred.is_always i.Instr.guard) in
    let guard_v = guarded && pred_variant st i.Instr.guard.Pred.pred in
    let srcs_v = List.exists (src_variant st) i.Instr.srcs in
    let v =
      match i.Instr.op with
      (* Vote results are identical across the warp by construction;
         only a variant guard (inactive lanes keep their old value)
         can make the destination variant. *)
      | Opcode.VOTE _ -> guard_v
      | Opcode.P2R -> st.preds <> 0 || guard_v
      | op -> inherently_variant op || srcs_v || guard_v
    in
    (* A def under a guard is a may-write: lanes masked off keep the
       old value, so guarded defs add variance but never clear it. *)
    let set_reg regs r =
      match r with
      | Reg.RZ -> regs
      | Reg.R k ->
        if v then Regset.add k regs
        else if guarded then regs
        else Regset.remove k regs
    in
    let regs = List.fold_left set_reg st.regs (Instr.defs i) in
    let set_pred preds p =
      match p with
      | Pred.PT -> preds
      | Pred.P k ->
        if v then preds lor (1 lsl k)
        else if guarded then preds
        else preds land lnot (1 lsl k) land 0x7f
    in
    let preds = List.fold_left set_pred st.preds (Instr.pdefs i) in
    { regs; preds }
end

module Solver = Dataflow.Make (D)

type t = {
  res : Solver.result;
  instrs : Instr.t array;
}

let analyze instrs cfg =
  let bottom = { D.regs = Regset.empty; preds = 0 } in
  let res =
    Solver.solve ~direction:Dataflow.Forward ~boundary:bottom ~init:bottom
      instrs cfg
  in
  { res; instrs }

let variant_gpr_before t pc r = D.reg_variant t.res.Solver.before.(pc) r
let variant_pred_before t pc p = D.pred_variant t.res.Solver.before.(pc) p
let variant_src_before t pc s = D.src_variant t.res.Solver.before.(pc) s

let divergent_branch t pc =
  let i = t.instrs.(pc) in
  Instr.is_cond_branch i && variant_pred_before t pc i.Instr.guard.Pred.pred

let passes t = t.res.Solver.passes
