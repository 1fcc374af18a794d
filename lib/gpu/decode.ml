open Sass

type instr = {
  op : Opcode.t;
  guard : int;
  negated : bool;
  dsts : int array;
  pdst : int;
  kinds : int array;
  srcs : int array;
  target : int;
  reconv : int;
  classes : int;
  name : string;
  cond_branch : bool;
  mem : bool;
  fault : string;
}

type kernel = {
  code : instr array;
  regs : int;
  operands : int;
  shardable : bool;
}

let k_reg = 0

let k_imm = 1

let k_param = 2

let k_pred = 3

let no_pred = Pred.index Pred.PT

(* The operand shape [Exec] relies on, checked once here; a malformed
   instruction keeps its message and raises when it issues. *)
let shape_fault (i : Instr.t) =
  let nd = List.length i.Instr.dsts and ns = List.length i.Instr.srcs in
  let need ~dsts ~srcs =
    if ns < srcs then "Exec: missing source operand"
    else if nd < dsts then "Exec: missing destination"
    else ""
  in
  let pair what ~srcs =
    if ns < srcs then "Exec: missing source operand"
    else if nd <> 2 then "Exec: " ^ what ^ ".64 needs a register pair"
    else ""
  in
  let atom_srcs a = if a = Opcode.A_cas then 4 else 3 in
  let pred what ~srcs =
    if i.Instr.pdsts = [] then
      "Exec: " ^ what ^ " without predicate destination"
    else need ~dsts:0 ~srcs
  in
  match i.Instr.op with
  | Opcode.BREV | Opcode.POPC | Opcode.FLO | Opcode.MUFU _ | Opcode.I2F _
  | Opcode.F2I _ | Opcode.MOV ->
    need ~dsts:1 ~srcs:1
  | Opcode.IADD | Opcode.ISUB | Opcode.IMUL | Opcode.IDIV _ | Opcode.IMOD _
  | Opcode.IMNMX _ | Opcode.SHL | Opcode.SHR _ | Opcode.LOP _ | Opcode.FADD
  | Opcode.FSUB | Opcode.FMUL | Opcode.FMNMX _ | Opcode.SHFL _ ->
    need ~dsts:1 ~srcs:2
  | Opcode.IMAD | Opcode.FFMA | Opcode.SEL -> need ~dsts:1 ~srcs:3
  | Opcode.ISETP _ | Opcode.FSETP _ -> pred "SETP" ~srcs:2
  | Opcode.PSETP _ -> pred "PSETP" ~srcs:1
  | Opcode.S2R _ | Opcode.P2R -> need ~dsts:1 ~srcs:0
  | Opcode.R2P -> need ~dsts:0 ~srcs:1
  | Opcode.LD (Opcode.Global, Opcode.W64) -> pair "LD" ~srcs:2
  | Opcode.LD (Opcode.Tex, _) | Opcode.VOTE Opcode.V_ballot ->
    need ~dsts:1 ~srcs:1
  | Opcode.LD _ -> need ~dsts:1 ~srcs:2
  | Opcode.ST _ -> need ~dsts:0 ~srcs:3
  | Opcode.ATOM (_, a, _) -> need ~dsts:1 ~srcs:(atom_srcs a)
  | Opcode.RED (_, a, _) -> need ~dsts:0 ~srcs:(atom_srcs a)
  | Opcode.TLD Opcode.W64 -> pair "TLD" ~srcs:1
  | Opcode.TLD _ -> need ~dsts:1 ~srcs:1
  | Opcode.VOTE _ -> need ~dsts:(if i.Instr.pdsts = [] then 1 else 0) ~srcs:1
  | Opcode.BRA when i.Instr.target = None -> "Exec: unresolved branch"
  | Opcode.CAL when i.Instr.target = None -> "Exec: unresolved call"
  | Opcode.BRA | Opcode.CAL | Opcode.MEMBAR | Opcode.RET | Opcode.EXIT
  | Opcode.BAR | Opcode.NOP | Opcode.HCALL _ -> ""

(* A register built as [R i] with [i < 0] bypasses [Reg.r]'s range
   check; the interpreter indexes register files without bounds
   checks, so such an instruction faults at issue instead. *)
let negative_reg (i : Instr.t) =
  let negative r = Reg.index r < 0 in
  List.exists negative i.Instr.dsts
  || List.exists
       (function Instr.SReg r -> negative r | _ -> false)
       i.Instr.srcs

let instr (i : Instr.t) =
  let kind = function
    | Instr.SReg r -> (k_reg, Reg.index r)
    | Instr.SImm v -> (k_imm, v land Value.mask)
    | Instr.SParam off -> (k_param, off)
    | Instr.SPred p -> (k_pred, Pred.index p)
  in
  let srcs = Array.of_list (List.map kind i.Instr.srcs) in
  { op = i.Instr.op;
    guard = Pred.index i.Instr.guard.Pred.pred;
    negated = i.Instr.guard.Pred.negated;
    dsts = Array.of_list (List.map Reg.index i.Instr.dsts);
    pdst = (match i.Instr.pdsts with p :: _ -> Pred.index p | [] -> -1);
    kinds = Array.map fst srcs;
    srcs = Array.map snd srcs;
    target = Option.value i.Instr.target ~default:(-1);
    reconv = Option.value i.Instr.reconv ~default:(-1);
    classes = Stats.classes i.Instr.op;
    name = Opcode.to_string i.Instr.op;
    cond_branch = Instr.is_cond_branch i;
    mem = Opcode.is_mem i.Instr.op;
    fault =
      (if negative_reg i then "Exec: negative register index"
       else shape_fault i) }

(* Highest GPR index named anywhere + 1, and at least 2: R1 is the
   ABI stack pointer every warp starts with. [regs_used] is not
   trusted, since record updates of a kernel can leave it stale. *)
let regs_of instrs =
  Array.fold_left
    (fun acc (i : Instr.t) ->
      let see acc r =
        if Reg.is_zero r then acc else max acc (Reg.index r + 1)
      in
      List.fold_left
        (fun acc -> function Instr.SReg r -> see acc r | _ -> acc)
        (List.fold_left see acc i.Instr.dsts)
        i.Instr.srcs)
    2 instrs

let kernel ~shardable (k : Program.kernel) =
  let code = Array.map instr k.Program.instrs in
  { code;
    regs = regs_of k.Program.instrs;
    operands = Array.fold_left (fun m d -> max m (Array.length d.kinds)) 0 code;
    shardable }
