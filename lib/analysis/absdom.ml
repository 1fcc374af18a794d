open Sass

type ctx = {
  c_geom : Affine.geom;
  c_param : int -> int option;
  c_concrete : bool;
}

let static_ctx =
  { c_geom = Affine.assumed_geom; c_param = (fun _ -> None);
    c_concrete = false }

let concrete_ctx ?(param = fun _ -> None) geom =
  { c_geom = geom; c_param = param; c_concrete = true }

(* A kernel that never reads a [tid.y]/[ctaid.y]-family special is
   written for 1D launches; analyzing it under the 2D worst case
   would make every thread of a y-column alias every address. *)
let static_for instrs =
  let uses_y =
    Array.exists
      (fun (i : Sass.Instr.t) ->
         match i.Sass.Instr.op with
         | Sass.Opcode.S2R
             ( Sass.Opcode.Sr_tid_y | Sass.Opcode.Sr_ntid_y
             | Sass.Opcode.Sr_ctaid_y | Sass.Opcode.Sr_nctaid_y ) ->
           true
         | _ -> false)
      instrs
  in
  if uses_y then static_ctx
  else
    { static_ctx with
      c_geom = { Affine.assumed_geom with Affine.g_block_y = 1;
                 Affine.g_grid_y = 1 } }

module IM = Map.Make (Int)

(* [Bot] is unreachable state (the join identity); a register absent
   from the map is unknown with per-thread variability — the sound
   default for uninitialized or clobbered registers. *)
type t =
  | Bot
  | St of st

and st = {
  s_ctx : ctx;
  s_regs : Affine.t IM.t;
}

let unknown_var = Affine.unknown ~var:true

let geom = function
  | Bot -> Affine.assumed_geom
  | St s -> s.s_ctx.c_geom

let reg t r =
  match t with
  | Bot -> unknown_var
  | St s ->
    (match r with
     | Reg.RZ -> Affine.const 0
     | Reg.R i ->
       (match IM.find_opt i s.s_regs with
        | Some a -> a
        | None -> unknown_var))

(* Immediates are stored in [0, 2^32); address arithmetic uses
   negative offsets encoded as large values, so read them signed. *)
let simm_signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let src t s =
  match t with
  | Bot -> unknown_var
  | St st ->
    (match s with
     | Instr.SReg r -> reg t r
     | Instr.SImm v -> Affine.const (simm_signed v)
     | Instr.SParam off ->
       (match st.s_ctx.c_param off with
        | Some v -> Affine.const (simm_signed (v land 0xffffffff))
        | None -> Affine.param off)
     | Instr.SPred _ -> unknown_var)

let address t (m : Instr.mem) = Affine.add (src t m.Instr.m_base) (src t m.Instr.m_off)

(* A value that differs between threads of one block: explicit tid
   dependence or a thread-variant residue. (ctaid/param terms are
   uniform within a block and stay out of this.) *)
let varish (a : Affine.t) = a.Affine.a_var || Affine.has_tid a

module D = struct
  type nonrec t = t
  type instr = Instr.t

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | St a, St b -> IM.equal Affine.equal a.s_regs b.s_regs
    | Bot, St _ | St _, Bot -> false

  let merge affop a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | St sa, St sb ->
      let geom = sa.s_ctx.c_geom in
      St
        { sa with
          s_regs =
            IM.merge
              (fun _ x y ->
                 match (x, y) with
                 | Some x, Some y -> Some (affop ~geom x y)
                 | _ -> None)
              sa.s_regs sb.s_regs }

  let join a b = merge Affine.join a b

  let widen a b = merge Affine.widen a b

  let transfer ~pc:_ (i : Instr.t) t =
    match t with
    | Bot -> Bot
    | St st ->
      let geom = st.s_ctx.c_geom in
      let ev s = src t s in
      let var_of srcs =
        List.exists (fun s -> varish (ev s)) srcs
      in
      let unk srcs = Affine.unknown ~var:(var_of srcs) in
      let open Opcode in
      let results =
        match (i.Instr.op, i.Instr.srcs) with
        | MOV, [ a ] -> [ ev a ]
        | IADD, [ a; b ] -> [ Affine.add (ev a) (ev b) ]
        | ISUB, [ a; b ] -> [ Affine.sub (ev a) (ev b) ]
        | IMUL, [ a; b ] -> [ Affine.mul ~geom (ev a) (ev b) ]
        | IMAD, [ a; b; c ] ->
          [ Affine.add (Affine.mul ~geom (ev a) (ev b)) (ev c) ]
        | SHL, [ a; b ] ->
          (match Affine.is_const (ev b) with
           | Some k when k >= 0 && k < 31 ->
             [ Affine.mul_const (1 lsl k) (ev a) ]
           | _ -> [ unk [ a; b ] ])
        | SHR _, [ a; b ] ->
          (* Exact as division only when the value is provably
             non-negative (sign/zero extension agree). *)
          let va = ev a in
          (match Affine.is_const (ev b) with
           | Some k
             when k >= 0 && k < 31
                  && (Affine.to_interval ~geom va).Interval.lo >= 0 ->
             [ Affine.div_const ~geom (1 lsl k) va ]
           | _ -> [ unk [ a; b ] ])
        | LOP L_and, [ a; b ] ->
          (* Masking with 2^k - 1 bounds the result; other logic
             degrades. *)
          let masked x m =
            if m >= 0 && m land (m + 1) = 0 then
              Some
                (Affine.of_interval ~var:(varish x) (Interval.make 0 m))
            else None
          in
          let va = ev a and vb = ev b in
          (match (Affine.is_const va, Affine.is_const vb) with
           | _, Some m when masked va m <> None -> [ Option.get (masked va m) ]
           | Some m, _ when masked vb m <> None -> [ Option.get (masked vb m) ]
           | _ -> [ unk [ a; b ] ])
        | IMNMX _, [ a; b ] ->
          (* The result is one of the operands. *)
          [ Affine.join ~geom (ev a) (ev b) ]
        | SEL, ((a :: b :: _) as srcs) ->
          (* The selecting predicate picks per-thread which operand
             is read, so its variance taints the result even when
             both values are uniform; predicates are untracked here
             (SPred evaluates to unknown), so a predicated SEL is
             conservatively variant unless the operands agree. *)
          let va = ev a and vb = ev b in
          let j = Affine.join ~geom va vb in
          [ (if Affine.equal va vb || not (var_of srcs) then j
             else { j with Affine.a_var = true }) ]
        | IMOD Unsigned, [ a; b ] ->
          let va = ev a in
          (match Affine.is_const (ev b) with
           | Some k
             when k > 0 && (Affine.to_interval ~geom va).Interval.lo >= 0 ->
             [ Affine.of_interval ~var:(varish va) (Interval.make 0 (k - 1)) ]
           | _ -> [ unk [ a; b ] ])
        | IDIV _, [ a; b ] ->
          let va = ev a in
          (match Affine.is_const (ev b) with
           | Some k
             when k > 0 && (Affine.to_interval ~geom va).Interval.lo >= 0 ->
             [ Affine.div_const ~geom k va ]
           | _ -> [ unk [ a; b ] ])
        | S2R sp, _ ->
          [ (match sp with
             | Sr_tid_x -> Affine.tid_x
             | Sr_tid_y -> Affine.tid_y
             | Sr_ctaid_x -> Affine.ctaid_x
             | Sr_ctaid_y -> Affine.ctaid_y
             (* Launch dimensions are exact constants only under a
                concrete launch; statically they are just bounded
                uniform values. *)
             | Sr_ntid_x ->
               if st.s_ctx.c_concrete then Affine.const geom.Affine.g_block_x
               else Affine.of_interval (Interval.make 1 geom.Affine.g_block_x)
             | Sr_ntid_y ->
               if st.s_ctx.c_concrete then Affine.const geom.Affine.g_block_y
               else Affine.of_interval (Interval.make 1 geom.Affine.g_block_y)
             | Sr_nctaid_x ->
               if st.s_ctx.c_concrete then Affine.const geom.Affine.g_grid_x
               else Affine.of_interval (Interval.make 1 geom.Affine.g_grid_x)
             | Sr_nctaid_y ->
               if st.s_ctx.c_concrete then Affine.const geom.Affine.g_grid_y
               else Affine.of_interval (Interval.make 1 geom.Affine.g_grid_y)
             | Sr_laneid ->
               Affine.of_interval ~var:true (Interval.make 0 31)
             | Sr_warpid | Sr_smid | Sr_clock -> unknown_var) ]
        | (LD _ | TLD _ | ATOM _), _ ->
          (* Loaded data (and atomic return values) is opaque and
             potentially thread-variant. *)
          List.map (fun _ -> unknown_var) i.Instr.dsts
        | (SHFL _ | VOTE _ | P2R), _ ->
          List.map (fun _ -> unknown_var) i.Instr.dsts
        | _, srcs -> List.map (fun _ -> unk srcs) i.Instr.dsts
      in
      let guarded = not (Pred.is_always i.Instr.guard) in
      let bind regs dst value =
        match dst with
        | Reg.RZ -> regs
        | Reg.R idx ->
          let value =
            if guarded then
              (* May-write: the old value survives on the other side
                 of the guard. *)
              Affine.join ~geom (reg t dst) value
            else value
          in
          IM.add idx value regs
      in
      let rec apply regs dsts values =
        match (dsts, values) with
        | [], _ -> regs
        | d :: ds, v :: vs -> apply (bind regs d v) ds vs
        | d :: ds, [] -> apply (bind regs d unknown_var) ds []
      in
      St { st with s_regs = apply st.s_regs i.Instr.dsts results }
end

module Solver = Dataflow.Make (D)

let analyze ctx instrs cfg =
  let boundary = St { s_ctx = ctx; s_regs = IM.empty } in
  let r =
    Solver.solve ~direction:Dataflow.Forward ~boundary ~init:Bot instrs cfg
  in
  r.Solver.before

let pp ppf = function
  | Bot -> Format.pp_print_string ppf "<unreachable>"
  | St s ->
    Format.fprintf ppf "@[<v>";
    IM.iter
      (fun i a -> Format.fprintf ppf "R%d = %a@," i Affine.pp a)
      s.s_regs;
    Format.fprintf ppf "@]"
