open Vir

let fold_int_op op a b =
  let open Sass.Opcode in
  match op with
  | IADD -> Some (Gpu.Value.add a b)
  | ISUB -> Some (Gpu.Value.sub a b)
  | IMUL -> Some (Gpu.Value.mul a b)
  | IDIV sign -> Some (Gpu.Value.div ~sign a b)
  | IMOD sign -> Some (Gpu.Value.rem ~sign a b)
  | IMNMX cmp -> Some (Gpu.Value.min_max ~cmp a b)
  | SHL -> Some (Gpu.Value.shl a b)
  | SHR sign -> Some (Gpu.Value.shr ~sign a b)
  | LOP l -> Some (Gpu.Value.logic l a b)
  | FADD -> Some (Gpu.Value.fadd a b)
  | FSUB -> Some (Gpu.Value.fsub a b)
  | FMUL -> Some (Gpu.Value.fmul a b)
  | FMNMX cmp -> Some (Gpu.Value.fmin_max ~cmp a b)
  | _ -> None

let fold_unary_op op a =
  let open Sass.Opcode in
  match op with
  | BREV -> Some (Gpu.Value.brev a)
  | POPC -> Some (Gpu.Value.popc a)
  | FLO -> Some (Gpu.Value.flo a)
  | I2F sign -> Some (Gpu.Value.i2f ~sign a)
  | F2I sign -> Some (Gpu.Value.f2i ~sign a)
  | MUFU f -> Some (Gpu.Value.mufu f a)
  | MOV -> Some a
  | _ -> None

let constant_fold items =
  Array.map
    (fun it ->
       match it with
       | Label _ -> it
       | Ins i ->
         if i.vguard.g_pred <> None then it
         else (
           match i.vdsts, i.vsrcs with
           | [ d ], [ VImm a; VImm b ] ->
             (match fold_int_op i.vop a b with
              | Some v ->
                Ins { i with vop = Sass.Opcode.MOV; vdsts = [ d ];
                      vsrcs = [ VImm v ] }
              | None -> it)
           | [ d ], [ VImm a ] ->
             (match fold_unary_op i.vop a with
              | Some v ->
                Ins { i with vop = Sass.Opcode.MOV; vdsts = [ d ];
                      vsrcs = [ VImm v ] }
              | None -> it)
           | _ -> it))
    items

(* Identity simplifications: x+0, x*1, x*0, x<<0, x|0, x&0. *)
let strength_reduce items =
  Array.map
    (fun it ->
       match it with
       | Label _ -> it
       | Ins i when i.vguard.g_pred <> None -> it
       | Ins i ->
         let mov d s =
           Ins { i with vop = Sass.Opcode.MOV; vdsts = [ d ]; vsrcs = [ s ] }
         in
         (match i.vop, i.vdsts, i.vsrcs with
          | Sass.Opcode.IADD, [ d ], [ s; VImm 0 ]
          | Sass.Opcode.IADD, [ d ], [ VImm 0; s ]
          | Sass.Opcode.ISUB, [ d ], [ s; VImm 0 ]
          | Sass.Opcode.IMUL, [ d ], [ s; VImm 1 ]
          | Sass.Opcode.IMUL, [ d ], [ VImm 1; s ]
          | Sass.Opcode.SHL, [ d ], [ s; VImm 0 ]
          | Sass.Opcode.SHR _, [ d ], [ s; VImm 0 ]
          | Sass.Opcode.LOP Sass.Opcode.L_or, [ d ], [ s; VImm 0 ] ->
            mov d s
          | Sass.Opcode.IMUL, [ d ], [ _; VImm 0 ]
          | Sass.Opcode.IMUL, [ d ], [ VImm 0; _ ]
          | Sass.Opcode.LOP Sass.Opcode.L_and, [ d ], [ _; VImm 0 ] ->
            mov d (VImm 0)
          | _ -> it))
    items

(* Block-local common-subexpression elimination by value numbering:
   pure, unguarded, single-destination operations with identical
   operands reuse the earlier result (a later copy-propagation/DCE
   round removes the introduced MOVs). Loads, atomics, volatile
   specials (the clock) and anything with side effects are excluded. *)
let pure_for_cse (i : vinstr) =
  let open Sass.Opcode in
  match i.vop with
  | IADD | ISUB | IMUL | IMAD | IDIV _ | IMOD _ | IMNMX _ | SHL | SHR _
  | LOP _ | BREV | POPC | FLO | FADD | FSUB | FMUL | FFMA | FMNMX _
  | MUFU _ | I2F _ | F2I _ -> true
  | S2R Sr_clock -> false
  | S2R _ -> true
  (* SEL reads a predicate; predicate redefinitions are not tracked
     by the value-numbering table, so SEL must not be memoized. *)
  | SEL | ISETP _ | FSETP _ | MOV | P2R | R2P | PSETP _ | LD _ | ST _
  | ATOM _ | RED _ | TLD _ | MEMBAR | VOTE _ | SHFL _ | BRA | CAL | RET
  | EXIT | BAR | NOP | HCALL _ -> false

let cse items =
  let items = Array.copy items in
  let table : (Sass.Opcode.t * vsrc list, int) Hashtbl.t = Hashtbl.create 32 in
  let invalidate_reg r =
    let stale =
      Hashtbl.fold
        (fun ((_, srcs) as key) d acc ->
           if d = r || List.exists (fun s -> s = VReg r) srcs then key :: acc
           else acc)
        table []
    in
    List.iter (Hashtbl.remove table) stale
  in
  Array.iteri
    (fun idx it ->
       match it with
       | Label _ -> Hashtbl.reset table
       | Ins i ->
         if Sass.Opcode.is_control i.vop then Hashtbl.reset table;
         (match i.vdsts, i.vpdsts with
          | [ d ], [] when i.vguard.g_pred = None && pure_for_cse i ->
            let key = (i.vop, i.vsrcs) in
            (match Hashtbl.find_opt table key with
             | Some prev ->
               items.(idx) <-
                 Ins { i with vop = Sass.Opcode.MOV;
                       vsrcs = [ VReg prev ] };
               invalidate_reg d;
               (* The new MOV makes d an alias; don't register it. *)
               ()
             | None ->
               List.iter invalidate_reg i.vdsts;
               (* Self-referencing ops (d = f(d, ...)) cannot be
                  memoized: the key's source value is overwritten. *)
               if List.for_all (fun s -> s <> VReg d) i.vsrcs then
                 Hashtbl.replace table key d)
          | _ -> List.iter invalidate_reg i.vdsts))
    items;
  items

let copy_propagate items =
  let items = Array.copy items in
  let n = Array.length items in
  let copies : (int, vsrc) Hashtbl.t = Hashtbl.create 32 in
  let invalidate_reg r =
    Hashtbl.remove copies r;
    (* Drop any mapping whose source is r. *)
    let stale =
      Hashtbl.fold
        (fun d s acc ->
           match s with
           | VReg r' when r' = r -> d :: acc
           | _ -> acc)
        copies []
    in
    List.iter (Hashtbl.remove copies) stale
  in
  for idx = 0 to n - 1 do
    match items.(idx) with
    | Label _ -> Hashtbl.reset copies
    | Ins i ->
      (* Block boundary at control flow too. *)
      if Sass.Opcode.is_control i.vop then Hashtbl.reset copies;
      let subst s =
        match s with
        | VReg r ->
          (match Hashtbl.find_opt copies r with
           | Some replacement -> replacement
           | None -> s)
        | _ -> s
      in
      let i = { i with vsrcs = List.map subst i.vsrcs } in
      items.(idx) <- Ins i;
      List.iter invalidate_reg i.vdsts;
      if i.vguard.g_pred = None then (
        match i.vop, i.vdsts, i.vsrcs with
        | Sass.Opcode.MOV, [ d ], [ (VReg _ | VImm _ | VParam _) as s ] ->
          if s <> VReg d then Hashtbl.replace copies d s
        | _ -> ())
  done;
  items

let dead_code_eliminate items =
  let cfg = build_cfg items in
  let lv = liveness items cfg in
  let keep = Array.make (Array.length items) true in
  for b = 0 to Array.length cfg.Sass.Cfg.blocks - 1 do
    let { Sass.Cfg.first; last; _ } = cfg.Sass.Cfg.blocks.(b) in
    let live_r =
      ref (List.fold_left (fun s r -> r :: s) [] (live_out_regs lv ~block:b))
    in
    let live_p =
      ref (List.fold_left (fun s p -> p :: s) [] (live_out_preds lv ~block:b))
    in
    for idx = last downto first do
      match items.(idx) with
      | Label _ -> ()
      | Ins i ->
        let defs_live =
          List.exists (fun d -> List.mem d !live_r) i.vdsts
          || List.exists (fun d -> List.mem d !live_p) i.vpdsts
        in
        if (not (has_side_effect i)) && not defs_live
           && (i.vdsts <> [] || i.vpdsts <> [])
        then keep.(idx) <- false
        else begin
          if i.vguard.g_pred = None then begin
            live_r := List.filter (fun r -> not (List.mem r i.vdsts)) !live_r;
            live_p := List.filter (fun p -> not (List.mem p i.vpdsts)) !live_p
          end;
          List.iter
            (fun u -> if not (List.mem u !live_r) then live_r := u :: !live_r)
            (reg_uses i);
          List.iter
            (fun u -> if not (List.mem u !live_p) then live_p := u :: !live_p)
            (pred_uses i)
        end
    done
  done;
  let out = ref [] in
  for idx = Array.length items - 1 downto 0 do
    if keep.(idx) then out := items.(idx) :: !out
  done;
  Array.of_list !out

let optimize ?(level = 1) items =
  if level <= 0 then items
  else begin
    let pass items =
      items
      |> constant_fold
      |> strength_reduce
      |> cse
      |> copy_propagate
      |> dead_code_eliminate
    in
    (* Iterate to a fixpoint: each pass can expose work for the others
       (a folded constant enables propagation enables dead code). The
       bound is a safety net; lowered kernels settle in 2-4 rounds. *)
    let rec go items fuel =
      let items' = pass items in
      if fuel = 0 || items' = items then items'
      else go items' (fuel - 1)
    in
    go items 8
  end
