type block = {
  id : int;
  first : int;
  last : int;
  succs : int list;
  preds : int list;
}

type t = {
  blocks : block array;
  block_of_pc : int array;
  reachable : bool array;
}

let instr_successors instrs pc =
  let n = Array.length instrs in
  let i = instrs.(pc) in
  let fallthrough = if pc + 1 < n then [ pc + 1 ] else [] in
  match i.Instr.op with
  | Opcode.EXIT | Opcode.RET ->
    (* A guarded EXIT retires only the lanes whose guard holds; the
       warp falls through for the rest. *)
    if Pred.is_always i.Instr.guard then [] else fallthrough
  | Opcode.BRA ->
    let target =
      match i.Instr.target with
      | Some t -> t
      | None -> invalid_arg "Cfg: BRA without resolved target"
    in
    if Instr.is_cond_branch i then target :: fallthrough else [ target ]
  | Opcode.IADD | Opcode.ISUB | Opcode.IMUL | Opcode.IMAD | Opcode.IDIV _
  | Opcode.IMOD _ | Opcode.IMNMX _ | Opcode.SHL | Opcode.SHR _
  | Opcode.LOP _ | Opcode.BREV | Opcode.POPC | Opcode.FLO | Opcode.ISETP _
  | Opcode.FADD | Opcode.FSUB | Opcode.FMUL | Opcode.FFMA | Opcode.FMNMX _
  | Opcode.MUFU _ | Opcode.FSETP _ | Opcode.I2F _ | Opcode.F2I _
  | Opcode.MOV | Opcode.SEL | Opcode.S2R _ | Opcode.P2R | Opcode.R2P
  | Opcode.PSETP _ | Opcode.LD _ | Opcode.ST _ | Opcode.ATOM _
  | Opcode.RED _ | Opcode.TLD _ | Opcode.MEMBAR | Opcode.VOTE _
  | Opcode.SHFL _ | Opcode.CAL | Opcode.BAR | Opcode.NOP
  | Opcode.HCALL _ -> fallthrough

let make ~leader ~succs:succ_pcs =
  let n = Array.length leader in
  if n = 0 then invalid_arg "Cfg.make: empty program";
  let block_of_pc = Array.make n (-1) in
  let firsts = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) || pc = 0 then firsts := pc :: !firsts
  done;
  let firsts = Array.of_list !firsts in
  let nblocks = Array.length firsts in
  let lasts =
    Array.init nblocks (fun b ->
        let next = if b + 1 < nblocks then firsts.(b + 1) else n in
        next - 1)
  in
  Array.iteri
    (fun b first ->
       for pc = first to lasts.(b) do
         block_of_pc.(pc) <- b
       done)
    firsts;
  let succs =
    Array.mapi
      (fun b _ ->
         succ_pcs lasts.(b)
         |> List.map (fun pc -> block_of_pc.(pc))
         |> List.sort_uniq Int.compare)
      firsts
  in
  let preds = Array.make nblocks [] in
  Array.iteri
    (fun b ss -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss)
    succs;
  let blocks =
    Array.init nblocks (fun b ->
        { id = b;
          first = firsts.(b);
          last = lasts.(b);
          succs = succs.(b);
          preds = List.rev preds.(b) })
  in
  let reachable = Array.make nblocks false in
  let rec mark b =
    if not reachable.(b) then begin
      reachable.(b) <- true;
      List.iter mark blocks.(b).succs
    end
  in
  mark 0;
  { blocks; block_of_pc; reachable }

let build instrs =
  let n = Array.length instrs in
  let leader = Array.make n false in
  for pc = 0 to n - 1 do
    let i = instrs.(pc) in
    (match i.Instr.op with
     | Opcode.BRA ->
       (match i.Instr.target with
        | Some t -> leader.(t) <- true
        | None -> invalid_arg "Cfg: BRA without resolved target")
     | _ -> ());
    (* HCALL and CAL fall through without ending a block; branches,
       returns and exits end one. *)
    match i.Instr.op with
    | Opcode.BRA | Opcode.RET | Opcode.EXIT ->
      if pc + 1 < n then leader.(pc + 1) <- true
    | _ -> ()
  done;
  make ~leader ~succs:(instr_successors instrs)

let block_at t pc = t.blocks.(t.block_of_pc.(pc))

let reachable_block t b = t.reachable.(b)

let exit_blocks t =
  Array.to_list t.blocks
  |> List.filter_map (fun b -> if b.succs = [] then Some b.id else None)

let pp ppf t =
  Array.iter
    (fun b ->
       Format.fprintf ppf "B%d [%d..%d] -> %a@."
         b.id b.first b.last
         (Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
            Format.pp_print_int)
         b.succs)
    t.blocks
