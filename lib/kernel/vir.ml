type vsrc =
  | VReg of int
  | VImm of int
  | VParam of int
  | VPred of int

type guard = {
  g_pred : int option;
  g_neg : bool;
}

let always = { g_pred = None; g_neg = false }

type vinstr = {
  vop : Sass.Opcode.t;
  vguard : guard;
  vdsts : int list;
  vpdsts : int list;
  vsrcs : vsrc list;
  vtarget : string option;
}

type item =
  | Label of string
  | Ins of vinstr

let ins ?(guard = always) ?(dsts = []) ?(pdsts = []) ?(srcs = []) ?target op =
  Ins { vop = op; vguard = guard; vdsts = dsts; vpdsts = pdsts;
        vsrcs = srcs; vtarget = target }

let reg_uses i =
  List.filter_map
    (function
      | VReg r -> Some r
      | VImm _ | VParam _ | VPred _ -> None)
    i.vsrcs

let pred_uses i =
  let srcs =
    List.filter_map
      (function
        | VPred p -> Some p
        | VReg _ | VImm _ | VParam _ -> None)
      i.vsrcs
  in
  match i.vguard.g_pred with
  | Some p -> p :: srcs
  | None -> srcs

let has_side_effect i =
  let open Sass.Opcode in
  is_mem_write i.vop || is_atomic i.vop || is_control i.vop || is_sync i.vop
  || (match i.vop with
      | NOP -> i.vsrcs <> []  (* marker NOPs are kept *)
      | _ -> false)

(* --- CFG and liveness ---------------------------------------------------- *)

let build_cfg items =
  let n = Array.length items in
  let label_pos = Hashtbl.create 16 in
  let leader = Array.make n false in
  Array.iteri
    (fun idx it ->
       match it with
       | Label l ->
         Hashtbl.replace label_pos l idx;
         leader.(idx) <- true
       | Ins i ->
         (match i.vop with
          | Sass.Opcode.BRA | Sass.Opcode.EXIT | Sass.Opcode.RET ->
            if idx + 1 < n then leader.(idx + 1) <- true
          | _ -> ()))
    items;
  let succs idx =
    let fallthrough = if idx + 1 < n then [ idx + 1 ] else [] in
    match items.(idx) with
    | Label _ -> fallthrough
    | Ins i ->
      (match i.vop with
       | Sass.Opcode.EXIT | Sass.Opcode.RET ->
         (* Guarded EXIT falls through for the surviving lanes. *)
         if i.vguard.g_pred = None then [] else fallthrough
       | Sass.Opcode.BRA ->
         let t =
           match i.vtarget with
           | Some l ->
             (match Hashtbl.find_opt label_pos l with
              | Some t -> t
              | None -> invalid_arg (Printf.sprintf "Vir: unknown label %s" l))
           | None -> invalid_arg "Vir: BRA without label"
         in
         if i.vguard.g_pred = None then [ t ] else t :: fallthrough
       | _ -> fallthrough)
  in
  Sass.Cfg.make ~leader ~succs

module ISet = Set.Make (Int)

(* Live virtual registers and live virtual predicates. *)
module Live = struct
  type t = ISet.t * ISet.t
  type instr = item

  let equal (r, p) (r', p') = ISet.equal r r' && ISet.equal p p'
  let join (r, p) (r', p') = (ISet.union r r', ISet.union p p')
  let widen = join

  let transfer ~pc:_ it (live_r, live_p) =
    match it with
    | Label _ -> (live_r, live_p)
    | Ins i ->
      let live_r, live_p =
        if i.vguard.g_pred = None then
          ( List.fold_left (fun s d -> ISet.remove d s) live_r i.vdsts,
            List.fold_left (fun s d -> ISet.remove d s) live_p i.vpdsts )
        else (live_r, live_p)
      in
      ( List.fold_left (fun s u -> ISet.add u s) live_r (reg_uses i),
        List.fold_left (fun s u -> ISet.add u s) live_p (pred_uses i) )
end

module Live_solver = Sass.Dataflow.Make (Live)

(* Live-out state per block. *)
type liveness = Live.t array

let liveness items (cfg : Sass.Cfg.t) =
  let none = (ISet.empty, ISet.empty) in
  let r =
    Live_solver.solve ~direction:Sass.Dataflow.Backward ~boundary:none
      ~init:none items cfg
  in
  Array.map (fun (b : Sass.Cfg.block) -> r.Live_solver.after.(b.last))
    cfg.blocks

let live_out_regs lv ~block = ISet.elements (fst lv.(block))

let live_out_preds lv ~block = ISet.elements (snd lv.(block))

let ranges_generic items cfg ~defs ~uses ~live_out =
  let table : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let extend v idx =
    match Hashtbl.find_opt table v with
    | None -> Hashtbl.replace table v (idx, idx)
    | Some (lo, hi) -> Hashtbl.replace table v (min lo idx, max hi idx)
  in
  Array.iteri
    (fun idx it ->
       match it with
       | Label _ -> ()
       | Ins i ->
         List.iter (fun v -> extend v idx) (defs i);
         List.iter (fun v -> extend v idx) (uses i))
    items;
  (* Values live out of a block are live through the whole block. *)
  Array.iter
    (fun (b : Sass.Cfg.block) ->
       List.iter
         (fun v ->
            extend v b.last;
            (* If live-out without a def in this block, it is live from
               the top of the block. *)
            extend v b.first)
         (live_out b.id))
    cfg.Sass.Cfg.blocks;
  Hashtbl.fold (fun v r acc -> (v, r) :: acc) table []
  |> List.sort (fun (_, (a, _)) (_, (b, _)) -> Int.compare a b)

let reg_live_ranges items cfg lv =
  ranges_generic items cfg
    ~defs:(fun i -> i.vdsts)
    ~uses:reg_uses
    ~live_out:(fun b -> live_out_regs lv ~block:b)

let pred_live_ranges items cfg lv =
  ranges_generic items cfg
    ~defs:(fun i -> i.vpdsts)
    ~uses:pred_uses
    ~live_out:(fun b -> live_out_preds lv ~block:b)

(* --- Printing ----------------------------------------------------------- *)

let pp_vsrc ppf = function
  | VReg r -> Format.fprintf ppf "v%d" r
  | VImm i -> Format.fprintf ppf "0x%x" (i land 0xffffffff)
  | VParam o -> Format.fprintf ppf "c[0x%x]" o
  | VPred p -> Format.fprintf ppf "vp%d" p

let pp_item ppf = function
  | Label l -> Format.fprintf ppf "%s:" l
  | Ins i ->
    (match i.vguard.g_pred with
     | Some p ->
       Format.fprintf ppf "@@%svp%d " (if i.vguard.g_neg then "!" else "") p
     | None -> ());
    Sass.Opcode.pp ppf i.vop;
    List.iter (fun d -> Format.fprintf ppf " v%d" d) i.vdsts;
    List.iter (fun d -> Format.fprintf ppf " vp%d" d) i.vpdsts;
    List.iter (fun s -> Format.fprintf ppf " %a" pp_vsrc s) i.vsrcs;
    (match i.vtarget with
     | Some l -> Format.fprintf ppf " -> %s" l
     | None -> ())

let pp_items ppf items =
  Array.iteri (fun idx it -> Format.fprintf ppf "%3d: %a@." idx pp_item it) items
