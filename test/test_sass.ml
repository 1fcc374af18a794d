(* Unit and property tests for the SASS ISA library. *)

open Sass

let check = Alcotest.check

(* --- Reg / Pred ------------------------------------------------------ *)

let test_reg_roundtrip () =
  for i = 0 to 254 do
    check Alcotest.int "index/of_index" i (Reg.index (Reg.of_index i))
  done;
  check Alcotest.bool "RZ is zero" true (Reg.is_zero Reg.RZ);
  check Alcotest.bool "R0 not zero" false (Reg.is_zero (Reg.r 0));
  check Alcotest.string "RZ name" "RZ" (Reg.to_string Reg.RZ);
  check Alcotest.string "R7 name" "R7" (Reg.to_string (Reg.r 7))

let test_reg_bounds () =
  Alcotest.check_raises "R255 invalid" (Invalid_argument "Reg.r: register out of range")
    (fun () -> ignore (Reg.r 255));
  Alcotest.check_raises "negative invalid" (Invalid_argument "Reg.r: register out of range")
    (fun () -> ignore (Reg.r (-1)))

let test_pred_guard () =
  check Alcotest.bool "always" true (Pred.is_always Pred.always);
  check Alcotest.bool "@P0 not always" false (Pred.is_always (Pred.on (Pred.p 0)));
  check Alcotest.bool "@!PT not always" false (Pred.is_always (Pred.on_not Pred.PT));
  check Alcotest.int "PT index" 7 (Pred.index Pred.PT)

(* --- Opcode classification ------------------------------------------- *)

let test_opcode_classes () =
  let open Opcode in
  check Alcotest.bool "LD is mem" true (is_mem (LD (Global, W32)));
  check Alcotest.bool "LD is read" true (is_mem_read (LD (Global, W32)));
  check Alcotest.bool "LD not write" false (is_mem_write (LD (Global, W32)));
  check Alcotest.bool "ST is write" true (is_mem_write (ST (Global, W32)));
  check Alcotest.bool "ATOM read+write" true
    (is_mem_read (ATOM (Global, A_add, W32))
     && is_mem_write (ATOM (Global, A_add, W32)));
  check Alcotest.bool "STL spill" true (is_spill_or_fill (ST (Local, W32)));
  check Alcotest.bool "LD global not spill" false (is_spill_or_fill (LD (Global, W32)));
  check Alcotest.bool "BRA control" true (is_control BRA);
  check Alcotest.bool "BAR sync" true (is_sync BAR);
  check Alcotest.bool "IADD numeric" true (is_numeric IADD);
  check Alcotest.bool "MOV not numeric" false (is_numeric MOV);
  check Alcotest.bool "TLD texture" true (is_texture (TLD W32));
  check Alcotest.bool "VOTE warp wide" true (is_warp_wide (VOTE V_ballot));
  check Alcotest.bool "HCALL control" true (is_control (HCALL 3))

let test_opcode_encode_classes () =
  (* insEncoding carries the class bits so handlers can decode them. *)
  let open Opcode in
  let enc = encode (ST (Global, W32)) in
  check Alcotest.bool "encode mem bit" true (enc land 0x100 <> 0);
  check Alcotest.bool "encode write bit" true (enc land 0x4000 <> 0);
  check Alcotest.bool "encode read bit clear" true (enc land 0x2000 = 0);
  let enc_bra = encode BRA in
  check Alcotest.bool "BRA control bit" true (enc_bra land 0x200 <> 0)

let test_opcode_encode_distinct () =
  let open Opcode in
  let ops =
    [ IADD; ISUB; IMUL; IMAD; SHL; MOV; SEL; P2R; R2P; BREV; POPC; FLO;
      FADD; FSUB; FMUL; FFMA; BRA; CAL; RET; EXIT; BAR; NOP; MEMBAR ]
  in
  let encs = List.map encode ops in
  let sorted = List.sort_uniq Int.compare encs in
  check Alcotest.int "distinct encodings" (List.length ops) (List.length sorted)

let test_width_bytes () =
  let open Opcode in
  check Alcotest.int "W8" 1 (bytes_of_width W8);
  check Alcotest.int "W16" 2 (bytes_of_width W16);
  check Alcotest.int "W32" 4 (bytes_of_width W32);
  check Alcotest.int "W64" 8 (bytes_of_width W64)

(* --- Instr def/use ---------------------------------------------------- *)

let test_instr_defs_uses () =
  let i =
    Instr.make Opcode.IADD ~dsts:[ Reg.r 3 ]
      ~srcs:[ Instr.SReg (Reg.r 4); Instr.SImm 1 ]
  in
  check Alcotest.int "one def" 1 (List.length (Instr.defs i));
  check Alcotest.int "one use" 1 (List.length (Instr.uses i));
  let z = Instr.make Opcode.IADD ~dsts:[ Reg.RZ ] ~srcs:[ Instr.SReg Reg.RZ ] in
  check Alcotest.int "RZ not def" 0 (List.length (Instr.defs z));
  check Alcotest.int "RZ not use" 0 (List.length (Instr.uses z))

let test_instr_pred_defs_uses () =
  let i =
    Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
      ~pdsts:[ Pred.p 0 ]
      ~srcs:[ Instr.SReg (Reg.r 2); Instr.SReg (Reg.r 3) ]
  in
  check Alcotest.int "pdef" 1 (List.length (Instr.pdefs i));
  let guarded =
    Instr.make Opcode.MOV ~guard:(Pred.on (Pred.p 2)) ~dsts:[ Reg.r 0 ]
      ~srcs:[ Instr.SImm 5 ]
  in
  check Alcotest.bool "guard is use" true
    (List.exists (Pred.equal (Pred.p 2)) (Instr.puses guarded));
  let p2r = Instr.make Opcode.P2R ~dsts:[ Reg.r 8 ] in
  check Alcotest.int "P2R uses all preds" 7 (List.length (Instr.puses p2r));
  let r2p = Instr.make Opcode.R2P ~srcs:[ Instr.SReg (Reg.r 8) ] in
  check Alcotest.int "R2P defines all preds" 7 (List.length (Instr.pdefs r2p))

let test_cond_branch () =
  let b = Instr.make Opcode.BRA ~target:4 in
  check Alcotest.bool "unconditional" false (Instr.is_cond_branch b);
  let cb = Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:4 in
  check Alcotest.bool "conditional" true (Instr.is_cond_branch cb)

(* --- CFG --------------------------------------------------------------- *)

(* A diamond:
     0: ISETP P0 = ...
     1: @P0 BRA 4
     2: MOV R2, 1
     3: BRA 5
     4: MOV R2, 2
     5: EXIT *)
let diamond () =
  [| Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
       ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 10 ];
     Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:4;
     Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 1 ];
     Instr.make Opcode.BRA ~target:5;
     Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 2 ];
     Instr.make Opcode.EXIT |]

let test_cfg_diamond () =
  let cfg = Cfg.build (diamond ()) in
  check Alcotest.int "4 blocks" 4 (Array.length cfg.Cfg.blocks);
  let b0 = Cfg.block_at cfg 0 in
  check Alcotest.int "b0 spans branch" 1 b0.Cfg.last;
  check Alcotest.int "b0 two succs" 2 (List.length b0.Cfg.succs);
  let bexit = Cfg.block_at cfg 5 in
  check Alcotest.int "exit no succs" 0 (List.length bexit.Cfg.succs);
  check Alcotest.int "exit two preds" 2 (List.length bexit.Cfg.preds);
  check (Alcotest.list Alcotest.int) "exit blocks" [ bexit.Cfg.id ]
    (Cfg.exit_blocks cfg)

let test_cfg_loop () =
  (* 0: MOV R0,0 / 1: IADD R0,R0,1 / 2: ISETP P0 / 3: @P0 BRA 1 / 4: EXIT *)
  let instrs =
    [| Instr.make Opcode.MOV ~dsts:[ Reg.r 0 ] ~srcs:[ Instr.SImm 0 ];
       Instr.make Opcode.IADD ~dsts:[ Reg.r 0 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 1 ];
       Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
         ~pdsts:[ Pred.p 0 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 10 ];
       Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:1;
       Instr.make Opcode.EXIT |]
  in
  let cfg = Cfg.build instrs in
  check Alcotest.int "3 blocks" 3 (Array.length cfg.Cfg.blocks);
  let loop = Cfg.block_at cfg 1 in
  check Alcotest.bool "loop self edge" true
    (List.mem loop.Cfg.id loop.Cfg.succs)

(* --- Post-dominators / reconvergence --------------------------------- *)

let test_pdom_diamond () =
  let instrs = diamond () in
  let cfg = Cfg.build instrs in
  let pdom = Domtree.post_dominators cfg in
  let rc = Domtree.reconvergence_pc cfg pdom 1 in
  check (Alcotest.option Alcotest.int) "diamond reconverges at EXIT" (Some 5) rc

let test_pdom_if_then () =
  (* 0: @P0 BRA 3 / 1: MOV / 2: MOV / 3: EXIT — reconv at 3 *)
  let instrs =
    [| Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:3;
       Instr.make Opcode.MOV ~dsts:[ Reg.r 0 ] ~srcs:[ Instr.SImm 1 ];
       Instr.make Opcode.MOV ~dsts:[ Reg.r 1 ] ~srcs:[ Instr.SImm 2 ];
       Instr.make Opcode.EXIT |]
  in
  let cfg = Cfg.build instrs in
  let pdom = Domtree.post_dominators cfg in
  check (Alcotest.option Alcotest.int) "if-then reconv" (Some 3)
    (Domtree.reconvergence_pc cfg pdom 0)

let test_annotate_reconvergence () =
  let k = Program.make ~name:"diamond" (diamond ()) in
  let k = Program.annotate_reconvergence k in
  check (Alcotest.option Alcotest.int) "annotated" (Some 5)
    k.Program.instrs.(1).Instr.reconv;
  check (Alcotest.option Alcotest.int) "uncond branch not annotated" None
    k.Program.instrs.(3).Instr.reconv

let test_program_validate () =
  let k = Program.make ~name:"ok" (diamond ()) in
  check Alcotest.bool "valid" true (Result.is_ok (Program.validate k));
  let bad =
    Program.make ~name:"bad"
      [| Instr.make Opcode.BRA ~target:99; Instr.make Opcode.EXIT |]
  in
  check Alcotest.bool "bad target" true (Result.is_error (Program.validate bad));
  let noexit =
    Program.make ~name:"noexit" [| Instr.make Opcode.NOP |]
  in
  check Alcotest.bool "no exit" true (Result.is_error (Program.validate noexit))

let test_program_regs_used () =
  let k = Program.make ~name:"r" (diamond ()) in
  check Alcotest.int "regs_used" 3 k.Program.regs_used

(* --- Liveness ---------------------------------------------------------- *)

let test_liveness_straightline () =
  (* 0: MOV R0, 7 / 1: IADD R2, R0, 1 / 2: ST [R3], R2 / 3: EXIT *)
  let instrs =
    [| Instr.make Opcode.MOV ~dsts:[ Reg.r 0 ] ~srcs:[ Instr.SImm 7 ];
       Instr.make Opcode.IADD ~dsts:[ Reg.r 2 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 1 ];
       Instr.make (Opcode.ST (Opcode.Global, Opcode.W32))
         ~srcs:[ Instr.SReg (Reg.r 3); Instr.SImm 0; Instr.SReg (Reg.r 2) ];
       Instr.make Opcode.EXIT |]
  in
  let lv = Liveness.analyze instrs in
  let live1 = Liveness.live_gprs_before lv 1 in
  check Alcotest.bool "R0 live before 1" true
    (List.exists (Reg.equal (Reg.r 0)) live1);
  check Alcotest.bool "R3 live before 0" true
    (List.exists (Reg.equal (Reg.r 3)) (Liveness.live_gprs_before lv 0));
  check Alcotest.bool "R0 dead after 1" false
    (List.exists (Reg.equal (Reg.r 0)) (Liveness.live_gprs_after lv 1));
  check Alcotest.bool "nothing live after EXIT" true
    (Liveness.live_gprs_after lv 3 = [])

let test_liveness_loop () =
  (* R5 live around the loop. *)
  let instrs =
    [| Instr.make Opcode.MOV ~dsts:[ Reg.r 5 ] ~srcs:[ Instr.SImm 0 ];
       Instr.make Opcode.IADD ~dsts:[ Reg.r 5 ]
         ~srcs:[ Instr.SReg (Reg.r 5); Instr.SImm 1 ];
       Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
         ~pdsts:[ Pred.p 0 ]
         ~srcs:[ Instr.SReg (Reg.r 5); Instr.SImm 10 ];
       Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:1;
       Instr.make (Opcode.ST (Opcode.Global, Opcode.W32))
         ~srcs:[ Instr.SReg (Reg.r 6); Instr.SImm 0; Instr.SReg (Reg.r 5) ];
       Instr.make Opcode.EXIT |]
  in
  let lv = Liveness.analyze instrs in
  check Alcotest.bool "R5 live at loop head" true
    (List.exists (Reg.equal (Reg.r 5)) (Liveness.live_gprs_before lv 1));
  check Alcotest.bool "P0 live before branch" true
    (List.exists (Pred.equal (Pred.p 0)) (Liveness.live_preds_before lv 3));
  check Alcotest.bool "P0 dead before setp" false
    (List.exists (Pred.equal (Pred.p 0)) (Liveness.live_preds_before lv 2))

let test_liveness_guarded_def_not_kill () =
  (* @P1 MOV R0, 1 must not kill R0: the lane may be masked. *)
  let instrs =
    [| Instr.make Opcode.MOV ~guard:(Pred.on (Pred.p 1)) ~dsts:[ Reg.r 0 ]
         ~srcs:[ Instr.SImm 1 ];
       Instr.make (Opcode.ST (Opcode.Global, Opcode.W32))
         ~srcs:[ Instr.SReg (Reg.r 2); Instr.SImm 0; Instr.SReg (Reg.r 0) ];
       Instr.make Opcode.EXIT |]
  in
  let lv = Liveness.analyze instrs in
  check Alcotest.bool "R0 live before guarded def" true
    (List.exists (Reg.equal (Reg.r 0)) (Liveness.live_gprs_before lv 0))

let test_liveness_word_boundaries () =
  (* R63, R127 and R191 sit on 64-bit word edges: a register set packed
     64 per OCaml int (63 bits) silently drops them, and the MOV below
     would then be reported as a dead store. *)
  List.iter
    (fun n ->
       let instrs =
         [| Instr.make Opcode.MOV ~dsts:[ Reg.r n ] ~srcs:[ Instr.SImm 1 ];
            Instr.make Opcode.IADD ~dsts:[ Reg.r 0 ]
              ~srcs:[ Instr.SReg (Reg.r n); Instr.SImm 1 ];
            Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ]
              ~srcs:[ Instr.SReg (Reg.r 0) ];
            Instr.make Opcode.EXIT |]
       in
       let live = Liveness.analyze instrs in
       check (Alcotest.list Alcotest.int)
         (Printf.sprintf "R%d live before pc 1" n)
         [ n ]
         (List.map Reg.index (Liveness.live_gprs_before live 1));
       let dead_store_at_0 =
         Analysis.Dead_check.check ~kernel:"k" instrs (Cfg.build instrs) live
         |> List.exists (fun (f : Analysis.Finding.t) ->
             f.Analysis.Finding.f_kind = Analysis.Finding.Dead_store
             && f.Analysis.Finding.f_pc = 0)
       in
       check Alcotest.bool
         (Printf.sprintf "MOV R%d is not a dead store" n)
         false dead_store_at_0)
    [ 63; 127; 191 ]

(* --- QCheck properties -------------------------------------------------- *)

(* Random structured programs: sequences of arithmetic with occasional
   forward conditional branches, terminated by EXIT. Properties: CFG
   partitions the program; every instruction belongs to exactly one
   block; ipdom of a cond branch block, when present, post-dominates it. *)

let gen_program =
  let open QCheck.Gen in
  let body_len = int_range 4 24 in
  body_len >>= fun n ->
  let gen_instr pc =
    frequency
      [ (6,
         map2
           (fun d s ->
              Instr.make Opcode.IADD ~dsts:[ Reg.r d ]
                ~srcs:[ Instr.SReg (Reg.r s); Instr.SImm 1 ])
           (int_range 0 7) (int_range 0 7));
        (2,
         map
           (fun s ->
              Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
                ~pdsts:[ Pred.p 0 ]
                ~srcs:[ Instr.SReg (Reg.r s); Instr.SImm 5 ])
           (int_range 0 7));
        (2,
         (* forward conditional branch to a random later pc *)
         map
           (fun off ->
              let t = min (pc + 1 + off) n in
              Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:t)
           (int_range 1 6)) ]
  in
  let rec gen_list pc acc =
    if pc >= n then return (List.rev (Instr.make Opcode.EXIT :: acc))
    else gen_instr pc >>= fun i -> gen_list (pc + 1) (i :: acc)
  in
  gen_list 0 [] >|= Array.of_list

let arb_program =
  QCheck.make gen_program
    ~print:(fun instrs ->
      Program.pp Format.str_formatter (Program.make ~name:"q" instrs);
      Format.flush_str_formatter ())

let prop_cfg_partitions =
  QCheck.Test.make ~name:"cfg partitions instructions" ~count:200 arb_program
    (fun instrs ->
       let cfg = Cfg.build instrs in
       let n = Array.length instrs in
       let covered = Array.make n 0 in
       Array.iter
         (fun b ->
            for pc = b.Cfg.first to b.Cfg.last do
              covered.(pc) <- covered.(pc) + 1
            done)
         cfg.Cfg.blocks;
       Array.for_all (fun c -> c = 1) covered)

let prop_cfg_edges_valid =
  QCheck.Test.make ~name:"cfg successor edges match instruction successors"
    ~count:200 arb_program (fun instrs ->
      let cfg = Cfg.build instrs in
      Array.for_all
        (fun b ->
           let expected =
             Cfg.instr_successors instrs b.Cfg.last
             |> List.map (fun pc -> cfg.Cfg.block_of_pc.(pc))
             |> List.sort_uniq Int.compare
           in
           List.sort_uniq Int.compare b.Cfg.succs = expected)
        cfg.Cfg.blocks)

let prop_ipdom_post_dominates =
  QCheck.Test.make ~name:"ipdom post-dominates its block" ~count:200
    arb_program (fun instrs ->
      let cfg = Cfg.build instrs in
      let pdom = Domtree.post_dominators cfg in
      Array.for_all
        (fun b ->
           match Domtree.ipdom pdom b.Cfg.id with
           | None -> true
           | Some d -> Domtree.post_dominates pdom d b.Cfg.id && d <> b.Cfg.id)
        cfg.Cfg.blocks)

let prop_reconv_annotation_stable =
  QCheck.Test.make ~name:"annotate_reconvergence is idempotent" ~count:100
    arb_program (fun instrs ->
      let k = Program.make ~name:"q" instrs in
      let k1 = Program.annotate_reconvergence k in
      let k2 = Program.annotate_reconvergence k1 in
      k1.Program.instrs = k2.Program.instrs)

let prop_liveness_uses_live =
  QCheck.Test.make ~name:"used registers are live before their use" ~count:200
    arb_program (fun instrs ->
      let lv = Liveness.analyze instrs in
      let ok = ref true in
      Array.iteri
        (fun pc i ->
           let live = Liveness.live_gprs_before lv pc in
           List.iter
             (fun u ->
                if not (List.exists (Reg.equal u) live) then ok := false)
             (Instr.uses i))
        instrs;
      !ok)

(* --- Edge cases: unreachable blocks, multi-exit kernels, guarded
       EXIT fallthrough, CAL/HCALL fallthrough, forward dominators,
       predicated defs in loops --- *)

let test_cfg_unreachable_blocks () =
  (* pc 2..3 form a self-looping block no path from the entry reaches. *)
  let instrs =
    [| Instr.make Opcode.MOV ~dsts:[ Reg.r 0 ] ~srcs:[ Instr.SImm 1 ];
       Instr.make Opcode.EXIT;
       Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 5 ];
       Instr.make Opcode.BRA ~target:2 |]
  in
  let cfg = Cfg.build instrs in
  (* block_of_pc stays total over unreachable code. *)
  Array.iteri
    (fun pc _ ->
       check Alcotest.bool "pc mapped" true (cfg.Cfg.block_of_pc.(pc) >= 0))
    instrs;
  check Alcotest.bool "entry reachable" true
    (Cfg.reachable_block cfg cfg.Cfg.block_of_pc.(0));
  check Alcotest.bool "orphan unreachable" false
    (Cfg.reachable_block cfg cfg.Cfg.block_of_pc.(2));
  (* Invariant from cfg.mli: a reachable block never has an
     unreachable predecessor. *)
  Array.iter
    (fun b ->
       if Cfg.reachable_block cfg b.Cfg.id then
         List.iter
           (fun p ->
              check Alcotest.bool "pred of reachable is reachable" true
                (Cfg.reachable_block cfg p))
           b.Cfg.preds)
    cfg.Cfg.blocks;
  (* Liveness still converges and is sound on the unreachable loop:
     R2 is written and never read, so it is not live-in there. *)
  let live = Liveness.analyze instrs in
  check Alcotest.bool "R2 dead in unreachable loop" false
    (List.exists (Reg.equal (Reg.r 2)) (Liveness.live_gprs_before live 2))

let prop_cfg_reachable_closed =
  QCheck.Test.make
    ~name:"reachable blocks never have unreachable preds" ~count:200
    arb_program (fun instrs ->
      let cfg = Cfg.build instrs in
      Array.for_all
        (fun b ->
           (not (Cfg.reachable_block cfg b.Cfg.id))
           || List.for_all (Cfg.reachable_block cfg) b.Cfg.preds)
        cfg.Cfg.blocks)

let test_domtree_forward () =
  let instrs = diamond () in
  let cfg = Cfg.build instrs in
  let dom = Domtree.dominators cfg in
  let b = Array.map (fun pc -> cfg.Cfg.block_of_pc.(pc)) [| 0; 2; 4; 5 |] in
  check (Alcotest.option Alcotest.int) "entry has no idom" None
    (Domtree.idom dom b.(0));
  check (Alcotest.option Alcotest.int) "then-arm idom" (Some b.(0))
    (Domtree.idom dom b.(1));
  check (Alcotest.option Alcotest.int) "else-arm idom" (Some b.(0))
    (Domtree.idom dom b.(2));
  check (Alcotest.option Alcotest.int) "join idom" (Some b.(0))
    (Domtree.idom dom b.(3));
  check Alcotest.bool "entry dominates join" true
    (Domtree.dominates dom b.(0) b.(3));
  check Alcotest.bool "arm does not dominate join" false
    (Domtree.dominates dom b.(1) b.(3))

let test_domtree_unreachable () =
  let instrs =
    [| Instr.make Opcode.MOV ~dsts:[ Reg.r 0 ] ~srcs:[ Instr.SImm 1 ];
       Instr.make Opcode.EXIT;
       Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 5 ];
       Instr.make Opcode.BRA ~target:2 |]
  in
  let cfg = Cfg.build instrs in
  let dom = Domtree.dominators cfg in
  let entry = cfg.Cfg.block_of_pc.(0) and orphan = cfg.Cfg.block_of_pc.(2) in
  check (Alcotest.option Alcotest.int) "unreachable has no idom" None
    (Domtree.idom dom orphan);
  check Alcotest.bool "entry does not dominate unreachable" false
    (Domtree.dominates dom entry orphan);
  check Alcotest.bool "unreachable dominates itself" true
    (Domtree.dominates dom orphan orphan)

let test_multi_exit () =
  (* Two arms that each EXIT: no reconvergence point before the
     virtual exit, so ipdom of the branch block is [None]. *)
  let instrs =
    [| Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
         ~pdsts:[ Pred.p 0 ]
         ~srcs:[ Instr.SImm 1; Instr.SImm 10 ];
       Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:4;
       Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 1 ];
       Instr.make Opcode.EXIT;
       Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 2 ];
       Instr.make Opcode.EXIT |]
  in
  let cfg = Cfg.build instrs in
  let pdom = Domtree.post_dominators cfg in
  let b0 = cfg.Cfg.block_of_pc.(0) in
  check (Alcotest.option Alcotest.int) "no reconvergence block" None
    (Domtree.ipdom pdom b0);
  check (Alcotest.option Alcotest.int) "no reconvergence pc" None
    (Domtree.reconvergence_pc cfg pdom 1);
  check Alcotest.bool "exit arm does not post-dominate entry" false
    (Domtree.post_dominates pdom cfg.Cfg.block_of_pc.(2) b0)

let test_guarded_exit_fallthrough () =
  (* A guarded EXIT retires some lanes and falls through for the rest:
     the block must keep its fallthrough edge. *)
  let instrs =
    [| Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
         ~pdsts:[ Pred.p 0 ]
         ~srcs:[ Instr.SImm 1; Instr.SImm 10 ];
       Instr.make Opcode.EXIT ~guard:(Pred.on (Pred.p 0));
       Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 1 ];
       Instr.make Opcode.EXIT |]
  in
  let cfg = Cfg.build instrs in
  let b0 = cfg.Cfg.block_of_pc.(0) and b1 = cfg.Cfg.block_of_pc.(2) in
  check (Alcotest.list Alcotest.int) "fallthrough edge" [ b1 ]
    cfg.Cfg.blocks.(b0).Cfg.succs;
  check Alcotest.bool "tail reachable" true (Cfg.reachable_block cfg b1)

let test_cal_hcall_fallthrough () =
  (* CAL and HCALL fall through without ending the block, and liveness
     must flow across them (the HCALL's uses keep R4 live). *)
  let instrs =
    [| Instr.make Opcode.MOV ~dsts:[ Reg.r 4 ] ~srcs:[ Instr.SImm 1 ];
       Instr.make Opcode.CAL ~target:3;
       Instr.make (Opcode.HCALL 0) ~srcs:[ Instr.SReg (Reg.r 4) ];
       Instr.make Opcode.EXIT |]
  in
  let cfg = Cfg.build instrs in
  check Alcotest.int "single block" 1 (Array.length cfg.Cfg.blocks);
  let live = Liveness.analyze instrs in
  check Alcotest.bool "R4 live across CAL" true
    (List.exists (Reg.equal (Reg.r 4)) (Liveness.live_gprs_before live 1))

let test_liveness_pred_def_in_loop () =
  (* A predicated def inside a loop must not kill: the incoming value
     survives into later iterations and past the loop exit. *)
  let instrs =
    [| Instr.make Opcode.MOV ~dsts:[ Reg.r 0 ] ~srcs:[ Instr.SImm 0 ];
       Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 0 ];
       Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
         ~pdsts:[ Pred.p 0 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 8 ];
       Instr.make Opcode.MOV ~guard:(Pred.on (Pred.p 0)) ~dsts:[ Reg.r 2 ]
         ~srcs:[ Instr.SImm 3 ];
       Instr.make Opcode.IADD ~dsts:[ Reg.r 0 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 1 ];
       Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:2;
       Instr.make Opcode.MOV ~dsts:[ Reg.r 4 ] ~srcs:[ Instr.SReg (Reg.r 2) ];
       Instr.make Opcode.EXIT |]
  in
  let live = Liveness.analyze instrs in
  let live_r2 pc =
    List.exists (Reg.equal (Reg.r 2)) (Liveness.live_gprs_before live pc)
  in
  check Alcotest.bool "R2 live into guarded def" true (live_r2 3);
  check Alcotest.bool "R2 live at loop header" true (live_r2 2);
  check Alcotest.bool "R2 live around back edge" true (live_r2 5)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [ ("sass.reg",
     [ Alcotest.test_case "roundtrip" `Quick test_reg_roundtrip;
       Alcotest.test_case "bounds" `Quick test_reg_bounds;
       Alcotest.test_case "guards" `Quick test_pred_guard ]);
    ("sass.opcode",
     [ Alcotest.test_case "classes" `Quick test_opcode_classes;
       Alcotest.test_case "encode classes" `Quick test_opcode_encode_classes;
       Alcotest.test_case "encode distinct" `Quick test_opcode_encode_distinct;
       Alcotest.test_case "width bytes" `Quick test_width_bytes ]);
    ("sass.instr",
     [ Alcotest.test_case "defs/uses" `Quick test_instr_defs_uses;
       Alcotest.test_case "pred defs/uses" `Quick test_instr_pred_defs_uses;
       Alcotest.test_case "cond branch" `Quick test_cond_branch ]);
    ("sass.cfg",
     [ Alcotest.test_case "diamond" `Quick test_cfg_diamond;
       Alcotest.test_case "loop" `Quick test_cfg_loop;
       Alcotest.test_case "unreachable blocks" `Quick
         test_cfg_unreachable_blocks;
       Alcotest.test_case "guarded exit fallthrough" `Quick
         test_guarded_exit_fallthrough;
       Alcotest.test_case "cal/hcall fallthrough" `Quick
         test_cal_hcall_fallthrough;
       qt prop_cfg_partitions;
       qt prop_cfg_edges_valid;
       qt prop_cfg_reachable_closed ]);
    ("sass.pdom",
     [ Alcotest.test_case "diamond" `Quick test_pdom_diamond;
       Alcotest.test_case "if-then" `Quick test_pdom_if_then;
       Alcotest.test_case "annotate" `Quick test_annotate_reconvergence;
       Alcotest.test_case "forward dominators" `Quick test_domtree_forward;
       Alcotest.test_case "unreachable dominators" `Quick
         test_domtree_unreachable;
       Alcotest.test_case "multi-exit" `Quick test_multi_exit;
       qt prop_ipdom_post_dominates;
       qt prop_reconv_annotation_stable ]);
    ("sass.program",
     [ Alcotest.test_case "validate" `Quick test_program_validate;
       Alcotest.test_case "regs used" `Quick test_program_regs_used ]);
    ("sass.liveness",
     [ Alcotest.test_case "straightline" `Quick test_liveness_straightline;
       Alcotest.test_case "loop" `Quick test_liveness_loop;
       Alcotest.test_case "guarded def" `Quick test_liveness_guarded_def_not_kill;
       Alcotest.test_case "pred def in loop" `Quick
         test_liveness_pred_def_in_loop;
       Alcotest.test_case "word-boundary registers" `Quick
         test_liveness_word_boundaries;
       qt prop_liveness_uses_live ]) ]
