(* Tests for the static-analysis subsystem: the dataflow solver (via
   Sass.Liveness, one of its domains), the uniformity analysis, each
   verifier checker against a deliberately broken kernel, the
   compile-time verifier gate, and the
   instrumentation cost model (static exactness + dynamic validation
   against telemetry handler counters). *)

open Sass
module F = Analysis.Finding
module Uniformity = Analysis.Uniformity

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let has_finding fs kind sev pc =
  List.exists
    (fun f ->
       f.F.f_kind = kind && f.F.f_severity = sev && f.F.f_pc = pc)
    fs

let count_kind fs kind =
  List.length (List.filter (fun f -> f.F.f_kind = kind) fs)

(* --- Regset --- *)

let test_regset () =
  let open Sass.Regset in
  check bool "empty mem" false (mem 0 empty);
  check bool "full mem" true (mem 255 full);
  check int "full card" 256 (cardinal full);
  let s = of_list [ 0; 51; 52; 200; 255 ] in
  check int "card" 5 (cardinal s);
  check (Alcotest.list int) "elements sorted" [ 0; 51; 52; 200; 255 ]
    (elements s);
  check bool "mem 52" true (mem 52 s);
  check bool "mem 53" false (mem 53 s);
  let t = remove 52 s in
  check bool "removed" false (mem 52 t);
  check bool "remove kept others" true (mem 51 t);
  check bool "union" true (equal (union s t) s);
  check bool "inter" true (equal (inter s t) t);
  check bool "inter empty" true (equal (inter s (of_list [ 7 ])) empty)

(* --- Dataflow solver: Sass.Liveness, a domain of it, must agree at
       every PC with a naive per-PC fixpoint over
       Cfg.instr_successors: live-out = union of the successors'
       live-in; live-in = uses + (live-out - unguarded defs). --- *)

module IS = Set.Make (Int)

let naive_liveness instrs =
  let n = Array.length instrs in
  let none = (IS.empty, IS.empty) in
  let live_in = Array.make n none and live_out = Array.make n none in
  let indices f l = IS.of_list (List.map f l) in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let i = instrs.(pc) in
      let out_r, out_p =
        List.fold_left
          (fun (r, p) s ->
             let r', p' = live_in.(s) in
             (IS.union r r', IS.union p p'))
          none (Cfg.instr_successors instrs pc)
      in
      let kill_r, kill_p =
        if Pred.is_always i.Instr.guard then
          (indices Reg.index (Instr.defs i), indices Pred.index (Instr.pdefs i))
        else none
      in
      let in_r =
        IS.union (indices Reg.index (Instr.uses i)) (IS.diff out_r kill_r)
      and in_p =
        IS.union (indices Pred.index (Instr.puses i)) (IS.diff out_p kill_p)
      in
      live_out.(pc) <- (out_r, out_p);
      let old_r, old_p = live_in.(pc) in
      if not (IS.equal in_r old_r && IS.equal in_p old_p) then begin
        live_in.(pc) <- (in_r, in_p);
        changed := true
      end
    done
  done;
  (live_in, live_out)

let liveness_matches_naive ~name instrs =
  let live = Liveness.analyze instrs in
  let live_in, live_out = naive_liveness instrs in
  (* Liveness reports GPRs without RZ and predicates P0-P6 (no PT). *)
  let gprs (r, _) = IS.elements (IS.remove (Reg.index Reg.RZ) r) in
  let preds (_, p) = IS.elements (IS.remove (Pred.index Pred.PT) p) in
  Array.iteri
    (fun pc _ ->
       let same what expected got =
         check (Alcotest.list int)
           (Printf.sprintf "%s: %s pc %d" name what pc)
           expected got
       in
       same "gprs before" (gprs live_in.(pc))
         (List.map Reg.index (Liveness.live_gprs_before live pc));
       same "gprs after" (gprs live_out.(pc))
         (List.map Reg.index (Liveness.live_gprs_after live pc));
       same "preds before" (preds live_in.(pc))
         (List.map Pred.index (Liveness.live_preds_before live pc));
       same "preds after" (preds live_out.(pc))
         (List.map Pred.index (Liveness.live_preds_after live pc)))
    instrs

let diamond_instrs () =
  [| Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
       ~pdsts:[ Pred.p 0 ]
       ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 10 ];
     Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:4;
     Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 1 ];
     Instr.make Opcode.BRA ~target:5;
     Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 2 ];
     Instr.make Opcode.EXIT |]

let loop_instrs () =
  (* R2 is rewritten under a guard inside a loop and read after it, so
     it stays live through the guarded def, which does not kill. *)
  [| Instr.make Opcode.MOV ~dsts:[ Reg.r 0 ] ~srcs:[ Instr.SImm 0 ];
     Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 0 ];
     Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
       ~pdsts:[ Pred.p 0 ]
       ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 8 ];
     Instr.make Opcode.IADD ~guard:(Pred.on (Pred.p 0)) ~dsts:[ Reg.r 2 ]
       ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 3 ];
     Instr.make Opcode.IADD ~dsts:[ Reg.r 0 ]
       ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 1 ];
     Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:2;
     Instr.make Opcode.MOV ~dsts:[ Reg.r 4 ] ~srcs:[ Instr.SReg (Reg.r 2) ];
     Instr.make Opcode.EXIT |]

let test_solver_diamond () =
  liveness_matches_naive ~name:"diamond" (diamond_instrs ())

let test_solver_loop () = liveness_matches_naive ~name:"loop" (loop_instrs ())

let test_solver_registry () =
  (* Every kernel the registry's default variants launch. *)
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let device = Gpu.Device.create () in
       let kernels = Hashtbl.create 8 in
       ignore
         (Gpu.Device.on_launch device (fun l ->
              let k = l.Gpu.State.l_kernel in
              Hashtbl.replace kernels k.Program.name k));
       ignore
         (w.Workloads.Workload.run device
            ~variant:w.Workloads.Workload.default_variant);
       Hashtbl.iter
         (fun name (k : Program.kernel) ->
            liveness_matches_naive
              ~name:(w.Workloads.Workload.name ^ "/" ^ name)
              k.Program.instrs)
         kernels)
    Workloads.Registry.all

(* --- Uniformity --- *)

let test_uniformity () =
  let instrs =
    [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
       Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 7 ];
       Instr.make Opcode.IADD ~dsts:[ Reg.r 3 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SReg (Reg.r 2) ];
       Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
         ~pdsts:[ Pred.p 0 ]
         ~srcs:[ Instr.SReg (Reg.r 3); Instr.SImm 16 ];
       Instr.make (Opcode.VOTE Opcode.V_any) ~dsts:[ Reg.r 5 ]
         ~srcs:[ Instr.SPred (Pred.p 0) ];
       Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:6;
       Instr.make Opcode.EXIT |]
  in
  let cfg = Cfg.build instrs in
  let uni = Uniformity.analyze instrs cfg in
  ignore (Uniformity.passes uni);
  check bool "tid variant" true (Uniformity.variant_gpr_before uni 2 (Reg.r 0));
  check bool "imm uniform" false
    (Uniformity.variant_gpr_before uni 2 (Reg.r 2));
  check bool "propagated" true
    (Uniformity.variant_gpr_before uni 3 (Reg.r 3));
  check bool "pred variant" true
    (Uniformity.variant_pred_before uni 5 (Pred.p 0));
  (* VOTE result is warp-uniform even though its input predicate is
     variant (the unguarded vote writes the same ballot to all lanes). *)
  check bool "vote uniform" false
    (Uniformity.variant_gpr_before uni 5 (Reg.r 5));
  check bool "divergent branch" true (Uniformity.divergent_branch uni 5);
  check bool "non-branch" false (Uniformity.divergent_branch uni 2)

(* --- Checker: uninitialized reads --- *)

let findings_of instrs =
  Analysis.Verifier.verify (Program.make ~name:"broken" instrs)

let test_uninit_read () =
  (* R5 is never written anywhere: definite error at the read. *)
  let fs =
    findings_of
      [| Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ]
           ~srcs:[ Instr.SReg (Reg.r 5) ];
         Instr.make Opcode.EXIT |]
  in
  check bool "uninit error" true (has_finding fs F.Uninit_read F.Error 0)

let test_maybe_uninit_read () =
  (* R5 is defined on only one arm of the diamond: warning at the
     post-join read, and no definite error. *)
  let fs =
    findings_of
      [| Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
           ~pdsts:[ Pred.p 0 ]
           ~srcs:[ Instr.SImm 1; Instr.SImm 10 ];
         Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:3;
         Instr.make Opcode.MOV ~dsts:[ Reg.r 5 ] ~srcs:[ Instr.SImm 1 ];
         Instr.make Opcode.IADD ~dsts:[ Reg.r 6 ]
           ~srcs:[ Instr.SReg (Reg.r 5); Instr.SImm 1 ];
         Instr.make Opcode.EXIT |]
  in
  check bool "maybe-uninit warning" true
    (has_finding fs F.Maybe_uninit_read F.Warning 3);
  check int "no definite error" 0 (count_kind fs F.Uninit_read)

let test_guarded_def_use_ok () =
  (* @P0 def followed by @P0 use is the compiler's standard pattern
     and must not warn; complementary @P0/@!P0 defs fully initialize. *)
  let fs =
    findings_of
      [| Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
           ~pdsts:[ Pred.p 0 ]
           ~srcs:[ Instr.SImm 1; Instr.SImm 10 ];
         Instr.make Opcode.MOV ~guard:(Pred.on (Pred.p 0))
           ~dsts:[ Reg.r 5 ] ~srcs:[ Instr.SImm 1 ];
         Instr.make Opcode.MOV ~guard:(Pred.on_not (Pred.p 0))
           ~dsts:[ Reg.r 5 ] ~srcs:[ Instr.SImm 2 ];
         Instr.make Opcode.MOV ~guard:(Pred.on (Pred.p 0))
           ~dsts:[ Reg.r 6 ] ~srcs:[ Instr.SImm 3 ];
         Instr.make Opcode.IADD ~guard:(Pred.on (Pred.p 0))
           ~dsts:[ Reg.r 7 ]
           ~srcs:[ Instr.SReg (Reg.r 6); Instr.SImm 1 ];
         Instr.make Opcode.IADD ~dsts:[ Reg.r 8 ]
           ~srcs:[ Instr.SReg (Reg.r 5); Instr.SImm 1 ];
         Instr.make Opcode.EXIT |]
  in
  check int "no uninit findings" 0
    (count_kind fs F.Uninit_read + count_kind fs F.Maybe_uninit_read)

let test_uninit_pred () =
  (* Guarding on a predicate nobody ever set. *)
  let fs =
    findings_of
      [| Instr.make Opcode.MOV ~guard:(Pred.on (Pred.p 3))
           ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 1 ];
         Instr.make Opcode.EXIT |]
  in
  check bool "uninit pred error" true (has_finding fs F.Uninit_read F.Error 0)

(* --- Checker: barrier divergence --- *)

let test_divergent_barrier () =
  (* BAR on one arm of a tid-dependent branch: classic deadlock. *)
  let fs =
    findings_of
      [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
         Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
           ~pdsts:[ Pred.p 0 ]
           ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 16 ];
         Instr.make Opcode.BRA ~guard:(Pred.on_not (Pred.p 0)) ~target:4;
         Instr.make Opcode.BAR;
         Instr.make Opcode.EXIT |]
  in
  check bool "divergent barrier error" true
    (has_finding fs F.Divergent_barrier F.Error 3)

let test_loop_barrier () =
  (* BAR inside a loop whose trip count is tid-dependent: threads
     execute different barrier counts — warning, not definite error. *)
  let fs =
    findings_of
      [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
         Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 0 ];
         Instr.make Opcode.BAR;
         Instr.make Opcode.IADD ~dsts:[ Reg.r 2 ]
           ~srcs:[ Instr.SReg (Reg.r 2); Instr.SImm 1 ];
         Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
           ~pdsts:[ Pred.p 0 ]
           ~srcs:[ Instr.SReg (Reg.r 2); Instr.SReg (Reg.r 0) ];
         Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:2;
         Instr.make Opcode.EXIT |]
  in
  check bool "loop barrier warning" true
    (has_finding fs F.Loop_barrier F.Warning 2);
  check int "not a definite error" 0 (count_kind fs F.Divergent_barrier)

let test_uniform_barrier_ok () =
  (* Branch guard derived from an immediate: uniform, BAR is fine. *)
  let fs =
    findings_of
      [| Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
           ~pdsts:[ Pred.p 0 ]
           ~srcs:[ Instr.SImm 1; Instr.SImm 10 ];
         Instr.make Opcode.BRA ~guard:(Pred.on_not (Pred.p 0)) ~target:3;
         Instr.make Opcode.BAR;
         Instr.make Opcode.EXIT |]
  in
  check int "no barrier findings" 0
    (count_kind fs F.Divergent_barrier + count_kind fs F.Loop_barrier)

(* --- Checker: shared-memory race hints --- *)

let test_shared_race () =
  (* Write own slot, read the neighbour's slot, no BAR in between. *)
  let fs =
    findings_of
      [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
         Instr.make Opcode.SHL ~dsts:[ Reg.r 2 ]
           ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 2 ];
         Instr.make (Opcode.ST (Opcode.Shared, Opcode.W32))
           ~srcs:
             [ Instr.SReg (Reg.r 2); Instr.SImm 0; Instr.SReg (Reg.r 0) ];
         Instr.make Opcode.IADD ~dsts:[ Reg.r 3 ]
           ~srcs:[ Instr.SReg (Reg.r 2); Instr.SImm 4 ];
         Instr.make (Opcode.LD (Opcode.Shared, Opcode.W32))
           ~dsts:[ Reg.r 4 ]
           ~srcs:[ Instr.SReg (Reg.r 3); Instr.SImm 0 ];
         Instr.make Opcode.EXIT |]
  in
  check bool "race warning at the load" true
    (has_finding fs F.Shared_race F.Warning 4)

let test_shared_race_suppressed () =
  (* Same kernel with a BAR between store and load: no hint. Also:
     write-your-slot / read-your-slot (identical address) is clean. *)
  let fs =
    findings_of
      [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
         Instr.make Opcode.SHL ~dsts:[ Reg.r 2 ]
           ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 2 ];
         Instr.make (Opcode.ST (Opcode.Shared, Opcode.W32))
           ~srcs:
             [ Instr.SReg (Reg.r 2); Instr.SImm 0; Instr.SReg (Reg.r 0) ];
         Instr.make Opcode.BAR;
         Instr.make Opcode.IADD ~dsts:[ Reg.r 3 ]
           ~srcs:[ Instr.SReg (Reg.r 2); Instr.SImm 4 ];
         Instr.make (Opcode.LD (Opcode.Shared, Opcode.W32))
           ~dsts:[ Reg.r 4 ]
           ~srcs:[ Instr.SReg (Reg.r 3); Instr.SImm 0 ];
         (* read-back of the own slot, after the barrier *)
         Instr.make (Opcode.LD (Opcode.Shared, Opcode.W32))
           ~dsts:[ Reg.r 5 ]
           ~srcs:[ Instr.SReg (Reg.r 2); Instr.SImm 0 ];
         Instr.make Opcode.EXIT |]
  in
  check int "no race hints" 0 (count_kind fs F.Shared_race)

let test_shared_disjoint_tiles () =
  (* Two stores through the same index register into disjoint
     immediate regions (the sgemm A-tile/B-tile pattern). Under the
     launch that matches the tiles (256 threads, 0x400 bytes apart at
     stride 4) the affine prover shows every cross-thread pair
     disjoint: all sites proven safe, no findings. *)
  let instrs =
    [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
       Instr.make Opcode.SHL ~dsts:[ Reg.r 2 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 2 ];
       Instr.make (Opcode.ST (Opcode.Shared, Opcode.W32))
         ~srcs:
           [ Instr.SImm 0; Instr.SReg (Reg.r 2); Instr.SReg (Reg.r 0) ];
       Instr.make (Opcode.ST (Opcode.Shared, Opcode.W32))
         ~srcs:
           [ Instr.SImm 0x400; Instr.SReg (Reg.r 2); Instr.SReg (Reg.r 0) ];
       Instr.make Opcode.EXIT |]
  in
  let k = Program.make ~name:"tiles" ~shared_bytes:0x800 instrs in
  let geom =
    { Analysis.Affine.g_block_x = 256; g_block_y = 1; g_grid_x = 4;
      g_grid_y = 1 }
  in
  let ctx = Analysis.Absdom.concrete_ctx geom in
  let fs = Analysis.Verifier.verify_ctx ~ctx ~concrete:true k in
  check int "disjoint tiles clean" 0 (count_kind fs F.Shared_race);
  let sites = Analysis.Verifier.race_sites ~ctx ~concrete:true k in
  check int "two classified sites" 2 (List.length sites);
  check bool "all proven safe" true
    (List.for_all
       (fun s -> s.Analysis.Race_check.s_class = Analysis.Race_check.Proven_safe)
       sites);
  (* Statically (unknown launch width) the same pair is honestly
     "unknown": threads 256 apart would collide in a wider block. *)
  let fs_static = findings_of instrs in
  check int "static verdict is a hint" 1
    (count_kind fs_static F.Shared_race);
  check bool "static hint is a warning, not an error" true
    (List.for_all
       (fun f ->
          f.F.f_kind <> F.Shared_race || f.F.f_severity = F.Warning)
       fs_static)

(* A read/read pair is never a race, even when the addresses provably
   overlap across threads (every thread reading slot 0 is the
   canonical broadcast idiom). Pinned because the first version of
   the checker reported these. *)
let test_shared_read_read () =
  let instrs =
    [| Instr.make (Opcode.LD (Opcode.Shared, Opcode.W32))
         ~dsts:[ Reg.r 1 ]
         ~srcs:[ Instr.SImm 0; Instr.SImm 0 ];
       Instr.make (Opcode.LD (Opcode.Shared, Opcode.W32))
         ~dsts:[ Reg.r 2 ]
         ~srcs:[ Instr.SImm 0; Instr.SImm 0 ];
       Instr.make Opcode.EXIT |]
  in
  check int "read/read never races" 0
    (count_kind (findings_of instrs) F.Shared_race);
  let k = Program.make ~name:"readers" ~shared_bytes:16 instrs in
  let geom =
    { Analysis.Affine.g_block_x = 64; g_block_y = 1; g_grid_x = 1;
      g_grid_y = 1 }
  in
  let sites =
    Analysis.Verifier.race_sites
      ~ctx:(Analysis.Absdom.concrete_ctx geom) ~concrete:true k
  in
  check bool "loads proven safe" true
    (sites <> []
     && List.for_all
          (fun s ->
             s.Analysis.Race_check.s_class = Analysis.Race_check.Proven_safe)
          sites)

(* --- Race proofs: the proven-safe / proven-race / unknown triptych --- *)

let race_geom =
  { Analysis.Affine.g_block_x = 64; g_block_y = 1; g_grid_x = 1; g_grid_y = 1 }

(* One shared store per kernel; only the address expression differs. *)
let triptych_kernel addr_instrs store_srcs =
  Program.make ~name:"triptych" ~shared_bytes:0x400
    (Array.append addr_instrs
       [| Instr.make (Opcode.ST (Opcode.Shared, Opcode.W32))
            ~srcs:store_srcs;
          Instr.make Opcode.EXIT |])

let race_classes k =
  let ctx = Analysis.Absdom.concrete_ctx race_geom in
  ( Analysis.Verifier.race_sites ~ctx ~concrete:true k,
    Analysis.Verifier.verify_ctx ~ctx ~concrete:true k )

let test_race_proven_safe () =
  (* st.shared [4*tid] <- tid: disjoint slots, proven safe. *)
  let k =
    triptych_kernel
      [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
         Instr.make Opcode.SHL ~dsts:[ Reg.r 1 ]
           ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 2 ] |]
      [ Instr.SReg (Reg.r 1); Instr.SImm 0; Instr.SReg (Reg.r 0) ]
  in
  let sites, fs = race_classes k in
  check int "one site" 1 (List.length sites);
  check bool "proven safe" true
    ((List.hd sites).Analysis.Race_check.s_class
     = Analysis.Race_check.Proven_safe);
  check int "no findings" 0 (count_kind fs F.Shared_race)

let test_race_proven_race () =
  (* st.shared [0] <- tid: every thread hits the same word, and the
     store is unconditional — a proven write/write race, reported as
     an error under the concrete launch. *)
  let k =
    triptych_kernel
      [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ] |]
      [ Instr.SImm 0; Instr.SImm 0; Instr.SReg (Reg.r 0) ]
  in
  let sites, fs = race_classes k in
  check bool "proven race" true
    (List.exists
       (fun s ->
          s.Analysis.Race_check.s_class = Analysis.Race_check.Proven_race)
       sites);
  check bool "reported as error" true
    (List.exists
       (fun f -> f.F.f_kind = F.Shared_race && f.F.f_severity = F.Error)
       fs)

let test_race_unknown () =
  (* st.shared [loaded value]: the address is data-dependent, so the
     checker must answer "unknown" — a warning, never an error. *)
  let k =
    triptych_kernel
      [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
         Instr.make (Opcode.LD (Opcode.Global, Opcode.W32))
           ~dsts:[ Reg.r 1 ]
           ~srcs:[ Instr.SImm 0; Instr.SImm 0 ] |]
      [ Instr.SReg (Reg.r 1); Instr.SImm 0; Instr.SReg (Reg.r 0) ]
  in
  let sites, fs = race_classes k in
  check bool "unknown" true
    (List.exists
       (fun s -> s.Analysis.Race_check.s_class = Analysis.Race_check.Unknown)
       sites);
  check bool "warning, not error" true
    (List.for_all
       (fun f -> f.F.f_kind <> F.Shared_race || f.F.f_severity = F.Warning)
       fs);
  check bool "some warning emitted" true (count_kind fs F.Shared_race > 0)

(* --- Interval and affine domains --- *)

let test_interval_ops () =
  let open Analysis.Interval in
  check bool "join" true (equal (join (point 1) (point 5)) (make 1 5));
  check bool "widen keeps stable bounds" true
    (equal (widen (make 0 4) (make 0 4)) (make 0 4));
  check bool "widen jumps moving hi" true
    ((widen (make 0 4) (make 0 8)).hi = max_int);
  check bool "widen jumps moving lo" true
    ((widen (make 0 4) (make (-1) 4)).lo = min_int);
  check bool "saturating add" true ((add (above 0) (point 1)).hi = max_int);
  check bool "disjoint" true (disjoint (make 0 3) (make 4 7));
  check bool "not disjoint" false (disjoint (make 0 4) (make 4 7))

let geom32 =
  { Analysis.Affine.g_block_x = 32; g_block_y = 1; g_grid_x = 1; g_grid_y = 1 }

let test_affine_ops () =
  let open Analysis.Affine in
  let a = mul_const 4 tid_x in
  check int "mul_const scales the coefficient" 4 a.a_tx;
  check int "add shifts the base" 8 (add a (const 8)).a_base;
  (* join of two constants keeps their distance as the stride *)
  let j = join ~geom:geom32 (const 0) (const 64) in
  check int "join stride" 64 j.a_mod;
  check bool "join residue" true
    (Analysis.Interval.equal j.a_res (Analysis.Interval.make 0 64));
  (* widening jumps the unstable bound but keeps the stride, which is
     what keeps loop-carried tile addresses provable *)
  let w = widen ~geom:geom32 j (join ~geom:geom32 j (const 128)) in
  check bool "widened hi unbounded" true
    (w.a_res.Analysis.Interval.hi = max_int);
  check int "stride survives widening" 64 w.a_mod

let test_affine_overlap () =
  let open Analysis.Affine in
  let stride4 = mul_const 4 tid_x in
  check bool "stride-4 words disjoint" true
    (cross_thread_overlap ~geom:geom32 stride4 ~bytes1:4 stride4 ~bytes2:4
     = `Disjoint);
  check bool "broadcast overlaps" true
    (cross_thread_overlap ~geom:geom32 (const 0) ~bytes1:4 (const 0)
       ~bytes2:4
     = `Overlap);
  let stride2 = mul_const 2 tid_x in
  check bool "stride-2 word accesses collide" true
    (cross_thread_overlap ~geom:geom32 stride2 ~bytes1:4 stride2 ~bytes2:4
     = `Overlap);
  check bool "data-dependent is may" true
    (cross_thread_overlap ~geom:geom32 stride4 ~bytes1:4 (unknown ~var:true)
       ~bytes2:4
     = `May);
  (* 128-byte-apart windows cannot collide inside a 32-thread block *)
  check bool "offset tiles disjoint" true
    (cross_thread_overlap ~geom:geom32 stride4 ~bytes1:4
       (add stride4 (const 128)) ~bytes2:4
     = `Disjoint);
  (* Half-bounded residues (what loop widening produces) make the hit
     window magnitude-dependent: here threads 25 apart collide
     (4*dx = -100 cancels a residue value of -100), far outside the
     one-congruence-period band, so `Disjoint would be unsound. *)
  let widened_lo =
    add stride4 (mul_const 4 (of_interval (Analysis.Interval.below (-25))))
  in
  check bool "half-bounded residue collision is not disjoint" true
    (cross_thread_overlap ~geom:geom32 stride4 ~bytes1:4 widened_lo
       ~bytes2:4
     <> `Disjoint);
  (* ... but a stride that keeps the difference off the window stays
     provably disjoint even with a half-bounded residue: the byte
     distance is always congruent to 4 mod 8. *)
  let stride8 = mul_const 8 tid_x in
  let widened8 =
    add stride8 (mul_const 8 (of_interval (Analysis.Interval.below 0)))
  in
  check bool "half-bounded but misaligned stays disjoint" true
    (cross_thread_overlap ~geom:geom32 (add stride8 (const 4)) ~bytes1:4
       widened8 ~bytes2:4
     = `Disjoint)

(* --- Absdom: transfer, join, and loop widening --- *)

let absdom_states instrs =
  let cfg = Cfg.build instrs in
  ( Analysis.Absdom.analyze
      (Analysis.Absdom.concrete_ctx geom32) instrs cfg,
    cfg )

let test_absdom_transfer () =
  let instrs =
    [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
       Instr.make Opcode.SHL ~dsts:[ Reg.r 1 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 2 ];
       Instr.make Opcode.IADD ~dsts:[ Reg.r 2 ]
         ~srcs:[ Instr.SReg (Reg.r 1); Instr.SImm 0x40 ];
       Instr.make Opcode.EXIT |]
  in
  let states, _ = absdom_states instrs in
  let a = Analysis.Absdom.reg states.(3) (Reg.r 2) in
  check int "tid coefficient through shl+add" 4 a.Analysis.Affine.a_tx;
  check int "base through shl+add" 0x40 a.Analysis.Affine.a_base;
  check bool "exact" true (Analysis.Affine.is_exact a)

let test_absdom_join () =
  (* The diamond writes 1 or 2 into R2; at the merge the value is the
     strided interval [1,2], not top. *)
  let states, _ = absdom_states (diamond_instrs ()) in
  let a = Analysis.Absdom.reg states.(5) (Reg.r 2) in
  check bool "merge is exactly [1,2]" true
    (Analysis.Interval.equal
       (Analysis.Affine.to_interval ~geom:geom32 a)
       (Analysis.Interval.make 1 2));
  check bool "thread-invariant" true (not a.Analysis.Affine.a_var)

let test_absdom_widen () =
  (* R1 steps by 64 per iteration: widening must terminate with an
     unbounded residue that keeps the 64-byte stride. *)
  let instrs =
    [| Instr.make Opcode.MOV ~dsts:[ Reg.r 0 ] ~srcs:[ Instr.SImm 0 ];
       Instr.make Opcode.MOV ~dsts:[ Reg.r 1 ] ~srcs:[ Instr.SImm 0 ];
       Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
         ~pdsts:[ Pred.p 0 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 8 ];
       Instr.make Opcode.IADD ~dsts:[ Reg.r 1 ]
         ~srcs:[ Instr.SReg (Reg.r 1); Instr.SImm 64 ];
       Instr.make Opcode.IADD ~dsts:[ Reg.r 0 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 1 ];
       Instr.make Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:2;
       Instr.make Opcode.EXIT |]
  in
  let states, _ = absdom_states instrs in
  let a = Analysis.Absdom.reg states.(6) (Reg.r 1) in
  check bool "widened to unbounded" true
    (a.Analysis.Affine.a_res.Analysis.Interval.hi = max_int);
  check int "stride survives the loop" 64 a.Analysis.Affine.a_mod;
  check bool "still thread-invariant" true (not a.Analysis.Affine.a_var)

let test_absdom_sel () =
  (* The predicate picks per-thread which operand SEL reads, so a
     select between two distinct uniform constants is still a
     per-thread value (predicates are untracked, hence conservatively
     variant)... *)
  let sel a b =
    [| Instr.make Opcode.SEL ~dsts:[ Reg.r 1 ]
         ~srcs:[ Instr.SImm a; Instr.SImm b; Instr.SPred (Pred.p 0) ];
       Instr.make Opcode.EXIT |]
  in
  let states, _ = absdom_states (sel 4 8) in
  let a = Analysis.Absdom.reg states.(1) (Reg.r 1) in
  check bool "predicated select of distinct constants is variant" true
    a.Analysis.Affine.a_var;
  (* ... while equal operands are immune to the predicate. *)
  let states, _ = absdom_states (sel 4 4) in
  let b = Analysis.Absdom.reg states.(1) (Reg.r 1) in
  check bool "select of equal operands stays invariant" true
    (not b.Analysis.Affine.a_var)

(* --- Mempredict: static bank/coalescing counts on hand-built kernels --- *)

let test_mempredict () =
  let instrs =
    [| Instr.make (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ Reg.r 0 ];
       Instr.make Opcode.SHL ~dsts:[ Reg.r 1 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 2 ];
       (* 4*tid: one word per bank, degree 1 *)
       Instr.make (Opcode.ST (Opcode.Shared, Opcode.W32))
         ~srcs:[ Instr.SReg (Reg.r 1); Instr.SImm 0; Instr.SReg (Reg.r 0) ];
       Instr.make Opcode.SHL ~dsts:[ Reg.r 2 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 3 ];
       (* 8*tid: two words per bank, degree 2 *)
       Instr.make (Opcode.ST (Opcode.Shared, Opcode.W32))
         ~srcs:[ Instr.SReg (Reg.r 2); Instr.SImm 0; Instr.SReg (Reg.r 0) ];
       (* broadcast: one word total, degree 1 *)
       Instr.make (Opcode.LD (Opcode.Shared, Opcode.W32))
         ~dsts:[ Reg.r 3 ]
         ~srcs:[ Instr.SImm 0; Instr.SImm 0 ];
       (* global 4*tid: 128 contiguous bytes = 4 lines of 32 *)
       Instr.make (Opcode.LD (Opcode.Global, Opcode.W32))
         ~dsts:[ Reg.r 4 ]
         ~srcs:[ Instr.SReg (Reg.r 1); Instr.SImm 0 ];
       (* guarded: correct counts but not exact *)
       Instr.make (Opcode.ISETP (Opcode.Lt, Opcode.Signed))
         ~pdsts:[ Pred.p 0 ]
         ~srcs:[ Instr.SReg (Reg.r 0); Instr.SImm 16 ];
       Instr.make (Opcode.ST (Opcode.Shared, Opcode.W32))
         ~guard:(Pred.on (Pred.p 0))
         ~srcs:[ Instr.SReg (Reg.r 1); Instr.SImm 0; Instr.SReg (Reg.r 0) ];
       Instr.make Opcode.EXIT |]
  in
  let cfg = Cfg.build instrs in
  let states =
    Analysis.Absdom.analyze (Analysis.Absdom.concrete_ctx geom32) instrs cfg
  in
  let preds =
    Analysis.Mempredict.predict ~geom:geom32 ~line_bytes:32 instrs cfg states
  in
  let at pc =
    List.find (fun p -> p.Analysis.Mempredict.p_pc = pc) preds
  in
  check int "five predicted sites" 5 (List.length preds);
  let p = at 2 in
  check bool "stride-4 store conflict-free and exact" true
    (p.Analysis.Mempredict.p_min = 1 && p.Analysis.Mempredict.p_max = 1
     && p.Analysis.Mempredict.p_exact);
  let p = at 4 in
  check bool "stride-8 store degree 2" true
    (p.Analysis.Mempredict.p_min = 2 && p.Analysis.Mempredict.p_max = 2
     && p.Analysis.Mempredict.p_exact);
  let p = at 5 in
  check bool "broadcast degree 1" true
    (p.Analysis.Mempredict.p_min = 1 && p.Analysis.Mempredict.p_exact);
  let p = at 6 in
  check bool "coalesced global = 4 lines" true
    (p.Analysis.Mempredict.p_min = 4 && p.Analysis.Mempredict.p_max = 4
     && p.Analysis.Mempredict.p_exact);
  let p = at 8 in
  check bool "guarded site is not exact" true
    (not p.Analysis.Mempredict.p_exact
     && p.Analysis.Mempredict.p_note = "guarded access (partial warp)")

(* --- Checker: unreachable code and dead stores --- *)

let test_unreachable_code () =
  let fs =
    findings_of
      [| Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 1 ];
         Instr.make Opcode.EXIT;
         Instr.make Opcode.MOV ~dsts:[ Reg.r 3 ] ~srcs:[ Instr.SImm 2 ];
         Instr.make Opcode.EXIT |]
  in
  check bool "unreachable warning" true
    (has_finding fs F.Unreachable_code F.Warning 2)

let test_dead_store () =
  let fs =
    findings_of
      [| Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 1 ];
         Instr.make Opcode.EXIT |]
  in
  check bool "dead store warning" true
    (has_finding fs F.Dead_store F.Warning 0)

(* --- Verifier gate --- *)

let test_gate () =
  let bad =
    Program.make ~name:"bad"
      [| Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ]
           ~srcs:[ Instr.SReg (Reg.r 5) ];
         Instr.make Opcode.EXIT |]
  in
  (match Analysis.Verifier.gate bad with
   | Ok () -> Alcotest.fail "gate accepted an uninitialized read"
   | Error _ -> ());
  (* Warnings alone must not fail the gate. *)
  let warn_only =
    Program.make ~name:"warn"
      [| Instr.make Opcode.MOV ~dsts:[ Reg.r 2 ] ~srcs:[ Instr.SImm 1 ];
         Instr.make Opcode.EXIT |]
  in
  match Analysis.Verifier.gate warn_only with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("gate failed on warnings only: " ^ m)

let test_compile_gate_seeded_fault () =
  (* The compiler's post-regalloc verifier must reject a miscompiled
     kernel: take a real compiled kernel (captured from a workload),
     check it passes, then corrupt it by NOP-ing out an initializing
     definition so a later read becomes uninitialized. *)
  let w = Workloads.Registry.find "sgemm" in
  let device = Gpu.Device.create () in
  let captured = ref None in
  Gpu.Device.set_transform device
    (Some
       (fun k ->
          if !captured = None then captured := Some k;
          k));
  ignore (w.Workloads.Workload.run device ~variant:"small");
  let k =
    match !captured with
    | Some k -> k
    | None -> Alcotest.fail "workload compiled no kernel"
  in
  (match Kernel.Compile.verify k with
   | Ok () -> ()
   | Error m -> Alcotest.fail ("clean kernel rejected: " ^ m));
  let instrs = k.Program.instrs in
  let rejected = ref false in
  Array.iteri
    (fun pc (i : Instr.t) ->
       if
         (not !rejected)
         && Pred.is_always i.Instr.guard
         && Instr.defs i <> []
         && not (Opcode.is_mem i.Instr.op)
       then begin
         let instrs' = Array.copy instrs in
         instrs'.(pc) <- Instr.make Opcode.NOP;
         let k' = Program.make ~name:k.Program.name instrs' in
         match Kernel.Compile.verify k' with
         | Error _ -> rejected := true
         | Ok () -> ()
       end)
    instrs;
  check bool "some seeded fault is rejected" true !rejected

(* --- Cost model --- *)

let test_cost_static_exact () =
  (* The static site table must agree exactly with what the injector
     emits: site count, per-site sequence length (= instruction-count
     delta) and frame growth. *)
  let k = Program.make ~name:"k" (loop_instrs ()) in
  List.iter
    (fun spec ->
       let c = Analysis.Cost.analyze ~specs:[ spec ] k in
       let next_id = ref 0 in
       let r = Sassi.Inject.instrument ~next_id ~specs:[ (spec, 0) ] k in
       check int "site count"
         (List.length r.Sassi.Inject.sites)
         (List.length c.Analysis.Cost.c_sites);
       check int "instruction delta"
         (Array.length r.Sassi.Inject.kernel.Program.instrs
          - Array.length k.Program.instrs)
         c.Analysis.Cost.c_static_instrs;
       check int "frame delta"
         (r.Sassi.Inject.kernel.Program.frame_bytes - k.Program.frame_bytes)
         c.Analysis.Cost.c_frame_bytes)
    [ Sassi.Select.before [ Sassi.Select.All ] [];
      Sassi.Select.after [ Sassi.Select.Memory_ops ] [ Sassi.Select.Mem_info ];
      Sassi.Select.before [ Sassi.Select.Cond_control ]
        [ Sassi.Select.Branch_info ];
      Sassi.Select.before [ Sassi.Select.Basic_block ] [] ]

let validate_workload wname variant pairs =
  (* Dynamic validation: predicted extra warp instructions (static
     per-site cost x measured invocation counts) vs the measured
     warp_instrs delta between instrumented and plain runs. *)
  let w = Workloads.Registry.find wname in
  let baseline_device = Gpu.Device.create () in
  let kernels = ref [] in
  Gpu.Device.set_transform baseline_device
    (Some
       (fun k ->
          if not (List.mem_assoc k.Program.name !kernels) then
            kernels := (k.Program.name, k) :: !kernels;
          k));
  let baseline = w.Workloads.Workload.run baseline_device ~variant in
  let device = Gpu.Device.create () in
  let tele = Cupti.Telemetry.enable device in
  let r2, per_kernel =
    Sassi.Runtime.with_instrumentation device pairs (fun rt ->
        let r = w.Workloads.Workload.run device ~variant in
        ( r,
          List.map
            (fun (kname, k) ->
               (k, Sassi.Runtime.sites_for_kernel rt kname))
            !kernels ))
  in
  let counts = Cupti.Telemetry.handler_sites tele in
  let predicted =
    List.fold_left
      (fun acc (k, sites) ->
         acc
         + Analysis.Cost.predict_extra_instrs
             (Analysis.Cost.of_sites k sites)
             ~counts)
      0 per_kernel
  in
  let measured =
    r2.Workloads.Workload.stats.Gpu.Stats.warp_instrs
    - baseline.Workloads.Workload.stats.Gpu.Stats.warp_instrs
  in
  check bool
    (Printf.sprintf "%s: measured overhead positive (%d)" wname measured)
    true (measured > 0);
  let err =
    float_of_int (abs (predicted - measured)) /. float_of_int measured
  in
  if err > 0.05 then
    Alcotest.fail
      (Printf.sprintf "%s: predicted %d vs measured %d (%.1f%% error)"
         wname predicted measured (100.0 *. err))

let test_cost_validation_sgemm () =
  validate_workload "sgemm" "small"
    [ (Sassi.Select.before [ Sassi.Select.All ] [], Sassi.Handler.noop) ]

let test_cost_validation_spmv () =
  validate_workload "spmv" "small"
    [ ( Sassi.Select.after [ Sassi.Select.Memory_ops ]
          [ Sassi.Select.Mem_info ],
        Sassi.Handler.noop ) ]

let suite =
  [ ("analysis.regset", [ Alcotest.test_case "ops" `Quick test_regset ]);
    ("analysis.dataflow",
     [ Alcotest.test_case "diamond matches liveness" `Quick
         test_solver_diamond;
       Alcotest.test_case "loop matches liveness" `Quick test_solver_loop;
       Alcotest.test_case "registry kernels match liveness" `Slow
         test_solver_registry ]);
    ("analysis.uniformity",
     [ Alcotest.test_case "variance propagation" `Quick test_uniformity ]);
    ("analysis.init",
     [ Alcotest.test_case "uninit read" `Quick test_uninit_read;
       Alcotest.test_case "maybe uninit" `Quick test_maybe_uninit_read;
       Alcotest.test_case "guarded def/use" `Quick test_guarded_def_use_ok;
       Alcotest.test_case "uninit pred" `Quick test_uninit_pred ]);
    ("analysis.barrier",
     [ Alcotest.test_case "divergent barrier" `Quick test_divergent_barrier;
       Alcotest.test_case "loop barrier" `Quick test_loop_barrier;
       Alcotest.test_case "uniform ok" `Quick test_uniform_barrier_ok ]);
    ("analysis.race",
     [ Alcotest.test_case "neighbour read" `Quick test_shared_race;
       Alcotest.test_case "barrier suppresses" `Quick
         test_shared_race_suppressed;
       Alcotest.test_case "disjoint tiles" `Quick test_shared_disjoint_tiles;
       Alcotest.test_case "read/read never races" `Quick
         test_shared_read_read ]);
    ("analysis.race-proofs",
     [ Alcotest.test_case "proven safe" `Quick test_race_proven_safe;
       Alcotest.test_case "proven race" `Quick test_race_proven_race;
       Alcotest.test_case "unknown" `Quick test_race_unknown ]);
    ("analysis.interval",
     [ Alcotest.test_case "ops" `Quick test_interval_ops ]);
    ("analysis.affine",
     [ Alcotest.test_case "ops, join, widen" `Quick test_affine_ops;
       Alcotest.test_case "overlap prover" `Quick test_affine_overlap ]);
    ("analysis.absdom",
     [ Alcotest.test_case "transfer" `Quick test_absdom_transfer;
       Alcotest.test_case "diamond join" `Quick test_absdom_join;
       Alcotest.test_case "loop widening" `Quick test_absdom_widen;
       Alcotest.test_case "predicated select variance" `Quick
         test_absdom_sel ]);
    ("analysis.mempredict",
     [ Alcotest.test_case "hand-built kernel" `Quick test_mempredict ]);
    ("analysis.dead",
     [ Alcotest.test_case "unreachable code" `Quick test_unreachable_code;
       Alcotest.test_case "dead store" `Quick test_dead_store ]);
    ("analysis.verifier",
     [ Alcotest.test_case "gate" `Quick test_gate;
       Alcotest.test_case "compile gate seeded fault" `Quick
         test_compile_gate_seeded_fault ]);
    ("analysis.cost",
     [ Alcotest.test_case "static exactness" `Quick test_cost_static_exact;
       Alcotest.test_case "validation sgemm" `Slow test_cost_validation_sgemm;
       Alcotest.test_case "validation spmv" `Slow test_cost_validation_spmv ])
  ]
