(* Execution tests for the GPU simulator, using hand-assembled SASS
   kernels. These validate exactly the patterns the backend compiler
   emits: guarded exits, divergent branches with PDOM reconvergence,
   loops, atomics, shared memory with barriers, and local spills. *)

open Sass

let check = Alcotest.check

(* Assembly helpers *)
let r = Reg.r
let sreg x = Instr.SReg (r x)
let imm x = Instr.SImm x
let param x = Instr.SParam x
let i ?guard ?dsts ?pdsts ?srcs ?target op =
  Instr.make ?guard ?dsts ?pdsts ?srcs ?target op

let kernel ?(frame = 0) ?(shared = 0) ?(params = 32) name instrs =
  Program.annotate_reconvergence
    (Program.make ~name ~param_bytes:params ~frame_bytes:frame
       ~shared_bytes:shared (Array.of_list instrs))

let device () = Gpu.Device.create ~cfg:Gpu.Config.small ()

(* gid = ctaid.x * ntid.x + tid.x in R0 *)
let compute_gid =
  [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
    i (Opcode.S2R Opcode.Sr_ctaid_x) ~dsts:[ r 2 ];
    i (Opcode.S2R Opcode.Sr_ntid_x) ~dsts:[ r 3 ];
    i Opcode.IMAD ~dsts:[ r 0 ] ~srcs:[ sreg 2; sreg 3; sreg 0 ] ]

(* out[gid] = a[gid] + b[gid] for gid < n; params: a, b, out, n *)
let vadd_kernel =
  kernel "vadd"
    (compute_gid
     @ [ (* if gid >= n then exit *)
         i (Opcode.ISETP (Opcode.Ge, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
           ~srcs:[ sreg 0; param 12 ];
         i Opcode.EXIT ~guard:(Pred.on (Pred.p 0));
         i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
         i Opcode.MOV ~dsts:[ r 5 ] ~srcs:[ param 0 ];
         i (Opcode.LD (Opcode.Global, Opcode.W32)) ~dsts:[ r 6 ]
           ~srcs:[ sreg 5; sreg 4 ];
         i Opcode.MOV ~dsts:[ r 7 ] ~srcs:[ param 4 ];
         i (Opcode.LD (Opcode.Global, Opcode.W32)) ~dsts:[ r 8 ]
           ~srcs:[ sreg 7; sreg 4 ];
         i Opcode.IADD ~dsts:[ r 9 ] ~srcs:[ sreg 6; sreg 8 ];
         i Opcode.MOV ~dsts:[ r 10 ] ~srcs:[ param 8 ];
         i (Opcode.ST (Opcode.Global, Opcode.W32))
           ~srcs:[ sreg 10; sreg 4; sreg 9 ];
         i Opcode.EXIT ])

let test_vadd () =
  let dev = device () in
  let n = 1000 in
  let a = Gpu.Device.malloc dev (4 * n) in
  let b = Gpu.Device.malloc dev (4 * n) in
  let out = Gpu.Device.malloc dev (4 * n) in
  Gpu.Device.write_i32s dev ~addr:a (Array.init n (fun i -> i));
  Gpu.Device.write_i32s dev ~addr:b (Array.init n (fun i -> 2 * i));
  let stats =
    Gpu.Device.launch dev ~kernel:vadd_kernel
      ~grid:((n + 127) / 128, 1)
      ~block:(128, 1)
      ~args:[ Gpu.Device.Ptr a; Gpu.Device.Ptr b; Gpu.Device.Ptr out;
              Gpu.Device.I32 n ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n in
  Array.iteri
    (fun idx v ->
       if v <> 3 * idx then
         Alcotest.failf "out[%d] = %d, expected %d" idx v (3 * idx))
    result;
  check Alcotest.bool "executed instructions" true
    (stats.Gpu.Stats.warp_instrs > 0);
  check Alcotest.bool "cycles counted" true (stats.Gpu.Stats.cycles > 0);
  check Alcotest.bool "memory transactions" true
    (stats.Gpu.Stats.global_transactions > 0)

(* Divergence: out[gid] = tid < 16 ? 111 : 222 via a branch. *)
let branch_kernel =
  kernel "branchy"
    [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
      i (Opcode.ISETP (Opcode.Lt, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
        ~srcs:[ sreg 0; imm 16 ];
      (* @P0 BRA then-block *)
      i Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:5;
      i Opcode.MOV ~dsts:[ r 2 ] ~srcs:[ imm 222 ];
      i Opcode.BRA ~target:6;
      i Opcode.MOV ~dsts:[ r 2 ] ~srcs:[ imm 111 ];
      (* join: store *)
      i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
      i (Opcode.ST (Opcode.Global, Opcode.W32))
        ~srcs:[ param 0; sreg 4; sreg 2 ];
      i Opcode.EXIT ]

let test_divergence_reconvergence () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let stats =
    Gpu.Device.launch dev ~kernel:branch_kernel ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  for lane = 0 to 31 do
    let expected = if lane < 16 then 111 else 222 in
    check Alcotest.int (Printf.sprintf "lane %d" lane) expected result.(lane)
  done;
  check Alcotest.int "one divergent branch" 1
    stats.Gpu.Stats.divergent_branches;
  check Alcotest.int "one conditional branch warp-instr" 1
    stats.Gpu.Stats.branches

let test_uniform_branch_not_divergent () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  (* All 32 threads take the branch: tid < 32. *)
  let k =
    kernel "uniform"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.ISETP (Opcode.Lt, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
          ~srcs:[ sreg 0; imm 32 ];
        i Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:5;
        i Opcode.MOV ~dsts:[ r 2 ] ~srcs:[ imm 222 ];
        i Opcode.BRA ~target:6;
        i Opcode.MOV ~dsts:[ r 2 ] ~srcs:[ imm 111 ];
        i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 4; sreg 2 ];
        i Opcode.EXIT ]
  in
  let stats =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  check Alcotest.int "no divergence" 0 stats.Gpu.Stats.divergent_branches;
  check Alcotest.int "uniform result" 111
    (Gpu.Device.read_i32s dev ~addr:out ~n:1).(0)

(* Data-dependent loop: out[gid] = sum 1..(tid mod 7). *)
let loop_kernel =
  kernel "loopy"
    [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
      i (Opcode.IMOD Opcode.Signed) ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 7 ];
      i Opcode.MOV ~dsts:[ r 3 ] ~srcs:[ imm 0 ];  (* acc *)
      i Opcode.MOV ~dsts:[ r 4 ] ~srcs:[ imm 0 ];  (* i *)
      (* loop head: if i >= bound skip *)
      i (Opcode.ISETP (Opcode.Ge, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
        ~srcs:[ sreg 4; sreg 2 ];
      i Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:9;
      i Opcode.IADD ~dsts:[ r 4 ] ~srcs:[ sreg 4; imm 1 ];
      i Opcode.IADD ~dsts:[ r 3 ] ~srcs:[ sreg 3; sreg 4 ];
      i Opcode.BRA ~target:4;
      (* store *)
      i Opcode.SHL ~dsts:[ r 5 ] ~srcs:[ sreg 0; imm 2 ];
      i (Opcode.ST (Opcode.Global, Opcode.W32))
        ~srcs:[ param 0; sreg 5; sreg 3 ];
      i Opcode.EXIT ]

let test_divergent_loop () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 64) in
  let stats =
    Gpu.Device.launch dev ~kernel:loop_kernel ~grid:(1, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:64 in
  for t = 0 to 63 do
    let b = t mod 7 in
    let expected = b * (b + 1) / 2 in
    check Alcotest.int (Printf.sprintf "thread %d" t) expected result.(t)
  done;
  check Alcotest.bool "loop diverges" true
    (stats.Gpu.Stats.divergent_branches > 0)

let test_atomics () =
  let dev = device () in
  let counter = Gpu.Device.malloc dev 4 in
  let k =
    kernel "atomic_count"
      [ i (Opcode.ATOM (Opcode.Global, Opcode.A_add, Opcode.W32))
          ~dsts:[ r 2 ] ~srcs:[ param 0; imm 0; imm 1 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(4, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr counter ]
  in
  check Alcotest.int "atomic sum" 256 (Gpu.Device.read_i32 dev counter)

let test_atomic_max_and_cas () =
  let dev = device () in
  let cell = Gpu.Device.malloc dev 8 in
  Gpu.Device.write_i32 dev cell 5;
  (* Each thread atomicMax(cell, tid). *)
  let k =
    kernel "atomic_max"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.RED (Opcode.Global, Opcode.A_max, Opcode.W32))
          ~srcs:[ param 0; imm 0; sreg 0 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr cell ]
  in
  check Alcotest.int "atomic max" 63 (Gpu.Device.read_i32 dev cell)

(* Shared-memory block reverse with a barrier. *)
let reverse_kernel =
  kernel "reverse" ~shared:(4 * 64)
    [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
      i Opcode.SHL ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 2 ];
      (* load in[tid] -> shared[tid] *)
      i (Opcode.LD (Opcode.Global, Opcode.W32)) ~dsts:[ r 3 ]
        ~srcs:[ param 0; sreg 2 ];
      i (Opcode.ST (Opcode.Shared, Opcode.W32)) ~srcs:[ sreg 2; imm 0; sreg 3 ];
      i Opcode.BAR;
      (* out[tid] = shared[63 - tid] *)
      i Opcode.MOV ~dsts:[ r 4 ] ~srcs:[ imm 63 ];
      i Opcode.ISUB ~dsts:[ r 4 ] ~srcs:[ sreg 4; sreg 0 ];
      i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 4; imm 2 ];
      i (Opcode.LD (Opcode.Shared, Opcode.W32)) ~dsts:[ r 5 ]
        ~srcs:[ sreg 4; imm 0 ];
      i (Opcode.ST (Opcode.Global, Opcode.W32))
        ~srcs:[ param 4; sreg 2; sreg 5 ];
      i Opcode.EXIT ]

let test_shared_barrier () =
  let dev = device () in
  let input = Gpu.Device.malloc dev (4 * 64) in
  let out = Gpu.Device.malloc dev (4 * 64) in
  Gpu.Device.write_i32s dev ~addr:input (Array.init 64 (fun i -> i * 10));
  let _ =
    Gpu.Device.launch dev ~kernel:reverse_kernel ~grid:(1, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr input; Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:64 in
  for t = 0 to 63 do
    check Alcotest.int (Printf.sprintf "rev %d" t) ((63 - t) * 10) result.(t)
  done

(* Local memory spill/fill roundtrip. *)
let test_local_spill () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "spill" ~frame:16
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        (* push frame *)
        i Opcode.IADD ~dsts:[ r 1 ] ~srcs:[ sreg 1; imm (-16) ];
        i (Opcode.ST (Opcode.Local, Opcode.W32)) ~srcs:[ sreg 1; imm 4; sreg 0 ];
        i Opcode.MOV ~dsts:[ r 0 ] ~srcs:[ imm 0 ];
        i (Opcode.LD (Opcode.Local, Opcode.W32)) ~dsts:[ r 2 ]
          ~srcs:[ sreg 1; imm 4 ];
        i Opcode.IADD ~dsts:[ r 1 ] ~srcs:[ sreg 1; imm 16 ];
        i Opcode.SHL ~dsts:[ r 3 ] ~srcs:[ sreg 2; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 3; sreg 2 ];
        i Opcode.EXIT ]
  in
  let stats =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  for t = 0 to 31 do
    check Alcotest.int (Printf.sprintf "spill %d" t) t result.(t)
  done;
  check Alcotest.bool "spill instrs counted" true
    (stats.Gpu.Stats.spill_instrs > 0)

(* Warp intrinsics: ballot/popc. out[tid] = popc(ballot(tid mod 2 = 0)). *)
let test_vote_ballot () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "ballot"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.LOP Opcode.L_and) ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 1 ];
        i (Opcode.ISETP (Opcode.Eq, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
          ~srcs:[ sreg 2; imm 0 ];
        i (Opcode.VOTE Opcode.V_ballot) ~dsts:[ r 3 ]
          ~srcs:[ Instr.SPred (Pred.p 0) ];
        i Opcode.POPC ~dsts:[ r 4 ] ~srcs:[ sreg 3 ];
        i Opcode.SHL ~dsts:[ r 5 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 5; sreg 4 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  Array.iter (fun v -> check Alcotest.int "16 even lanes" 16 v) result

(* Shuffle: rotate values by 1 lane. *)
let test_shfl () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "shfl"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i Opcode.IADD ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 1 ];
        i (Opcode.LOP Opcode.L_and) ~dsts:[ r 2 ] ~srcs:[ sreg 2; imm 31 ];
        i (Opcode.SHFL Opcode.S_idx) ~dsts:[ r 3 ] ~srcs:[ sreg 0; sreg 2 ];
        i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 4; sreg 3 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  for t = 0 to 31 do
    check Alcotest.int (Printf.sprintf "shfl %d" t) ((t + 1) mod 32) result.(t)
  done

let test_float_ops () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  (* out[tid] = tid * 0.5 + 1.0 via I2F/FFMA *)
  let k =
    kernel "fops"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.I2F Opcode.Signed) ~dsts:[ r 2 ] ~srcs:[ sreg 0 ];
        i Opcode.MOV ~dsts:[ r 3 ] ~srcs:[ imm (Gpu.Value.bits_of_f32 0.5) ];
        i Opcode.MOV ~dsts:[ r 4 ] ~srcs:[ imm (Gpu.Value.bits_of_f32 1.0) ];
        i Opcode.FFMA ~dsts:[ r 5 ] ~srcs:[ sreg 2; sreg 3; sreg 4 ];
        i Opcode.SHL ~dsts:[ r 6 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 6; sreg 5 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_f32s dev ~addr:out ~n:32 in
  for t = 0 to 31 do
    check (Alcotest.float 1e-6) (Printf.sprintf "f %d" t)
      ((float_of_int t *. 0.5) +. 1.0)
      result.(t)
  done

let test_memory_fault () =
  let dev = device () in
  let k =
    kernel "oob"
      [ i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ imm 0x7FFFFFF0; imm 0; imm 1 ];
        i Opcode.EXIT ]
  in
  (match
     Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1) ~args:[]
   with
   | _ -> Alcotest.fail "expected a memory fault"
   | exception Gpu.Trap.Memory_fault _ -> ())

let test_hang_watchdog () =
  let dev =
    Gpu.Device.create
      ~cfg:{ Gpu.Config.small with Gpu.Config.max_cycles = 10_000 }
      ()
  in
  let k =
    kernel "spin"
      [ i Opcode.NOP; i Opcode.BRA ~target:0; i Opcode.EXIT ]
  in
  (match Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1) ~args:[] with
   | _ -> Alcotest.fail "expected a hang"
   | exception Gpu.Trap.Hang _ -> ())

(* Memory coalescing shapes: unit-stride warp -> few transactions;
   stride-32 -> one transaction per lane. *)
let stride_kernel name stride =
  kernel name
    (compute_gid
     @ [ i Opcode.IMUL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm (4 * stride) ];
         i (Opcode.LD (Opcode.Global, Opcode.W32)) ~dsts:[ r 5 ]
           ~srcs:[ param 0; sreg 4 ];
         i Opcode.EXIT ])

let test_coalescing () =
  let dev = device () in
  let buf = Gpu.Device.malloc dev (4 * 32 * 32) in
  let s1 =
    Gpu.Device.launch dev ~kernel:(stride_kernel "stride1" 1) ~grid:(1, 1)
      ~block:(32, 1) ~args:[ Gpu.Device.Ptr buf ]
  in
  let s32 =
    Gpu.Device.launch dev ~kernel:(stride_kernel "stride32" 32) ~grid:(1, 1)
      ~block:(32, 1) ~args:[ Gpu.Device.Ptr buf ]
  in
  check Alcotest.int "unit stride: 4 transactions (128B / 32B lines)" 4
    s1.Gpu.Stats.global_transactions;
  check Alcotest.int "stride 32: 32 transactions" 32
    s32.Gpu.Stats.global_transactions

(* A load into its own address register, [LD R3, [R3]], is timed on
   the addresses it read from: 32 consecutive words make 4
   transactions, though the words it loads, 4 KiB apart, would make
   32. *)
let test_self_address_load_coalesces_on_addresses () =
  let dev = device () in
  let buf = Gpu.Device.malloc dev (4 * 32) in
  let out = Gpu.Device.malloc dev (4 * 32) in
  Gpu.Device.write_i32s dev ~addr:buf (Array.init 32 (fun k -> k * 4096));
  let k =
    kernel "self_address"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i Opcode.SHL ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 2 ];
        i Opcode.IADD ~dsts:[ r 3 ] ~srcs:[ sreg 2; param 0 ];
        i (Opcode.LD (Opcode.Global, Opcode.W32)) ~dsts:[ r 3 ]
          ~srcs:[ sreg 3; imm 0 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 4; sreg 2; sreg 3 ];
        i Opcode.EXIT ]
  in
  let s =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr buf; Gpu.Device.Ptr out ]
  in
  check (Alcotest.array Alcotest.int) "loaded values"
    (Array.init 32 (fun k -> k * 4096))
    (Gpu.Device.read_i32s dev ~addr:out ~n:32);
  check Alcotest.int "load timed on its 32 consecutive addresses" 4
    s.Gpu.Stats.gld_transactions

let test_coalesce_function () =
  let lines = Gpu.Memsys.coalesce ~line_bytes:32 [ (0, 4); (4, 4); (28, 8) ] in
  check (Alcotest.list Alcotest.int) "straddle" [ 0; 1 ] lines;
  let lines2 =
    Gpu.Memsys.coalesce ~line_bytes:32
      (List.init 32 (fun i -> (i * 4, 4)))
  in
  check Alcotest.int "full warp unit stride" 4 (List.length lines2)

(* Ragged block: only 40 threads in a 64-thread block shape. *)
let test_ragged_block () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 64) in
  Gpu.Device.memset dev ~addr:out ~len:(4 * 64) '\255';
  let k =
    kernel "ragged"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i Opcode.SHL ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 2; sreg 0 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(40, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:64 in
  for t = 0 to 39 do
    check Alcotest.int (Printf.sprintf "t%d" t) t result.(t)
  done;
  for t = 40 to 63 do
    check Alcotest.int (Printf.sprintf "untouched %d" t) 0xFFFFFFFF result.(t)
  done

(* Multi-block, multi-SM grids produce correct results. *)
let test_many_blocks () =
  let dev = device () in
  let n = 4096 in
  let a = Gpu.Device.malloc dev (4 * n) in
  let b = Gpu.Device.malloc dev (4 * n) in
  let out = Gpu.Device.malloc dev (4 * n) in
  Gpu.Device.write_i32s dev ~addr:a (Array.init n (fun i -> i));
  Gpu.Device.write_i32s dev ~addr:b (Array.init n (fun i -> i * i land 0xFF));
  let _ =
    Gpu.Device.launch dev ~kernel:vadd_kernel ~grid:(n / 64, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr a; Gpu.Device.Ptr b; Gpu.Device.Ptr out;
              Gpu.Device.I32 n ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n in
  for idx = 0 to n - 1 do
    if result.(idx) <> idx + (idx * idx land 0xFF) then
      Alcotest.failf "out[%d] wrong" idx
  done

(* --- Value unit + property tests -------------------------------------- *)

let test_value_wrap () =
  check Alcotest.int "add wraps" 0 (Gpu.Value.add 0xFFFFFFFF 1);
  check Alcotest.int "sub wraps" 0xFFFFFFFF (Gpu.Value.sub 0 1);
  check Alcotest.int "signed" (-1) (Gpu.Value.signed 0xFFFFFFFF);
  check Alcotest.int "of_signed" 0xFFFFFFFF (Gpu.Value.of_signed (-1));
  check Alcotest.int "div signed" (Gpu.Value.of_signed (-3))
    (Gpu.Value.div ~sign:Opcode.Signed (Gpu.Value.of_signed (-7)) 2);
  check Alcotest.int "div by zero" 0xFFFFFFFF
    (Gpu.Value.div ~sign:Opcode.Unsigned 5 0);
  check Alcotest.int "shr arith" 0xFFFFFFFF
    (Gpu.Value.shr ~sign:Opcode.Signed 0x80000000 31);
  check Alcotest.int "shl big" 0 (Gpu.Value.shl 1 32)

let test_value_bits () =
  check Alcotest.int "popc" 8 (Gpu.Value.popc 0xFF);
  check Alcotest.int "flo" 7 (Gpu.Value.flo 0xFF);
  check Alcotest.int "flo 0" 0xFFFFFFFF (Gpu.Value.flo 0);
  check Alcotest.int "ffs" 1 (Gpu.Value.ffs 0xFF);
  check Alcotest.int "ffs 0" 0 (Gpu.Value.ffs 0);
  check Alcotest.int "ffs bit5" 6 (Gpu.Value.ffs 0x20);
  check Alcotest.int "brev" 0x80000000 (Gpu.Value.brev 1);
  check Alcotest.int "brev sym" 1 (Gpu.Value.brev 0x80000000)

let test_value_floats () =
  let f = 3.25 in
  check (Alcotest.float 0.0) "f32 roundtrip" f
    (Gpu.Value.f32_of_bits (Gpu.Value.bits_of_f32 f));
  check Alcotest.int "fadd" (Gpu.Value.bits_of_f32 5.5)
    (Gpu.Value.fadd (Gpu.Value.bits_of_f32 2.25) (Gpu.Value.bits_of_f32 3.25));
  check Alcotest.int "i2f" (Gpu.Value.bits_of_f32 42.0)
    (Gpu.Value.i2f ~sign:Opcode.Signed 42);
  check Alcotest.int "f2i trunc" 3
    (Gpu.Value.f2i ~sign:Opcode.Signed (Gpu.Value.bits_of_f32 3.9));
  check Alcotest.int "f2i neg" (Gpu.Value.of_signed (-3))
    (Gpu.Value.f2i ~sign:Opcode.Signed (Gpu.Value.bits_of_f32 (-3.9)))

let prop_value_u32 =
  let open QCheck in
  Test.make ~name:"u32 ops stay in range" ~count:500
    (pair (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (a, b) ->
       let in_range v = v >= 0 && v <= 0xFFFFFFFF in
       in_range (Gpu.Value.add a b)
       && in_range (Gpu.Value.sub a b)
       && in_range (Gpu.Value.mul a b)
       && in_range (Gpu.Value.shl a (b land 63))
       && in_range (Gpu.Value.shr ~sign:Opcode.Signed a (b land 63))
       && in_range (Gpu.Value.brev a))

let prop_signed_roundtrip =
  let open QCheck in
  Test.make ~name:"signed/of_signed roundtrip" ~count:500
    (int_range (-0x80000000) 0x7FFFFFFF)
    (fun x -> Gpu.Value.signed (Gpu.Value.of_signed x) = x)

let prop_popc_brev =
  let open QCheck in
  Test.make ~name:"popc invariant under brev" ~count:500
    (int_bound 0xFFFFFFF)
    (fun x -> Gpu.Value.popc x = Gpu.Value.popc (Gpu.Value.brev x))

(* --- Cache / memory unit tests ----------------------------------------- *)

let test_cache_lru () =
  let c = Cache_testable.make_cache () in
  (* 2 sets x 2 ways, 32B lines: addresses 0, 64, 128 map to set 0. *)
  check Alcotest.bool "miss 0" true (Cache_testable.miss c 0);
  check Alcotest.bool "miss 64" true (Cache_testable.miss c 64);
  check Alcotest.bool "hit 0" false (Cache_testable.miss c 0);
  check Alcotest.bool "miss 128 evicts 64" true (Cache_testable.miss c 128);
  check Alcotest.bool "hit 0 still" false (Cache_testable.miss c 0);
  check Alcotest.bool "64 was evicted" true (Cache_testable.miss c 64)

let test_memory_bounds () =
  let m = Gpu.Memory.create ~space:Opcode.Global 64 in
  Gpu.Memory.write m ~width:Opcode.W32 60 42;
  check Alcotest.int "read back" 42 (Gpu.Memory.read m ~width:Opcode.W32 60);
  (match Gpu.Memory.read m ~width:Opcode.W32 62 with
   | _ -> Alcotest.fail "expected fault"
   | exception Gpu.Trap.Memory_fault _ -> ());
  (match Gpu.Memory.read m ~width:Opcode.W8 (-1) with
   | _ -> Alcotest.fail "expected fault"
   | exception Gpu.Trap.Memory_fault _ -> ())

let test_memory_widths () =
  let m = Gpu.Memory.create ~space:Opcode.Global 64 in
  Gpu.Memory.write m ~width:Opcode.W8 0 0xAB;
  Gpu.Memory.write m ~width:Opcode.W8 1 0xCD;
  check Alcotest.int "w16 le" 0xCDAB (Gpu.Memory.read m ~width:Opcode.W16 0);
  Gpu.Memory.write_u64 m 8 0x123456789AB;
  check Alcotest.int "u64" 0x123456789AB (Gpu.Memory.read_u64 m 8);
  Gpu.Memory.write m ~width:Opcode.W32 16 0xFFFFFFFF;
  check Alcotest.int "u32 max" 0xFFFFFFFF (Gpu.Memory.read m ~width:Opcode.W32 16)

(* --- CAL/RET, VOTE.ANY/ALL with predicate dsts, MEMBAR, TLD ------------ *)

let test_cal_ret () =
  (* main: CAL f; store R2; EXIT.  f: R2 = tid * 3; RET. *)
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "calret"
      [ i Opcode.CAL ~target:4;
        i Opcode.SHL ~dsts:[ r 3 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 3; sreg 2 ];
        i Opcode.EXIT;
        (* subroutine *)
        i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i Opcode.IMUL ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 3 ];
        i Opcode.RET ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  for t = 0 to 31 do
    check Alcotest.int (Printf.sprintf "cal %d" t) (t * 3) result.(t)
  done

let test_vote_any_all_pdst () =
  (* P1 = VOTE.ANY(tid == 5); P2 = VOTE.ALL(tid < 32); store (P1,P2). *)
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "voteaa"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.ISETP (Opcode.Eq, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
          ~srcs:[ sreg 0; imm 5 ];
        i (Opcode.VOTE Opcode.V_any) ~pdsts:[ Pred.p 1 ]
          ~srcs:[ Instr.SPred (Pred.p 0) ];
        i (Opcode.ISETP (Opcode.Lt, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
          ~srcs:[ sreg 0; imm 32 ];
        i (Opcode.VOTE Opcode.V_all) ~pdsts:[ Pred.p 2 ]
          ~srcs:[ Instr.SPred (Pred.p 0) ];
        i Opcode.MEMBAR;
        i Opcode.IADD ~dsts:[ r 2 ]
          ~srcs:[ Instr.SPred (Pred.p 1); Instr.SPred (Pred.p 2) ];
        i Opcode.SHL ~dsts:[ r 3 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 3; sreg 2 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  Array.iter (fun v -> check Alcotest.int "any+all = 2" 2 v) result

let test_tld_clamping () =
  (* Texture fetches clamp out-of-range indices instead of faulting. *)
  let dev = device () in
  let tex = Gpu.Device.malloc dev (4 * 8) in
  Gpu.Device.write_i32s dev ~addr:tex (Array.init 8 (fun i -> 100 + i));
  Gpu.Device.bind_texture dev ~addr:tex ~bytes:(4 * 8);
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "tldclamp"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        (* index = tid - 4: negative for tid<4, >7 for tid>11 *)
        i Opcode.IADD ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm (-4) ];
        i (Opcode.TLD Opcode.W32) ~dsts:[ r 3 ] ~srcs:[ sreg 2 ];
        i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 4; sreg 3 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  check Alcotest.int "clamped low" 100 result.(0);
  check Alcotest.int "in range" 101 result.(5);
  check Alcotest.int "clamped high" 107 result.(20)

(* --- Paged memory ----------------------------------------------------- *)

let page = 4096

let test_paged_untouched_zero () =
  let m = Gpu.Memory.create ~space:Opcode.Global (64 * page) in
  List.iter
    (fun a ->
      List.iter
        (fun width ->
          check Alcotest.int "untouched reads 0" 0 (Gpu.Memory.read m ~width a))
        [ Opcode.W8; Opcode.W16; Opcode.W32; Opcode.W64 ])
    [ 0; 100; page - 4; page - 7; (7 * page) + 3; (64 * page) - 8 ];
  Gpu.Memory.write m ~width:Opcode.W32 (5 * page) 7;
  check Alcotest.int "neighbour page still 0" 0
    (Gpu.Memory.read m ~width:Opcode.W32 (6 * page));
  let buf = Bytes.make (3 * page) 'x' in
  Gpu.Memory.blit_to_bytes m ~src:(10 * page - 5) buf;
  check Alcotest.bool "blit of untouched pages is zeros" true
    (Bytes.for_all (fun c -> c = '\000') buf)

(* Every width at every offset that straddles a page boundary
   round-trips, and its bytes land little-endian on both pages. *)
let test_paged_straddle () =
  List.iter
    (fun (width, bytes, v) ->
      for k = 1 to bytes - 1 do
        let m = Gpu.Memory.create ~space:Opcode.Global (4 * page) in
        let a = (2 * page) - k in
        Gpu.Memory.write m ~width a v;
        check Alcotest.int
          (Printf.sprintf "%d-byte value at page edge - %d" bytes k)
          v (Gpu.Memory.read m ~width a);
        for b = 0 to bytes - 1 do
          check Alcotest.int "byte order" ((v lsr (8 * b)) land 0xFF)
            (Gpu.Memory.read m ~width:Opcode.W8 (a + b))
        done
      done)
    [ (Opcode.W16, 2, 0xBEEF);
      (Opcode.W32, 4, 0xDEADBEEF);
      (Opcode.W64, 8, 0x0123456789ABCDEF) ]

let test_paged_bounds () =
  let size = (3 * page) + 100 in
  let m = Gpu.Memory.create ~space:Opcode.Global size in
  List.iter
    (fun (width, bytes) ->
      Gpu.Memory.write m ~width (size - bytes) 1;
      check Alcotest.int "last in-bounds access" 1
        (Gpu.Memory.read m ~width (size - bytes));
      List.iter
        (fun access ->
          match access (size - bytes + 1) with
          | () -> Alcotest.fail "access past size accepted"
          | exception Gpu.Trap.Memory_fault { addr; kind; _ } ->
            check Alcotest.int "fault address" (size - bytes + 1) addr;
            check Alcotest.bool "out of bounds" true
              (kind = Gpu.Trap.Out_of_bounds))
        [ (fun a -> ignore (Gpu.Memory.read m ~width a));
          (fun a -> Gpu.Memory.write m ~width a 0) ])
    [ (Opcode.W8, 1); (Opcode.W16, 2); (Opcode.W32, 4); (Opcode.W64, 8) ];
  (match Gpu.Memory.fill m ~pos:(size - 10) ~len:11 'x' with
   | () -> Alcotest.fail "fill past size accepted"
   | exception Gpu.Trap.Memory_fault _ -> ())

let test_paged_fill_blit () =
  let m = Gpu.Memory.create ~space:Opcode.Global (8 * page) in
  let src = Bytes.init (3 * page) (fun i -> Char.chr (i * 7 land 0xFF)) in
  Gpu.Memory.blit_from_bytes m ~dst:(page + 10) src;
  let back = Bytes.create (Bytes.length src) in
  Gpu.Memory.blit_to_bytes m ~src:(page + 10) back;
  check Alcotest.bool "blit round-trip across pages" true
    (Bytes.equal src back);
  Gpu.Memory.fill m ~pos:(page - 3) ~len:(2 * page) 'z';
  let got = Bytes.create ((2 * page) + 6) in
  Gpu.Memory.blit_to_bytes m ~src:(page - 6) got;
  Bytes.iteri
    (fun i c ->
      if i >= 3 && i < (2 * page) + 3 && c <> 'z' then
        Alcotest.failf "byte %d not filled" i)
    got;
  check Alcotest.char "after the fill" (Bytes.get src ((2 * page) - 13))
    (Bytes.get got ((2 * page) + 3));
  check Alcotest.char "before the fill" '\000' (Bytes.get got 0);
  Gpu.Memory.fill m ~pos:0 ~len:(8 * page) '\000';
  let all = Bytes.make (8 * page) 'x' in
  Gpu.Memory.blit_to_bytes m ~src:0 all;
  check Alcotest.bool "zero fill clears written pages" true
    (Bytes.for_all (fun c -> c = '\000') all);
  let big = Gpu.Memory.create ~space:Opcode.Global (256 * page) in
  let before = Gc.allocated_bytes () in
  Gpu.Memory.fill big ~pos:0 ~len:(256 * page) '\000';
  check Alcotest.bool "zero fill of untouched pages materializes none" true
    (Gc.allocated_bytes () -. before < float_of_int page)

let test_device_create_small () =
  (* Start from a minor collection: without it the reading depended on
     which tests ran before (1.08 MB after the gpu.exec cases, 0.53 MB
     for the same create after a [Gc.minor]). *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let dev = Gpu.Device.create ~cfg:Gpu.Config.default () in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity dev);
  if bytes >= 1048576. then
    Alcotest.failf "Device.create allocated %.0f bytes (limit 1 MiB)" bytes

(* --- Register files --------------------------------------------------- *)

(* A stale [regs_used] must not size the register file: the run is
   bit-identical to the [Program.make] build of the same instructions. *)
let test_regs_from_instructions () =
  let run k =
    let dev = device () in
    let n = 300 in
    let a = Gpu.Device.malloc dev (4 * n) in
    let b = Gpu.Device.malloc dev (4 * n) in
    let out = Gpu.Device.malloc dev (4 * n) in
    Gpu.Device.write_i32s dev ~addr:a (Array.init n (fun i -> i * 5));
    Gpu.Device.write_i32s dev ~addr:b (Array.init n (fun i -> 7 - i));
    let stats =
      Gpu.Device.launch dev ~kernel:k ~grid:(3, 1) ~block:(128, 1)
        ~args:[ Gpu.Device.Ptr a; Gpu.Device.Ptr b; Gpu.Device.Ptr out;
                Gpu.Device.I32 n ]
    in
    (Gpu.Device.read_i32s dev ~addr:out ~n, Gpu.Stats.to_assoc stats)
  in
  let out, stats = run vadd_kernel in
  let out', stats' = run { vadd_kernel with Program.regs_used = 2 } in
  check Alcotest.(array int) "same output" out out';
  check Alcotest.(list (pair string int)) "same counters" stats stats'

let test_reg_set_beyond_file () =
  let dev = device () in
  let k = kernel "hcall_regs" [ i (Opcode.HCALL 0); i Opcode.EXIT ] in
  let seen = ref [] in
  Gpu.Device.set_hcall dev
    (Some
       (fun ctx ->
         let w = ctx.Gpu.State.h_warp in
         let outcome f =
           match f () with
           | () -> "ok"
           | exception Gpu.Trap.Register_fault _ -> "trap"
         in
         let r1 = outcome (fun () -> Gpu.State.reg_set w ~lane:0 (r 1) 5) in
         let r2 = outcome (fun () -> Gpu.State.reg_set w ~lane:31 (r 2) 5) in
         let rz = outcome (fun () -> Gpu.State.reg_set w ~lane:0 Reg.RZ 5) in
         seen :=
           [ r1; r2; rz;
             string_of_int (Gpu.State.reg_get w ~lane:3 (r 200));
             string_of_int (Gpu.State.reg_get w ~lane:0 (r 1)) ]));
  ignore (Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1) ~args:[]);
  check Alcotest.(list string) "R1 ok, R2 traps, RZ dropped, beyond reads 0"
    [ "ok"; "trap"; "ok"; "0"; "5" ] !seen

(* The public accessors check the lane (and the index) that the
   interpreter's unchecked ones trust; so do the Memsys entry points
   their lane count, and the decoder a register built below [Reg.r]'s
   range. *)
let test_checked_accessors () =
  let dev = device () in
  let k = kernel "hcall_lanes" [ i (Opcode.HCALL 0); i Opcode.EXIT ] in
  let seen = ref [] in
  let outcome f =
    match f () with
    | () -> "ok"
    | exception Invalid_argument _ -> "invalid"
  in
  Gpu.Device.set_hcall dev
    (Some
       (fun ctx ->
         let w = ctx.Gpu.State.h_warp in
         let get lane () = ignore (Gpu.State.reg_get w ~lane (r 1)) in
         seen :=
           [ outcome (get 31);
             outcome (get 32);
             outcome (get (-1));
             outcome (fun () -> Gpu.State.reg_set w ~lane:32 (r 1) 5);
             outcome (fun () -> ignore (Gpu.State.reg_get w ~lane:0 (Reg.R (-1))));
             outcome (fun () -> ignore (Gpu.State.pred_get w ~lane:32 Pred.PT));
             outcome (fun () -> Gpu.State.pred_set w ~lane:(-1) (Pred.p 0) true) ]));
  ignore (Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1) ~args:[]);
  check Alcotest.(list string) "only lane 31 of R1 is in range"
    [ "ok"; "invalid"; "invalid"; "invalid"; "invalid"; "invalid"; "invalid" ]
    !seen;
  let mem = Gpu.Memsys.create Gpu.Config.default in
  let stats = Gpu.Stats.create () in
  let access f = outcome (fun () -> ignore (f ())) in
  check Alcotest.(list string) "Memsys takes at most 32 lanes"
    [ "ok"; "invalid"; "invalid"; "invalid"; "invalid" ]
    [ access (fun () -> Gpu.Memsys.global_access mem ~sm:0 ~stats ~n:32 ~width:4);
      access (fun () -> Gpu.Memsys.global_access mem ~sm:0 ~stats ~n:33 ~width:4);
      access (fun () -> Gpu.Memsys.global_access mem ~sm:0 ~stats ~n:1 ~width:16);
      access (fun () -> Gpu.Memsys.shared_access mem ~sm:0 ~stats ~n:33);
      access (fun () ->
          Gpu.Memsys.atomic_access mem ~sm:0 ~stats ~n:33 ~width:4) ];
  let bad =
    kernel "negative_reg"
      [ i Opcode.MOV ~dsts:[ Reg.R (-1) ] ~srcs:[ imm 1 ]; i Opcode.EXIT ]
  in
  check Alcotest.string "negative register faults at issue" "invalid"
    (outcome (fun () ->
         ignore
           (Gpu.Device.launch (device ()) ~kernel:bad ~grid:(1, 1)
              ~block:(32, 1) ~args:[])))

(* --- Allocation-free steps -------------------------------------------- *)

(* Straight-line integer ALU code on one warp: a kernel twice as long
   must allocate exactly as much, so a step allocates nothing. *)
let test_alu_steps_allocate_nothing () =
  let body n =
    List.concat
      (List.init n (fun k ->
           match k mod 6 with
           | 0 -> [ i Opcode.IADD ~dsts:[ r 2 ] ~srcs:[ sreg 2; imm 3 ] ]
           | 1 ->
             [ i Opcode.IMAD ~dsts:[ r 3 ] ~srcs:[ sreg 2; sreg 0; param 0 ] ]
           | 2 ->
             [ i (Opcode.LOP Opcode.L_xor) ~dsts:[ r 4 ]
                 ~srcs:[ sreg 3; sreg 2 ] ]
           | 3 -> [ i Opcode.SHL ~dsts:[ r 5 ] ~srcs:[ sreg 4; imm 1 ] ]
           | 4 ->
             [ i (Opcode.ISETP (Opcode.Lt, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
                 ~srcs:[ sreg 5; sreg 2 ] ]
           | _ -> [ i Opcode.MOV ~dsts:[ r 6 ] ~srcs:[ sreg 5 ] ]))
  in
  let k n =
    kernel (Printf.sprintf "alu%d" n)
      ((i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ] :: body n)
       @ [ i Opcode.EXIT ])
  in
  let dev = device () in
  let words k =
    let launch () =
      ignore
        (Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
           ~args:[ Gpu.Device.I32 9 ])
    in
    launch ();
    let before = Gc.minor_words () in
    launch ();
    Gc.minor_words () -. before
  in
  let kn = k 240 and k2n = k 480 in
  let wn = words kn and w2n = words k2n in
  check (Alcotest.float 0.) "minor words independent of ALU step count" wn w2n

let extra_suite =
  ("gpu.isa-extra",
   [ Alcotest.test_case "CAL/RET" `Quick test_cal_ret;
     Alcotest.test_case "VOTE any/all pdst" `Quick test_vote_any_all_pdst;
     Alcotest.test_case "TLD clamping" `Quick test_tld_clamping ])

let paged_suite =
  [ ("gpu.paged-memory",
     [ Alcotest.test_case "untouched pages read 0" `Quick
         test_paged_untouched_zero;
       Alcotest.test_case "straddling widths round-trip" `Quick
         test_paged_straddle;
       Alcotest.test_case "bounds trap at size" `Quick test_paged_bounds;
       Alcotest.test_case "fill and blit across pages" `Quick
         test_paged_fill_blit;
       Alcotest.test_case "device create under 1 MiB" `Quick
         test_device_create_small ]);
    ("gpu.register-file",
     [ Alcotest.test_case "stale regs_used bit-identical" `Quick
         test_regs_from_instructions;
       Alcotest.test_case "reg_set beyond the file" `Quick
         test_reg_set_beyond_file;
       Alcotest.test_case "public accessors check lanes" `Quick
         test_checked_accessors ]);
    ("gpu.zero-alloc",
     [ Alcotest.test_case "ALU steps allocate nothing" `Quick
         test_alu_steps_allocate_nothing ]) ]

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [ ("gpu.value",
     [ Alcotest.test_case "wrap" `Quick test_value_wrap;
       Alcotest.test_case "bits" `Quick test_value_bits;
       Alcotest.test_case "floats" `Quick test_value_floats;
       qt prop_value_u32;
       qt prop_signed_roundtrip;
       qt prop_popc_brev ]);
    ("gpu.memory",
     [ Alcotest.test_case "bounds" `Quick test_memory_bounds;
       Alcotest.test_case "widths" `Quick test_memory_widths;
       Alcotest.test_case "cache lru" `Quick test_cache_lru;
       Alcotest.test_case "coalesce fn" `Quick test_coalesce_function ]);
    ("gpu.exec",
     [ Alcotest.test_case "vadd" `Quick test_vadd;
       Alcotest.test_case "divergence" `Quick test_divergence_reconvergence;
       Alcotest.test_case "uniform branch" `Quick test_uniform_branch_not_divergent;
       Alcotest.test_case "divergent loop" `Quick test_divergent_loop;
       Alcotest.test_case "atomics" `Quick test_atomics;
       Alcotest.test_case "atomic max/red" `Quick test_atomic_max_and_cas;
       Alcotest.test_case "shared+barrier" `Quick test_shared_barrier;
       Alcotest.test_case "local spill" `Quick test_local_spill;
       Alcotest.test_case "ballot" `Quick test_vote_ballot;
       Alcotest.test_case "shfl" `Quick test_shfl;
       Alcotest.test_case "floats" `Quick test_float_ops;
       Alcotest.test_case "memory fault" `Quick test_memory_fault;
       Alcotest.test_case "hang watchdog" `Quick test_hang_watchdog;
       Alcotest.test_case "coalescing" `Quick test_coalescing;
       Alcotest.test_case "self-address load coalescing" `Quick
         test_self_address_load_coalesces_on_addresses;
       Alcotest.test_case "ragged block" `Quick test_ragged_block;
       Alcotest.test_case "many blocks" `Quick test_many_blocks ]);
    extra_suite ]
  @ paged_suite
