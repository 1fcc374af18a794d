let alu_cost ctx = Hctx.charge ctx ~ops:1 ~cycles:2

let ballot ctx f =
  alu_cost ctx;
  List.fold_left
    (fun acc lane -> if f lane then acc lor (1 lsl lane) else acc)
    0 (Hctx.active_lanes ctx)

let all ctx f =
  alu_cost ctx;
  List.for_all f (Hctx.active_lanes ctx)

let any ctx f =
  alu_cost ctx;
  List.exists f (Hctx.active_lanes ctx)

let popc ctx v =
  alu_cost ctx;
  Gpu.Value.popc v

let ffs ctx v =
  alu_cost ctx;
  Gpu.Value.ffs v

let shfl ctx f ~src_lane =
  alu_cost ctx;
  if Hctx.lane_active ctx src_lane then f src_lane else f (Hctx.leader ctx)

(* --- Global memory ------------------------------------------------------ *)

let global ctx = ctx.Hctx.device.Gpu.State.d_global

let stats ctx = ctx.Hctx.sm.Gpu.State.sm_launch.Gpu.State.l_stats

let lane_addrs ctx =
  Gpu.Memsys.lanes ctx.Hctx.device.Gpu.State.d_mem
    ~sm:ctx.Hctx.sm.Gpu.State.sm_id

(* Charge one access by the first [n] entries of [lane_addrs ctx]. *)
let charge_access ctx ~n ~bytes ~atomic =
  let mem = ctx.Hctx.device.Gpu.State.d_mem in
  let sm = ctx.Hctx.sm.Gpu.State.sm_id in
  let access =
    if atomic then Gpu.Memsys.atomic_access else Gpu.Memsys.global_access
  in
  let r = access mem ~sm ~stats:(stats ctx) ~n ~width:bytes in
  Hctx.charge ctx ~ops:1 ~cycles:r.Gpu.Memsys.latency

let mem_cost ctx ~addr ~bytes ~atomic =
  (lane_addrs ctx).(0) <- addr;
  charge_access ctx ~n:1 ~bytes ~atomic

let read_u32 ctx addr =
  mem_cost ctx ~addr ~bytes:4 ~atomic:false;
  Gpu.Memory.read (global ctx) ~width:Sass.Opcode.W32 addr

let write_u32 ctx addr v =
  mem_cost ctx ~addr ~bytes:4 ~atomic:false;
  Gpu.Memory.write (global ctx) ~width:Sass.Opcode.W32 addr v

let read_u64 ctx addr =
  mem_cost ctx ~addr ~bytes:8 ~atomic:false;
  Gpu.Memory.read_u64 (global ctx) addr

let write_u64 ctx addr v =
  mem_cost ctx ~addr ~bytes:8 ~atomic:false;
  Gpu.Memory.write_u64 (global ctx) addr v

let atomic_add_u64 ctx addr v =
  mem_cost ctx ~addr ~bytes:8 ~atomic:true;
  let m = global ctx in
  Gpu.Memory.write_u64 m addr (Gpu.Memory.read_u64 m addr + v)

let atomic_add_u32 ctx addr v =
  mem_cost ctx ~addr ~bytes:4 ~atomic:true;
  let m = global ctx in
  let old = Gpu.Memory.read m ~width:Sass.Opcode.W32 addr in
  Gpu.Memory.write m ~width:Sass.Opcode.W32 addr (Gpu.Value.add old v);
  old

let atomic_and_u32 ctx addr v =
  mem_cost ctx ~addr ~bytes:4 ~atomic:true;
  let m = global ctx in
  let old = Gpu.Memory.read m ~width:Sass.Opcode.W32 addr in
  Gpu.Memory.write m ~width:Sass.Opcode.W32 addr (old land v)

let atomic_or_u32 ctx addr v =
  mem_cost ctx ~addr ~bytes:4 ~atomic:true;
  let m = global ctx in
  let old = Gpu.Memory.read m ~width:Sass.Opcode.W32 addr in
  Gpu.Memory.write m ~width:Sass.Opcode.W32 addr (old lor v)

let atomic_cas_u32 ctx addr ~compare ~swap =
  mem_cost ctx ~addr ~bytes:4 ~atomic:true;
  let m = global ctx in
  let old = Gpu.Memory.read m ~width:Sass.Opcode.W32 addr in
  if old = compare then Gpu.Memory.write m ~width:Sass.Opcode.W32 addr swap;
  old

let per_lane ctx f ~bytes ~apply =
  let results = List.map f (Hctx.active_lanes ctx) in
  let addrs = lane_addrs ctx in
  List.iteri (fun k (addr, _) -> addrs.(k) <- addr) results;
  if results <> [] then
    charge_access ctx ~n:(List.length results) ~bytes ~atomic:true;
  List.iter apply results

let per_lane_atomic_add_u64 ctx f =
  per_lane ctx f ~bytes:8 ~apply:(fun (addr, v) ->
      let m = global ctx in
      Gpu.Memory.write_u64 m addr (Gpu.Memory.read_u64 m addr + v))

let per_lane_atomic_and_u32 ctx f =
  per_lane ctx f ~bytes:4 ~apply:(fun (addr, v) ->
      let m = global ctx in
      let old = Gpu.Memory.read m ~width:Sass.Opcode.W32 addr in
      Gpu.Memory.write m ~width:Sass.Opcode.W32 addr (old land v))

let per_lane_atomic_or_u32 ctx f =
  per_lane ctx f ~bytes:4 ~apply:(fun (addr, v) ->
      let m = global ctx in
      let old = Gpu.Memory.read m ~width:Sass.Opcode.W32 addr in
      Gpu.Memory.write m ~width:Sass.Opcode.W32 addr (old lor v))
