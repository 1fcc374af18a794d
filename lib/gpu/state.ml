(* Decoded kernels keyed by the physical instruction array they were
   decoded from. *)
module Code_table = Hashtbl.Make (struct
    type t = Sass.Instr.t array

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

type wstatus =
  | W_ready
  | W_barrier
  | W_done

type stack_entry = {
  mutable e_pc : int;
  e_rpc : int;
  mutable e_mask : int;
}

type warp = {
  w_id : int;
  w_block : block;
  w_regs : int array;
  w_nregs : int;
  w_preds : int array;
  w_local : Bytes.t;
  mutable w_stack : stack_entry list;
  mutable w_call_stack : int list;
  mutable w_status : wstatus;
  mutable w_ready_at : int;
  mutable w_stall_code : int;
  mutable w_sassi_scratch : int;
}

and block = {
  b_x : int;
  b_y : int;
  b_flat : int;
  b_shared : Memory.t;
  b_launch : launch;
  mutable b_warps : warp array;
  mutable b_arrived : int;
  mutable b_alive : int;
}

and sm = {
  sm_id : int;
  sm_launch : launch;
  mutable sm_cycle : int;
  mutable sm_issued : int;
  mutable sm_warps : warp array;
  mutable sm_rr : int;
  sm_operands : int array;
  sm_lanes : int array;
}

and launch = {
  l_device : device;
  l_kernel : Sass.Program.kernel;
  l_code : Decode.kernel;
  l_grid_x : int;
  l_grid_y : int;
  l_block_x : int;
  l_block_y : int;
  l_params : Memory.t;
  l_stats : Stats.t;
  l_id : int;
  l_invocation : int;
}

and device = {
  d_cfg : Config.t;
  d_global : Memory.t;
  d_mem : Memsys.t;
  mutable d_alloc : int;
  mutable d_transform : transform option;
  mutable d_transform_gen : int;
  d_kernel_cache : (string * int, Sass.Program.kernel) Hashtbl.t;
  d_decoded : Decode.kernel Code_table.t;
  mutable d_launch_cbs : (int * (launch -> unit)) list;
  mutable d_exit_cbs : (int * (launch -> unit)) list;
  mutable d_cb_next : int;
  mutable d_hcall : (hcall_ctx -> unit) option;
  mutable d_launch_count : int;
  d_invocations : (string, int) Hashtbl.t;
  mutable d_texture : (int * int) option;
  mutable d_host_access : (addr:int -> bytes:int -> write:bool -> unit) option;
  mutable d_tracer : Trace.Collector.t option;
  mutable d_trace_base : int;
  mutable d_sampler : sampler option;
  mutable d_telemetry : telemetry option;
  (* Launches whose kernel the cross-block hazard scan flags; feeds
     [sassi_device_fallback_total]. *)
  mutable d_sharding_fallbacks : int;
}

and transform = Sass.Program.kernel -> Sass.Program.kernel

and sampler = {
  sp_period : int;
  mutable sp_credit : int;
  sp_hit : sm -> unit;
}

and telemetry = {
  tm_interval : int;
  tm_mem_latency : Telemetry.Hist.t;
  tm_mem_transactions : Telemetry.Hist.t;
  tm_branch_lanes : Telemetry.Hist.t;
  tm_divergent_taken_lanes : Telemetry.Hist.t;
  tm_barrier_wait : Telemetry.Hist.t;
  tm_handler_cycles : Telemetry.Hist.t;
  tm_handler_sites : (int, int ref) Hashtbl.t;
  tm_series : Telemetry.Series.t;
  mutable tm_next_sample : int;
  tm_base : tm_snapshot;
}

and tm_snapshot = {
  mutable ts_cycle : int;
  mutable ts_issued : int;
  mutable ts_l1_hits : int;
  mutable ts_l1_misses : int;
  mutable ts_l2_hits : int;
  mutable ts_l2_misses : int;
}

and hcall_ctx = {
  h_launch : launch;
  h_sm : sm;
  h_warp : warp;
  h_handler : int;
  h_pc : int;
  h_mask : int;
}

let warp_size = 32

let full_mask = 0xFFFFFFFF

(* Lane [l]'s registers are [w_regs.(l * w_nregs) ..]; the file holds
   only the registers the kernel names. RZ (index 255) lies beyond every
   file, so it reads 0 and its writes are dropped. *)
let[@inline never] reg_fault w r =
  if r <> 255 then raise (Trap.Register_fault { reg = r; regs = w.w_nregs })

let reg_read w lane r =
  if r < w.w_nregs then Array.unsafe_get w.w_regs ((lane * w.w_nregs) + r)
  else 0

let reg_write w lane r v =
  if r < w.w_nregs then
    Array.unsafe_set w.w_regs ((lane * w.w_nregs) + r) (v land Value.mask)
  else reg_fault w r

(* One predicate word per lane: bit [p] is P[p], and bit 7, PT, is
   always set and never written. *)
let pt_bit = 0x80

let pred_read w lane p = Array.unsafe_get w.w_preds lane land (1 lsl p) <> 0

let pred_write w lane p v =
  if p < 7 then begin
    let x = Array.unsafe_get w.w_preds lane in
    Array.unsafe_set w.w_preds lane
      (if v then x lor (1 lsl p) else x land lnot (1 lsl p))
  end

(* The accessors above index without bounds checks, for the
   interpreter's 0..31 lane loops; these are the checked public ones. *)
let checked fn lane index =
  if lane < 0 || lane >= warp_size || index < 0 then invalid_arg fn;
  index

let reg_get w ~lane r =
  reg_read w lane (checked "State.reg_get" lane (Sass.Reg.index r))

let reg_set w ~lane r v =
  reg_write w lane (checked "State.reg_set" lane (Sass.Reg.index r)) v

let pred_get w ~lane p =
  pred_read w lane (checked "State.pred_get" lane (Sass.Pred.index p))

let pred_set w ~lane p v =
  pred_write w lane (checked "State.pred_set" lane (Sass.Pred.index p)) v

let tos w =
  match w.w_stack with
  | [] -> invalid_arg "State.tos: warp has exited"
  | e :: _ -> e

let active_mask w =
  match w.w_stack with
  | [] -> 0
  | e :: _ -> e.e_mask

let lanes_of_mask mask =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc)
  in
  go 31 []

let active_lanes w = lanes_of_mask (active_mask w)

let popc_mask m = Value.popc m

let lane_linear_tid w lane = (w.w_id * warp_size) + lane

(* Launch-unique warp id: warps of concurrently resident blocks would
   otherwise collide on [w_id] in activity records. *)
let warp_uid w =
  let l = w.w_block.b_launch in
  let wpb = (l.l_block_x * l.l_block_y + warp_size - 1) / warp_size in
  (w.w_block.b_flat * wpb) + w.w_id

let lane_in_block w lane =
  let bl = w.w_block.b_launch in
  lane_linear_tid w lane < bl.l_block_x * bl.l_block_y

let initial_mask ~block_threads ~warp_id =
  let base = warp_id * warp_size in
  let live = min warp_size (max 0 (block_threads - base)) in
  if live >= 32 then full_mask else (1 lsl live) - 1

let tid_x w ~lane =
  let l = w.w_block.b_launch in
  lane_linear_tid w lane mod l.l_block_x

let tid_y w ~lane =
  let l = w.w_block.b_launch in
  lane_linear_tid w lane / l.l_block_x

let global_tid w ~lane =
  let l = w.w_block.b_launch in
  let threads_per_block = l.l_block_x * l.l_block_y in
  (w.w_block.b_flat * threads_per_block) + lane_linear_tid w lane

(* Frames are slot-major: word [a / 4] of lane [l] lies at byte
   [((a / 4) * warp_size + l) * 4] of [w_local], so the lanes of a
   uniform aligned word access touch one contiguous run. A frame whose
   size is not a multiple of 4 still gets whole slots. *)
let local_offset lane addr =
  ((((addr lsr 2) * warp_size) + lane) lsl 2) lor (addr land 3)

let new_frames frame_bytes =
  Bytes.make (warp_size * ((frame_bytes + 3) land lnot 3)) '\000'

let frame_bytes w = w.w_block.b_launch.l_kernel.Sass.Program.frame_bytes

let[@inline never] local_fault addr =
  raise (Trap.Memory_fault
           { space = Sass.Opcode.Local; addr; kind = Trap.Out_of_bounds })

let check_frame w addr bytes =
  if addr < 0 || addr + bytes > frame_bytes w then local_fault addr

let local_load w lane addr bytes =
  if bytes = 4 && addr land 3 = 0 then
    Int32.to_int (Bytes.get_int32_le w.w_local (local_offset lane addr))
    land Value.mask
  else begin
    let v = ref 0 in
    for k = bytes - 1 downto 0 do
      v := (!v lsl 8)
           lor Char.code (Bytes.get w.w_local (local_offset lane (addr + k)))
    done;
    !v
  end

let local_store w lane addr bytes v =
  if bytes = 4 && addr land 3 = 0 then
    Bytes.set_int32_le w.w_local (local_offset lane addr) (Int32.of_int v)
  else
    for k = 0 to bytes - 1 do
      Bytes.set w.w_local (local_offset lane (addr + k))
        (Char.unsafe_chr ((v asr (8 * k)) land 0xFF))
    done

let local_read w ~lane ~addr =
  if lane < 0 || lane >= warp_size then invalid_arg "State.local_read";
  check_frame w addr 4;
  local_load w lane addr 4

let local_write w ~lane ~addr v =
  if lane < 0 || lane >= warp_size then invalid_arg "State.local_write";
  check_frame w addr 4;
  local_store w lane addr 4 v
