open State

let make_block launch flat =
  let gx = launch.l_grid_x in
  let threads = launch.l_block_x * launch.l_block_y in
  let nwarps = (threads + warp_size - 1) / warp_size in
  let kernel = launch.l_kernel in
  let frame = kernel.Sass.Program.frame_bytes in
  let block =
    { b_x = flat mod gx;
      b_y = flat / gx;
      b_flat = flat;
      b_shared =
        Memory.create ~space:Sass.Opcode.Shared
          (max 4 kernel.Sass.Program.shared_bytes);
      b_launch = launch;
      b_warps = [||];
      b_arrived = 0;
      b_alive = nwarps }
  in
  let nregs = launch.l_code.Decode.regs in
  let make_warp wid =
    let w =
      { w_id = wid;
        w_block = block;
        w_regs = Array.make (warp_size * nregs) 0;
        w_nregs = nregs;
        w_preds = Array.make warp_size pt_bit;
        w_local = new_frames frame;
        w_stack =
          [ { e_pc = 0;
              e_rpc = -1;
              e_mask = initial_mask ~block_threads:threads ~warp_id:wid } ];
        w_call_stack = [];
        w_status = W_ready;
        w_ready_at = 0;
        w_stall_code = 0;
        w_sassi_scratch = 0 }
    in
    (* ABI: R1 is the stack pointer, initialized to the top of the
       thread's local frame. *)
    for lane = 0 to warp_size - 1 do
      reg_set w ~lane Sass.Reg.sp frame
    done;
    w
  in
  block.b_warps <- Array.init nwarps make_warp;
  block

(* Spend sampling credit and fire the PC-sampling hook when it runs
   out. Credit is denominated in issue slots so the sampling rate is
   independent of how busy the SM is; the [None] branch is the whole
   cost when profiling is off. *)
let spend_sample_credit sm slots =
  match sm.sm_launch.l_device.d_sampler with
  | None -> ()
  | Some sp ->
    sp.sp_credit <- sp.sp_credit - slots;
    if sp.sp_credit <= 0 then begin
      sp.sp_credit <- sp.sp_period;
      sp.sp_hit sm
    end

(* Take one telemetry series sample: gauges are deltas of the launch
   statistics since the previous sample. [tm_base] is re-seeded at each
   SM start and SMs run one after another, so counter movement between
   two samples is exactly this SM's. Column order must match
   [Cupti.Telemetry.series_columns]. *)
let telemetry_sample dev sm tm =
  let stats = sm.sm_launch.l_stats in
  let base = tm.tm_base in
  let cyc = sm.sm_cycle in
  let dcyc = float_of_int (max 1 (cyc - base.ts_cycle)) in
  let rate hits misses bh bm =
    let dh = hits - bh and dm = misses - bm in
    if dh + dm = 0 then 0. else float_of_int dh /. float_of_int (dh + dm)
  in
  let occupancy =
    float_of_int (Array.length sm.sm_warps)
    /. float_of_int (max 1 dev.d_cfg.Config.max_warps_per_sm)
  in
  let issue_rate = float_of_int (sm.sm_issued - base.ts_issued) /. dcyc in
  (* Little's law: outstanding DRAM requests = arrival rate x DRAM
     latency, with L2 misses as the arrivals over the interval. *)
  let dram_queue_depth =
    float_of_int
      ((stats.Stats.l2_misses - base.ts_l2_misses)
       * dev.d_cfg.Config.lat_dram)
    /. dcyc
  in
  Telemetry.Series.sample tm.tm_series
    ~cycle:(dev.d_trace_base + cyc) ~sm:sm.sm_id
    [| occupancy;
       issue_rate;
       rate stats.Stats.l1_hits stats.Stats.l1_misses
         base.ts_l1_hits base.ts_l1_misses;
       rate stats.Stats.l2_hits stats.Stats.l2_misses
         base.ts_l2_hits base.ts_l2_misses;
       dram_queue_depth |];
  base.ts_cycle <- cyc;
  base.ts_issued <- sm.sm_issued;
  base.ts_l1_hits <- stats.Stats.l1_hits;
  base.ts_l1_misses <- stats.Stats.l1_misses;
  base.ts_l2_hits <- stats.Stats.l2_hits;
  base.ts_l2_misses <- stats.Stats.l2_misses;
  tm.tm_next_sample <- cyc + tm.tm_interval

(* Single-branch tick checked once per scheduling decision; an SM
   without telemetry pays only the [None] match. *)
let telemetry_tick dev sm =
  match dev.d_telemetry with
  | None -> ()
  | Some tm -> if sm.sm_cycle >= tm.tm_next_sample then telemetry_sample dev sm tm

let run_sm_wave sm =
  let launch = sm.sm_launch in
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let warps = sm.sm_warps in
  let n = Array.length warps in
  let alive = ref 0 in
  Array.iter (fun w -> if w.w_status <> W_done then incr alive) warps;
  while !alive > 0 do
    if sm.sm_cycle > cfg.Config.max_cycles then
      raise (Trap.Hang { cycles = sm.sm_cycle });
    (* One pass from the round-robin pointer: the first ready warp, or
       failing that the earliest wake-up among the waiting ones and the
       first warp, in round-robin order, that wakes then. *)
    let cycle = sm.sm_cycle in
    let found = ref (-1) and next = ref max_int and wake = ref (-1) in
    let idx = ref sm.sm_rr and left = ref n in
    while !left > 0 do
      let w = Array.unsafe_get warps !idx in
      if w.w_status = W_ready then begin
        if w.w_ready_at <= cycle then begin
          found := !idx;
          left := 0
        end
        else if w.w_ready_at < !next then begin
          next := w.w_ready_at;
          wake := !idx
        end
      end;
      decr left;
      incr idx;
      if !idx = n then idx := 0
    done;
    if !found < 0 then begin
      if !next = max_int then begin
        (* All remaining warps wait at a barrier that can never be
           released: a deadlock, reported as a hang. *)
        if Array.exists (fun w -> w.w_status <> W_done) warps then
          raise (Trap.Hang { cycles = sm.sm_cycle })
        else alive := 0
      end
      else begin
        (* Nobody ready: advance to the next wakeup, where the warp the
           pass found is the first ready one. Idle cycles are unissued
           slots: they count toward the sampling period so stall-heavy
           phases are sampled at the same rate as busy ones. *)
        let before = sm.sm_cycle in
        sm.sm_cycle <- max (sm.sm_cycle + 1) !next;
        spend_sample_credit sm
          ((sm.sm_cycle - before) * cfg.Config.issue_width);
        telemetry_tick dev sm;
        if sm.sm_cycle > cfg.Config.max_cycles then
          raise (Trap.Hang { cycles = sm.sm_cycle });
        found := !wake
      end
    end;
    if !found >= 0 then begin
      let idx = !found in
      sm.sm_rr <- (if idx + 1 = n then 0 else idx + 1);
      let w = warps.(idx) in
      Exec.step sm w;
      (* Only the stepped warp itself can retire during its own step
         (barrier release only moves W_barrier -> W_ready), so a
         single status check replaces the old O(warps) recount. *)
      if w.w_status = W_done then decr alive;
      sm.sm_issued <- sm.sm_issued + 1;
      if sm.sm_issued mod cfg.Config.issue_width = 0 then
        sm.sm_cycle <- sm.sm_cycle + 1;
      spend_sample_credit sm 1;
      telemetry_tick dev sm
    end
  done

(* Simulate one SM to completion: dispatch its round-robin share of
   the grid in waves of [blocks_at_once], accounting occupancy and
   active cycles into the launch's stats. *)
let run_one_sm launch ~sm_id ~blocks_at_once ~nblocks =
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let stats = launch.l_stats in
  let sm =
    { sm_id; sm_launch = launch; sm_cycle = 0; sm_issued = 0;
      sm_warps = [||]; sm_rr = 0;
      sm_operands = Array.make launch.l_code.Decode.operands 0;
      sm_lanes = Array.make warp_size 0 }
  in
  (* Each SM starts with a full sampling period, so where an SM's
     samples fall does not depend on the SMs before it (DESIGN
     decision 9). *)
  (match dev.d_sampler with
   | None -> ()
   | Some sp -> sp.sp_credit <- sp.sp_period);
  (* Seed the series baseline: the SM's clock starts at 0, while the
     launch stats already hold the earlier SMs' work. *)
  (match dev.d_telemetry with
   | None -> ()
   | Some tm ->
     let b = tm.tm_base in
     b.ts_cycle <- 0;
     b.ts_issued <- 0;
     b.ts_l1_hits <- stats.Stats.l1_hits;
     b.ts_l1_misses <- stats.Stats.l1_misses;
     b.ts_l2_hits <- stats.Stats.l2_hits;
     b.ts_l2_misses <- stats.Stats.l2_misses;
     tm.tm_next_sample <- tm.tm_interval);
  (* Blocks handled by this SM, in waves of [blocks_at_once]. *)
  let my_blocks = ref [] in
  let b = ref sm_id in
  while !b < nblocks do
    my_blocks := !b :: !my_blocks;
    b := !b + cfg.Config.num_sms
  done;
  let my_blocks = List.rev !my_blocks in
  let rec waves = function
    | [] -> ()
    | blocks ->
      let rec take n = function
        | [] -> ([], [])
        | x :: rest when n > 0 ->
          let t, d = take (n - 1) rest in
          (x :: t, d)
        | rest -> ([], rest)
      in
      let now, later = take blocks_at_once blocks in
      let made = List.map (make_block launch) now in
      (match dev.d_tracer with
       | Some c when Trace.Collector.wants c Trace.Record.Block ->
         List.iter
           (fun blk ->
              Trace.Collector.emit c
                (Trace.Record.make
                   ~cycle:(dev.d_trace_base + sm.sm_cycle) ~sm:sm_id
                   ~warp:(-1)
                   (Trace.Record.Block_dispatch
                      { block = blk.b_flat;
                        warps = Array.length blk.b_warps })))
           made
       | _ -> ());
      sm.sm_warps <-
        Array.concat (List.map (fun blk -> blk.b_warps) made);
      sm.sm_rr <- 0;
      let wave_start = sm.sm_cycle in
      run_sm_wave sm;
      (* Occupancy accounting: every warp of the wave stays resident
         (occupying an SM warp slot) until the wave retires. *)
      stats.Stats.resident_warp_cycles <-
        stats.Stats.resident_warp_cycles
        + (Array.length sm.sm_warps * (sm.sm_cycle - wave_start));
      waves later
  in
  waves my_blocks;
  stats.Stats.sm_active_cycles <- stats.Stats.sm_active_cycles + sm.sm_cycle;
  sm

(* --- Cross-block hazard scan ------------------------------------------- *)

(* The scan's verdict feeds only [d_sharding_fallbacks], exported as
   [sassi_device_fallback_total] (DESIGN decision 7 says why it stays).
   A kernel is flagged when an instruction can observe another block's
   work mid-flight: cross-block atomics (ATOM/RED on the global space)
   read-modify-write shared lines, and SASSI handlers (HCALL) run host
   code with launch-wide state. The scan sees the post-transform
   kernel, so injected instrumentation is caught too. *)
(* Pointer-parameter origin analysis backing the hazard scan: a
   flow-sensitive forward {!Sass.Dataflow} domain mapping each GPR, at
   each program point, to the bitset of kernel parameter slots its
   value may derive from (bit [i] = 4-byte slot [i]; the top bit is an
   "unknown base" token for addresses not traceable to any parameter).
   Joins are pointwise unions, so register reuse by the allocator (the
   same register holding an input pointer in one range and the output
   pointer in another) does not smear origins together. Values loaded
   from memory are treated as data, not pointers: in this machine,
   pointers enter kernels only through the constant bank, never
   through global/shared/local memory, so the assumption is sound for
   every compilable kernel. Unreachable code is solved too, from the
   empty map, so its accesses count toward the load/store sets (the
   conservative direction). *)

let unknown_base_bit = 1 lsl 62

let slot_bit byte_off =
  let slot = byte_off / 4 in
  if slot >= 0 && slot < 62 then 1 lsl slot else unknown_base_bit

module Origins = struct
  module M = Map.Make (Int)

  (* Register index -> origin bitset. Only non-zero sets are bound, so
     two states with the same origins are equal as maps. *)
  type t = int M.t
  type instr = Sass.Instr.t

  let equal = M.equal Int.equal
  let join = M.union (fun _ a b -> Some (a lor b))
  let widen = join

  let of_src st = function
    | Sass.Instr.SReg r ->
      Option.value (M.find_opt (Sass.Reg.index r) st) ~default:0
    | Sass.Instr.SParam off -> slot_bit off
    | Sass.Instr.SImm _ | Sass.Instr.SPred _ -> 0

  let transfer ~pc:_ (i : Sass.Instr.t) st =
    let incoming =
      match Sass.Instr.mem_access i with
      | Some m when m.Sass.Instr.m_is_load ->
        (* LD Param propagates the parameter slot it names; loads
           from data spaces produce data (origin 0). *)
        (match m.Sass.Instr.m_space with
         | Sass.Opcode.Param ->
           (match (m.Sass.Instr.m_base, m.Sass.Instr.m_off) with
            | Sass.Instr.SImm b, Sass.Instr.SImm o -> slot_bit (b + o)
            | Sass.Instr.SParam off, Sass.Instr.SImm 0
            | Sass.Instr.SImm 0, Sass.Instr.SParam off -> slot_bit off
            | _ -> unknown_base_bit)
         | _ -> 0)
      | _ ->
        (* Base pointers survive only the ops address arithmetic uses
           on bases: add/sub, min/max clamps, bit masks, moves and
           selects. Scaling ops (multiply, shift, divide) consume
           offsets — an integer parameter like a row stride flows
           into every address through them, and keeping its origin
           would alias all loads with all stores. IMAD propagates
           only the addend; its product term is a scaled offset. *)
        (match i.Sass.Instr.op with
         | Sass.Opcode.IADD | Sass.Opcode.ISUB | Sass.Opcode.IMNMX _
         | Sass.Opcode.LOP _ | Sass.Opcode.MOV | Sass.Opcode.SEL ->
           List.fold_left (fun acc s -> acc lor of_src st s) 0
             i.Sass.Instr.srcs
         | Sass.Opcode.IMAD ->
           (match i.Sass.Instr.srcs with
            | _ :: _ :: addend :: _ -> of_src st addend
            | _ -> 0)
         | _ -> 0)
    in
    List.fold_left
      (fun acc r ->
        if Sass.Reg.is_zero r then acc
        else begin
          let idx = Sass.Reg.index r in
          (* A guarded write may not execute, so it only widens. *)
          let o =
            if Sass.Pred.is_always i.Sass.Instr.guard then incoming
            else incoming lor Option.value (M.find_opt idx acc) ~default:0
          in
          if o = 0 then M.remove idx acc else M.add idx o acc
        end)
      st (Sass.Instr.defs i)
end

module Origin_solver = Sass.Dataflow.Make (Origins)

(* A kernel is also flagged when a global load can alias a global
   store from another block. Alias-freedom is approximated at the
   parameter level: the origin sets of every global load and store
   address must be disjoint. This catches plain-store cross-block
   read-after-write hazards (e.g. an in-place update where one block
   reads a cell another block wrote) that the ATOM/RED scan cannot
   see. Write-write overlap through one parameter is not flagged —
   every kernel stores its outputs through some pointer. [CAL] is
   flagged because the CFG treats it as straight-line, which would
   hide callee effects (the DSL never emits it; only hand-built
   programs could), and so is a kernel the CFG cannot represent
   (empty, or branching out of range). *)
let shardable_kernel (k : Sass.Program.kernel) =
  let instrs = k.Sass.Program.instrs in
  let no_traps =
    Array.for_all
      (fun (i : Sass.Instr.t) ->
        match i.Sass.Instr.op with
        | Sass.Opcode.ATOM (Sass.Opcode.Global, _, _)
        | Sass.Opcode.RED (Sass.Opcode.Global, _, _)
        | Sass.Opcode.HCALL _ | Sass.Opcode.CAL -> false
        | _ -> true)
      instrs
  in
  no_traps
  &&
  match Sass.Cfg.build instrs with
  | exception Invalid_argument _ -> false
  | cfg ->
    let origins =
      Origin_solver.solve ~direction:Sass.Dataflow.Forward
        ~boundary:Origins.M.empty ~init:Origins.M.empty instrs cfg
    in
    let load_set = ref 0 and store_set = ref 0 in
    Array.iteri
      (fun pc (i : Sass.Instr.t) ->
        match Sass.Instr.mem_access i with
        | Some m when m.Sass.Instr.m_space = Sass.Opcode.Global ->
          let of_src = Origins.of_src origins.Origin_solver.before.(pc) in
          let o = of_src m.Sass.Instr.m_base lor of_src m.Sass.Instr.m_off in
          let o = if o = 0 then unknown_base_bit else o in
          if m.Sass.Instr.m_is_load then load_set := !load_set lor o;
          if m.Sass.Instr.m_is_store then store_set := !store_set lor o
        | _ -> ())
      instrs;
    !load_set land !store_set = 0

(* --- Launch-level driver ------------------------------------------------- *)

let run launch =
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let nblocks = launch.l_grid_x * launch.l_grid_y in
  let threads = launch.l_block_x * launch.l_block_y in
  let warps_per_block = (threads + warp_size - 1) / warp_size in
  let blocks_at_once =
    max 1 (cfg.Config.max_warps_per_sm / max 1 warps_per_block)
  in
  if not launch.l_code.Decode.shardable then
    dev.d_sharding_fallbacks <- dev.d_sharding_fallbacks + 1;
  let max_cycle = ref 0 in
  for sm_id = 0 to cfg.Config.num_sms - 1 do
    let sm = run_one_sm launch ~sm_id ~blocks_at_once ~nblocks in
    if sm.sm_cycle > !max_cycle then max_cycle := sm.sm_cycle
  done;
  launch.l_stats.Stats.cycles <- !max_cycle
