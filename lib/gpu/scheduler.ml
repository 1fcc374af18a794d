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
        w_local =
          Memory.create ~space:Sass.Opcode.Local
            (max 4 (warp_size * frame));
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
  match sm.sm_sampler with
  | None -> ()
  | Some sp ->
    sp.sp_credit <- sp.sp_credit - slots;
    if sp.sp_credit <= 0 then begin
      sp.sp_credit <- sp.sp_period;
      sp.sp_hit sm
    end

(* Take one telemetry series sample: gauges are deltas of the SM's
   statistics since the previous sample. [sm_stats] and [tm_base] are
   both per-SM (aliasing the launch-wide objects in sequential mode,
   where [tm_base] is re-seeded at each SM start), so counter movement
   between two samples is exactly this SM's. Column order must match
   [Cupti.Telemetry.series_columns]. *)
let telemetry_sample dev sm tm =
  let stats = sm.sm_stats in
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
  match sm.sm_telemetry with
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
       failing that the earliest wake-up among the waiting ones. *)
    let cycle = sm.sm_cycle in
    let found = ref (-1) and next = ref max_int in
    let idx = ref sm.sm_rr and left = ref n in
    while !left > 0 do
      let w = Array.unsafe_get warps !idx in
      if w.w_status = W_ready then begin
        if w.w_ready_at <= cycle then begin
          found := !idx;
          left := 0
        end
        else if w.w_ready_at < !next then next := w.w_ready_at
      end;
      decr left;
      incr idx;
      if !idx = n then idx := 0
    done;
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
    else if !next = max_int then begin
      (* All remaining warps wait at a barrier that can never be
         released: a deadlock, reported as a hang. *)
      if Array.exists (fun w -> w.w_status <> W_done) warps then
        raise (Trap.Hang { cycles = sm.sm_cycle })
      else alive := 0
    end
    else begin
      (* Nobody ready: advance to the next wakeup. Idle cycles are
         unissued slots: they count toward the sampling period so
         stall-heavy phases are sampled at the same rate as busy
         ones. *)
      let before = sm.sm_cycle in
      sm.sm_cycle <- max (sm.sm_cycle + 1) !next;
      spend_sample_credit sm ((sm.sm_cycle - before) * cfg.Config.issue_width);
      telemetry_tick dev sm
    end
  done

(* Simulate one SM to completion: dispatch its round-robin share of
   the grid in waves of [blocks_at_once], accounting occupancy and
   active cycles into the SM's own stats. The observation context
   (stats/tracer/telemetry/sampler) is whatever the caller wired into
   the [sm] record: the launch-wide objects sequentially, private
   per-SM instances under sharding. *)
let run_one_sm launch ~sm_id ~stats ~tracer ~telemetry ~sampler ~blocks_at_once
    ~nblocks =
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let sm =
    { sm_id; sm_launch = launch; sm_cycle = 0; sm_issued = 0;
      sm_warps = [||]; sm_rr = 0;
      sm_operands = Array.make launch.l_code.Decode.operands 0;
      sm_stats = stats; sm_tracer = tracer;
      sm_telemetry = telemetry; sm_sampler = sampler }
  in
  (* Each SM starts with a full sampling period. (Also applied on the
     sequential path: carrying leftover credit from the previous SM
     would make the sample placement order-dependent, which sharding
     cannot reproduce. See DESIGN.) *)
  (match sampler with
   | None -> ()
   | Some sp -> sp.sp_credit <- sp.sp_period);
  (* Seed the series baseline: the SM's clock starts at 0, and its
     stats accumulator may carry earlier work (sequential mode, where
     it aliases the cumulative launch stats). *)
  (match telemetry with
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
      (match sm.sm_tracer with
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

(* --- Sharding eligibility ------------------------------------------------ *)

(* A launch may shard only when no instruction can observe another
   SM's work mid-flight: cross-block atomics (ATOM/RED on the global
   space) read-modify-write shared lines, and SASSI handlers (HCALL)
   run host code with launch-wide state. Both force the sequential
   path. The scan sees the post-transform kernel, so injected
   instrumentation is caught too. *)
(* Pointer-parameter origin analysis backing the eligibility scan: a
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

(* A kernel can shard only when no global load can alias a global
   store from another block. We approximate alias-freedom at the
   parameter level: collect the origin sets of every global load and
   store address and require them to be disjoint. This catches
   plain-store cross-block read-after-write hazards (e.g. an in-place
   update where one block reads a cell another block wrote) that the
   ATOM/RED scan cannot see. Write-write overlap through one
   parameter is not flagged — every kernel stores its outputs through
   some pointer — so kernels where two *blocks* store different
   values to the *same* address remain out of model, as they are for
   real hardware. [CAL] forces a fallback because the CFG treats it
   as straight-line, which would hide callee effects (the DSL never
   emits it; only hand-built programs could). A kernel the CFG cannot
   represent (empty, or branching out of range) also runs
   sequentially, where it traps. *)
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

(* --- Per-SM observation contexts (sharded mode) -------------------------- *)

(* Private, lossless per-SM trace buffer: a collector with the shared
   collector's category mask whose ring spills full batches to a list
   instead of dropping. Replaying batches + residue in [sm_id] order
   reproduces the shared ring's sequential content bit-for-bit for
   every overflow policy, because sequential emission is SM-major. *)
type sm_trace_buffer = {
  tb_collector : Trace.Collector.t;
  tb_batches : Trace.Record.t array list ref;  (* newest batch first *)
}

let make_trace_buffer shared =
  let cats =
    List.filter (Trace.Collector.wants shared) Trace.Record.all_categories
  in
  let batches = ref [] in
  let c =
    Trace.Collector.create ~capacity:8192
      ~policy:(Trace.Ring.Flush_callback (fun arr -> batches := arr :: !batches))
      ~categories:cats ()
  in
  { tb_collector = c; tb_batches = batches }

let replay_trace_buffer ~into tb =
  List.iter
    (fun arr -> Array.iter (fun r -> Trace.Collector.emit into r) arr)
    (List.rev !(tb.tb_batches));
  List.iter
    (fun r -> Trace.Collector.emit into r)
    (Trace.Collector.records tb.tb_collector)

let clone_telemetry (tm : telemetry) =
  { tm_interval = tm.tm_interval;
    tm_mem_latency = Telemetry.Hist.create ();
    tm_mem_transactions = Telemetry.Hist.create ();
    tm_branch_lanes = Telemetry.Hist.create ();
    tm_divergent_taken_lanes = Telemetry.Hist.create ();
    tm_barrier_wait = Telemetry.Hist.create ();
    tm_handler_cycles = Telemetry.Hist.create ();
    tm_handler_sites = Hashtbl.create 8;
    tm_series =
      Telemetry.Series.create
        ~capacity:(Telemetry.Series.capacity tm.tm_series)
        ~interval:(Telemetry.Series.interval tm.tm_series)
        (Telemetry.Series.columns tm.tm_series);
    tm_next_sample = tm.tm_interval;
    tm_base =
      { ts_cycle = 0; ts_issued = 0; ts_l1_hits = 0; ts_l1_misses = 0;
        ts_l2_hits = 0; ts_l2_misses = 0 } }

let merge_telemetry ~into p =
  Telemetry.Hist.merge ~into:into.tm_mem_latency p.tm_mem_latency;
  Telemetry.Hist.merge ~into:into.tm_mem_transactions p.tm_mem_transactions;
  Telemetry.Hist.merge ~into:into.tm_branch_lanes p.tm_branch_lanes;
  Telemetry.Hist.merge ~into:into.tm_divergent_taken_lanes
    p.tm_divergent_taken_lanes;
  Telemetry.Hist.merge ~into:into.tm_barrier_wait p.tm_barrier_wait;
  Telemetry.Hist.merge ~into:into.tm_handler_cycles p.tm_handler_cycles;
  Hashtbl.iter
    (fun site n ->
      match Hashtbl.find_opt into.tm_handler_sites site with
      | Some r -> r := !r + !n
      | None -> Hashtbl.add into.tm_handler_sites site (ref !n))
    p.tm_handler_sites;
  Telemetry.Series.absorb ~into:into.tm_series p.tm_series

(* --- Launch-level driver ------------------------------------------------- *)

let run_sequential launch ~blocks_at_once ~nblocks =
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let max_cycle = ref 0 in
  for sm_id = 0 to cfg.Config.num_sms - 1 do
    let sm =
      run_one_sm launch ~sm_id ~stats:launch.l_stats ~tracer:dev.d_tracer
        ~telemetry:dev.d_telemetry ~sampler:dev.d_sampler ~blocks_at_once
        ~nblocks
    in
    if sm.sm_cycle > !max_cycle then max_cycle := sm.sm_cycle
  done;
  launch.l_stats.Stats.cycles <- !max_cycle

let run_sharded launch ~blocks_at_once ~nblocks ~domains =
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let num_sms = cfg.Config.num_sms in
  let workers = min domains num_sms in
  (* Private per-SM contexts, allocated up front on the host domain. *)
  let stats = Array.init num_sms (fun _ -> Stats.create ()) in
  let tracers =
    Array.init num_sms (fun _ ->
        Option.map (fun c -> make_trace_buffer c) dev.d_tracer)
  in
  let telemetries =
    Array.init num_sms (fun _ -> Option.map clone_telemetry dev.d_telemetry)
  in
  let samplers =
    Array.init num_sms (fun _ ->
        Option.map
          (fun sp ->
            { sp_period = sp.sp_period; sp_credit = sp.sp_period;
              sp_hit = sp.sp_hit })
          dev.d_sampler)
  in
  (* Point the memory system's per-SM slots at the private sinks for
     the duration of the launch. *)
  Array.iteri
    (fun sm_id tb ->
      let trace =
        match (dev.d_tracer, tb) with
        | Some c, Some tb when Trace.Collector.wants c Trace.Record.Cache ->
          Some tb.tb_collector
        | _ -> None
      in
      let telemetry =
        Option.map
          (fun tm ->
            { Memsys.tm_latency = tm.tm_mem_latency;
              Memsys.tm_transactions = tm.tm_mem_transactions })
          telemetries.(sm_id)
      in
      Memsys.override_slot_sinks dev.d_mem ~sm:sm_id ~trace ~telemetry)
    tracers;
  let failures = Array.make num_sms None in
  let run_chunk first =
    let sm_id = ref first in
    while !sm_id < num_sms do
      let i = !sm_id in
      (try
         let sm =
           run_one_sm launch ~sm_id:i ~stats:stats.(i)
             ~tracer:(Option.map (fun tb -> tb.tb_collector) tracers.(i))
             ~telemetry:telemetries.(i) ~sampler:samplers.(i) ~blocks_at_once
             ~nblocks
         in
         (* Stage the SM's cycle count so the merge's max over private
            accumulators reconstructs the kernel time. *)
         stats.(i).Stats.cycles <- sm.sm_cycle
       with e -> failures.(i) <- Some e);
      sm_id := !sm_id + workers
    done
  in
  let spawned =
    Array.init (workers - 1) (fun j ->
        Domain.spawn (fun () -> run_chunk (j + 1)))
  in
  run_chunk 0;
  Array.iter Domain.join spawned;
  Memsys.restore_slot_sinks dev.d_mem;
  (* Deterministic failure propagation: the lowest-id failing SM wins,
     matching which trap the sequential loop would have hit first. *)
  Array.iter (function Some e -> raise e | None -> ()) failures;
  (* Reduce everything in sm_id order. Per-SM cycle counts are staged
     in each private accumulator's [cycles] field so that the merge's
     max reconstructs the kernel time. *)
  for sm_id = 0 to num_sms - 1 do
    Stats.merge ~into:launch.l_stats stats.(sm_id);
    (match (dev.d_tracer, tracers.(sm_id)) with
     | Some shared, Some tb -> replay_trace_buffer ~into:shared tb
     | _ -> ());
    match (dev.d_telemetry, telemetries.(sm_id)) with
    | Some shared, Some p -> merge_telemetry ~into:shared p
    | _ -> ()
  done

let run launch =
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let nblocks = launch.l_grid_x * launch.l_grid_y in
  let threads = launch.l_block_x * launch.l_block_y in
  let warps_per_block = (threads + warp_size - 1) / warp_size in
  let blocks_at_once =
    max 1 (cfg.Config.max_warps_per_sm / max 1 warps_per_block)
  in
  (* Eligibility is a property of the (post-transform) kernel, decided
     once when the device decodes it, not of the domain setting: count
     fallbacks on every launch so the counter — exported through
     telemetry — is byte-identical across [--device-domains] values. *)
  let eligible = launch.l_code.Decode.shardable in
  if not eligible then
    dev.d_sharding_fallbacks <- dev.d_sharding_fallbacks + 1;
  if dev.d_domains > 1 && eligible && cfg.Config.num_sms > 1 then
    run_sharded launch ~blocks_at_once ~nblocks ~domains:dev.d_domains
  else run_sequential launch ~blocks_at_once ~nblocks
