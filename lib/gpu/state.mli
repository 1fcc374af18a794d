(** Mutable machine state: warps, thread blocks, SMs, launches, and
    the device. Types are concrete because the interpreter
    ({!Exec}), the scheduler ({!Scheduler}), the device API
    ({!Device}) and the SASSI runtime all manipulate them directly. *)

(** Hash table keyed by the physical identity of an instruction
    array. *)
module Code_table : Hashtbl.S with type key = Sass.Instr.t array

type wstatus =
  | W_ready
  | W_barrier
  | W_done

(** One entry of the PDOM divergence stack. The top entry is the
    warp's current execution state; [e_rpc] is the reconvergence PC at
    which the entry pops ([-1]: only at exit). *)
type stack_entry = {
  mutable e_pc : int;
  e_rpc : int;
  mutable e_mask : int;
}

type warp = {
  w_id : int;  (** warp index within its block *)
  w_block : block;
  w_regs : int array;  (** 32 lanes x [w_nregs] registers *)
  w_nregs : int;  (** registers per lane: the decoded kernel's [regs] *)
  w_preds : int array;
      (** one word per lane: bit [p] is P[p] (0-6); bit 7, PT, is
          always set *)
  w_local : Bytes.t;
      (** the 32 lanes' stack frames, slot-major: word [a / 4] of lane
          [l] lies at byte [((a / 4) * warp_size + l) * 4], the
          interleaved layout the local-memory timing model assumes *)
  mutable w_stack : stack_entry list;  (** head = top of stack *)
  mutable w_call_stack : int list;  (** warp-uniform return PCs *)
  mutable w_status : wstatus;
  mutable w_ready_at : int;
  mutable w_stall_code : int;
      (** latency class of the last issued instruction (0 = execution
          dependency, 1 = memory dependency); maintained only while a
          PC sampler is installed, read by stall attribution *)
  mutable w_sassi_scratch : int;
      (** per-warp scratch used by instrumentation runtimes *)
}

and block = {
  b_x : int;
  b_y : int;
  b_flat : int;
  b_shared : Memory.t;
  b_launch : launch;
  mutable b_warps : warp array;
  mutable b_arrived : int;  (** warps waiting at the barrier *)
  mutable b_alive : int;  (** warps not yet exited *)
}

and sm = {
  sm_id : int;
  sm_launch : launch;
  mutable sm_cycle : int;
  mutable sm_issued : int;
  mutable sm_warps : warp array;  (** resident warps *)
  mutable sm_rr : int;  (** round-robin scheduling pointer *)
  sm_operands : int array;
      (** the interpreter's per-step scratch: parameter operands, read
          once per step, by source position *)
  sm_lanes : int array;
      (** the interpreter's per-step scratch: the active lanes of a
          partial mask, ascending *)
}

and launch = {
  l_device : device;
  l_kernel : Sass.Program.kernel;
  l_code : Decode.kernel;  (** [l_kernel], decoded once per device *)
  l_grid_x : int;
  l_grid_y : int;
  l_block_x : int;
  l_block_y : int;
  l_params : Memory.t;  (** constant bank c[0x0] *)
  l_stats : Stats.t;
  l_id : int;  (** global launch sequence number *)
  l_invocation : int;  (** per-kernel-name invocation count *)
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
      (** decoded post-transform kernels, keyed by instruction array *)
  mutable d_launch_cbs : (int * (launch -> unit)) list;
  mutable d_exit_cbs : (int * (launch -> unit)) list;
  mutable d_cb_next : int;
  mutable d_hcall : (hcall_ctx -> unit) option;
  mutable d_launch_count : int;
  d_invocations : (string, int) Hashtbl.t;
  mutable d_texture : (int * int) option;  (** bound (base, bytes) *)
  mutable d_host_access : (addr:int -> bytes:int -> write:bool -> unit) option;
      (** observer of host-side global-memory accesses (the memcpy
          traffic), for heterogeneous CPU+GPU analyses *)
  mutable d_tracer : Trace.Collector.t option;
      (** activity-record collector; [None] keeps every emission site
          on its single-branch fast path *)
  mutable d_trace_base : int;
      (** cycle offset of the current launch on the device-wide trace
          timeline (accumulated cycles of earlier launches) *)
  mutable d_sampler : sampler option;
      (** PC-sampling hook; [None] keeps the scheduler's sampling site
          on its single-branch fast path *)
  mutable d_telemetry : telemetry option;
      (** metrics sink; [None] keeps every histogram and series
          sampling site on its single-branch fast path *)
  mutable d_sharding_fallbacks : int;
      (** launches whose kernel the cross-block hazard scan flags
          (cross-block atomics, SASSI handlers, or a global load that
          may alias another block's store); feeds
          [sassi_device_fallback_total] *)
}

and transform = Sass.Program.kernel -> Sass.Program.kernel

(** Statistical PC sampler installed on a device. The scheduler
    spends one credit per issue slot (idle cycles spend
    [issue_width] each) and calls [sp_hit] with the current SM every
    time the credit runs out, then rearms with [sp_period]. The hook
    must only observe state — perturbing the simulation would break
    the profiled-equals-unprofiled invariant. *)
and sampler = {
  sp_period : int;
  mutable sp_credit : int;
  sp_hit : sm -> unit;
}

(** Telemetry sink installed on a device (see {!Cupti.Telemetry}).
    Histograms are observed directly from the hot paths (memory
    system, branch unit, barrier release, SASSI handler trap); the
    series sampler snapshots machine gauges every [tm_interval]
    cycles of each SM. Like the tracer and the PC sampler, the sink
    must only observe — installed telemetry leaves {!Stats}
    bit-identical. *)
and telemetry = {
  tm_interval : int;  (** cycles between series samples *)
  tm_mem_latency : Telemetry.Hist.t;
      (** per-warp-request memory latency, cycles *)
  tm_mem_transactions : Telemetry.Hist.t;
      (** cache-line transactions per coalesced access *)
  tm_branch_lanes : Telemetry.Hist.t;
      (** active lanes at each executed conditional branch *)
  tm_divergent_taken_lanes : Telemetry.Hist.t;
      (** lanes taking the branch at each divergent split *)
  tm_barrier_wait : Telemetry.Hist.t;
      (** cycles each warp waited at a released barrier *)
  tm_handler_cycles : Telemetry.Hist.t;
      (** device-API cycles charged per SASSI handler invocation *)
  tm_handler_sites : (int, int ref) Hashtbl.t;
      (** invocation count per instrumentation site id *)
  tm_series : Telemetry.Series.t;
  mutable tm_next_sample : int;  (** next sm_cycle to sample at *)
  tm_base : tm_snapshot;  (** stat values at the last sample *)
}

(** Cumulative-counter snapshot backing the series gauges: gauges are
    deltas of {!Stats} counters over one sampling interval. *)
and tm_snapshot = {
  mutable ts_cycle : int;
  mutable ts_issued : int;
  mutable ts_l1_hits : int;
  mutable ts_l1_misses : int;
  mutable ts_l2_hits : int;
  mutable ts_l2_misses : int;
}

(** Context passed to the instrumentation-handler trap on [HCALL]. *)
and hcall_ctx = {
  h_launch : launch;
  h_sm : sm;
  h_warp : warp;
  h_handler : int;
  h_pc : int;  (** PC of the [HCALL] instruction *)
  h_mask : int;  (** active mask at the call *)
}

val warp_size : int

val full_mask : int

(** {1 Register file access}

    Each warp's file holds [w_nregs] registers per lane. A read beyond
    it returns 0, as an unwritten register does; a write beyond it
    raises {!Trap.Register_fault}, except to [RZ], which is dropped. *)

val reg_read : warp -> int -> int -> int
(** [reg_read w lane index]. [lane] must lie in [0 .. warp_size - 1]:
    it is not checked. The four unchecked accessors serve the
    interpreter's lane loops; other callers use {!reg_get} and its
    siblings. *)

val reg_write : warp -> int -> int -> int -> unit
(** [reg_write w lane index v]. *)

val pred_read : warp -> int -> int -> bool
(** [pred_read w lane index]; index 7 ([PT]) reads true. *)

val pred_write : warp -> int -> int -> bool -> unit
(** Writes to index 7 ([PT]) are dropped. *)

val pt_bit : int
(** The always-set [PT] bit of a lane's predicate word. *)

val reg_get : warp -> lane:int -> Sass.Reg.t -> int
(** @raise Invalid_argument unless [0 <= lane < warp_size] and the
    register index is non-negative; likewise {!reg_set}, {!pred_get}
    and {!pred_set}. *)

val reg_set : warp -> lane:int -> Sass.Reg.t -> int -> unit

val pred_get : warp -> lane:int -> Sass.Pred.t -> bool

val pred_set : warp -> lane:int -> Sass.Pred.t -> bool -> unit

(** {1 Divergence stack} *)

val tos : warp -> stack_entry
(** @raise Invalid_argument if the warp has exited. *)

val active_mask : warp -> int
(** Mask of the top entry, 0 if exited. *)

val active_lanes : warp -> int list

val lanes_of_mask : int -> int list

val popc_mask : int -> int

(** {1 Thread identity} *)

val lane_linear_tid : warp -> int -> int
(** Linear thread index within the block of the given lane. *)

val warp_uid : warp -> int
(** Launch-unique warp id ([block index * warps per block + w_id]);
    the warp key used in activity records. *)

val lane_in_block : warp -> int -> bool
(** Whether the lane maps to a real thread (last warp may be ragged). *)

val initial_mask : block_threads:int -> warp_id:int -> int

val tid_x : warp -> lane:int -> int

val tid_y : warp -> lane:int -> int

val global_tid : warp -> lane:int -> int
(** Flat global thread id across the whole grid. *)

(** {1 Local memory}

    Addresses are frame-relative bytes, as the ABI stack pointer sees
    them; an access of [n] bytes at [addr] must lie in
    [0 .. frame_bytes - n]. Values are little-endian. *)

val local_offset : int -> int -> int
(** [local_offset lane addr]: the byte of [w_local] holding byte
    [addr] of [lane]'s frame. *)

val new_frames : int -> Bytes.t
(** Zeroed frames for one warp, given the kernel's frame bytes. *)

val frame_bytes : warp -> int
(** The launch kernel's frame size per lane. *)

val check_frame : warp -> int -> int -> unit
(** [check_frame w addr n].
    @raise Trap.Memory_fault [Out_of_bounds] at [addr] unless the [n]
    bytes at [addr] lie inside the frame. *)

val local_load : warp -> int -> int -> int -> int
(** [local_load w lane addr n]: the [n] bytes at [addr] of [lane]'s
    frame. It does not check the frame bound: the interpreter calls
    {!check_frame} first. *)

val local_store : warp -> int -> int -> int -> int -> unit
(** [local_store w lane addr n v]: the low [n] bytes of [v]. *)

val local_read : warp -> lane:int -> addr:int -> int
(** 32-bit read from the lane's frame, for instrumentation runtimes.
    @raise Invalid_argument unless [0 <= lane < warp_size].
    @raise Trap.Memory_fault outside the frame. *)

val local_write : warp -> lane:int -> addr:int -> int -> unit
