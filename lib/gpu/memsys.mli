(** The memory system timing model: a per-SM coalescer and L1, a
    partitioned L2 (one equal slice per SM, probed only by its owner),
    and a DRAM latency term. The partitioning removes the only
    cross-SM shared cache state, which is what lets the scheduler run
    SMs on separate domains with bit-identical statistics.

    Addresses arriving here are physical: callers place each address
    space in a disjoint window ({!global_window}, {!local_window},
    {!texture_window}) so lines from different spaces never alias. *)

type t

type result = {
  mutable transactions : int;  (** memory transactions after coalescing *)
  mutable latency : int;
      (** cycles until the warp's slowest request returns *)
}
(** The access functions return their SM's own result record, which
    the SM's next access overwrites: read it before issuing another. *)

val create : Config.t -> t

val global_window : int
(** Base of the global-space physical window (0). *)

val local_window : int

val texture_window : int

val lanes : t -> sm:int -> int array
(** The SM's 32-entry lane-address array: a caller writes the physical
    byte address of each participating lane into entries [0 .. n-1]
    and then calls {!global_access}, {!shared_access} or
    {!atomic_access} with [~n]. Lane order does not matter. *)

val coalesce : line_bytes:int -> (int * int) list -> int list
(** [coalesce ~line_bytes addr_width_pairs] returns the ascending list
    of unique line addresses touched — the coalescer the paper's memory
    divergence study measures. The same code as {!global_access}'s,
    over a list. *)

val global_access :
  t -> sm:int -> stats:Stats.t -> n:int -> width:int -> result
(** Coalesced access for one warp: the first [n] entries of {!lanes},
    each [width] bytes. Updates cache and transaction statistics.
    @raise Invalid_argument unless [0 <= n <= 32] and
    [1 <= width <= 8]; likewise {!shared_access} and
    {!atomic_access}. *)

val contiguous_access :
  t -> sm:int -> stats:Stats.t -> first_phys:int -> last_phys:int ->
  width:int -> result
(** Fast path for accesses known to cover a contiguous physical range
    (per-lane-interleaved local memory at a uniform frame offset):
    equivalent to {!global_access} over that range but without
    filling per-lane addresses. *)

val shared_access : t -> sm:int -> stats:Stats.t -> n:int -> result
(** Shared-memory access with 32-bank conflict modeling over the first
    [n] entries of {!lanes} (byte addresses). Identical words
    broadcast. *)

val atomic_access :
  t -> sm:int -> stats:Stats.t -> n:int -> width:int -> result
(** {!global_access}, plus serialization per unique address. *)

val l1_stats : t -> sm:int -> int * int
(** (hits, misses) of one SM's L1 since creation. *)

val l2_stats : t -> int * int
(** (hits, misses) summed over all L2 slices. *)

val invalidate : t -> unit
(** Drops all cache contents (between launches if desired). *)

(** {1 Activity tracing} *)

val set_trace_sink : t -> Trace.Collector.t option -> unit
(** Install (or remove) the device-default collector receiving L1/L2
    probe records; mirrored into every per-SM slot. Pass [Some c] only
    when [c] wants the [Cache] category; the sink emits
    unconditionally. *)

val set_trace_ctx : t -> sm:int -> cycle:int -> warp:int -> unit
(** Stamp the per-SM context attached to subsequent probe records from
    that SM; called by the interpreter before issuing accesses while
    tracing. *)

(** {1 Telemetry} *)

type tm_sink = {
  tm_latency : Telemetry.Hist.t;
      (** observes each coalesced access's latency in cycles *)
  tm_transactions : Telemetry.Hist.t;
      (** observes each coalesced access's transaction count *)
}

val set_telemetry_sink : t -> tm_sink option -> unit
(** Install (or remove) the device-default histograms observing every
    global/local coalesced access ({!global_access} and
    {!contiguous_access}; atomics observe their underlying access
    once); mirrored into every per-SM slot. [None] keeps the
    observation sites on a single-branch fast path. *)

(** {1 Per-SM sink overrides (device sharding)} *)

val override_slot_sinks :
  t -> sm:int -> trace:Trace.Collector.t option ->
  telemetry:tm_sink option -> unit
(** Point one SM's slot at private sinks for the duration of a sharded
    launch; the scheduler merges the private buffers back in [sm_id]
    order and then calls {!restore_slot_sinks}. *)

val restore_slot_sinks : t -> unit
(** Re-mirror the device-default sinks into every slot. *)
