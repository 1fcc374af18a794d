(** Per-launch performance counters. Warp-level counts count one per
    issued warp instruction; thread-level counts weight by the number
    of active lanes. *)

type t = {
  mutable cycles : int;  (** kernel time: max cycle over SMs *)
  mutable warp_instrs : int;
  mutable thread_instrs : int;
  mutable mem_instrs : int;
  mutable ctrl_instrs : int;
  mutable sync_instrs : int;
  mutable numeric_instrs : int;
  mutable texture_instrs : int;
  mutable spill_instrs : int;
  mutable branches : int;  (** conditional branches executed (warp-level) *)
  mutable divergent_branches : int;  (** machine-observed warp splits *)
  mutable global_transactions : int;
  mutable gld_requested_bytes : int;
      (** bytes requested by global-space loads (lanes x width) *)
  mutable gld_transactions : int;
      (** cache-line transactions serving global-space loads *)
  mutable gst_requested_bytes : int;  (** as above, for stores *)
  mutable gst_transactions : int;
  mutable shared_conflicts : int;  (** extra cycles lost to bank conflicts *)
  mutable shared_accesses : int;
      (** shared-space warp accesses routed through the bank model
          (loads, stores, atomics); the denominator for the average
          bank-conflict degree *)
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable resident_warp_cycles : int;
      (** sum over SM waves of resident warps x wave cycles; the
          numerator of achieved occupancy *)
  mutable sm_active_cycles : int;
      (** sum of per-SM cycle counts over SMs that ran blocks (cycles
          itself is the max, i.e. the kernel time) *)
  mutable handler_ops : int;  (** device-API operations charged by handlers *)
  mutable handler_cycles : int;
  mutable hcalls : int;  (** handler invocations *)
}

val create : unit -> t

val to_assoc : t -> (string * int) list
(** All counters as (name, value) pairs, in declaration order. The
    single source of truth for counter names: {!pp}, [--stats-json]
    and the {!Prof.Metrics} engine all go through it. *)

val reset : t -> unit

val accumulate : into:t -> t -> unit
(** Adds all counters of the second argument into [into]; [cycles]
    also accumulates (total device time across launches). *)

val merge : into:t -> t -> unit
(** Reduce the second argument into [into] for an intra-launch
    per-SM merge: [cycles] takes the max (SMs run concurrently; the
    kernel time is the slowest SM), every other counter sums. Driven
    by {!to_assoc} plus a name-indexed setter table, so a counter
    present in the record but missing from either list raises
    [Invalid_argument] instead of being silently dropped. *)

val classes : Sass.Opcode.t -> int
(** The counter classes of an opcode (memory, control, sync, numeric,
    texture, spill/fill) as bits, computed once per decoded
    instruction. *)

val count_instr : t -> classes:int -> active_lanes:int -> unit
(** Count one issued warp instruction of the given {!classes}. *)

val pp : Format.formatter -> t -> unit
