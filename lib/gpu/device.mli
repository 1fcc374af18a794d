(** The device API: the CUDA-runtime analogue used by host drivers.

    A device owns global memory, the cache hierarchy, an optional
    kernel transform (this is where the SASSI instrumentation pass is
    installed, playing the role of the SASSI-enabled [ptxas]), launch
    and exit callbacks (the CUPTI analogue), and the handler trap. *)

type t = State.device

(** Kernel launch arguments, written into the constant bank in 4-byte
    slots in order. Addresses are 32-bit in this machine. *)
type arg =
  | I32 of int
  | F32 of float
  | Ptr of int

val create : ?cfg:Config.t -> ?domains:int -> unit -> t
(** [domains] is the intra-device parallelism width (how many OCaml
    domains SM simulation may spread over); defaults to the
    process-wide value installed by {!set_default_domains} (initially
    1, i.e. today's sequential behavior). *)

val config : t -> Config.t

(** {1 Intra-device parallelism} *)

val set_default_domains : int -> unit
(** Process-wide default for the [domains] of every subsequently
    created device. Devices are created deep inside campaign and
    serve tasks, so the CLI sets this once before any work runs.
    @raise Invalid_argument when < 1. *)

val set_domains : t -> int -> unit
(** Change one device's sharding width (1 = sequential). Statistics,
    manifests, and telemetry exports are bit-identical across values.
    @raise Invalid_argument when < 1. *)

val domains : t -> int

val sharding_fallbacks : t -> int
(** Launches forced down the sequential path by the eligibility scan
    (cross-block atomics or SASSI handlers). Moves on every launch
    regardless of the domain setting, so exports stay comparable. *)

(** {1 Memory management} *)

val malloc : t -> int -> int
(** Bump allocation in global memory, 256-byte aligned.
    @raise Out_of_memory when the global heap is exhausted. *)

val heap_used : t -> int
(** Global-memory bytes handed out by {!malloc} so far (the bump
    watermark); the extent static out-of-bounds checks bound global
    accesses against. *)

val memset : t -> addr:int -> len:int -> char -> unit

val write_i32s : t -> addr:int -> int array -> unit

val read_i32s : t -> addr:int -> n:int -> int array

val write_f32s : t -> addr:int -> float array -> unit

val read_f32s : t -> addr:int -> n:int -> float array

val write_u64s : t -> addr:int -> int array -> unit

val read_u64s : t -> addr:int -> n:int -> int array

val read_i32 : t -> int -> int

val write_i32 : t -> int -> int -> unit

val read_u64 : t -> int -> int

val write_u64 : t -> int -> int -> unit

val bind_texture : t -> addr:int -> bytes:int -> unit

(** {1 Instrumentation hooks} *)

val set_transform : t -> State.transform option -> unit
(** Installs (or removes) the backend-compiler kernel transform applied
    at launch time. Transformed kernels are cached per generation. *)

val set_hcall : t -> (State.hcall_ctx -> unit) option -> unit

val set_tracer : t -> Trace.Collector.t option -> unit
(** Install (or remove) the activity-record collector. Emission sites
    across the scheduler, interpreter, and memory system check this
    with a single branch, so a device without a tracer pays nothing.
    Prefer {!Cupti.Activity} for the user-facing API. *)

val tracer : t -> Trace.Collector.t option

val set_sampler : t -> State.sampler option -> unit
(** Install (or remove) the statistical PC sampler called from the
    warp scheduler. Like the tracer, a device without a sampler pays
    a single branch per issue slot. Prefer {!Cupti.Pc_sampling} for
    the user-facing API. *)

val sampler : t -> State.sampler option

val set_telemetry : t -> State.telemetry option -> unit
(** Install (or remove) the metrics sink. The memory-request
    histograms are mirrored into the memory system, which observes
    coalesced accesses directly; all other sites check the device
    field with a single branch. The sink must only observe —
    installed telemetry leaves {!Gpu.Stats} bit-identical. Prefer
    {!Cupti.Telemetry} for the user-facing API. *)

val telemetry : t -> State.telemetry option

val set_host_access_hook :
  t -> (addr:int -> bytes:int -> write:bool -> unit) option -> unit
(** Observe all host-side reads/writes of device global memory (the
    memcpy traffic). Used by heterogeneous CPU+GPU analyses such as
    {!Handlers.Uvm_profile} (paper Section 9.4). *)

(** {1 Callbacks (CUPTI substrate)} *)

val on_launch : t -> (State.launch -> unit) -> int
(** Subscribe to kernel-launch events (before execution); returns a
    subscription id. *)

val on_exit : t -> (State.launch -> unit) -> int
(** Subscribe to kernel-exit events (after execution). *)

val unsubscribe : t -> int -> unit

(** {1 Kernel launch} *)

val launch :
  t ->
  kernel:Sass.Program.kernel ->
  grid:int * int ->
  block:int * int ->
  args:arg list ->
  Stats.t
(** Applies the installed transform, runs launch callbacks, executes
    the kernel to completion, runs exit callbacks, and returns the
    launch statistics. Exceptions from traps propagate after no
    callbacks have been skipped on the way in.

    The device decodes each (post-transform) kernel once and reuses
    the decoded form, keyed by the physical identity of its [instrs]
    array: a kernel's instruction array must not be mutated after it
    has been launched on a device. Rewrite a copy instead. *)

val invocation_count : t -> string -> int
(** How many times a kernel of the given name has been launched. *)
