(** The Activity API — CUPTI's third pillar next to {!Callback} and
    {!Counters}: asynchronous, buffered activity records collected
    while kernels run, delivered to the host in batches.

    Mirrors the shape of real CUPTI: [enable] a set of activity kinds
    (cupti's [cuptiActivityEnable]), optionally register a
    buffer-completed callback ([cuptiActivityRegisterCallbacks]),
    then [flush] ([cuptiActivityFlushAll]) to drain resident records.
    Record storage and analysis live in the {!Trace} library. *)

type kind = Trace.Record.category =
  | Kernel  (** CUPTI_ACTIVITY_KIND_KERNEL *)
  | Block  (** thread-block dispatch *)
  | Warp  (** warp issue / stall / barrier *)
  | Mem  (** warp-level memory transactions *)
  | Cache  (** L1/L2 probes *)
  | Handler  (** SASSI handler invocations *)
  | Fault  (** fault-injection events *)

val all_kinds : kind list

val kind_of_string : string -> kind option
(** {!Trace.Record.category_of_string}. *)

val enable :
  ?capacity:int ->
  ?overflow:Trace.Record.t Trace.Ring.overflow ->
  Gpu.Device.t ->
  kind list ->
  unit
(** Install a fresh collector for the given kinds (replacing any
    previous one). Default [capacity] 262144 records, default
    [overflow] [Drop_oldest]; [Flush_callback] is the
    buffer-completed callback: on overflow the full buffer is
    delivered (oldest first) and emptied. *)

val enable_all :
  ?capacity:int ->
  ?overflow:Trace.Record.t Trace.Ring.overflow ->
  Gpu.Device.t ->
  unit

val disable : Gpu.Device.t -> unit
(** Remove the collector; resident records are discarded, emission
    sites return to their zero-cost path. *)

val enabled : Gpu.Device.t -> bool

val flush : Gpu.Device.t -> Trace.Record.t list
(** Drain and return resident records, oldest first ([] when
    disabled). Drop counters survive the flush. *)

val records : Gpu.Device.t -> Trace.Record.t list
(** Peek without draining. *)

val dropped : Gpu.Device.t -> int
(** Records lost to the overflow policy since [enable]. *)

val delivered : Gpu.Device.t -> int
(** Records handed to the [Flush_callback] since [enable]. *)

val collector : Gpu.Device.t -> Trace.Collector.t option
