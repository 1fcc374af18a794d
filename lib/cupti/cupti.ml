(** CUPTI-style profiling APIs over the simulated device: activity
    tracing, callbacks, event counters, PC sampling, and telemetry.
    Derived metrics live in {!Prof.Metrics}. This interface module
    exists so the telemetry API can be exposed under its natural name,
    [Cupti.Telemetry], without the implementation unit shadowing the
    [telemetry] library it builds on. *)

module Activity = Activity
module Callback = Callback
module Counters = Counters
module Pc_sampling = Pc_sampling
module Telemetry = Tele
