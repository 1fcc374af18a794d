(** Block dispatch and per-SM warp scheduling.

    Blocks are assigned to SMs round-robin; each SM runs waves of
    resident blocks (bounded by the residency limit) with a
    round-robin ready-warp scheduler issuing [issue_width]
    instructions per cycle. A launch simulates its SMs one after
    another, in [sm_id] order, on the calling domain; parallelism
    lives above the device, in [Par.Pool]. *)

val shardable_kernel : Sass.Program.kernel -> bool
(** The cross-block hazard verdict for a post-transform kernel: no
    cross-block atomics, handlers or calls, and no global load whose
    parameter origin a global store shares. The device computes it
    once per decoded kernel; a launch of a kernel that fails it counts
    in [d_sharding_fallbacks]. *)

val run : State.launch -> unit
(** Runs the launch to completion and fills [l_stats.cycles] with the
    maximum SM cycle count (the kernel time).

    @raise Trap.Hang if the watchdog expires or all live warps are
    blocked at an unreleasable barrier. *)
