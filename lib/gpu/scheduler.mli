(** Block dispatch and per-SM warp scheduling.

    Blocks are assigned to SMs round-robin; each SM runs waves of
    resident blocks (bounded by the residency limit) with a
    round-robin ready-warp scheduler issuing [issue_width]
    instructions per cycle. SMs are independent — the L2 is
    partitioned per SM and each SM owns a private observation context
    — so when the device's [d_domains] is greater than 1 they are
    simulated concurrently on OCaml domains and reduced in [sm_id]
    order, bit-identical to the sequential order. Kernels containing
    cross-block atomics or SASSI handlers always take the sequential
    path (counted in [d_sharding_fallbacks]). *)

val shardable_kernel : Sass.Program.kernel -> bool
(** The sharding verdict for a post-transform kernel: no cross-block
    atomics, handlers or calls, and no global load whose parameter
    origin a global store shares. The device computes it once per
    decoded kernel. *)

val run : State.launch -> unit
(** Runs the launch to completion and fills [l_stats.cycles] with the
    maximum SM cycle count (the kernel time).

    @raise Trap.Hang if the watchdog expires or all live warps are
    blocked at an unreleasable barrier. When sharded, the failure of
    the lowest-id failing SM propagates. *)
