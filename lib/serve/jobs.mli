(** The daemon's job table and scheduler.

    [POST /jobs] enqueues a parsed campaign; one scheduler thread
    drains the queue in submission order and executes each campaign on
    the shared {!Par.Pool} through {!Runner.run} — jobs are serialized
    with respect to each other (each one already fans out across the
    pool's domains), which keeps pool usage identical to the CLI and
    results deterministic. All table access is mutex-guarded; request
    threads only ever read copies.

    The table is bounded: it holds the queued jobs (at most
    {!max_queued}), the running one, and the newest {!finished_window}
    finished ones. Finishing a job evicts the oldest finished job past
    the window; {!evicted} tells such an id from one never issued. *)

val finished_window : int
(** Finished jobs kept for {!find} and {!list}: 128. *)

val max_queued : int
(** Jobs that may wait in the queue before {!submit} refuses: 64. *)

val retry_after_s : int
(** Seconds a refused client is told to wait ([Retry-After]): 1. *)

exception Queue_full
(** Raised by {!submit} when {!max_queued} jobs are waiting. *)

type state =
  | Queued
  | Running
  | Done
  | Failed of string

val state_to_string : state -> string

type job = {
  jb_id : string;  (** ["job-1"], dense and monotonic *)
  jb_spec : Par.Campaign.t;
  jb_submitted_s : float;
  jb_state : state;
  jb_started_s : float option;
  jb_finished_s : float option;
  jb_wall_time_s : float option;  (** measured execution time *)
  jb_manifest : Telemetry.Manifest.t option;  (** [Done] jobs only *)
  jb_tally : Workloads.Campaign.tally option;
  jb_stats : Gpu.Stats.t option;  (** merged device stats, [Done] only *)
}

type t

val create :
  pool:Par.Pool.t ->
  ?activity:(Trace.Record.t list -> unit) ->
  ?on_done:(job -> unit) ->
  unit -> t
(** [activity] receives each served [Run] job's activity records;
    [on_done] fires (on the scheduler thread) when a job reaches
    [Done] or [Failed] — the metrics layer hooks both. *)

val start : t -> unit
(** Spawn the scheduler thread. Idempotent. *)

val submit : t -> Par.Campaign.t -> job
(** Enqueue; returns the job snapshot in state [Queued].
    @raise Queue_full when {!max_queued} jobs are already queued.
    @raise Invalid_argument after {!stop}. *)

val find : t -> string -> job option
(** Snapshot of one job by id: [None] for an id never issued or one
    evicted from the finished window. *)

val evicted : t -> string -> bool
(** The id was issued but its job has left the finished window. *)

val list : t -> job list
(** Snapshots of every job in the table, oldest first. *)

val drained : t -> bool
(** No job queued or running — the [/readyz] predicate. *)

val counts : t -> int * int * int * int
(** (queued, running, done, failed), the last two over the daemon's
    life, evicted jobs included. Constant time. *)

val stop : t -> unit
(** Refuse new submissions, let the running job (if any) finish, join
    the scheduler thread. Queued jobs that never ran are marked
    [Failed "server shutdown"] and retire into the finished window.
    Idempotent. *)
