(** Domain pool executing independent simulation tasks from one FIFO
    run queue: tasks start in submission order.

    Determinism contract: results are always joined in task-index
    order — {!map_ordered} and {!iter_ordered} observe task [i]'s
    result strictly before task [i+1]'s — so a reduction built on them
    is bit-identical to a sequential run regardless of scheduling.

    Futures must be awaited from the submitting (main) domain, never
    from inside a pool task: a task that blocks on another queued task
    can deadlock the pool. Fan out, then join.

    Introspection: {!stats} snapshots per-worker task/idle counters
    and the live queue depth; {!register_telemetry} exposes the
    same numbers through a {!Telemetry.Registry} so the standard
    Prometheus/JSON exporters serve them unchanged. Workers claim
    host-trace track [worker_index + 1] ({!Obs.Tracer.set_track}) at
    spawn, so traced campaigns render one timeline row per domain. *)

type t

type 'a future

val max_domains : int
(** Upper bound on [domains] accepted by {!create} (64). *)

val create : ?domains:int -> unit -> t
(** A pool of [domains] workers (default 2). [domains = 1] spawns no
    domain at all: every task runs inline at submission, making
    `--jobs 1` exactly the sequential baseline.
    @raise Invalid_argument unless [1 <= domains <= max_domains]. *)

val size : t -> int
(** Number of task executors (1 for an inline pool). *)

val submit : t -> (unit -> 'a) -> 'a future
(** Queue a task behind every earlier one; the next idle worker
    starts it.
    @raise Invalid_argument after {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the task finishes. Re-raises, with its original
    backtrace, any exception the task raised. *)

val map_ordered : t -> ('a -> 'b) -> 'a array -> 'b array
(** Run [f] over every element in parallel; result [i] is task [i]'s,
    in order. Exceptions surface at the failed index. *)

val iter_ordered : t -> (unit -> 'a) array -> on_result:(int -> 'a -> unit) -> unit
(** Run every task in parallel, streaming results to [on_result] in
    strict task order (result [i] is delivered as soon as tasks
    [0..i] have all finished). *)

val shutdown : t -> unit
(** Drain every queued task, then join the worker domains. Idempotent.
    Tasks already queued still run; new submissions are refused. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

(** {1 Introspection} *)

type worker_stats = {
  ws_tasks : int;  (** tasks this worker executed *)
  ws_idle_wakes : int;  (** wake-ups from the idle wait *)
}

type stats = {
  s_size : int;  (** task executors (= {!size}) *)
  s_tasks : int;  (** tasks executed, all workers *)
  s_queued : int;  (** tasks waiting in the run queue *)
  s_workers : worker_stats array;  (** per-worker breakdown *)
}

val stats : t -> stats
(** A consistent-enough snapshot for telemetry: each field is read
    atomically, the record as a whole is not (workers keep running). *)

val register_telemetry : t -> Telemetry.Registry.t -> unit
(** Register the pool's task and idle-wake counters, its queue-depth
    gauge and per-worker task counters (labeled [worker="i"]) so
    {!Telemetry.Export} serves them alongside every other metric. *)
