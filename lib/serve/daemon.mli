(** The profiling daemon: a dependency-free HTTP/1.1 server (blocking
    accept loop, one thread per connection) exposing the whole
    observability stack live:

    - [GET /metrics] — Prometheus exposition of the serve registry
      (requests, latency, in-flight, jobs), the pool's [sassi_pool_*]
      series, the compile cache's [sassi_cache_*] series,
      [sassi_build_info] and [sassi_uptime_seconds]. Point-in-time
      consistent: exporters render a {!Telemetry.Registry.snapshot}.
    - [GET /healthz] — liveness (200 as long as the process serves).
    - [GET /readyz] — readiness: 200 only when no job is queued or
      running, 503 otherwise.
    - [POST /jobs] — submit a sassi-campaign/1 JSON document; returns
      202 with the job id, or 429 with [Retry-After] while
      {!Jobs.max_queued} jobs wait.
    - [GET /jobs], [GET /jobs/:id] — job table / one job's status,
      tally, and timings. The table keeps the newest
      {!Jobs.finished_window} finished jobs; an older id answers 410.
    - [GET /jobs/:id/manifest] — the finished job's canonical
      manifest, byte-identical to the file `sassi_run campaign
      --manifest` writes for the same campaign (410 once evicted).
    - [GET /trace] — resident activity records as NDJSON (same record
      schema trace files use, so the output pipes straight into
      `sassi_run trace-summary`); [?follow=1] keeps the connection
      open and streams new records as served jobs emit them, until
      the client closes its end.
    - [POST /shutdown] — graceful stop.

    Every request runs under an [Obs] span (category ["http"]) and
    emits one structured JSON access-log line. *)

type config = {
  cfg_host : string;  (** bind address, default ["127.0.0.1"] *)
  cfg_port : int;  (** 0 picks an ephemeral port; see {!port} *)
  cfg_pool_jobs : int;  (** pool width for job execution *)
  cfg_feed_capacity : int;  (** activity feed ring size *)
  cfg_cache : bool;  (** enable the compile cache *)
  cfg_cache_bytes : int;  (** compile cache budget *)
  cfg_access_log : out_channel option;  (** [None] silences the log *)
}

val default_config : config

val read_timeout_s : float
(** Receive timeout, in seconds, on every accepted connection: a peer
    that sends nothing for this long mid-request is disconnected
    without a reply. *)

type t

val create : config -> t
(** Bind and listen (so {!port} is final), build the pool, job table,
    feed, and metrics. Ignores [SIGPIPE] process-wide — a follower
    disconnecting must not kill the daemon. *)

val port : t -> int
(** The actual bound port (resolves [cfg_port = 0]). *)

val jobs : t -> Jobs.t

val pool : t -> Par.Pool.t
(** The pool served jobs execute on. *)

val metrics : t -> Metrics.t

val run : t -> unit
(** Serve until {!shutdown}; blocks the calling thread. *)

val start : t -> Thread.t
(** {!run} on a fresh thread — the in-process harness tests use this. *)

val shutdown : t -> unit
(** Stop accepting, finish the running job, fail queued ones, close
    the feed (ending follower streams), drain the pool. Idempotent;
    callable from a handler thread or another thread. *)
