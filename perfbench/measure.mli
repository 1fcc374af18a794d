(** The benchmark's own arithmetic: percentile selection under the
    ten-samples-beyond rule, span self time, [VmHWM] parsing, and job
    failure counting. Pure functions over plain data, so each rule is
    unit-tested on its own. *)

(** {1 Percentiles} *)

val percentile : float array -> float -> float
(** [percentile samples p] is the nearest-rank [p]th percentile
    ([0 < p <= 100]): the smallest sample with at least [p]% of the
    samples at or below it. The value is one of the samples, as
    measured. @raise Invalid_argument on an empty array or [p] outside
    (0, 100]. *)

val median : float array -> float
(** [percentile samples 50.]. *)

val tail_percentile : float array -> float -> (float, string) result
(** Like {!percentile}, but refuses ([Error]) unless at least 10
    samples lie strictly beyond the selected rank: a p90 needs at least
    100 samples. *)

(** {1 Span self time} *)

val self_times : Obs.Span.t list -> (Obs.Span.t * int) list
(** Every [Complete] span with its self time in microseconds: its
    duration minus the part of its interval covered by its direct
    children on the same track. A child is a span that starts inside
    its parent's interval on the same track (the innermost such
    parent); coverage is clipped to the parent's interval. Spans on
    different tracks never cover each other. Instants and counters are
    dropped. Output order follows the input order. *)

(** {1 Memory} *)

val vm_hwm_kib : string -> int option
(** The [VmHWM] (peak resident set) value in KiB from the text of
    [/proc/<pid>/status]; [None] when the line is missing or
    malformed. *)

val peak_rss_mib : unit -> float option
(** {!vm_hwm_kib} of this process, in MiB. *)

val vm_rss_mib : unit -> float option
(** Current [VmRSS] of this process, in MiB. *)

(** {1 Failure counting} *)

(** How one job ended. *)
type outcome =
  | Passed
  | Failed of string
      (** a wrong result, an exception, a refused or broken HTTP
          exchange, or a daemon job that did not finish *)

type tally = {
  attempted : int;
  failed : int;  (** jobs that did not pass *)
  errors : string list;  (** the first few failure messages, oldest first *)
}

val empty : tally

val record : tally -> outcome -> tally
(** Count one attempted job. At most 8 messages are kept. *)

val reject : tally -> string -> tally
(** A job already counted as passed was found wrong by a check made
    after timing: count it as failed, without a new attempt. *)
