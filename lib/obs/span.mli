(** Host-side span records: the pure data layer under {!Tracer}.

    A span is one timed (or instantaneous) event on a host {e track} —
    one track per domain, so a campaign's trace opens in
    [chrome://tracing] with the main domain and every pool worker on
    its own row. Ordering is deterministic: spans sort by
    [(track, seq)], where [seq] is the per-track begin order, so the
    merged list from a traced run depends only on what ran, never on
    how the scheduler interleaved it. *)

type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type kind =
  | Complete of int  (** duration in microseconds *)
  | Instant
  | Counter of (string * float) list
      (** sampled counter values (Chrome "C" phase: one chart track) *)

type t = {
  sp_track : int;  (** 0 = main domain, [i+1] = pool worker [i] *)
  sp_seq : int;  (** begin order within the track *)
  sp_name : string;
  sp_cat : string;  (** e.g. ["campaign"], ["job"], ["compile"], ["launch"] *)
  sp_ts_us : int;  (** microseconds since tracing was enabled *)
  sp_depth : int;  (** nesting depth at begin (0 = top level) *)
  sp_kind : kind;
  sp_attrs : (string * attr) list;
}

val order : t -> t -> int
(** Total order by [(track, seq)] — the deterministic merge order. *)

val duration_us : t -> int
(** [Complete] duration; 0 for instants and counters. *)
