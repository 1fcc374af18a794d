(** A one-line live progress meter for long campaigns: jobs done /
    total, throughput, ETA, redrawn in place with carriage returns.

    The meter only ever draws when [enabled] was requested {e and} the
    sink is an interactive terminal: piping stderr to a file, or any
    batch/bench context, silently disables it, so redirected output
    and recorded manifests stay byte-identical whether or not the flag
    was passed. *)

type t

val create :
  ?out:out_channel -> ?tty:bool -> enabled:bool -> total:int -> unit -> t
(** [out] defaults to [stderr]; [tty] overrides the [Unix.isatty]
    probe on [stderr] (for tests). A meter with [enabled:false],
    a non-tty sink, or [total <= 0] never writes a byte. *)

val active : t -> bool

val step : t -> unit
(** Mark one more job done and redraw. *)

val finish : t -> unit
(** Erase the meter line (so the next print starts on a clean line).
    Idempotent. *)
