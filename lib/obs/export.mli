(** Chrome trace_event export for host spans, written with the shared
    {!Trace.Json} writer primitives so escaping and number formatting
    agree with every other JSON sink in the repo. The emitted document
    loads directly in [chrome://tracing] / Perfetto: one process
    ("sassi host"), one thread track per domain, [X] events for
    complete spans, [i] for instants, and [C] counter charts. *)

val to_string : Span.t list -> string

val write_file : string -> Span.t list -> unit
(** @raise Sys_error on unwritable paths. *)

val summary : Span.t list -> (string * int * int) list
(** Per-category rollup [(cat, span_count, total_duration_us)], in
    first-appearance order of the (track, seq)-sorted input. *)

val pp_summary : Format.formatter -> Span.t list -> unit
