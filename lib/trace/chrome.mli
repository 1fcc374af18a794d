(** Chrome [trace_event] JSON export: the resulting file loads in
    [chrome://tracing] and in Perfetto's legacy-trace importer.

    Track layout: kernels live in process 0 (one thread per launch
    id); each SM is a process ([pid = sm + 1]) whose threads are the
    launch-unique warp ids. Warp stalls are duration ("X") events;
    issues, memory transactions, cache probes, handler calls, and
    faults are instants. Timestamps are simulated cycles, exported as
    microseconds. *)

val to_buffer : Buffer.t -> Record.t list -> unit

val to_string : Record.t list -> string

val to_channel : out_channel -> Record.t list -> unit
(** Writes the document in 64 KiB chunks; it is never held whole. *)

val write_file : string -> Record.t list -> unit
