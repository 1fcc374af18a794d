(** Trace-driven analysis: fold a stream of activity records into
    per-SM totals and a stall breakdown — the summary [run --trace]
    prints beside its Chrome/Perfetto export. *)

type side_stats = {
  mutable issues : int;
  mutable stall_events : int array;  (** indexed by {!reason_index} *)
  mutable stall_cycles : int array;
  mutable mem_accesses : int;
  mutable mem_transactions : int;
  mutable barriers : int;
  mutable first_cycle : int;  (** [max_int] when no event seen *)
  mutable last_cycle : int;
  mutable blocks : int;  (** block dispatches (SM timelines only) *)
}

type t = {
  kernels : (string * int * int) list;
      (** (name, launch id, cycles), in completion order *)
  sms : (int * side_stats) list;  (** sorted by SM id *)
  total : side_stats;
  cache_probes : (int * int) * (int * int);
      (** ((l1 hits, l1 misses), (l2 hits, l2 misses)) *)
  handler_invokes : int;
  faults : int;
}

val reason_index : Record.stall_reason -> int

val reasons : Record.stall_reason array
(** Inverse of {!reason_index}. *)

val build : Record.t list -> t

val stall_breakdown : t -> (Record.stall_reason * int * int) list
(** (reason, events, cycles), every reason present, sorted by cycles
    descending. *)

val pp_summary : Format.formatter -> t -> unit
