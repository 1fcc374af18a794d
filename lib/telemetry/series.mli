(** Bounded time series of gauge snapshots, sampled every [interval]
    cycles. Rows past the capacity drop oldest-first and are counted,
    so truncation is visible to consumers. *)

type row = {
  r_cycle : int;
  r_sm : int;
  r_values : float array;
}

type t

val create : ?capacity:int -> interval:int -> string array -> t
(** [create ~interval columns]; capacity defaults to 65536 rows.
    @raise Invalid_argument on non-positive interval or capacity. *)

val columns : t -> string array

val interval : t -> int

val sample : t -> cycle:int -> sm:int -> float array -> unit
(** @raise Invalid_argument when the value count does not match the
    column count. *)

val capacity : t -> int

val length : t -> int

val dropped : t -> int

val rows : t -> row list
(** Oldest first. *)

val to_json : t -> Trace.Json.t
