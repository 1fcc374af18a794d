(** A bounded ring buffer, the storage backend of the activity tracer
    (and of any other bounded collection, e.g. {!Handlers.Mem_trace}).
    Saturation is observable, never silent: whichever overflow policy
    is active, {!dropped} and {!flushed} account for every element
    that did not stay resident. *)

type 'a overflow =
  | Drop_oldest  (** overwrite the oldest resident element *)
  | Drop_newest  (** refuse the incoming element *)
  | Flush_callback of ('a array -> unit)
      (** hand the full buffer (oldest first) to the callback, empty
          it, then store the incoming element *)

type 'a t

val create : ?policy:'a overflow -> capacity:int -> unit -> 'a t
(** [capacity] must be positive. Default policy is [Drop_oldest].
    Storage grows with the resident elements, up to [capacity], and is
    released when the ring empties. *)

val push : 'a t -> 'a -> unit

val length : 'a t -> int
(** Resident elements, [<= capacity]. *)

val pushed : 'a t -> int
(** Total elements ever offered via {!push}. *)

val dropped : 'a t -> int
(** Elements lost to [Drop_oldest] overwrites or [Drop_newest]
    refusals. Always [0] under [Flush_callback]. *)

val flushed : 'a t -> int
(** Elements handed to the [Flush_callback] (0 under other
    policies). [pushed t = length t + dropped t + flushed t]. *)

val to_list : 'a t -> 'a list
(** Resident elements, oldest first. *)

val newest : 'a t -> int -> 'a list
(** The newest [n] resident elements (all of them when [n] exceeds
    {!length}), oldest first; copies only those. *)

val flush : 'a t -> 'a list
(** Return resident elements (oldest first) and empty the buffer;
    drop/flush counters are preserved. *)

val clear : 'a t -> unit
(** Empty the buffer and reset all counters. *)
