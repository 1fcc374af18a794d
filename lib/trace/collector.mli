(** The live end of the tracer: a category mask deciding what gets
    recorded and a {!Ring} holding what was. Emission sites in the
    simulator guard on {!wants} (a single bit test) so that a
    disabled category — or a disabled tracer — costs nothing. *)

type t

val create :
  ?capacity:int ->
  ?policy:Record.t Ring.overflow ->
  ?categories:Record.category list ->
  unit ->
  t
(** Default capacity 262144 records, policy [Drop_oldest], all
    categories enabled. *)

val wants : t -> Record.category -> bool

val emit : t -> Record.t -> unit
(** Unconditionally records; call {!wants} first at emission sites
    that construct records lazily. *)

val records : t -> Record.t list
(** Resident records, oldest first. *)

val dropped : t -> int

val flushed : t -> int

val flush : t -> Record.t list
