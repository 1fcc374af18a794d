(** Immutable sets of register indices in [0, 256), used as the
    lattice elements of the register dataflow analyses. Indices follow
    {!Reg.index} / {!Pred.index} conventions (so [RZ] is 255
    and fits, though analyses normally exclude it). *)

type t

val empty : t

val full : t
(** All 256 indices — the top element of must-style lattices. *)

val add : int -> t -> t

val remove : int -> t -> t

val mem : int -> t -> bool

val union : t -> t -> t

val inter : t -> t -> t

val equal : t -> t -> bool

val cardinal : t -> int

val elements : t -> int list
(** Ascending order. *)

val of_list : int list -> t
