(** Bit-accurate 32-bit register values, stored in native [int]s in
    the range [0, 2{^32}). Float operations round to IEEE-754 single
    precision after every operation, matching single-precision GPU
    datapaths. *)

val mask : int
(** [0xFFFFFFFF]. *)

val wrap : int -> int
(** Truncate to 32 bits. *)

val signed : int -> int
(** Reinterpret a 32-bit pattern as a signed integer. *)

val of_signed : int -> int
(** Inverse of {!signed}. *)

val add : int -> int -> int

val sub : int -> int -> int

val mul : int -> int -> int

val mad : int -> int -> int -> int

val div : sign:Sass.Opcode.sign -> int -> int -> int
(** Division by zero yields [0xFFFFFFFF] (matching PTX). *)

val rem : sign:Sass.Opcode.sign -> int -> int -> int

val min_max : cmp:Sass.Opcode.cmp -> int -> int -> int
(** Signed min ([Lt]) or max ([Gt]). *)

val shl : int -> int -> int
(** Shift amounts >= 32 yield 0. *)

val shr : sign:Sass.Opcode.sign -> int -> int -> int

val logic : Sass.Opcode.logic -> int -> int -> int

val brev : int -> int

val popc : int -> int

val flo : int -> int
(** Index of the highest set bit; [0xFFFFFFFF] when the input is 0. *)

val ffs : int -> int
(** 1-based index of the lowest set bit; 0 when the input is 0
    (CUDA [__ffs] semantics). *)

val lowest_bit : int -> int
(** Index of the lowest set bit of a non-zero 32-bit value, from a
    de Bruijn table; unspecified for 0. [flo], [ffs] and [lowest_bit]
    allocate nothing. *)

val compare_int : cmp:Sass.Opcode.cmp -> sign:Sass.Opcode.sign -> int -> int -> bool

(** {1 Single-precision floats} *)

val f32_of_bits : int -> float

val bits_of_f32 : float -> int

val fadd : int -> int -> int

val fsub : int -> int -> int

val fmul : int -> int -> int

val ffma : int -> int -> int -> int

val fmin_max : cmp:Sass.Opcode.cmp -> int -> int -> int

val mufu : Sass.Opcode.mufu -> int -> int

val compare_f32 : cmp:Sass.Opcode.cmp -> int -> int -> bool

val i2f : sign:Sass.Opcode.sign -> int -> int

val f2i : sign:Sass.Opcode.sign -> int -> int
