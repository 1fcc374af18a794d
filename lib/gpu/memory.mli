(** Byte-addressed memory with little-endian multi-byte access. Used
    for global memory, shared memory, local (stack) memory, and the
    kernel-parameter constant bank.

    The bytes live in 4 KiB pages that materialize on first write;
    until then a page aliases one shared zero page, so creating a large
    memory costs only its page table. A memory has no lock: it belongs
    to one device, and a device runs on one domain at a time. *)

type t

val create : space:Sass.Opcode.space -> int -> t
(** Zero-initialized memory of the given size; [space] labels faults. *)

val size : t -> int

val space : t -> Sass.Opcode.space

val read : t -> width:Sass.Opcode.width -> int -> int
(** Little-endian load. [W8]/[W16]/[W32] return the zero-extended
    pattern; [W64] returns the full 64-bit pattern in an OCaml int
    (63-bit overflow is tolerated for counter use).
    @raise Trap.Memory_fault on out-of-bounds access. *)

val write : t -> width:Sass.Opcode.width -> int -> int -> unit

val read_u64 : t -> int -> int

val write_u64 : t -> int -> int -> unit

val blit_from_bytes : t -> dst:int -> Bytes.t -> unit

val blit_to_bytes : t -> src:int -> Bytes.t -> unit

val fill : t -> pos:int -> len:int -> char -> unit
(** Filling with ['\000'] leaves untouched pages untouched. *)
