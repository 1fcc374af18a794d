(** Minimal JSON document builder: the single escaping/serialization
    helper behind every JSON emitter in the tree (trace sinks,
    profiler reports, bench summaries, [--stats-json]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** NaN and infinities serialize as [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** {2 Writer primitives}

    Each appends to the buffer without building a [t]; only floats
    and escaped control bytes allocate. *)

val escape_to : Buffer.t -> string -> unit
(** The JSON string-escaped form, without surrounding quotes. *)

val add_str : Buffer.t -> string -> unit

val add_int : Buffer.t -> int -> unit

val add_field : Buffer.t -> string -> int -> unit
(** [s] verbatim (a key with its punctuation, e.g. [",\"pc\":"]),
    then the int. *)

val add_float : Buffer.t -> float -> unit

val spill : (Buffer.t -> unit) -> Buffer.t -> unit
(** Hand the buffer on and clear it once it holds 64 KiB: a streaming
    writer calls this between items to bound its memory. *)

val with_out_file : string -> (out_channel -> 'a) -> 'a
(** @raise Sys_error on unwritable paths. *)

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

val write_file : string -> t -> unit
(** Serialize to a file with a trailing newline.
    @raise Sys_error on unwritable paths. *)

val of_string : string -> (t, string) result
(** Parse one JSON document. Integer literals without a fraction or
    exponent parse as [Int] (falling back to [Float] when out of
    native range); [\uXXXX] escapes decode to UTF-8, including
    surrogate pairs (lone surrogates are rejected). The whole input
    must be consumed. *)

val parse_file : string -> (t, string) result
(** {!of_string} on a whole file.
    @raise Sys_error on unreadable paths. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing keys and non-objects. *)
