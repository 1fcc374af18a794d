(** Newline-delimited JSON: one self-describing object per activity
    record, suitable for streaming consumers ([jq], log shippers, the
    daemon's [/trace] endpoint). *)

val record_to_buffer : Buffer.t -> Record.t -> unit
(** Append one JSON object, no trailing newline. *)

val record_to_string : Record.t -> string

val write_file : string -> Record.t list -> unit
