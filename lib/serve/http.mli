(** Minimal HTTP/1.1 message layer for the profiling daemon: enough to
    parse one request off a blocking socket and write one response —
    no external dependencies, no keep-alive (every exchange is
    [Connection: close], which Prometheus scrapers and [curl] both
    handle). Streaming responses write headers first, then body
    chunks until the handler closes the connection. *)

type request = {
  rq_method : string;  (** uppercase, e.g. ["GET"] *)
  rq_path : string;  (** decoded path without the query string *)
  rq_query : (string * string) list;  (** query parameters, in order *)
  rq_headers : (string * string) list;  (** names lowercased *)
  rq_body : string;
}

exception Bad_request of string
(** Raised by {!read_request} on malformed input (bad request line,
    oversized message, invalid [Content-Length]). *)

val max_body_bytes : int
(** Bodies past this (8 MiB) raise {!Bad_request}. *)

val read_request : in_channel -> request option
(** Parse one request. [None] when the peer closed before sending a
    request line. @raise Bad_request on malformed input. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val query : request -> string -> string option

val reason : int -> string
(** Reason phrase for a status code (["OK"], ["Not Found"], ...). *)

val respond :
  ?content_type:string ->
  ?extra_headers:(string * string) list ->
  code:int -> out_channel -> string -> int
(** Write a complete response (status line, headers with
    [Content-Length], body) and flush. Returns the body length, for
    the access log. *)

val respond_json :
  ?extra_headers:(string * string) list ->
  code:int -> out_channel -> Trace.Json.t -> int
(** {!respond} with [application/json] and a trailing newline, so a
    fetched job manifest is byte-identical to the file the CLI
    writes. *)

val error_json :
  ?extra_headers:(string * string) list ->
  code:int -> out_channel -> string -> int
(** [{"error": msg}] with the given status. *)

val start_stream : ?content_type:string -> code:int -> out_channel -> unit
(** Write status line and headers for a body-until-close response
    (no [Content-Length]); the caller then writes body chunks and
    flushes as it goes. *)
