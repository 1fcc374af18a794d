(* Hand-rolled HTTP/1.1 reader/writer over stdlib channels. The daemon
   speaks to curl, Prometheus, and the in-tree test client; it does
   not try to be a general server: one request per connection,
   explicit limits on line length, header count, and body size, and
   every parse error is a typed Bad_request the daemon maps to 400. *)

type request = {
  rq_method : string;
  rq_path : string;
  rq_query : (string * string) list;
  rq_headers : (string * string) list;
  rq_body : string;
}

exception Bad_request of string

let max_line_bytes = 8192
let max_headers = 100
let max_body_bytes = 8 * 1024 * 1024

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

(* One line without its LF and the CR of a CRLF ending; [None] at end
   of file before any byte. Read a byte at a time and refused once
   [max_line_bytes] is passed, so a peer that never sends a newline
   gets its 400 then instead of growing an unbounded buffer. *)
let read_line ic =
  let buf = Buffer.create 128 in
  let rec go () =
    match input_char ic with
    | exception End_of_file -> Buffer.length buf > 0
    | '\n' -> true
    | c ->
      Buffer.add_char buf c;
      if Buffer.length buf > max_line_bytes then bad "request line too long";
      go ()
  in
  if not (go ()) then None
  else
    let line = Buffer.contents buf in
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then Some (String.sub line 0 (n - 1))
    else Some line

let split_query target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
    let path = String.sub target 0 i in
    let qs = String.sub target (i + 1) (String.length target - i - 1) in
    let params =
      String.split_on_char '&' qs
      |> List.filter (fun s -> s <> "")
      |> List.map (fun kv ->
          match String.index_opt kv '=' with
          | None -> (kv, "")
          | Some j ->
            ( String.sub kv 0 j,
              String.sub kv (j + 1) (String.length kv - j - 1) ))
    in
    (path, params)

let read_headers ic =
  let rec go acc n =
    if n > max_headers then bad "too many headers";
    match read_line ic with
    | None -> bad "connection closed inside headers"
    | Some "" -> List.rev acc
    | Some line ->
      (match String.index_opt line ':' with
       | None -> bad "malformed header line"
       | Some i ->
         let name = String.lowercase_ascii (String.sub line 0 i) in
         let value =
           String.trim (String.sub line (i + 1) (String.length line - i - 1))
         in
         go ((name, value) :: acc) (n + 1))
  in
  go [] 0

let read_request ic =
  match read_line ic with
  | None -> None
  | Some "" -> bad "empty request line"
  | Some line ->
    (match String.split_on_char ' ' line with
     | [ meth; target; version ]
       when version = "HTTP/1.1" || version = "HTTP/1.0" ->
       let headers = read_headers ic in
       let body =
         match List.assoc_opt "content-length" headers with
         | None -> ""
         | Some v ->
           (match int_of_string_opt (String.trim v) with
            | None -> bad "invalid Content-Length"
            | Some n when n < 0 -> bad "invalid Content-Length"
            | Some n when n > max_body_bytes -> bad "body too large"
            | Some n ->
              let b = Bytes.create n in
              (try really_input ic b 0 n
               with End_of_file -> bad "connection closed inside body");
              Bytes.to_string b)
       in
       let path, query = split_query target in
       Some
         { rq_method = String.uppercase_ascii meth;
           rq_path = path;
           rq_query = query;
           rq_headers = headers;
           rq_body = body }
     | _ -> bad "malformed request line")

let header rq name = List.assoc_opt (String.lowercase_ascii name) rq.rq_headers

let query rq name = List.assoc_opt name rq.rq_query

let reason = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 409 -> "Conflict"
  | 413 -> "Payload Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let write_head ?(content_type = "text/plain; charset=utf-8") ?content_length
    ?(extra_headers = []) ~code oc =
  Printf.fprintf oc "HTTP/1.1 %d %s\r\n" code (reason code);
  Printf.fprintf oc "Content-Type: %s\r\n" content_type;
  (match content_length with
   | Some n -> Printf.fprintf oc "Content-Length: %d\r\n" n
   | None -> ());
  List.iter (fun (k, v) -> Printf.fprintf oc "%s: %s\r\n" k v) extra_headers;
  output_string oc "Connection: close\r\n\r\n"

let respond ?content_type ?extra_headers ~code oc body =
  write_head ?content_type ?extra_headers
    ~content_length:(String.length body) ~code oc;
  output_string oc body;
  flush oc;
  String.length body

let respond_json ~code oc json =
  respond ~content_type:"application/json" ~code oc
    (Trace.Json.to_string json ^ "\n")

let error_json ~code oc msg =
  respond_json ~code oc (Trace.Json.Obj [ ("error", Trace.Json.Str msg) ])

let start_stream ?(content_type = "application/x-ndjson") ~code oc =
  write_head ~content_type ~code oc;
  flush oc
