module J = Trace.Json

let track_name = function
  | 0 -> "main"
  | n -> Printf.sprintf "worker %d" (n - 1)

let add = Buffer.add_string

(* An event up to its "tid", left open for the caller's fields. All
   host spans live in one process, pid 1. *)
let head b ~name ~cat ph ts tid =
  add b "{\"name\":";
  J.add_str b name;
  add b ",\"cat\":";
  J.add_str b cat;
  add b ",\"ph\":\"";
  add b ph;
  J.add_field b "\",\"ts\":" ts;
  J.add_field b ",\"pid\":1,\"tid\":" tid

let args b value kvs =
  add b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
       if i > 0 then add b ",";
       J.add_str b k;
       add b ":";
       value b v)
    kvs;
  add b "}"

let attr b = function
  | Span.Str s -> J.add_str b s
  | Span.Int i -> J.add_int b i
  | Span.Float f -> J.add_float b f
  | Span.Bool v -> add b (if v then "true" else "false")

let event b (s : Span.t) =
  let head ph =
    head b ~name:s.Span.sp_name ~cat:s.Span.sp_cat ph s.Span.sp_ts_us
      s.Span.sp_track
  in
  (match s.Span.sp_kind with
   | Span.Complete dur ->
     head "X";
     J.add_field b ",\"dur\":" (max 1 dur)
   | Span.Instant ->
     head "i";
     add b ",\"s\":\"t\""
   | Span.Counter values ->
     head "C";
     args b J.add_float values);
  (match (s.Span.sp_kind, s.Span.sp_attrs) with
   | Span.Counter _, _ | _, [] -> ()
   | _, attrs -> args b attr attrs);
  add b "}"

let to_string spans =
  let b = Buffer.create 4096 in
  let meta name tid = head b ~name ~cat:"__metadata" "M" 0 tid in
  add b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  meta "process_name" 0;
  args b J.add_str [ ("name", "sassi host") ];
  List.iter
    (fun t ->
       add b "},";
       meta "thread_name" t;
       args b J.add_str [ ("name", track_name t) ];
       (* Keep chrome's track order = domain order, not first-event
          time. *)
       add b "},";
       meta "thread_sort_index" t;
       args b J.add_int [ ("sort_index", t) ])
    (List.sort_uniq Int.compare (List.map (fun s -> s.Span.sp_track) spans));
  add b "}";
  List.iter
    (fun s ->
       add b ",";
       event b s)
    spans;
  add b "]}";
  Buffer.contents b

let write_file path spans =
  J.with_out_file path (fun oc ->
      output_string oc (to_string spans);
      output_char oc '\n')

let summary spans =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
       let cat = s.Span.sp_cat in
       if not (Hashtbl.mem tbl cat) then begin
         Hashtbl.add tbl cat (0, 0);
         order := cat :: !order
       end;
       let n, d = Hashtbl.find tbl cat in
       Hashtbl.replace tbl cat (n + 1, d + Span.duration_us s))
    spans;
  List.rev_map (fun cat -> let n, d = Hashtbl.find tbl cat in (cat, n, d))
    !order

let pp_summary ppf spans =
  List.iter
    (fun (cat, n, dur_us) ->
       Format.fprintf ppf "  %-10s %6d span(s) %10.1f ms@." cat n
         (float_of_int dur_us /. 1e3))
    (summary spans)
