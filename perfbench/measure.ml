let percentile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  if not (p > 0. && p <= 100.) then
    invalid_arg "Measure.percentile: p outside (0, 100]";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 1 rank - 1)

let median samples = percentile samples 50.

let tail_percentile samples p =
  let min_beyond = 10 in
  let n = Array.length samples in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  if n = 0 || n - rank < min_beyond then
    Error
      (Printf.sprintf
         "p%g needs at least %d samples beyond it; %d samples leave %d" p
         min_beyond n (max 0 (n - rank)))
  else Ok (percentile samples p)

let self_times spans =
  let complete =
    List.filter_map
      (fun s ->
         match s.Obs.Span.sp_kind with
         | Obs.Span.Complete d -> Some (s, d)
         | _ -> None)
      spans
  in
  let arr = Array.of_list complete in
  let covered = Array.make (Array.length arr) 0 in
  (* Indices sorted by (track, start, longest first): a parent always
     precedes the spans it contains. *)
  let order = Array.init (Array.length arr) Fun.id in
  Array.sort
    (fun i j ->
       let (a, da), (b, db) = (arr.(i), arr.(j)) in
       compare
         (a.Obs.Span.sp_track, a.Obs.Span.sp_ts_us, -da, a.Obs.Span.sp_seq)
         (b.Obs.Span.sp_track, b.Obs.Span.sp_ts_us, -db, b.Obs.Span.sp_seq))
    order;
  (* Stack of (index, end_us) of the spans open at the current start. *)
  let stack = ref [] and track = ref min_int in
  Array.iter
    (fun i ->
       let s, d = arr.(i) in
       let ts = s.Obs.Span.sp_ts_us in
       if s.Obs.Span.sp_track <> !track then begin
         track := s.Obs.Span.sp_track;
         stack := []
       end;
       let rec pop = function
         | (_, e) :: rest when e <= ts -> pop rest
         | st -> st
       in
       stack := pop !stack;
       (match !stack with
        | (p, pend) :: _ -> covered.(p) <- covered.(p) + (min (ts + d) pend - ts)
        | [] -> ());
       stack := (i, ts + d) :: !stack)
    order;
  Array.to_list (Array.mapi (fun i (s, d) -> (s, max 0 (d - covered.(i)))) arr)

let status_field name text =
  let prefix = name ^ ":" in
  let plen = String.length prefix in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
      if String.length line >= plen && String.sub line 0 plen = prefix then
        match
          String.split_on_char ' '
            (String.trim (String.sub line plen (String.length line - plen)))
          |> List.filter (( <> ) "")
        with
        | [ v; "kB" ] -> int_of_string_opt v
        | _ -> None
      else None)

let vm_hwm_kib text = status_field "VmHWM" text

let read_status () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        Some (In_channel.input_all ic))

let status_mib field =
  Option.bind (read_status ()) (fun text ->
      Option.map (fun kib -> float_of_int kib /. 1024.) (status_field field text))

let peak_rss_mib () = status_mib "VmHWM"

let vm_rss_mib () = status_mib "VmRSS"

type outcome =
  | Passed
  | Failed of string

type tally = {
  attempted : int;
  failed : int;
  errors : string list;
}

let empty = { attempted = 0; failed = 0; errors = [] }

let max_errors = 8

let note t msg = if List.length t.errors < max_errors then t.errors @ [ msg ] else t.errors

let reject t msg = { t with failed = t.failed + 1; errors = note t msg }

let record t outcome =
  let t = { t with attempted = t.attempted + 1 } in
  match outcome with
  | Passed -> t
  | Failed msg -> reject t msg
