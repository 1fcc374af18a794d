(* Tests for the activity-tracing subsystem: ring-buffer overflow
   policies, the Activity API, sink validity (Chrome trace_event and
   NDJSON, checked with a small JSON parser), timeline aggregation,
   and the zero-perturbation guarantee (tracing must not change
   simulation results). *)

open Kernel.Dsl

let check = Alcotest.check

let device () = Gpu.Device.create ~cfg:Gpu.Config.small ()

(* --- A tiny strict JSON parser, enough to validate sink output ------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let next () =
      if !pos >= n then raise (Bad "eof");
      let c = s.[!pos] in
      incr pos;
      c
    in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      let g = next () in
      if g <> c then raise (Bad (Printf.sprintf "expected %c got %c" c g))
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents b
        | '\\' ->
          (match next () with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
             let h = String.init 4 (fun _ -> next ()) in
             Buffer.add_string b (Printf.sprintf "\\u%s" h)
           | c -> raise (Bad (Printf.sprintf "bad escape %c" c)));
          go ()
        | c ->
          Buffer.add_char b c;
          go ()
      in
      go ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        expect '{';
        skip_ws ();
        if peek () = Some '}' then begin
          expect '}';
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object sep %c" c))
          in
          members []
        end
      | Some '[' ->
        expect '[';
        skip_ws ();
        if peek () = Some ']' then begin
          expect ']';
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elements (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array sep %c" c))
          in
          elements []
        end
      | Some 't' ->
        pos := !pos + 4;
        Bool true
      | Some 'f' ->
        pos := !pos + 5;
        Bool false
      | Some 'n' ->
        pos := !pos + 4;
        Null
      | Some _ ->
        let start = !pos in
        while
          !pos < n
          &&
          match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          incr pos
        done;
        if !pos = start then raise (Bad "bad value");
        Num (float_of_string (String.sub s start (!pos - start)))
      | None -> raise (Bad "eof")
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  let num k o =
    match mem k o with Some (Num f) -> Some f | _ -> None

  let str k o =
    match mem k o with Some (Str s) -> Some s | _ -> None
end

(* --- Ring buffer --------------------------------------------------------- *)

let test_ring_drop_oldest () =
  let r = Trace.Ring.create ~capacity:4 () in
  for i = 0 to 5 do
    Trace.Ring.push r i
  done;
  check (Alcotest.list Alcotest.int) "oldest evicted" [ 2; 3; 4; 5 ]
    (Trace.Ring.to_list r);
  check Alcotest.int "length" 4 (Trace.Ring.length r);
  check Alcotest.int "dropped" 2 (Trace.Ring.dropped r);
  check Alcotest.int "pushed" 6 (Trace.Ring.pushed r);
  check Alcotest.int "accounting" (Trace.Ring.pushed r)
    (Trace.Ring.length r + Trace.Ring.dropped r + Trace.Ring.flushed r)

let test_ring_drop_newest () =
  let r = Trace.Ring.create ~policy:Trace.Ring.Drop_newest ~capacity:4 () in
  for i = 0 to 5 do
    Trace.Ring.push r i
  done;
  check (Alcotest.list Alcotest.int) "newest refused" [ 0; 1; 2; 3 ]
    (Trace.Ring.to_list r);
  check Alcotest.int "dropped" 2 (Trace.Ring.dropped r);
  check Alcotest.int "accounting" (Trace.Ring.pushed r)
    (Trace.Ring.length r + Trace.Ring.dropped r + Trace.Ring.flushed r)

let test_ring_flush_callback () =
  let batches = ref [] in
  let r =
    Trace.Ring.create
      ~policy:(Trace.Ring.Flush_callback (fun b -> batches := b :: !batches))
      ~capacity:4 ()
  in
  for i = 0 to 5 do
    Trace.Ring.push r i
  done;
  check Alcotest.int "one batch delivered" 1 (List.length !batches);
  check (Alcotest.array Alcotest.int) "batch oldest-first" [| 0; 1; 2; 3 |]
    (List.hd !batches);
  check (Alcotest.list Alcotest.int) "resident tail" [ 4; 5 ]
    (Trace.Ring.to_list r);
  check Alcotest.int "flushed" 4 (Trace.Ring.flushed r);
  check Alcotest.int "dropped" 0 (Trace.Ring.dropped r);
  check Alcotest.int "accounting" (Trace.Ring.pushed r)
    (Trace.Ring.length r + Trace.Ring.dropped r + Trace.Ring.flushed r)

let test_ring_flush_and_clear () =
  let r = Trace.Ring.create ~capacity:3 () in
  for i = 0 to 4 do
    Trace.Ring.push r i
  done;
  let drained = Trace.Ring.flush r in
  check (Alcotest.list Alcotest.int) "flush returns resident" [ 2; 3; 4 ]
    drained;
  check Alcotest.int "empty after flush" 0 (Trace.Ring.length r);
  check Alcotest.int "counters survive flush" 2 (Trace.Ring.dropped r);
  Trace.Ring.push r 9;
  Trace.Ring.clear r;
  check Alcotest.int "clear resets pushed" 0 (Trace.Ring.pushed r);
  check Alcotest.int "clear resets dropped" 0 (Trace.Ring.dropped r);
  check
    (Alcotest.testable
       (fun ppf _ -> Format.fprintf ppf "<exn>")
       (fun a b -> a = b))
    "capacity must be positive" true
    (try
       ignore (Trace.Ring.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

(* Elements are stored unboxed: a push of an existing element
   allocates nothing once the buffer exists. *)
let test_ring_push_allocation () =
  let r = Trace.Ring.create ~capacity:64 () in
  let x =
    Trace.Record.make ~cycle:1 ~sm:0 ~warp:0
      (Trace.Record.Kernel_exit { name = "k"; launch_id = 1; cycles = 1 })
  in
  let pushes = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to pushes do
    Trace.Ring.push r x
  done;
  let per_push = (Gc.minor_words () -. before) /. float_of_int pushes in
  if per_push >= 0.5 then
    Alcotest.failf "%.2f minor words per push (limit 0.5)" per_push;
  check Alcotest.int "resident" 64 (Trace.Ring.length r)

let test_ring_newest () =
  let r = Trace.Ring.create ~capacity:4 () in
  check (Alcotest.list Alcotest.int) "empty ring" [] (Trace.Ring.newest r 3);
  for i = 0 to 5 do
    Trace.Ring.push r i
  done;
  check (Alcotest.list Alcotest.int) "newest 2 across the wrap" [ 4; 5 ]
    (Trace.Ring.newest r 2);
  check (Alcotest.list Alcotest.int) "clamped to resident" [ 2; 3; 4; 5 ]
    (Trace.Ring.newest r 10);
  check (Alcotest.list Alcotest.int) "none" [] (Trace.Ring.newest r (-1))

(* --- A traced kernel run -------------------------------------------------- *)

let saxpy =
  kernel "t_saxpy" ~params:[ ptr "x"; ptr "y"; flt "a"; int "n" ] (fun p ->
      [ let_ "i" (global_tid_x ());
        exit_if (v "i" >=! p 3);
        let_ "off" (v "i" <<! int_ 2);
        st_global_f (p 1 +! v "off")
          (ffma (p 2) (ldg_f (p 0 +! v "off")) (ldg_f (p 1 +! v "off"))) ])

let run_saxpy dev n =
  let x = Workloads.Workload.upload_f32 dev (Array.init n float_of_int) in
  let y = Workloads.Workload.upload_f32 dev (Array.make n 1.0) in
  let grid, block = Workloads.Workload.grid_1d ~threads:n ~block:64 in
  Gpu.Device.launch dev ~kernel:(Kernel.Compile.compile saxpy) ~grid ~block
    ~args:
      [ Gpu.Device.Ptr x; Gpu.Device.Ptr y; Gpu.Device.F32 2.0;
        Gpu.Device.I32 n ]

let traced_records ?(kinds = Cupti.Activity.all_kinds) ?(n = 256) () =
  let dev = device () in
  Cupti.Activity.enable dev kinds;
  let stats = run_saxpy dev n in
  let records = Cupti.Activity.records dev in
  Cupti.Activity.disable dev;
  (stats, records)

(* --- Activity API --------------------------------------------------------- *)

let test_activity_lifecycle () =
  let dev = device () in
  check Alcotest.bool "disabled initially" false (Cupti.Activity.enabled dev);
  Cupti.Activity.enable_all dev;
  check Alcotest.bool "enabled" true (Cupti.Activity.enabled dev);
  let _ = run_saxpy dev 256 in
  check Alcotest.bool "records collected" true
    (Cupti.Activity.records dev <> []);
  let drained = Cupti.Activity.flush dev in
  check Alcotest.bool "flush drains" true (drained <> []);
  check Alcotest.int "empty after flush" 0
    (List.length (Cupti.Activity.records dev));
  Cupti.Activity.disable dev;
  check Alcotest.bool "disabled again" false (Cupti.Activity.enabled dev);
  let _ = run_saxpy dev 256 in
  check Alcotest.int "no collection when disabled" 0
    (List.length (Cupti.Activity.records dev))

let test_activity_filter () =
  let _, records =
    traced_records ~kinds:[ Cupti.Activity.Kernel; Cupti.Activity.Mem ] ()
  in
  check Alcotest.bool "nonempty" true (records <> []);
  check Alcotest.bool "only requested kinds" true
    (List.for_all
       (fun r ->
          match Trace.Record.category r with
          | Trace.Record.Kernel | Trace.Record.Mem -> true
          | _ -> false)
       records);
  let has cat = List.exists (fun r -> Trace.Record.category r = cat) records in
  check Alcotest.bool "kernel records present" true (has Trace.Record.Kernel);
  check Alcotest.bool "mem records present" true (has Trace.Record.Mem)

let test_activity_deliver () =
  let batches = ref 0 in
  let delivered = ref 0 in
  let dev = device () in
  Cupti.Activity.enable ~capacity:512
    ~overflow:
      (Trace.Ring.Flush_callback
         (fun b ->
            incr batches;
            delivered := !delivered + Array.length b))
    dev Cupti.Activity.all_kinds;
  let _ = run_saxpy dev 1024 in
  check Alcotest.bool "callback fired" true (!batches > 0);
  check Alcotest.int "delivered counter matches" !delivered
    (Cupti.Activity.delivered dev);
  check Alcotest.int "nothing dropped under Deliver" 0
    (Cupti.Activity.dropped dev);
  Cupti.Activity.disable dev

(* One real launch overflowing the ring under the default policy
   (Drop_oldest): what the ring keeps plus what it counts as dropped
   must be the whole record stream, which the same launch under
   Deliver hands over in full; the kept records must be that stream's
   newest; and the launch itself must not change. *)
let test_activity_drop_oldest_accounting () =
  let capacity = 512 and n = 1024 in
  let batches = ref [] in
  let dev = device () in
  Cupti.Activity.enable ~capacity
    ~overflow:(Trace.Ring.Flush_callback (fun b -> batches := b :: !batches))
    dev Cupti.Activity.all_kinds;
  let _ = run_saxpy dev n in
  let stream =
    List.concat_map Array.to_list (List.rev !batches)
    @ Cupti.Activity.flush dev
  in
  Cupti.Activity.disable dev;
  let dev = device () in
  Cupti.Activity.enable ~capacity dev Cupti.Activity.all_kinds;
  let stats = run_saxpy dev n in
  let kept = Cupti.Activity.flush dev in
  let dropped = Cupti.Activity.dropped dev in
  Cupti.Activity.disable dev;
  check Alcotest.bool "the launch overflows the ring" true
    (List.length stream > capacity);
  check Alcotest.int "kept + dropped = full stream" (List.length stream)
    (List.length kept + dropped);
  check Alcotest.bool "kept records are the newest of the stream" true
    (kept = List.filteri (fun i _ -> i >= dropped) stream);
  check Alcotest.(list (pair string int)) "Gpu.Stats equal a plain run's"
    (Gpu.Stats.to_assoc (run_saxpy (device ()) n))
    (Gpu.Stats.to_assoc stats)

(* --- Zero perturbation ---------------------------------------------------- *)

let test_tracing_preserves_stats () =
  let plain = run_saxpy (device ()) 512 in
  let traced, _ = traced_records ~n:512 () in
  check Alcotest.string "identical Gpu.Stats"
    (Format.asprintf "%a" Gpu.Stats.pp plain)
    (Format.asprintf "%a" Gpu.Stats.pp traced)

(* --- Sinks ---------------------------------------------------------------- *)

let test_chrome_json_valid () =
  let _, records = traced_records () in
  check Alcotest.bool "trace nonempty" true (records <> []);
  let json =
    match Json.parse (Trace.Chrome.to_string records) with
    | j -> j
    | exception Json.Bad m -> Alcotest.failf "unparseable Chrome JSON: %s" m
  in
  let events =
    match Json.mem "traceEvents" json with
    | Some (Json.Arr es) -> es
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  check Alcotest.bool "has events" true (events <> []);
  (* Every event carries the mandatory trace_event fields. *)
  List.iter
    (fun e ->
       if Json.str "ph" e = None then Alcotest.fail "event without ph";
       if Json.str "name" e = None then Alcotest.fail "event without name";
       match Json.str "ph" e with
       | Some "M" -> ()
       | _ ->
         if Json.num "ts" e = None then Alcotest.fail "event without ts";
         if Json.num "pid" e = None || Json.num "tid" e = None then
           Alcotest.fail "event without pid/tid")
    events;
  (* Timestamps are monotone within each (pid, tid) track. *)
  let last = Hashtbl.create 64 in
  let regressions = ref 0 in
  List.iter
    (fun e ->
       match (Json.str "ph" e, Json.num "ts" e) with
       | Some "M", _ | _, None -> ()
       | _, Some ts ->
         let key = (Json.num "pid" e, Json.num "tid" e) in
         (match Hashtbl.find_opt last key with
          | Some prev when ts < prev -> incr regressions
          | _ -> ());
         Hashtbl.replace last key ts)
    events;
  check Alcotest.int "monotone ts per track" 0 !regressions;
  (* The taxonomy's load-bearing event names made it through. *)
  let names = List.filter_map (fun e -> Json.str "name" e) events in
  let has_prefix p =
    List.exists
      (fun n -> String.length n >= String.length p && String.sub n 0 (String.length p) = p)
      names
  in
  List.iter
    (fun prefix ->
       check Alcotest.bool (prefix ^ " event present") true (has_prefix prefix))
    [ "kernel:t_saxpy"; "warp_issue:"; "mem_ld:" ]

let test_ndjson_valid () =
  let _, records = traced_records () in
  let lines = List.map Trace.Ndjson.record_to_string records in
  check Alcotest.int "one line per record" (List.length records)
    (List.length lines);
  List.iter
    (fun line ->
       match Json.parse line with
       | Json.Obj _ as o ->
         if Json.str "kind" o = None then Alcotest.fail "line without kind";
         if Json.num "cycle" o = None then Alcotest.fail "line without cycle"
       | _ -> Alcotest.fail "NDJSON line is not an object"
       | exception Json.Bad m -> Alcotest.failf "unparseable line: %s" m)
    lines

(* --- Timeline aggregation -------------------------------------------------- *)

let test_timeline_build () =
  let stats, records = traced_records () in
  let tl = Trace.Timeline.build records in
  check Alcotest.int "one kernel" 1 (List.length tl.Trace.Timeline.kernels);
  let name, _, cycles = List.hd tl.Trace.Timeline.kernels in
  check Alcotest.string "kernel name" "t_saxpy" name;
  check Alcotest.int "kernel cycles match stats" stats.Gpu.Stats.cycles cycles;
  check Alcotest.bool "issues counted" true
    (tl.Trace.Timeline.total.Trace.Timeline.issues > 0);
  check Alcotest.bool "mem accesses counted" true
    (tl.Trace.Timeline.total.Trace.Timeline.mem_accesses > 0);
  let breakdown = Trace.Timeline.stall_breakdown tl in
  check Alcotest.int "every stall reason present"
    (Array.length Trace.Timeline.reasons)
    (List.length breakdown);
  List.iter
    (fun (_, events, cycles) ->
       check Alcotest.bool "non-negative stalls" true
         (events >= 0 && cycles >= 0))
    breakdown;
  ()

(* [run --trace] prints this summary; pinning its text means a change
   to how [build] aggregates cannot move a printed number. *)
let test_timeline_summary_pinned () =
  let _, records = traced_records () in
  let expected =
    String.concat ""
      [ "kernel t_saxpy                  launch 0          850 cycles\n";
        "stall breakdown:\n";
        "  memory           24 events         5984 warp-cycles\n";
        "  barrier           0 events            0 warp-cycles\n";
        "  exec              0 events            0 warp-cycles\n";
        "issues 112, mem accesses 24 (96 transactions), barriers 0\n";
        "cache probes: L1 32/64, L2 0/64 (hits/misses)\n";
        "SM 0 :     56 issues     2 blocks, cycles 0..849, stalls m/b/e 2992/0/0\n";
        "SM 1 :     56 issues     2 blocks, cycles 0..849, stalls m/b/e 2992/0/0\n" ]
  in
  check Alcotest.string "pp_summary of a traced saxpy" expected
    (Format.asprintf "%a" Trace.Timeline.pp_summary
       (Trace.Timeline.build records))

(* --- Mem_trace on the ring backend ---------------------------------------- *)

let test_mem_trace_capacity () =
  let dev = device () in
  let mt = Handlers.Mem_trace.create ~capacity:8 () in
  let _ =
    Sassi.Runtime.with_instrumentation dev (Handlers.Mem_trace.pairs mt)
      (fun _ -> run_saxpy dev 512)
  in
  check Alcotest.int "capped at capacity" 8 (Handlers.Mem_trace.length mt);
  check Alcotest.bool "overflow counted" true
    (Handlers.Mem_trace.dropped mt > 0);
  (* Drop_newest: the stored prefix is the first accesses, in order. *)
  let tr = Handlers.Mem_trace.trace mt in
  check Alcotest.int "trace length" 8 (List.length tr);
  Handlers.Mem_trace.clear mt;
  check Alcotest.int "cleared" 0 (Handlers.Mem_trace.length mt);
  check Alcotest.int "cleared dropped" 0 (Handlers.Mem_trace.dropped mt)

(* --- \uXXXX decoding in the shared JSON reader ----------------------------- *)

let parse_str input =
  match Trace.Json.of_string input with
  | Ok (Trace.Json.Str s) -> Ok s
  | Ok _ -> Error "parsed, but not as a string"
  | Error e -> Error e

let test_json_unicode_escapes () =
  (match parse_str {|"A\u00e9"|} with
   | Ok s -> check Alcotest.string "1- and 2-byte code points" "A\xc3\xa9" s
   | Error e -> Alcotest.failf "BMP escape rejected: %s" e);
  (match parse_str {|"\u2028"|} with
   | Ok s -> check Alcotest.string "3-byte code point" "\xe2\x80\xa8" s
   | Error e -> Alcotest.failf "U+2028 rejected: %s" e);
  (* U+1F600 as a \uD83D\uDE00 pair re-encodes as 4-byte UTF-8. *)
  match parse_str {|"\ud83d\ude00"|} with
  | Ok s -> check Alcotest.string "surrogate pair" "\xf0\x9f\x98\x80" s
  | Error e -> Alcotest.failf "surrogate pair rejected: %s" e

let test_json_lone_surrogates () =
  let reject label input =
    match parse_str input with
    | Ok s -> Alcotest.failf "%s accepted as %S" label s
    | Error _ -> ()
  in
  reject "high surrogate + non-low" {|"\ud800A"|};
  reject "high surrogate at end of string" {|"\ud83d"|};
  reject "high surrogate at end of input" {|"\ud83d|};
  reject "lone low surrogate" {|"\udc00"|};
  reject "two high surrogates" {|"\ud800\ud800"|}

let test_json_escape_roundtrip () =
  List.iter
    (fun s ->
       match parse_str (Trace.Json.to_string (Trace.Json.Str s)) with
       | Ok s' -> check Alcotest.string "escape/parse round-trip" s s'
       | Error e -> Alcotest.failf "round-trip of %S failed: %s" s e)
    [ ""; "plain"; "quote \" backslash \\ slash /";
      "controls \x01\x1f\n\t\r\b\x0c";
      "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80" ]

(* --- Pinned export bytes ---------------------------------------------------- *)

(* MD5 digests of the Chrome document, the NDJSON lines and the
   host-span document. perfbench's refs.json pins each observed job's
   Chrome length and people diff traces across runs, so a writer may
   be rewritten but must not move a byte. *)

let md5 s = Digest.to_hex (Digest.string s)

let ndjson_text records =
  String.concat ""
    (List.map (fun r -> Trace.Ndjson.record_to_string r ^ "\n") records)

(* parboil/spmv small under every activity kind, with the host spans
   of the same run. Span times are wall clock, so each span's time
   becomes its begin order and its duration its depth. *)
let spmv_traced () =
  Kernel.Cache.disable ();
  let dev = Gpu.Device.create () in
  Cupti.Activity.enable_all dev;
  Obs.Tracer.enable ();
  let w = Workloads.Registry.find "parboil/spmv" in
  ignore (w.Workloads.Workload.run dev ~variant:"small");
  let spans = Obs.Tracer.drain () in
  let records = Cupti.Activity.flush dev in
  Cupti.Activity.disable dev;
  let fix s =
    { s with
      Obs.Span.sp_ts_us = 10 * s.Obs.Span.sp_seq;
      sp_kind =
        (match s.Obs.Span.sp_kind with
         | Obs.Span.Complete _ -> Obs.Span.Complete (1 + s.Obs.Span.sp_depth)
         | k -> k) }
  in
  (records, List.map fix spans)

(* Quote, backslash, newline, byte 0x01 and a byte above 0x7f. *)
let odd = "q\"b\\s\nc\001h\xe9"

let hand_records =
  let open Trace.Record in
  let r cycle sm warp p = make ~cycle ~sm ~warp p in
  [ r 0 (-1) (-1)
      (Kernel_launch { name = odd; launch_id = -3; grid = (2, 1); block = (64, 1) });
    r 4 (-1) (-1)
      (Kernel_launch
         { name = "k"; launch_id = max_int; grid = (1, 3); block = (32, 2) });
    r 5 2 0
      (Kernel_launch
         { name = "big"; launch_id = 1 lsl 40; grid = (7, 7); block = (8, 8) });
    r 6 2 0
      (Kernel_launch { name = "neg"; launch_id = -9; grid = (1, 1); block = (1, 1) });
    r 1 0 (-1) (Block_dispatch { block = 0; warps = 2 });
    r 2 1 3 (Warp_issue { pc = 16; op = odd; active = 32 });
    r 3 1 3 (Warp_stall { reason = Stall_memory; cycles = 0 });
    r 4 1 (1 lsl 35) (Warp_stall { reason = Stall_barrier; cycles = 12 });
    r 9 1 (-2) (Warp_stall { reason = Stall_exec; cycles = -4 });
    r 10 100 7 (Warp_barrier { pc = 24; arrived = 2 });
    r 11 0 1
      (Mem_access
         { space = Sp_global; write = false; bytes = 4; lanes = 32; transactions = 4 });
    r 12 0 1
      (Mem_access
         { space = Sp_shared; write = true; bytes = 8; lanes = 1; transactions = 1 });
    r 13 0 1
      (Mem_access
         { space = Sp_local; write = true; bytes = 16; lanes = 0; transactions = 0 });
    r 14 0 1
      (Mem_access
         { space = Sp_texture; write = false; bytes = 1; lanes = 3; transactions = 2 });
    r 15 0 2 (Cache_access { level = L1; hit = true });
    r 16 0 2 (Cache_access { level = L2; hit = false });
    r (-5) (-7) 4 (Handler_invoke { site = min_int; pc = max_int });
    r 17 3 9 (Fault_inject { thread = 77; bit = -1; target = "predicate" });
    r 18 3 9 (Fault_inject { thread = 5; bit = 31; target = odd });
    r 30 (-1) (-1) (Kernel_exit { name = odd; launch_id = -3; cycles = 40 });
    r 31 (-1) (-1) (Kernel_exit { name = "k"; launch_id = max_int; cycles = 0 });
    r 32 2 0 (Kernel_exit { name = "big"; launch_id = 1 lsl 40; cycles = 20 }) ]

let hand_spans =
  let sp ?(track = 0) ?(depth = 0) seq ts cat name kind attrs =
    { Obs.Span.sp_track = track; sp_seq = seq; sp_name = name; sp_cat = cat;
      sp_ts_us = ts; sp_depth = depth; sp_kind = kind; sp_attrs = attrs }
  in
  Obs.Span.
    [ sp 0 0 "campaign" odd (Complete 0) [];
      sp ~depth:1 1 5 odd "job" (Complete 1234)
        [ ("kernel", Str odd); ("n", Int (-7)); ("big", Int max_int);
          ("min", Int min_int); ("ok", Bool true); ("no", Bool false);
          ("f", Float 0.1); ("nan", Float Float.nan);
          ("inf", Float Float.infinity); (odd, Float (-1e300)) ];
      sp 2 9 "x" "instant" Instant [];
      sp 3 10 "x" "instant attrs" Instant [ ("a", Int 1); ("s", Str "") ];
      sp 4 11 "pool" "pool"
        (Counter [ ("busy", 0.5); ("queued", 3.); (odd, Float.nan) ])
        [];
      sp ~track:2 0 3 "job" "w" (Complete 8) [ ("x", Float 1e21) ];
      sp ~track:12 0 (-4) "job" "late" Instant [] ]

let check_digests label ~chrome ~ndjson ~host records spans =
  check Alcotest.string (label ^ ": Chrome document") chrome
    (md5 (Trace.Chrome.to_string records));
  check Alcotest.string (label ^ ": NDJSON lines") ndjson
    (md5 (ndjson_text records));
  check Alcotest.string (label ^ ": host-span document") host
    (md5 (Obs.Export.to_string spans))

let test_pinned_traced_run () =
  let records, spans = spmv_traced () in
  check_digests "spmv small" ~chrome:"d324aa5cff3c306c7840a849f9c5eb8f"
    ~ndjson:"66c6fd5d24e5f66163315ad4c126ed51"
    ~host:"236fad81cc043bf33843c7ee1dac0130" records spans

let test_pinned_hand_built () =
  check_digests "hand-built" ~chrome:"45ca1c82e66c671d4218bfa5bc843116"
    ~ndjson:"1006d0101e8c350656067dac0f381195"
    ~host:"38d3d0a417a031ea3e9774d71bde3960" hand_records hand_spans;
  check Alcotest.string "empty Chrome document"
    "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\n]}\n"
    (Trace.Chrome.to_string []);
  check Alcotest.string "empty host-span document"
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"process_name\",\
     \"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
     \"args\":{\"name\":\"sassi host\"}}]}"
    (Obs.Export.to_string [])

(* Every string field of an NDJSON line is JSON-escaped, not only the
   names: a fault target with a control byte and a byte above 0x7f
   must parse and come back unchanged. *)
let test_ndjson_escapes_strings () =
  let target = "reg\001\233" in
  let line =
    Trace.Ndjson.record_to_string
      (Trace.Record.make ~cycle:1 ~sm:0 ~warp:0
         (Trace.Record.Fault_inject { thread = 3; bit = 7; target }))
  in
  match Trace.Json.of_string line with
  | Ok o ->
    check Alcotest.(option string) "target round-trips" (Some target)
      (match Trace.Json.member "target" o with
       | Some (Trace.Json.Str s) -> Some s
       | _ -> None)
  | Error e -> Alcotest.failf "unparseable line %S: %s" line e

(* --- Allocation-free export ------------------------------------------------ *)

(* Into a buffer already large enough for the document, the Chrome
   export allocates per track (the metadata tables), not per record. *)
let test_chrome_export_allocation () =
  let records, _ = spmv_traced () in
  let b = Buffer.create (String.length (Trace.Chrome.to_string records)) in
  let before = Gc.minor_words () in
  Trace.Chrome.to_buffer b records;
  let words = Gc.minor_words () -. before in
  let per_record = words /. float_of_int (List.length records) in
  if per_record > 4. then
    Alcotest.failf "%.1f minor words per record over %d records (limit 4)"
      per_record (List.length records)

let suite =
  [ ( "trace.ring",
      [ Alcotest.test_case "drop-oldest" `Quick test_ring_drop_oldest;
        Alcotest.test_case "drop-newest" `Quick test_ring_drop_newest;
        Alcotest.test_case "flush-callback" `Quick test_ring_flush_callback;
        Alcotest.test_case "flush-and-clear" `Quick test_ring_flush_and_clear;
        Alcotest.test_case "push allocates nothing" `Quick
          test_ring_push_allocation;
        Alcotest.test_case "newest" `Quick test_ring_newest ] );
    ( "trace.activity",
      [ Alcotest.test_case "lifecycle" `Quick test_activity_lifecycle;
        Alcotest.test_case "kind filter" `Quick test_activity_filter;
        Alcotest.test_case "deliver callback" `Quick test_activity_deliver;
        Alcotest.test_case "drop-oldest accounting" `Quick
          test_activity_drop_oldest_accounting;
        Alcotest.test_case "stats unperturbed" `Quick
          test_tracing_preserves_stats
      ] );
    ( "trace.sinks",
      [ Alcotest.test_case "chrome json" `Quick test_chrome_json_valid;
        Alcotest.test_case "ndjson" `Quick test_ndjson_valid;
        Alcotest.test_case "pinned bytes: traced run" `Quick
          test_pinned_traced_run;
        Alcotest.test_case "pinned bytes: hand-built" `Quick
          test_pinned_hand_built;
        Alcotest.test_case "ndjson escapes strings" `Quick
          test_ndjson_escapes_strings
      ] );
    ( "trace.zero-alloc",
      [ Alcotest.test_case "Chrome export per record" `Quick
          test_chrome_export_allocation
      ] );
    ( "trace.json",
      [ Alcotest.test_case "unicode escapes" `Quick
          test_json_unicode_escapes;
        Alcotest.test_case "lone surrogates rejected" `Quick
          test_json_lone_surrogates;
        Alcotest.test_case "escape round-trip" `Quick
          test_json_escape_roundtrip
      ] );
    ( "trace.analysis",
      [ Alcotest.test_case "timeline" `Quick test_timeline_build;
        Alcotest.test_case "timeline summary pinned" `Quick
          test_timeline_summary_pinned;
        Alcotest.test_case "mem_trace ring backend" `Quick
          test_mem_trace_capacity
      ] )
  ]
