(* Tests for the host-side observability layer: the shared wall-clock
   helper, the ambient span tracer (lifecycle, nesting, per-domain
   buffers, deterministic merge), the Chrome trace_event exporter, the
   progress meter's tty gating, and the pool introspection that feeds
   it all. *)

let check = Alcotest.check

let span_names spans = List.map (fun s -> s.Obs.Span.sp_name) spans

(* Every test drains on exit so a failing test never leaks an enabled
   tracer into the next one. *)
let with_tracer f =
  Obs.Tracer.enable ();
  Fun.protect ~finally:(fun () -> ignore (Obs.Tracer.drain ())) f

(* --- Clock ----------------------------------------------------------------- *)

let test_clock_wall_time () =
  let r, dt = Obs.Clock.with_wall_time (fun () -> 6 * 7) in
  check Alcotest.int "result passed through" 42 r;
  check Alcotest.bool "non-negative duration" true (dt >= 0.0);
  let (), dt2 = Obs.Clock.with_wall_time (fun () -> Unix.sleepf 0.01) in
  check Alcotest.bool "sleep measured" true (dt2 >= 0.005)

(* --- Tracer lifecycle ------------------------------------------------------ *)

let test_tracer_disabled () =
  check Alcotest.bool "off by default" false (Obs.Tracer.is_enabled ());
  let r = Obs.Tracer.with_span ~cat:"x" "s" (fun () -> 17) in
  check Alcotest.int "thunk still runs" 17 r;
  Obs.Tracer.instant ~cat:"x" "i";
  Obs.Tracer.counter ~cat:"x" "c" [ ("v", 1.0) ];
  check Alcotest.int "nothing recorded" 0 (List.length (Obs.Tracer.drain ()))

let test_tracer_nesting () =
  with_tracer (fun () ->
      Obs.Tracer.with_span ~cat:"outer" "a" (fun () ->
          Obs.Tracer.with_span ~cat:"inner" "b" (fun () -> ());
          Obs.Tracer.with_span ~cat:"inner" "c" (fun () -> ()));
      let spans = Obs.Tracer.drain () in
      check (Alcotest.list Alcotest.string) "all three spans, begin order"
        [ "a"; "b"; "c" ] (span_names spans);
      let by_name n = List.find (fun s -> s.Obs.Span.sp_name = n) spans in
      check Alcotest.int "outer depth" 0 (by_name "a").Obs.Span.sp_depth;
      check Alcotest.int "inner depth" 1 (by_name "b").Obs.Span.sp_depth;
      check Alcotest.int "sibling depth" 1 (by_name "c").Obs.Span.sp_depth;
      List.iter
        (fun s ->
           match s.Obs.Span.sp_kind with
           | Obs.Span.Complete d ->
             check Alcotest.bool "closed with duration" true (d >= 0)
           | _ -> Alcotest.fail "expected a complete span")
        spans)

let test_tracer_attrs_and_kinds () =
  with_tracer (fun () ->
      Obs.Tracer.begin_span ~cat:"work"
        ~attrs:[ ("k", Obs.Span.Str "v") ] "job";
      Obs.Tracer.end_span ~attrs:[ ("outcome", Obs.Span.Bool true) ] ();
      Obs.Tracer.instant ~cat:"mark" "tick";
      Obs.Tracer.counter ~cat:"pool" "pool" [ ("queued", 3.0) ];
      let spans = Obs.Tracer.drain () in
      check Alcotest.int "three records" 3 (List.length spans);
      let job = List.find (fun s -> s.Obs.Span.sp_name = "job") spans in
      check Alcotest.bool "begin attr kept" true
        (List.mem_assoc "k" job.Obs.Span.sp_attrs);
      check Alcotest.bool "end attr appended" true
        (List.mem_assoc "outcome" job.Obs.Span.sp_attrs);
      let tick = List.find (fun s -> s.Obs.Span.sp_name = "tick") spans in
      check Alcotest.bool "instant kind" true
        (tick.Obs.Span.sp_kind = Obs.Span.Instant);
      let pool = List.find (fun s -> s.Obs.Span.sp_name = "pool") spans in
      match pool.Obs.Span.sp_kind with
      | Obs.Span.Counter [ ("queued", v) ] ->
        check (Alcotest.float 0.0) "counter value" 3.0 v
      | _ -> Alcotest.fail "expected a counter record")

let test_tracer_unfinished_span () =
  with_tracer (fun () ->
      Obs.Tracer.begin_span ~cat:"work" "left-open";
      let spans = Obs.Tracer.drain () in
      check Alcotest.int "force-closed at drain" 1 (List.length spans);
      let s = List.hd spans in
      check Alcotest.bool "tagged unfinished" true
        (List.assoc_opt "unfinished" s.Obs.Span.sp_attrs
         = Some (Obs.Span.Bool true)))

let test_tracer_reenable_resets () =
  with_tracer (fun () ->
      Obs.Tracer.with_span ~cat:"old" "stale" (fun () -> ());
      Obs.Tracer.enable ();
      Obs.Tracer.with_span ~cat:"new" "fresh" (fun () -> ());
      let spans = Obs.Tracer.drain () in
      check (Alcotest.list Alcotest.string) "only the new trace survives"
        [ "fresh" ] (span_names spans);
      check Alcotest.bool "drain disables" false (Obs.Tracer.is_enabled ());
      check Alcotest.int "second drain empty" 0
        (List.length (Obs.Tracer.drain ())))

let test_tracer_multi_domain_tracks () =
  with_tracer (fun () ->
      Obs.Tracer.set_track 0;
      Obs.Tracer.with_span ~cat:"main" "m0" (fun () -> ());
      let worker track =
        Domain.spawn (fun () ->
            Obs.Tracer.set_track track;
            Obs.Tracer.with_span ~cat:"worker"
              (Printf.sprintf "w%d-a" track)
              (fun () ->
                 Obs.Tracer.with_span ~cat:"worker"
                   (Printf.sprintf "w%d-b" track)
                   (fun () -> ())))
      in
      let d1 = worker 1 in
      let d2 = worker 2 in
      Domain.join d1;
      Domain.join d2;
      let spans = Obs.Tracer.drain () in
      check (Alcotest.list Alcotest.string)
        "merged by (track, seq), not completion order"
        [ "m0"; "w1-a"; "w1-b"; "w2-a"; "w2-b" ]
        (span_names spans);
      List.iter
        (fun s ->
           let expect =
             if s.Obs.Span.sp_name = "m0" then 0
             else int_of_char s.Obs.Span.sp_name.[1] - int_of_char '0'
           in
           check Alcotest.int "span on its pinned track" expect
             s.Obs.Span.sp_track)
        spans)

(* --- Zero perturbation ----------------------------------------------------- *)

let test_tracing_preserves_results () =
  let run () =
    let device = Gpu.Device.create () in
    let w = Workloads.Registry.find "rodinia/nn" in
    w.Workloads.Workload.run device
      ~variant:w.Workloads.Workload.default_variant
  in
  let plain = run () in
  let traced, spans =
    with_tracer (fun () ->
        let r = run () in
        (r, Obs.Tracer.drain ()))
  in
  check Alcotest.string "same output digest"
    plain.Workloads.Workload.output_digest
    traced.Workloads.Workload.output_digest;
  check Alcotest.bool "same stats" true
    (plain.Workloads.Workload.stats = traced.Workloads.Workload.stats);
  let cats =
    List.sort_uniq compare (List.map (fun s -> s.Obs.Span.sp_cat) spans)
  in
  check Alcotest.bool "compile phases traced" true (List.mem "compile" cats);
  check Alcotest.bool "launches traced" true (List.mem "launch" cats)

(* --- Chrome export --------------------------------------------------------- *)

let test_export_chrome_shape () =
  let spans =
    with_tracer (fun () ->
        Obs.Tracer.with_span ~cat:"campaign" "campaign:t"
          ~attrs:[ ("jobs", Obs.Span.Int 2) ]
          (fun () ->
             Obs.Tracer.instant ~cat:"mark" "tick";
             Obs.Tracer.counter ~cat:"pool" "pool" [ ("queued", 1.0) ]);
        Obs.Tracer.drain ())
  in
  let doc =
    match Trace.Json.of_string (Obs.Export.to_string spans) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "export does not re-parse: %s" e
  in
  let events =
    match Trace.Json.member "traceEvents" doc with
    | Some (Trace.Json.List es) -> es
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let ph e =
    match Trace.Json.member "ph" e with
    | Some (Trace.Json.Str p) -> p
    | _ -> Alcotest.fail "event without ph"
  in
  let count p = List.length (List.filter (fun e -> ph e = p) events) in
  check Alcotest.int "one complete event" 1 (count "X");
  check Alcotest.int "one instant event" 1 (count "i");
  check Alcotest.int "one counter event" 1 (count "C");
  check Alcotest.bool "metadata track names present" true (count "M" >= 2);
  List.iter
    (fun e ->
       if ph e = "X" then begin
         (match Trace.Json.member "dur" e with
          | Some (Trace.Json.Int d) ->
            check Alcotest.bool "dur at least 1us" true (d >= 1)
          | _ -> Alcotest.fail "X event without dur");
         match Trace.Json.member "args" e with
         | Some (Trace.Json.Obj kvs) ->
           check Alcotest.bool "attrs exported as args" true
             (List.mem_assoc "jobs" kvs)
         | _ -> Alcotest.fail "X event lost its args"
       end)
    events;
  match Obs.Export.summary spans with
  | [ ("campaign", 1, _); ("mark", 1, _); ("pool", 1, _) ] -> ()
  | other ->
    Alcotest.failf "unexpected summary (%d categories)" (List.length other)

(* --- Progress meter -------------------------------------------------------- *)

let meter_output ~tty steps =
  let path = Filename.temp_file "obs_progress" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let m = Obs.Progress.create ~out:oc ~tty ~enabled:true ~total:4 () in
  for _ = 1 to steps do
    Obs.Progress.step m
  done;
  Obs.Progress.finish m;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (Obs.Progress.active m, s)

let test_progress_tty_gating () =
  let active, out = meter_output ~tty:false 3 in
  check Alcotest.bool "inactive off a tty" false active;
  check Alcotest.string "not a single byte written" "" out;
  let active, out = meter_output ~tty:true 2 in
  check Alcotest.bool "active on a tty" true active;
  check Alcotest.bool "draws with carriage returns" true
    (String.contains out '\r' && not (String.contains out '\n'));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "progress fraction drawn" true (contains out "[2/4]")

(* --- Pool introspection ----------------------------------------------------- *)

let test_pool_stats () =
  (* Inline pool: everything runs on the caller, one counter block. *)
  Par.Pool.with_pool ~domains:1 (fun p ->
      let futs = List.init 5 (fun i -> Par.Pool.submit p (fun () -> i)) in
      List.iteri (fun i f -> check Alcotest.int "result" i (Par.Pool.await f))
        futs;
      let s = Par.Pool.stats p in
      check Alcotest.int "inline size" 1 s.Par.Pool.s_size;
      check Alcotest.int "inline tasks counted" 5 s.Par.Pool.s_tasks;
      check Alcotest.int "nothing queued" 0 s.Par.Pool.s_queued;
      check Alcotest.int "one worker row" 1 (Array.length s.Par.Pool.s_workers));
  (* Real pool: per-worker counters sum to the aggregate. *)
  Par.Pool.with_pool ~domains:3 (fun p ->
      let futs = List.init 12 (fun i -> Par.Pool.submit p (fun () -> i * i)) in
      List.iteri
        (fun i f -> check Alcotest.int "result" (i * i) (Par.Pool.await f))
        futs;
      let s = Par.Pool.stats p in
      check Alcotest.int "pool size" 3 s.Par.Pool.s_size;
      check Alcotest.int "all tasks counted" 12 s.Par.Pool.s_tasks;
      check Alcotest.int "worker rows" 3 (Array.length s.Par.Pool.s_workers);
      check Alcotest.int "rows sum to aggregate tasks" s.Par.Pool.s_tasks
        (Array.fold_left (fun a w -> a + w.Par.Pool.ws_tasks) 0
           s.Par.Pool.s_workers))

let test_pool_register_telemetry () =
  Par.Pool.with_pool ~domains:2 (fun p ->
      let futs = List.init 4 (fun i -> Par.Pool.submit p (fun () -> i)) in
      List.iter (fun f -> ignore (Par.Pool.await f)) futs;
      let reg = Telemetry.Registry.create () in
      Par.Pool.register_telemetry p reg;
      let text = Telemetry.Export.prometheus reg in
      let contains needle =
        let nh = String.length text and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool "aggregate task counter exported" true
        (contains "sassi_pool_tasks_total 4");
      check Alcotest.bool "idle-wake counter exported" true
        (contains "sassi_pool_idle_wakes_total");
      check Alcotest.bool "queue-depth gauge exported" true
        (contains "sassi_pool_queue_depth");
      check Alcotest.bool "per-worker series labeled" true
        (contains "sassi_pool_worker_tasks_total{worker=\"0\"}");
      check Alcotest.bool "second worker labeled" true
        (contains "{worker=\"1\"}"))

let suite =
  [ ( "obs.clock",
      [ Alcotest.test_case "with_wall_time" `Quick test_clock_wall_time ] );
    ( "obs.tracer",
      [ Alcotest.test_case "disabled is inert" `Quick test_tracer_disabled;
        Alcotest.test_case "nesting and order" `Quick test_tracer_nesting;
        Alcotest.test_case "attrs and kinds" `Quick
          test_tracer_attrs_and_kinds;
        Alcotest.test_case "unfinished close" `Quick
          test_tracer_unfinished_span;
        Alcotest.test_case "re-enable resets" `Quick
          test_tracer_reenable_resets;
        Alcotest.test_case "multi-domain merge" `Quick
          test_tracer_multi_domain_tracks;
        Alcotest.test_case "zero perturbation" `Quick
          test_tracing_preserves_results
      ] );
    ( "obs.export",
      [ Alcotest.test_case "chrome trace shape" `Quick
          test_export_chrome_shape ] );
    ( "obs.progress",
      [ Alcotest.test_case "tty gating" `Quick test_progress_tty_gating ] );
    ( "obs.pool",
      [ Alcotest.test_case "stats snapshot" `Quick test_pool_stats;
        Alcotest.test_case "telemetry registration" `Quick
          test_pool_register_telemetry
      ] )
  ]
