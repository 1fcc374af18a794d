(* Tests for the telemetry subsystem: log2 histograms, the instrument
   registry and its exporters, the time series, the Trace.Json parser
   edge cases (NaN/infinity, control characters, non-ASCII escapes),
   run-manifest round-trips, regression diffing, and the
   zero-perturbation invariant of the device-side sink. *)

let check = Alcotest.check

let feq = Alcotest.float 1e-9

(* --- Hist ------------------------------------------------------------------ *)

let test_hist_buckets () =
  check Alcotest.(pair int int) "bucket 0 holds {0}" (0, 0)
    (Telemetry.Hist.bucket_bounds 0);
  check Alcotest.(pair int int) "bucket 1 holds {1}" (1, 1)
    (Telemetry.Hist.bucket_bounds 1);
  check Alcotest.(pair int int) "bucket 3 = [4,7]" (4, 7)
    (Telemetry.Hist.bucket_bounds 3);
  let h = Telemetry.Hist.create () in
  List.iter (Telemetry.Hist.observe h) [ 0; 1; 5; 5; 1000 ];
  check Alcotest.int "count" 5 (Telemetry.Hist.count h);
  check Alcotest.int "sum" 1011 (Telemetry.Hist.sum h);
  check Alcotest.int "min" 0 (Telemetry.Hist.min_value h);
  check Alcotest.int "max" 1000 (Telemetry.Hist.max_value h);
  let b = Telemetry.Hist.buckets h in
  check Alcotest.int "zero bucket" 1 b.(0);
  check Alcotest.int "ones bucket" 1 b.(1);
  check Alcotest.int "4..7 bucket" 2 b.(3);
  (* 1000 lands in [512, 1023] = bucket 10. *)
  check Alcotest.int "1000 bucket" 1 b.(10)

let test_hist_quantiles () =
  let h = Telemetry.Hist.create () in
  check feq "empty quantile" 0.0 (Telemetry.Hist.quantile h 0.5);
  for v = 1 to 1000 do
    Telemetry.Hist.observe h v
  done;
  let p50 = Telemetry.Hist.quantile h 0.5 in
  let p90 = Telemetry.Hist.quantile h 0.9 in
  let p99 = Telemetry.Hist.quantile h 0.99 in
  check Alcotest.bool "p50 near the median" true (p50 > 350.0 && p50 < 700.0);
  check Alcotest.bool "quantiles monotone" true (p50 <= p90 && p90 <= p99);
  check Alcotest.bool "p99 clamped to max" true (p99 <= 1000.0);
  (* The extremes reproduce exactly thanks to the min/max clamp. *)
  check feq "q0 is min" 1.0 (Telemetry.Hist.quantile h 0.0);
  check feq "q1 is max" 1000.0 (Telemetry.Hist.quantile h 1.0);
  let s = Telemetry.Hist.summarize h in
  check Alcotest.int "summary count" 1000 s.Telemetry.Hist.s_count;
  check feq "summary mean" 500.5 s.Telemetry.Hist.s_mean

let test_hist_edge () =
  let h = Telemetry.Hist.create () in
  Telemetry.Hist.observe h (-5);
  check Alcotest.int "negative clamps to 0" 0 (Telemetry.Hist.max_value h);
  check Alcotest.int "negative counted" 1 (Telemetry.Hist.count h);
  Telemetry.Hist.clear h;
  check Alcotest.int "clear" 0 (Telemetry.Hist.count h)

(* --- Registry & Prometheus exporter ---------------------------------------- *)

let test_registry () =
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter r ~help:"a counter" "reqs_total" in
  c := 41;
  incr c;
  Telemetry.Registry.gauge r ~help:"a gauge" "depth" (fun () -> 2.5);
  let h = Telemetry.Registry.histogram r ~help:"a hist" "lat" in
  Telemetry.Hist.observe h 3;
  (* Same name with different labels is a distinct series... *)
  Telemetry.Registry.gauge r
    ~labels:[ ("sm", "0") ]
    ~help:"a gauge" "depth"
    (fun () -> 1.0);
  (* ...but an exact (name, labels) duplicate is a registration bug. *)
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Telemetry.Registry: duplicate instrument depth")
    (fun () ->
      Telemetry.Registry.gauge r ~help:"again" "depth" (fun () -> 0.0));
  check
    Alcotest.(list string)
    "specs in registration order"
    [ "reqs_total"; "depth"; "lat"; "depth" ]
    (List.map
       (fun (s : Telemetry.Registry.spec) -> s.Telemetry.Registry.sp_name)
       (Telemetry.Registry.specs r));
  check Alcotest.int "counter readback" 42
    (match Telemetry.Registry.specs r with
     | { Telemetry.Registry.sp_instrument = Telemetry.Registry.Counter f; _ }
       :: _ ->
       f ()
     | _ -> -1)

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let test_prometheus () =
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter r ~help:"total requests" "reqs_total" in
  c := 7;
  Telemetry.Registry.gauge r ~help:"bad float" "weird-gauge" (fun () ->
      Float.nan);
  Telemetry.Registry.gauge r
    ~labels:[ ("path", "a\"b\nc\\d") ]
    ~help:"labeled" "labeled_gauge"
    (fun () -> 4.0);
  let h = Telemetry.Registry.histogram r ~help:"latency" "lat" in
  List.iter (Telemetry.Hist.observe h) [ 1; 2; 6 ];
  let text = Telemetry.Export.prometheus r in
  List.iter
    (fun line -> check Alcotest.bool ("has " ^ line) true (contains text line))
    [ "# HELP reqs_total total requests";
      "# TYPE reqs_total counter";
      "reqs_total 7";
      (* name sanitized to the Prometheus alphabet *)
      "weird_gauge NaN";
      (* label values escape quotes, newlines, backslashes *)
      "labeled_gauge{path=\"a\\\"b\\nc\\\\d\"} 4";
      "# TYPE lat histogram";
      (* cumulative power-of-two buckets *)
      "lat_bucket{le=\"1\"} 1";
      "lat_bucket{le=\"3\"} 2";
      "lat_bucket{le=\"7\"} 3";
      "lat_bucket{le=\"+Inf\"} 3";
      "lat_sum 9";
      "lat_count 3" ];
  check Alcotest.bool "no empty tail buckets" false
    (contains text "le=\"15\"")

(* --- Series ---------------------------------------------------------------- *)

let test_series () =
  Alcotest.check_raises "non-positive interval"
    (Invalid_argument "Telemetry.Series: interval must be positive")
    (fun () -> ignore (Telemetry.Series.create ~interval:0 [| "x" |]));
  let s = Telemetry.Series.create ~capacity:3 ~interval:10 [| "a"; "b" |] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Telemetry.Series.sample: column arity mismatch")
    (fun () -> Telemetry.Series.sample s ~cycle:0 ~sm:0 [| 1.0 |]);
  for i = 1 to 5 do
    Telemetry.Series.sample s ~cycle:(i * 10) ~sm:0
      [| float_of_int i; 0.0 |]
  done;
  check Alcotest.int "bounded" 3 (Telemetry.Series.length s);
  check Alcotest.int "dropped counted" 2 (Telemetry.Series.dropped s);
  (match Telemetry.Series.rows s with
   | first :: _ ->
     check Alcotest.int "oldest-first after drop" 30
       first.Telemetry.Series.r_cycle
   | [] -> Alcotest.fail "empty series")

(* --- Trace.Json parser edge cases ------------------------------------------ *)

let parse_ok s =
  match Trace.Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "parse %S: %s" s e)

let parse_err s =
  match Trace.Json.of_string s with
  | Ok _ -> Alcotest.fail (Printf.sprintf "parse %S: expected error" s)
  | Error _ -> ()

let test_json_non_finite () =
  (* JSON has no NaN/inf literals; the serializer maps them to null,
     and the round trip must stay parseable. *)
  check Alcotest.string "nan serializes as null" "null"
    (Trace.Json.to_string (Trace.Json.Float Float.nan));
  check Alcotest.string "inf serializes as null" "null"
    (Trace.Json.to_string (Trace.Json.Float Float.infinity));
  (match parse_ok (Trace.Json.to_string (Trace.Json.Float Float.nan)) with
   | Trace.Json.Null -> ()
   | _ -> Alcotest.fail "nan round trip not null");
  (* Number literal discrimination. *)
  (match parse_ok "3" with
   | Trace.Json.Int 3 -> ()
   | _ -> Alcotest.fail "3 should parse as Int");
  (match parse_ok "-2.5e2" with
   | Trace.Json.Float f -> check feq "float literal" (-250.0) f
   | _ -> Alcotest.fail "-2.5e2 should parse as Float")

let test_json_strings () =
  (* Control characters must leave as \u escapes and come back. *)
  let s = "a\x01b\tc\"d\\e" in
  let encoded = Trace.Json.to_string (Trace.Json.Str s) in
  check Alcotest.bool "control char escaped" true
    (contains encoded "\\u0001");
  (match parse_ok encoded with
   | Trace.Json.Str s' -> check Alcotest.string "round trip" s s'
   | _ -> Alcotest.fail "expected string");
  (* Raw (unescaped) control characters are invalid JSON. *)
  parse_err "\"a\x01b\"";
  (* Non-ASCII escapes decode to UTF-8, including surrogate pairs. *)
  (match parse_ok "\"caf\\u00e9\"" with
   | Trace.Json.Str s -> check Alcotest.string "BMP escape" "caf\xc3\xa9" s
   | _ -> Alcotest.fail "expected string");
  (match parse_ok "\"\\ud83d\\ude00\"" with
   | Trace.Json.Str s ->
     check Alcotest.string "surrogate pair" "\xf0\x9f\x98\x80" s
   | _ -> Alcotest.fail "expected string");
  (* UTF-8 passes through the serializer byte-for-byte. *)
  (match parse_ok (Trace.Json.to_string (Trace.Json.Str "caf\xc3\xa9")) with
   | Trace.Json.Str s -> check Alcotest.string "utf8 unharmed" "caf\xc3\xa9" s
   | _ -> Alcotest.fail "expected string")

let test_json_errors () =
  parse_err "";
  parse_err "{";
  parse_err "[1,]";
  parse_err "{\"a\":}";
  parse_err "tru";
  parse_err "1 2";
  (* trailing garbage *)
  parse_err "\"unterminated";
  (match parse_ok "{\"a\": [1, {\"b\": null}], \"c\": true}" with
   | Trace.Json.Obj kvs ->
     check Alcotest.int "object arity" 2 (List.length kvs)
   | _ -> Alcotest.fail "expected object")

(* --- Manifest round trip ---------------------------------------------------- *)

let sample_manifest () =
  let h = Telemetry.Hist.create () in
  List.iter (Telemetry.Hist.observe h) [ 2; 4; 9 ];
  { Telemetry.Manifest.m_workload = "sgemm";
    m_variant = "small";
    m_instrument = "none";
    m_seed = 42;
    m_argv = [ "sassi_run"; "run"; "sgemm, with commas \xc3\xa9" ];
    m_wall_time_s = 1.25;
    m_build = Telemetry.Build_info.collect ();
    m_config = [ ("num_sms", 8); ("l1_bytes", 16384) ];
    m_counters = [ ("cycles", 1000); ("l1_hits", 7) ];
    m_metrics = [ ("ipc", 3.5); ("undefined_metric", Float.nan) ];
    m_histograms = [ ("lat", Telemetry.Hist.summarize h) ] }

let test_manifest_roundtrip () =
  let m = sample_manifest () in
  let path = Filename.temp_file "manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.Manifest.write path m;
      match Telemetry.Manifest.read path with
      | Error e -> Alcotest.fail e
      | Ok m' ->
        check Alcotest.string "workload" m.Telemetry.Manifest.m_workload
          m'.Telemetry.Manifest.m_workload;
        check Alcotest.int "seed" 42 m'.Telemetry.Manifest.m_seed;
        check
          Alcotest.(list string)
          "argv with commas and utf8" m.Telemetry.Manifest.m_argv
          m'.Telemetry.Manifest.m_argv;
        check feq "wall time" 1.25 m'.Telemetry.Manifest.m_wall_time_s;
        check
          Alcotest.(list (pair string int))
          "config" m.Telemetry.Manifest.m_config
          m'.Telemetry.Manifest.m_config;
        check
          Alcotest.(list (pair string int))
          "counters" m.Telemetry.Manifest.m_counters
          m'.Telemetry.Manifest.m_counters;
        check feq "ipc metric" 3.5
          (List.assoc "ipc" m'.Telemetry.Manifest.m_metrics);
        (* NaN writes as null and reads back as NaN. *)
        check Alcotest.bool "nan metric survives" true
          (Float.is_nan
             (List.assoc "undefined_metric"
                m'.Telemetry.Manifest.m_metrics));
        (match m'.Telemetry.Manifest.m_histograms with
         | [ (n, s) ] ->
           check Alcotest.string "hist name" "lat" n;
           check Alcotest.int "hist count" 3 s.Telemetry.Hist.s_count;
           check Alcotest.int "hist sum" 15 s.Telemetry.Hist.s_sum
         | _ -> Alcotest.fail "expected one histogram");
        check Alcotest.string "build profile round trip"
          m.Telemetry.Manifest.m_build.Telemetry.Build_info.bi_profile
          m'.Telemetry.Manifest.m_build.Telemetry.Build_info.bi_profile)

let test_manifest_rejects () =
  (match Telemetry.Manifest.of_string "{\"schema\": \"bogus/9\"}" with
   | Error e ->
     check Alcotest.bool "mentions schema" true (contains e "schema")
   | Ok _ -> Alcotest.fail "bogus schema accepted");
  (match Telemetry.Manifest.of_string "[1,2]" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "non-object accepted");
  match Telemetry.Manifest.of_string "{nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid json accepted"

(* --- Compare ---------------------------------------------------------------- *)

let test_compare_direction () =
  check Alcotest.bool "cycles lower better" true
    (Telemetry.Compare.direction "cycles" = Telemetry.Compare.Lower_better);
  check Alcotest.bool "ipc higher better" true
    (Telemetry.Compare.direction "ipc" = Telemetry.Compare.Higher_better);
  check Alcotest.bool "wall time neutral" true
    (Telemetry.Compare.direction "wall_time_s" = Telemetry.Compare.Neutral)

let test_compare_identical () =
  let m = sample_manifest () in
  let r = Telemetry.Compare.diff m m in
  check Alcotest.int "no regressions" 0
    (List.length (Telemetry.Compare.regressions r));
  check Alcotest.int "no improvements" 0
    (List.length (Telemetry.Compare.improvements r))

let test_compare_regression () =
  let a = sample_manifest () in
  let b =
    { a with
      Telemetry.Manifest.m_counters = [ ("cycles", 1100); ("l1_hits", 7) ];
      m_metrics = [ ("ipc", 3.0); ("undefined_metric", Float.nan) ];
      (* wall time moves a lot but must never gate *)
      m_wall_time_s = 10.0 }
  in
  let r = Telemetry.Compare.diff ~threshold:5.0 a b in
  let regs = Telemetry.Compare.regressions r in
  let names = List.map (fun c -> c.Telemetry.Compare.c_name) regs in
  check Alcotest.bool "cycles regressed" true (List.mem "cycles" names);
  check Alcotest.bool "ipc regressed" true (List.mem "ipc" names);
  check Alcotest.bool "wall time never a regression" false
    (List.mem "wall_time_s" names);
  (* Within threshold: a 10% cycle bump is invisible at 15%. *)
  let r2 = Telemetry.Compare.diff ~threshold:15.0 a b in
  check Alcotest.bool "threshold respected" false
    (List.mem "cycles"
       (List.map
          (fun c -> c.Telemetry.Compare.c_name)
          (Telemetry.Compare.regressions r2)));
  let rendered = Telemetry.Compare.render r in
  check Alcotest.bool "render lists regression" true
    (contains rendered "REGRESSION");
  check Alcotest.bool "render shows provenance" true
    (contains rendered "sgemm/small")

(* --- Device integration ------------------------------------------------------ *)

let run_workload ?telemetry name variant =
  let w = Workloads.Registry.find name in
  let device = Gpu.Device.create () in
  let t =
    match telemetry with
    | Some interval -> Some (Cupti.Telemetry.enable ~interval device)
    | None -> None
  in
  let r = w.Workloads.Workload.run device ~variant in
  (match t with Some _ -> Cupti.Telemetry.disable device | None -> ());
  (r, t)

let test_stats_bit_identical () =
  let base, _ = run_workload "parboil/spmv" "small" in
  let telem, t = run_workload ~telemetry:500 "parboil/spmv" "small" in
  check
    Alcotest.(list (pair string int))
    "stats identical with telemetry installed"
    (Gpu.Stats.to_assoc base.Workloads.Workload.stats)
    (Gpu.Stats.to_assoc telem.Workloads.Workload.stats);
  check Alcotest.string "output identical"
    base.Workloads.Workload.output_digest
    telem.Workloads.Workload.output_digest;
  let t = Option.get t in
  let hists = Cupti.Telemetry.histograms t in
  let count name = (List.assoc name hists).Telemetry.Hist.s_count in
  check Alcotest.bool "memory latencies observed" true
    (count "sassi_mem_request_latency_cycles" > 0);
  check Alcotest.int "one transaction count per access"
    (count "sassi_mem_request_latency_cycles")
    (count "sassi_mem_transactions_per_access");
  check Alcotest.bool "branch lanes observed" true
    (count "sassi_branch_active_lanes" > 0);
  check Alcotest.bool "series sampled" true
    (Telemetry.Series.length (Cupti.Telemetry.series t) > 0);
  (* Gauges land in sane ranges. *)
  List.iter
    (fun (row : Telemetry.Series.row) ->
       let occ = row.Telemetry.Series.r_values.(0) in
       let l1 = row.Telemetry.Series.r_values.(2) in
       check Alcotest.bool "occupancy in [0,1]" true (occ >= 0.0 && occ <= 1.0);
       check Alcotest.bool "l1 hit rate in [0,1]" true (l1 >= 0.0 && l1 <= 1.0))
    (Telemetry.Series.rows (Cupti.Telemetry.series t))

let test_handler_sites () =
  let w = Workloads.Registry.find "parboil/sgemm" in
  let device = Gpu.Device.create () in
  let t = Cupti.Telemetry.enable device in
  let r =
    Sassi.Runtime.with_instrumentation device
      [ (Sassi.Select.before [ Sassi.Select.Memory_ops ] [], Sassi.Handler.noop) ]
      (fun _ -> w.Workloads.Workload.run device ~variant:"small")
  in
  Cupti.Telemetry.disable device;
  let sites = Cupti.Telemetry.handler_sites t in
  check Alcotest.bool "at least one site" true (List.length sites > 0);
  let total = List.fold_left (fun a (_, c) -> a + c) 0 sites in
  check Alcotest.int "site counts sum to hcalls"
    r.Workloads.Workload.stats.Gpu.Stats.hcalls total;
  check Alcotest.int "overhead histogram count matches"
    r.Workloads.Workload.stats.Gpu.Stats.hcalls
    (List.assoc "sassi_handler_overhead_cycles"
       (Cupti.Telemetry.histograms t)).Telemetry.Hist.s_count;
  check Alcotest.int "registry counter agrees" total
    (List.assoc "sassi_handler_invocations_total"
       (Cupti.Telemetry.counters t))

let test_enable_guards () =
  let device = Gpu.Device.create () in
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Telemetry.enable: interval must be positive")
    (fun () -> ignore (Cupti.Telemetry.enable ~interval:0 device));
  let _ = Cupti.Telemetry.enable device in
  Alcotest.check_raises "double enable"
    (Invalid_argument "Telemetry.enable: telemetry already enabled")
    (fun () -> ignore (Cupti.Telemetry.enable device));
  Cupti.Telemetry.disable device;
  check Alcotest.bool "disabled" false (Cupti.Telemetry.enabled device)

(* --- Snapshot consistency under concurrent observation ------------------ *)

(* Hist.copy / Registry.snapshot must freeze one point in time: a copy
   taken while another thread observes never moves, and every rendered
   exposition is internally consistent (the +Inf bucket, _count, and
   the bucket sum all agree) no matter how hot the writers are. The
   old exporter read buckets, +Inf, sum, and count at four different
   instants — this is the regression test for that race. *)
let test_snapshot_consistent_under_writes () =
  let reg = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter reg ~help:"c" "snap_counter" in
  let h = Telemetry.Registry.histogram reg ~help:"h" "snap_hist" in
  let stop = ref false in
  let writer =
    Thread.create
      (fun () ->
         let i = ref 0 in
         while not !stop do
           incr c;
           Telemetry.Hist.observe h (!i mod 4096);
           incr i;
           if !i mod 64 = 0 then Thread.yield ()
         done)
      ()
  in
  let parse_exposition body =
    (* (value of snap_hist_count, value of the +Inf bucket,
       sum of all finite bucket increments as read from the text) *)
    let lines = String.split_on_char '\n' body in
    let value line =
      match String.rindex_opt line ' ' with
      | Some i ->
        float_of_string (String.sub line (i + 1) (String.length line - i - 1))
      | None -> nan
    in
    let find prefix =
      List.find
        (fun l ->
           String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix)
        lines
    in
    (value (find "snap_hist_count"),
     value (find "snap_hist_bucket{le=\"+Inf\"}"))
  in
  for _ = 1 to 50 do
    let count, inf = parse_exposition (Telemetry.Export.prometheus reg) in
    Alcotest.(check (float 0.0))
      "+Inf bucket equals _count in every exposition" count inf
  done;
  (* A snapshot is frozen: later observes never move it. *)
  let snap = Telemetry.Registry.snapshot reg in
  let rendered_before = Telemetry.Export.prometheus snap in
  Thread.delay 0.01;
  let rendered_after = Telemetry.Export.prometheus snap in
  Alcotest.(check string) "snapshot does not move" rendered_before
    rendered_after;
  stop := true;
  Thread.join writer;
  (* Hist.copy is independent in both directions. *)
  let live = Telemetry.Hist.create () in
  Telemetry.Hist.observe live 5;
  let frozen = Telemetry.Hist.copy live in
  Telemetry.Hist.observe live 6;
  Alcotest.(check int) "copy unaffected by later observes" 1
    (Telemetry.Hist.count frozen);
  Alcotest.(check int) "original keeps counting" 2
    (Telemetry.Hist.count live)

let suite =
  [ ( "telemetry",
      [ Alcotest.test_case "hist buckets" `Quick test_hist_buckets;
        Alcotest.test_case "hist quantiles" `Quick test_hist_quantiles;
        Alcotest.test_case "hist edge cases" `Quick test_hist_edge;
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "prometheus exposition" `Quick test_prometheus;
        Alcotest.test_case "series" `Quick test_series;
        Alcotest.test_case "json non-finite" `Quick test_json_non_finite;
        Alcotest.test_case "json strings" `Quick test_json_strings;
        Alcotest.test_case "json errors" `Quick test_json_errors;
        Alcotest.test_case "manifest round trip" `Quick
          test_manifest_roundtrip;
        Alcotest.test_case "manifest rejects" `Quick test_manifest_rejects;
        Alcotest.test_case "compare direction" `Quick test_compare_direction;
        Alcotest.test_case "compare identical" `Quick test_compare_identical;
        Alcotest.test_case "compare regression" `Quick
          test_compare_regression;
        Alcotest.test_case "stats bit-identical" `Quick
          test_stats_bit_identical;
        Alcotest.test_case "handler sites" `Quick test_handler_sites;
        Alcotest.test_case "enable guards" `Quick test_enable_guards;
        Alcotest.test_case "snapshot consistent under concurrent writes"
          `Quick test_snapshot_consistent_under_writes ] ) ]
