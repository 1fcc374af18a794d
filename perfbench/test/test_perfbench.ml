(* Tests for the benchmark's own arithmetic (perfbench/measure.ml):
   percentile selection and the ten-samples-beyond refusal, span self
   time, VmHWM parsing, and failure counting. *)

let check = Alcotest.check

let feq = Alcotest.float 1e-9

(* --- percentiles ------------------------------------------------------------ *)

let test_nearest_rank () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  check feq "median of odd count" 3. (Measure.median xs);
  check feq "median of even count is the lower middle" 2.
    (Measure.median [| 4.; 1.; 3.; 2. |]);
  check feq "p100 is the maximum" 5. (Measure.percentile xs 100.);
  check feq "p1 is the minimum" 1. (Measure.percentile xs 1.);
  check feq "p40 of five" 2. (Measure.percentile xs 40.);
  check feq "input order does not matter" 3. (Measure.median [| 3.; 5.; 1.; 4.; 2. |]);
  check Alcotest.bool "input not reordered" true (xs = [| 5.; 1.; 4.; 2.; 3. |]);
  Alcotest.check_raises "empty input" (Invalid_argument "Measure.percentile: no samples")
    (fun () -> ignore (Measure.median [||]))

let test_p90_needs_100 () =
  let samples n = Array.init n (fun i -> float_of_int (i + 1)) in
  (match Measure.tail_percentile (samples 100) 90. with
   | Ok v -> check feq "p90 of 1..100 leaves 10 beyond" 90. v
   | Error e -> Alcotest.fail e);
  (match Measure.tail_percentile (samples 99) 90. with
   | Ok _ -> Alcotest.fail "p90 of 99 samples must be refused"
   | Error _ -> ());
  (match Measure.tail_percentile (samples 0) 90. with
   | Ok _ -> Alcotest.fail "no samples must be refused"
   | Error _ -> ());
  match Measure.tail_percentile (samples 1000) 99. with
  | Ok v -> check feq "p99 of 1000" 990. v
  | Error e -> Alcotest.fail e

(* --- self time --------------------------------------------------------------- *)

let span ?(track = 0) ?(seq = 0) name ts dur =
  { Obs.Span.sp_track = track; sp_seq = seq; sp_name = name; sp_cat = "t";
    sp_ts_us = ts; sp_depth = 0; sp_kind = Obs.Span.Complete dur; sp_attrs = [] }

let selfs spans =
  List.map (fun (s, us) -> (s.Obs.Span.sp_name, us)) (Measure.self_times spans)

let pairs = Alcotest.(list (pair string int))

let test_self_nested_siblings () =
  (* job [0,100) holds launch [10,60) which holds inject [20,30), and a
     sibling compile [70,80) *)
  let spans =
    [ span "job" 0 100; span ~seq:1 "launch" 10 50; span ~seq:2 "inject" 20 10;
      span ~seq:3 "compile" 70 10 ]
  in
  check pairs "only direct children are subtracted"
    [ ("job", 40); ("launch", 40); ("inject", 10); ("compile", 10) ]
    (selfs spans)

let test_self_across_tracks () =
  (* a worker-track span inside the main span's interval is not its child *)
  let spans =
    [ span ~track:0 "request" 0 100; span ~track:1 "job" 10 80;
      span ~track:1 ~seq:1 "launch" 20 30; span ~track:0 ~seq:1 "poll" 50 5 ]
  in
  check pairs "coverage stays on its own track"
    [ ("request", 95); ("job", 50); ("launch", 30); ("poll", 5) ]
    (selfs spans)

let test_self_edges () =
  let spans =
    [ span "a" 0 10; span ~seq:1 "b" 10 10;  (* touching siblings *)
      span ~seq:2 "c" 30 10; span ~seq:3 "d" 35 20;  (* d overruns c *)
      { (span ~seq:4 "mark" 5 0) with Obs.Span.sp_kind = Obs.Span.Instant } ]
  in
  check pairs "touching spans are siblings; overrun coverage is clipped"
    [ ("a", 10); ("b", 10); ("c", 5); ("d", 20) ]
    (selfs spans)

(* --- VmHWM ------------------------------------------------------------------- *)

let status =
  "Name:\tbench.exe\nVmPeak:\t  500000 kB\nVmHWM:\t  290252 kB\nVmRSS:\t  280000 kB\n"

let test_vm_hwm () =
  check Alcotest.(option int) "parsed" (Some 290252) (Measure.vm_hwm_kib status);
  check Alcotest.(option int) "missing" None (Measure.vm_hwm_kib "Name:\tx\n");
  check Alcotest.(option int) "malformed" None (Measure.vm_hwm_kib "VmHWM:\t lots kB\n");
  check Alcotest.(option int) "wrong unit" None (Measure.vm_hwm_kib "VmHWM:\t 12 MB\n");
  check Alcotest.(option int) "not a prefix match" None (Measure.vm_hwm_kib "XVmHWM:\t 1 kB\n");
  match Measure.peak_rss_mib () with
  | Some mib -> check Alcotest.bool "this process has a peak" true (mib > 0.)
  | None -> ()  (* no procfs on this platform *)

(* --- failure counting ---------------------------------------------------------- *)

let test_tally () =
  let t =
    List.fold_left Measure.record Measure.empty
      [ Measure.Passed; Measure.Failed "wrong digest"; Measure.Passed;
        Measure.Failed "HTTP 500" ]
  in
  check Alcotest.int "attempted" 4 t.Measure.attempted;
  check Alcotest.int "failed" 2 t.Measure.failed;
  check Alcotest.(list string) "messages in order" [ "wrong digest"; "HTTP 500" ]
    t.Measure.errors;
  let late = Measure.reject t "manifest differs" in
  check Alcotest.int "a late rejection is no new attempt" 4 late.Measure.attempted;
  check Alcotest.int "late rejection fails" 3 late.Measure.failed;
  let many =
    List.fold_left Measure.record Measure.empty
      (List.init 20 (fun _ -> Measure.Failed "x"))
  in
  check Alcotest.int "every failure counted" 20 many.Measure.failed;
  check Alcotest.int "messages capped" 8 (List.length many.Measure.errors)

let () =
  Alcotest.run "perfbench"
    [ ( "percentile",
        [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "p90 needs 100 samples" `Quick test_p90_needs_100 ] );
      ( "self time",
        [ Alcotest.test_case "nested and siblings" `Quick test_self_nested_siblings;
          Alcotest.test_case "across tracks" `Quick test_self_across_tracks;
          Alcotest.test_case "edges" `Quick test_self_edges ] );
      ("memory", [ Alcotest.test_case "VmHWM" `Quick test_vm_hwm ]);
      ("failures", [ Alcotest.test_case "tally" `Quick test_tally ]) ]
