(* Pins the exit-code contract of `sassi_run trace-summary`: 0 for a
   loadable Chrome trace, 1 for a shape problem (valid JSON that is
   not a trace), 2 for a parse failure. The Makefile's host-trace gate
   and external wrappers key off exactly these codes, so a renumbering
   must fail loudly here. The same holds for `lint`, and `run -i` is
   driven once per instrumentation kind. *)

let check = Alcotest.check

(* The test binary runs from _build/default/test; the driver is a
   declared dep one directory over. *)
let exe = Filename.concat ".." (Filename.concat "bin" "sassi_run.exe")

let with_file contents f =
  let path = Filename.temp_file "sassi_cli_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let oc = open_out path in
       output_string oc contents;
       close_out oc;
       f path)

let summary_exit path =
  Sys.command
    (Filename.quote_command exe ~stdout:Filename.null ~stderr:Filename.null
       [ "trace-summary"; path ])

let test_exit_0_loadable_trace () =
  with_file
    "{\"traceEvents\":[{\"ph\":\"B\",\"tid\":1,\"name\":\"a\",\"ts\":0},\
     {\"ph\":\"E\",\"tid\":1,\"ts\":5},{\"ph\":\"M\",\"tid\":0}]}"
    (fun path -> check Alcotest.int "loadable trace" 0 (summary_exit path))

let test_exit_1_shape_problem () =
  with_file "{\"events\": []}" (fun path ->
      check Alcotest.int "no traceEvents list" 1 (summary_exit path));
  with_file "{\"traceEvents\":[{\"name\":\"missing ph and tid\"}]}"
    (fun path ->
       check Alcotest.int "events missing ph/tid" 1 (summary_exit path))

let test_exit_2_parse_failure () =
  with_file "this is not JSON {" (fun path ->
      check Alcotest.int "unparseable file" 2 (summary_exit path));
  check Alcotest.int "missing file" 2
    (summary_exit "/nonexistent/sassi-trace.json")

(* The same contract for `sassi_run lint`: 0 when clean, 1 on
   findings or a race-baseline regression, 2 on usage/parse errors.
   The regression leg round-trips the baseline format: write it, bump
   a count, require exit 1, then waive the kernel and require 0. *)

let lint_exit args =
  Sys.command
    (Filename.quote_command exe ~stdout:Filename.null ~stderr:Filename.null
       ("lint" :: args))

let test_lint_exit_0_clean () =
  check Alcotest.int "clean workload" 0 (lint_exit [ "parboil/sgemm" ])

let test_lint_exit_1_regression () =
  let tmp = Filename.temp_file "sassi_cli_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
       check Alcotest.int "baseline write" 0
         (lint_exit [ "parboil/sgemm"; "--write-race-baseline"; tmp ]);
       (* Inflate every proven-safe count: the rerun now "lost" a
          proven-safe site per kernel and must exit 1. *)
       (match Trace.Json.parse_file tmp with
        | Ok (Trace.Json.Obj fields) ->
          let bump = function
            | ("safe", Trace.Json.Int n) -> ("safe", Trace.Json.Int (n + 1))
            | f -> f
          in
          let patched =
            List.map
              (function
                | ("kernels", Trace.Json.Obj ks) ->
                  ( "kernels",
                    Trace.Json.Obj
                      (List.map
                         (function
                           | key, Trace.Json.Obj o ->
                             (key, Trace.Json.Obj (List.map bump o))
                           | kv -> kv)
                         ks) )
                | kv -> kv)
              fields
          in
          Trace.Json.write_file tmp (Trace.Json.Obj patched)
        | _ -> Alcotest.fail "baseline did not parse back");
       check Alcotest.int "regression detected" 1
         (lint_exit [ "parboil/sgemm"; "--race-baseline"; tmp ]);
       let waive = Filename.temp_file "sassi_cli_waive" ".txt" in
       Fun.protect
         ~finally:(fun () -> try Sys.remove waive with Sys_error _ -> ())
         (fun () ->
            let oc = open_out waive in
            output_string oc "# deliberate, for the exit-code test\nsgemm\n";
            close_out oc;
            check Alcotest.int "waiver suppresses the regression" 0
              (lint_exit
                 [ "parboil/sgemm"; "--race-baseline"; tmp; "--race-waivers";
                   waive ])))

let test_lint_exit_2_usage () =
  check Alcotest.int "unknown workload" 2 (lint_exit [ "no-such-workload" ]);
  with_file "this is not JSON {" (fun path ->
      check Alcotest.int "malformed baseline" 2
        (lint_exit [ "parboil/sgemm"; "--race-baseline"; path ]));
  check Alcotest.int "missing baseline file" 2
    (lint_exit [ "parboil/sgemm"; "--race-baseline"; "/nonexistent/b.json" ])

(* `sassi_run run -i KIND` for every kind: exit 0, the output digest,
   and exactly the kind's own summary line ("none" and "stub" print
   none of them). *)

let summary_lines =
  [ ("opcode", "opcode histogram:");
    ("branch", "branches:");
    ("memdiv", "unique-lines PMF:");
    ("value", "value profile:");
    ("blocks", "kernel entries");
    ("trace", "traced [0-9]+ global warp accesses") ]

let test_run_instrumented () =
  List.iter
    (fun kind ->
       let out = Filename.temp_file "sassi_cli_run" ".txt" in
       Fun.protect
         ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
         (fun () ->
            check Alcotest.int (kind ^ ": exit") 0
              (Sys.command
                 (Filename.quote_command exe ~stdout:out
                    ~stderr:Filename.null
                    [ "run"; "parboil/spmv"; "--variant"; "small"; "-i";
                      kind ]));
            let text = In_channel.with_open_bin out In_channel.input_all in
            let has re =
              try
                ignore (Str.search_forward (Str.regexp ("^" ^ re)) text 0);
                true
              with Not_found -> false
            in
            check Alcotest.bool (kind ^ ": output digest") true
              (has "output digest: ");
            check
              Alcotest.(list string)
              (kind ^ ": summary lines")
              (List.filter_map
                 (fun (k, re) -> if k = kind then Some re else None)
                 summary_lines)
              (List.filter_map
                 (fun (_, re) -> if has re then Some re else None)
                 summary_lines)))
    [ "none"; "opcode"; "branch"; "memdiv"; "value"; "blocks"; "trace";
      "stub" ]

let suite =
  [ ("cli.trace-summary",
     [ Alcotest.test_case "exit 0 on loadable trace" `Quick
         test_exit_0_loadable_trace;
       Alcotest.test_case "exit 1 on shape problem" `Quick
         test_exit_1_shape_problem;
       Alcotest.test_case "exit 2 on parse failure" `Quick
         test_exit_2_parse_failure ]);
    ("cli.lint",
     [ Alcotest.test_case "exit 0 on clean workload" `Quick
         test_lint_exit_0_clean;
       Alcotest.test_case "exit 1 on baseline regression" `Slow
         test_lint_exit_1_regression;
       Alcotest.test_case "exit 2 on usage errors" `Quick
         test_lint_exit_2_usage ]);
    ("cli.run",
     [ Alcotest.test_case "every instrument kind" `Quick
         test_run_instrumented ]) ]
