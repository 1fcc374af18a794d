(* Aggregates all suites into one alcotest runner. *)

let () = Alcotest.run "sassi-repro" (Test_sass.suite @ Test_gpu.suite @ Test_kernel.suite @ Test_sassi.suite @ Test_handlers.suite @ Test_workloads.suite @ Test_structural.suite @ Test_properties.suite @ Test_misc.suite @ Test_trace.suite @ Test_workload_refs.suite @ Test_prof.suite @ Test_telemetry.suite @ Test_analysis.suite @ Test_par.suite @ Test_obs.suite @ Test_serve.suite @ Test_cli.suite)
