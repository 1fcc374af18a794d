(* Writes the golden exact-counter table to stdout:
     dune exec test/golden/record_golden.exe > test/golden/counters.txt
   Regenerate it only for a deliberate change to the simulated machine
   model; a drift anywhere else is a bug the table exists to catch. *)

let () =
  print_endline
    "# Exact counters per job (test/golden/golden.ml); written by \
     record_golden.exe, compared by workloads.registry tests.";
  List.iter
    (fun j -> print_endline (Golden.line j (Golden.run j)))
    Golden.jobs
