(* Tests for the parallel execution engine: splittable seeds, the
   domain pool (ordered joins, FIFO start order, exception propagation,
   shutdown), deterministic reduction, campaign job manifests, and the
   headline contract — parallel campaign results bit-identical to
   sequential ones. *)

let check = Alcotest.check

(* --- Seed ------------------------------------------------------------------ *)

let test_seed_split () =
  (* Pure function of (seed, index). *)
  check Alcotest.int "stable" (Par.Seed.split ~seed:2025 ~index:7)
    (Par.Seed.split ~seed:2025 ~index:7);
  let seeds = List.init 64 (fun i -> Par.Seed.split ~seed:2025 ~index:i) in
  let distinct = List.sort_uniq compare seeds in
  check Alcotest.int "64 indices give 64 distinct seeds" 64
    (List.length distinct);
  List.iter
    (fun s -> check Alcotest.bool "non-negative" true (s >= 0))
    seeds;
  check Alcotest.bool "different parents diverge" true
    (Par.Seed.split ~seed:1 ~index:0 <> Par.Seed.split ~seed:2 ~index:0);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Seed.split: negative index") (fun () ->
        ignore (Par.Seed.split ~seed:1 ~index:(-1)))

(* --- Pool ------------------------------------------------------------------ *)

let test_pool_map_ordered () =
  List.iter
    (fun domains ->
       Par.Pool.with_pool ~domains (fun p ->
           let xs = Array.init 50 (fun i -> i) in
           let ys = Par.Pool.map_ordered p (fun i -> i * i) xs in
           check
             Alcotest.(array int)
             (Printf.sprintf "squares in order (domains=%d)" domains)
             (Array.init 50 (fun i -> i * i))
             ys))
    [ 1; 2; 4 ]

let test_pool_iter_ordered_streams_in_order () =
  Par.Pool.with_pool ~domains:3 (fun p ->
      let seen = ref [] in
      let tasks = Array.init 20 (fun i -> fun () -> i) in
      Par.Pool.iter_ordered p tasks ~on_result:(fun i v ->
          check Alcotest.int "index matches value" i v;
          seen := i :: !seen);
      check
        Alcotest.(list int)
        "delivered 0..19 in order"
        (List.init 20 (fun i -> i))
        (List.rev !seen))

exception Boom of int

let test_pool_exception_propagates () =
  Par.Pool.with_pool ~domains:2 (fun p ->
      let f = Par.Pool.submit p (fun () -> raise (Boom 42)) in
      (match Par.Pool.await f with
       | exception Boom 42 -> ()
       | exception e ->
         Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
       | _ -> Alcotest.fail "expected Boom");
      (* The failed task must not wedge the workers: the pool still
         runs new tasks afterwards. *)
      let g = Par.Pool.submit p (fun () -> 7) in
      check Alcotest.int "pool alive after task failure" 7 (Par.Pool.await g))

(* Tasks start in submission order: with both workers held inside
   their first task, the two started tasks must be the two oldest.
   Each task records its index, then blocks until released. *)
let test_pool_fifo_start_order () =
  Par.Pool.with_pool ~domains:2 (fun p ->
      let lock = Mutex.create () and cond = Condition.create () in
      let started = ref [] and released = ref false in
      let task i () =
        Mutex.protect lock (fun () ->
            started := i :: !started;
            Condition.broadcast cond;
            while not !released do
              Condition.wait cond lock
            done)
      in
      let futures = List.init 8 (fun i -> Par.Pool.submit p (task i)) in
      let first_two =
        Mutex.protect lock (fun () ->
            while List.length !started < 2 do
              Condition.wait cond lock
            done;
            let first = List.sort compare !started in
            released := true;
            Condition.broadcast cond;
            first)
      in
      check Alcotest.(list int) "first tasks started" [ 0; 1 ] first_two;
      List.iter Par.Pool.await futures;
      check
        Alcotest.(list int)
        "every task ran exactly once"
        (List.init 8 Fun.id)
        (List.sort compare !started))

let test_pool_shutdown () =
  let p = Par.Pool.create ~domains:2 () in
  let f = Par.Pool.submit p (fun () -> 3) in
  Par.Pool.shutdown p;
  (* Queued work still completes... *)
  check Alcotest.int "queued task ran" 3 (Par.Pool.await f);
  (* ...shutdown is idempotent... *)
  Par.Pool.shutdown p;
  (* ...and new submissions are refused. *)
  (match Par.Pool.submit p (fun () -> 0) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "submit after shutdown must raise")

let test_pool_bad_domains () =
  (match Par.Pool.create ~domains:0 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "domains=0 must raise");
  match Par.Pool.create ~domains:(Par.Pool.max_domains + 1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains>max must raise"

(* --- Reduce ---------------------------------------------------------------- *)

let test_reduce_counters () =
  let merged =
    Par.Reduce.counters
      [| [ ("a", 1); ("b", 2) ]; [ ("b", 3); ("c", 4) ]; [ ("a", 5) ] |]
  in
  check
    Alcotest.(list (pair string int))
    "name-wise sums, first-appearance order"
    [ ("a", 6); ("b", 5); ("c", 4) ]
    merged

let test_reduce_stats () =
  let s1 = Gpu.Stats.create () in
  let s2 = Gpu.Stats.create () in
  s1.Gpu.Stats.cycles <- 10;
  s2.Gpu.Stats.cycles <- 32;
  let m = Par.Reduce.stats [| s1; s2 |] in
  check Alcotest.int "cycles summed" 42 m.Gpu.Stats.cycles;
  (* The merge must not alias its inputs. *)
  s1.Gpu.Stats.cycles <- 110;
  check Alcotest.int "merge unaffected by later input mutation" 42
    m.Gpu.Stats.cycles

(* --- Campaign manifests ---------------------------------------------------- *)

let test_campaign_roundtrip () =
  let c =
    Par.Campaign.make ~name:"rt" ~seed:7
      [ Par.Campaign.job ~variant:"small" ~kind:Par.Campaign.Inject
          ~injections:9 "parboil/sgemm";
        Par.Campaign.job ~seed:123 "rodinia/nn" ]
  in
  (match Par.Campaign.of_json (Par.Campaign.to_json c) with
   | Error e -> Alcotest.failf "round-trip failed: %s" e
   | Ok c' ->
     check Alcotest.bool "round-trips structurally" true (c = c'));
  (* Pinned seeds win; unpinned ones split from (campaign seed, index). *)
  check Alcotest.int "split seed for job 0"
    (Par.Seed.split ~seed:7 ~index:0)
    (Par.Campaign.job_seed c ~index:0);
  check Alcotest.int "pinned seed for job 1" 123
    (Par.Campaign.job_seed c ~index:1);
  match Par.Campaign.of_string "{\"schema\":\"bogus/9\",\"jobs\":[]}" with
  | Ok _ -> Alcotest.fail "bad schema accepted"
  | Error _ -> ()

(* --- Parallel-vs-sequential determinism ------------------------------------ *)

(* The headline contract: an instrumented workload run fanned out over
   any pool width yields bit-identical stats to the sequential run. *)
let test_parallel_run_determinism () =
  let run w variant () =
    let device = Gpu.Device.create () in
    let r = w.Workloads.Workload.run device ~variant in
    Gpu.Stats.to_assoc r.Workloads.Workload.stats
  in
  let tasks =
    [| run (Workloads.Registry.find "parboil/sgemm") "small";
       run (Workloads.Registry.find "parboil/spmv") "small";
       run (Workloads.Registry.find "parboil/sgemm") "small" |]
  in
  let baseline = Array.map (fun t -> t ()) tasks in
  List.iter
    (fun domains ->
       Par.Pool.with_pool ~domains (fun p ->
           let par = Par.Pool.map_ordered p (fun t -> t ()) tasks in
           check Alcotest.bool
             (Printf.sprintf "stats bit-identical at domains=%d" domains)
             true (baseline = par)))
    [ 1; 2; 4 ]

(* And the same for a full injection campaign: outcomes, tally, and
   merged stats must not depend on the pool width. *)
let test_parallel_campaign_determinism () =
  let w = Workloads.Registry.find "parboil/spmv" in
  let detail pool =
    Workloads.Campaign.run_detailed ?pool ~seed:2025 ~injections:6 w
      ~variant:"small"
  in
  let seq = detail None in
  List.iter
    (fun domains ->
       Par.Pool.with_pool ~domains (fun p ->
           let par = detail (Some p) in
           check Alcotest.bool
             (Printf.sprintf "outcomes identical at domains=%d" domains)
             true
             (seq.Workloads.Campaign.d_outcomes
              = par.Workloads.Campaign.d_outcomes);
           check Alcotest.bool
             (Printf.sprintf "merged stats identical at domains=%d" domains)
             true
             (Gpu.Stats.to_assoc seq.Workloads.Campaign.d_stats
              = Gpu.Stats.to_assoc par.Workloads.Campaign.d_stats)))
    [ 2; 3 ]

(* A whole telemetry manifest — counters, metrics, histogram summaries
   — serialized from runs fanned out over a pool must be byte-identical
   to the sequential serialization (the `bench table1 --jobs N` and CI
   campaign checks, reduced to a unit test). *)
let test_parallel_manifest_bit_identical () =
  let task name variant () =
    let device = Gpu.Device.create () in
    let t = Cupti.Telemetry.enable device in
    let w = Workloads.Registry.find name in
    let r = w.Workloads.Workload.run device ~variant in
    Cupti.Telemetry.disable device;
    (r.Workloads.Workload.stats, Cupti.Telemetry.counters t,
     Cupti.Telemetry.histograms t)
  in
  let tasks =
    [| task "parboil/sgemm" "small"; task "parboil/spmv" "small" |]
  in
  let manifest results =
    let stats = Par.Reduce.stats (Array.map (fun (s, _, _) -> s) results) in
    let counters =
      Par.Reduce.counters (Array.map (fun (_, c, _) -> c) results)
    in
    let histograms = Array.to_list results |> List.concat_map (fun (_, _, h) -> h) in
    Trace.Json.to_string
      (Telemetry.Manifest.to_json
         { Telemetry.Manifest.m_workload = "test/par";
           m_variant = "matrix";
           m_instrument = "none";
           m_seed = 2025;
           m_argv = [];
           m_wall_time_s = 0.0;
           m_build = Telemetry.Build_info.collect ();
           m_config = Gpu.Config.to_assoc Gpu.Config.default;
           m_counters = Gpu.Stats.to_assoc stats @ counters;
           m_metrics = [];
           m_histograms = histograms })
  in
  let baseline =
    Par.Pool.with_pool ~domains:1 (fun p ->
        manifest (Par.Pool.map_ordered p (fun t -> t ()) tasks))
  in
  List.iter
    (fun domains ->
       Par.Pool.with_pool ~domains (fun p ->
           let m =
             manifest (Par.Pool.map_ordered p (fun t -> t ()) tasks)
           in
           check Alcotest.string
             (Printf.sprintf "manifest bytes at domains=%d" domains)
             baseline m))
    [ 2; 4 ]

let test_rng_split_matches_seed_split () =
  (* Workloads.Rng.split is the seed-splitting entry point for dataset
     generation: same (seed, index) -> same stream. *)
  let a = Workloads.Rng.split ~seed:11 ~index:4 in
  let b = Workloads.Rng.split ~seed:11 ~index:4 in
  let xs r = List.init 16 (fun _ -> Workloads.Rng.int r 1000) in
  check Alcotest.(list int) "identical streams" (xs a) (xs b);
  let c = Workloads.Rng.split ~seed:11 ~index:5 in
  check Alcotest.bool "neighbour index differs" true (xs a <> xs c)

let suite =
  [ ( "par",
      [ Alcotest.test_case "seed split: stable, distinct, guarded" `Quick
          test_seed_split;
        Alcotest.test_case "pool map_ordered at 1/2/4 domains" `Quick
          test_pool_map_ordered;
        Alcotest.test_case "pool iter_ordered streams in order" `Quick
          test_pool_iter_ordered_streams_in_order;
        Alcotest.test_case "pool exception propagates, pool survives" `Quick
          test_pool_exception_propagates;
        Alcotest.test_case "pool starts tasks in FIFO order" `Quick
          test_pool_fifo_start_order;
        Alcotest.test_case "shutdown: drains, idempotent, refuses" `Quick
          test_pool_shutdown;
        Alcotest.test_case "pool rejects bad domain counts" `Quick
          test_pool_bad_domains;
        Alcotest.test_case "reduce counters name-wise" `Quick
          test_reduce_counters;
        Alcotest.test_case "reduce stats sums without aliasing" `Quick
          test_reduce_stats;
        Alcotest.test_case "campaign manifest round-trip" `Quick
          test_campaign_roundtrip;
        Alcotest.test_case "parallel runs bit-identical to sequential"
          `Quick test_parallel_run_determinism;
        Alcotest.test_case "parallel injection campaign deterministic"
          `Slow test_parallel_campaign_determinism;
        Alcotest.test_case "parallel telemetry manifest byte-identical"
          `Quick test_parallel_manifest_bit_identical;
        Alcotest.test_case "rng split: reproducible per-index streams"
          `Quick test_rng_split_matches_seed_split ] ) ]
