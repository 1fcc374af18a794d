(* Intra-device parallelism: Stats.merge algebra and the headline
   contract — sharding a launch's SMs across OCaml domains is
   bit-identical to the sequential path for stats, workload outputs,
   telemetry and PC sampling, with race-prone kernels deterministically
   forced sequential (and counted) by the eligibility scan. *)

let check = Alcotest.check

let assoc = Alcotest.(list (pair string int))

let with_domains d f =
  Gpu.Device.set_default_domains d;
  Fun.protect ~finally:(fun () -> Gpu.Device.set_default_domains 1) f

let run_wl ?(domains = 1) name =
  with_domains domains @@ fun () ->
  let w = Workloads.Registry.find name in
  let device = Gpu.Device.create ~cfg:Gpu.Config.default () in
  let r = w.Workloads.Workload.run device ~variant:w.Workloads.Workload.default_variant in
  (r, Gpu.Device.sharding_fallbacks device)

(* Real, fully populated counter sets for the algebra tests. *)
let stats_of name = (fst (run_wl name)).Workloads.Workload.stats

let copy_stats s =
  let c = Gpu.Stats.create () in
  Gpu.Stats.merge ~into:c s;
  c

(* --- Stats.merge ----------------------------------------------------------- *)

let test_merge_zero_identity () =
  let s = stats_of "parboil/sgemm" in
  (* 0 merge s = s: every counter sums with 0 and cycles is max 0 c. *)
  check assoc "zero is a left identity"
    (Gpu.Stats.to_assoc s)
    (Gpu.Stats.to_assoc (copy_stats s));
  (* s merge 0 = s likewise. *)
  let s' = copy_stats s in
  Gpu.Stats.merge ~into:s' (Gpu.Stats.create ());
  check assoc "zero is a right identity"
    (Gpu.Stats.to_assoc s) (Gpu.Stats.to_assoc s');
  (* 0 merge 0 exercises the setter/to_assoc completeness check on
     both sides without any workload noise. *)
  let z = Gpu.Stats.create () in
  Gpu.Stats.merge ~into:z (Gpu.Stats.create ());
  List.iter
    (fun (name, v) -> check Alcotest.int ("zero " ^ name) 0 v)
    (Gpu.Stats.to_assoc z)

let test_merge_associativity () =
  let a = stats_of "parboil/sgemm"
  and b = stats_of "parboil/spmv"
  and c = stats_of "rodinia/nn" in
  let left =
    let ab = copy_stats a in
    Gpu.Stats.merge ~into:ab b;
    Gpu.Stats.merge ~into:ab c;
    ab
  in
  let right =
    let bc = copy_stats b in
    Gpu.Stats.merge ~into:bc c;
    let abc = copy_stats a in
    Gpu.Stats.merge ~into:abc bc;
    abc
  in
  check assoc "(a+b)+c = a+(b+c)"
    (Gpu.Stats.to_assoc left) (Gpu.Stats.to_assoc right)

let test_merge_covers_every_counter () =
  (* Doubling a populated stats object must double every counter
     except cycles (a max). A counter added to to_assoc without a
     merge rule raises inside merge; one added with a bogus rule
     shows up as a wrong sum here. *)
  let s = stats_of "parboil/sgemm" in
  let d = copy_stats s in
  Gpu.Stats.merge ~into:d s;
  List.iter2
    (fun (name, v) (name', v2) ->
      check Alcotest.string "counter order stable" name name';
      if String.equal name "cycles" then
        check Alcotest.int "cycles merges as max" v v2
      else check Alcotest.int (name ^ " merges as sum") (2 * v) v2)
    (Gpu.Stats.to_assoc s) (Gpu.Stats.to_assoc d)

(* --- Sequential vs sharded ------------------------------------------------- *)

let observed (r : Workloads.Workload.result) =
  ( r.Workloads.Workload.output_digest,
    r.Workloads.Workload.stdout,
    r.Workloads.Workload.launches,
    Gpu.Stats.to_assoc r.Workloads.Workload.stats )

(* Launches the eligibility scan forces sequential, per workload at its
   default variant; every workload not listed has none. gaussian mixes
   verdicts: 94 of its 141 launches fall back. *)
let expected_fallbacks =
  [ ("parboil/bfs", 50); ("parboil/tpacf", 1); ("parboil/mri-gridding", 1);
    ("parboil/histo", 16); ("rodinia/bfs", 5); ("rodinia/gaussian", 94);
    ("rodinia/streamcluster", 24); ("rodinia/lud", 47);
    ("rodinia/backprop", 1); ("rodinia/nw", 191); ("minife/miniFE", 1) ]

let test_registry_bit_identity () =
  (* Every registered workload, default variant, domains 1 vs 2 vs 4:
     output digest, summary, launch count and the full counter set
     must match bit for bit — whether the kernels shard or fall back —
     and the sequential run's fallback count must match the scan's
     recorded verdicts. *)
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.suite ^ "/" ^ w.Workloads.Workload.name in
      let base, fallbacks = run_wl name in
      check Alcotest.int
        (Printf.sprintf "%s: sharding fallbacks" name)
        (Option.value (List.assoc_opt name expected_fallbacks) ~default:0)
        fallbacks;
      List.iter
        (fun d ->
          let r, _ = run_wl ~domains:d name in
          check
            Alcotest.(pair (pair string string) (pair int assoc))
            (Printf.sprintf "%s: domains %d == sequential" name d)
            (let dg, out, l, st = observed base in ((dg, out), (l, st)))
            (let dg, out, l, st = observed r in ((dg, out), (l, st))))
        [ 2; 4 ])
    Workloads.Registry.all

let test_atomic_kernel_falls_back () =
  (* histo's cross-block atomic increments make every launch
     ineligible; the fallback is counted and the results still match
     the sequential path exactly. *)
  let seq, fb_seq = run_wl "parboil/histo" in
  let sh, fb_sh = run_wl ~domains:4 "parboil/histo" in
  check Alcotest.bool "fallbacks counted" true (fb_sh > 0);
  check Alcotest.int "fallback count matches sequential mode" fb_seq fb_sh;
  check assoc "stats identical across the fallback"
    (Gpu.Stats.to_assoc seq.Workloads.Workload.stats)
    (Gpu.Stats.to_assoc sh.Workloads.Workload.stats);
  check Alcotest.string "output identical across the fallback"
    seq.Workloads.Workload.output_digest sh.Workloads.Workload.output_digest

let test_plain_store_hazard_falls_back () =
  (* lud updates its matrix in place: one block reads cells another
     block wrote through the *same* pointer, with no atomics in
     sight. The alias scan must force it sequential. *)
  let _, fb = run_wl ~domains:4 "rodinia/lud" in
  check Alcotest.bool "in-place kernel forced sequential" true (fb > 0)

let test_disjoint_kernel_stays_eligible () =
  (* sgemm reads a/b and writes c — disjoint parameters — so the scan
     must NOT fall back, or sharding would never engage. The shared
     integer parameter n flows into both load and store addresses
     through scaling ops; this guards the scan's precision. *)
  let _, fb = run_wl ~domains:4 "parboil/sgemm" in
  check Alcotest.int "sgemm shards (no fallback)" 0 fb

let test_observation_sinks_bit_identical () =
  (* Telemetry histograms/counters and PC-sampling stall totals under
     sharding vs sequential, on a kernel that actually shards. *)
  let observe domains =
    with_domains domains @@ fun () ->
    let w = Workloads.Registry.find "parboil/sgemm" in
    let device = Gpu.Device.create ~cfg:Gpu.Config.default () in
    let tele = Cupti.Telemetry.enable device in
    let sampler = Cupti.Pc_sampling.enable device in
    let r =
      w.Workloads.Workload.run device
        ~variant:w.Workloads.Workload.default_variant
    in
    ( Gpu.Stats.to_assoc r.Workloads.Workload.stats,
      Cupti.Telemetry.counters tele,
      Cupti.Telemetry.histograms tele,
      Array.to_list (Prof.Pc_sampling.stall_totals sampler),
      Prof.Pc_sampling.total_samples sampler )
  in
  let st1, c1, h1, p1, n1 = observe 1 in
  let st4, c4, h4, p4, n4 = observe 4 in
  check assoc "stats" st1 st4;
  check assoc "telemetry counters" c1 c4;
  check Alcotest.bool "telemetry histograms" true (h1 = h4);
  check Alcotest.(list int) "pc-sampling stall totals" p1 p4;
  check Alcotest.int "pc-sampling total samples" n1 n4

let test_domain_validation () =
  Alcotest.check_raises "set_default_domains rejects 0"
    (Invalid_argument "Device.set_default_domains: must be >= 1")
    (fun () -> Gpu.Device.set_default_domains 0);
  Alcotest.check_raises "create rejects domains 0"
    (Invalid_argument "Device.create: domains must be >= 1")
    (fun () -> ignore (Gpu.Device.create ~domains:0 ()))

let suite =
  [ ( "device-sharding",
      [ Alcotest.test_case "Stats.merge: zero identity" `Quick
          test_merge_zero_identity;
        Alcotest.test_case "Stats.merge: associativity" `Quick
          test_merge_associativity;
        Alcotest.test_case "Stats.merge: covers every counter" `Quick
          test_merge_covers_every_counter;
        Alcotest.test_case "registry bit-identity at domains 1/2/4" `Slow
          test_registry_bit_identity;
        Alcotest.test_case "atomic kernel falls back, counted" `Quick
          test_atomic_kernel_falls_back;
        Alcotest.test_case "plain-store hazard falls back" `Quick
          test_plain_store_hazard_falls_back;
        Alcotest.test_case "disjoint-pointer kernel stays eligible" `Quick
          test_disjoint_kernel_stays_eligible;
        Alcotest.test_case "telemetry and sampling sinks identical" `Quick
          test_observation_sinks_bit_identical;
        Alcotest.test_case "domain count validation" `Quick
          test_domain_validation ] ) ]
