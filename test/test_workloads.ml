(* Workload validation: host-reference correctness for the exactly
   checkable benchmarks, determinism of output digests, and a smoke
   pass over every registered variant. *)

let check = Alcotest.check

let fresh () = Gpu.Device.create ~cfg:Gpu.Config.default ()

let run_wl w variant =
  w.Workloads.Workload.run (fresh ()) ~variant

(* --- Host references ----------------------------------------------------- *)

let test_bfs_parboil_matches_host () =
  (* Recreate the NY graph and BFS it on the host. *)
  let g = Datasets_access.bfs_graph "NY" in
  let n = g.Workloads.Datasets.num_nodes in
  let host_levels = Array.make n (-1) in
  host_levels.(g.Workloads.Datasets.source) <- 0;
  let q = Queue.create () in
  Queue.add g.Workloads.Datasets.source q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for e = g.Workloads.Datasets.row_offsets.(u)
      to g.Workloads.Datasets.row_offsets.(u + 1) - 1 do
      let v = g.Workloads.Datasets.columns.(e) in
      if host_levels.(v) = -1 then begin
        host_levels.(v) <- host_levels.(u) + 1;
        Queue.add v q
      end
    done
  done;
  let host_visited =
    Array.fold_left (fun a l -> if l >= 0 then a + 1 else a) 0 host_levels
  in
  let host_depth = Array.fold_left max 0 host_levels in
  let r = run_wl Workloads.Wl_bfs_parboil.workload "NY" in
  (* Levels of individual nodes can differ between valid BFS orders
     only if the device BFS were wrong — level sync makes them unique,
     so visited count and depth are exact. *)
  check Alcotest.string "bfs stdout matches host"
    (Printf.sprintf "visited=%d depth=%d" host_visited host_depth)
    r.Workloads.Workload.stdout

let test_histo_matches_host () =
  let r = run_wl Workloads.Wl_histo.workload "default" in
  (* Recompute the skewed data exactly as the workload does. *)
  let rng = Workloads.Rng.create ~seed:23 in
  let host = Array.make 256 0 in
  for _ = 1 to 16384 do
    let u = Workloads.Rng.float rng 1.0 in
    let v = int_of_float (u *. u *. 255.0) in
    host.(v) <- host.(v) + 1
  done;
  check Alcotest.string "histo max bin"
    (Printf.sprintf "max_bin=%d" (Array.fold_left max 0 host))
    r.Workloads.Workload.stdout

let test_nw_matches_host () =
  let n = 96 in
  let seq1 = Workloads.Datasets.ints ~seed:1 ~n ~bound:4 in
  let seq2 = Workloads.Datasets.ints ~seed:2 ~n ~bound:4 in
  let w = n + 1 in
  let dp = Array.make (w * w) 0 in
  for k = 0 to n do
    dp.(k) <- -k;
    dp.(k * w) <- -k
  done;
  for i = 1 to n do
    for j = 1 to n do
      let same = if seq1.(i - 1) = seq2.(j - 1) then 2 else -1 in
      dp.((i * w) + j) <-
        max
          (dp.(((i - 1) * w) + j - 1) + same)
          (max (dp.(((i - 1) * w) + j) - 1) (dp.((i * w) + j - 1) - 1))
    done
  done;
  let r = run_wl Workloads.Wl_nw.workload "default" in
  check Alcotest.string "nw score"
    (Printf.sprintf "score=%d" dp.((n * w) + n))
    r.Workloads.Workload.stdout

let test_sgemm_close_to_host () =
  let n = 48 in
  let a = Workloads.Datasets.floats ~seed:5 ~n:(n * n) ~scale:1.0 in
  let b = Workloads.Datasets.floats ~seed:6 ~n:(n * n) ~scale:1.0 in
  let c00 = ref 0.0 and c01 = ref 0.0 in
  for k = 0 to n - 1 do
    c00 := !c00 +. (a.(k) *. b.(k * n));
    c01 := !c01 +. (a.(k) *. b.((k * n) + 1))
  done;
  let r = run_wl Workloads.Wl_sgemm.workload "small" in
  let expect = Printf.sprintf "c00=%.4f c01=%.4f" !c00 !c01 in
  (* f32 accumulation differs from double by < 1e-3 at this scale. *)
  let parse s =
    Scanf.sscanf s "c00=%f c01=%f" (fun x y -> (x, y))
  in
  let gx, gy = parse r.Workloads.Workload.stdout in
  let ex, ey = parse expect in
  check Alcotest.bool "sgemm close" true
    (abs_float (gx -. ex) < 1e-2 && abs_float (gy -. ey) < 1e-2)

let test_minife_variants_agree () =
  (* ELL and CSR encode the same matrix: results must match exactly
     bit-for-bit is too strict (different accumulation order), but the
     printed values agree to 4 decimals. *)
  let rc = run_wl Workloads.Wl_minife.workload "CSR" in
  let re = run_wl Workloads.Wl_minife.workload "ELL" in
  check Alcotest.string "CSR = ELL (to 4 decimals)"
    rc.Workloads.Workload.stdout re.Workloads.Workload.stdout

(* --- Determinism ---------------------------------------------------------- *)

let deterministic name w variant () =
  ignore name;
  let r1 = run_wl w variant in
  let r2 = run_wl w variant in
  check Alcotest.string "same digest" r1.Workloads.Workload.output_digest
    r2.Workloads.Workload.output_digest;
  check Alcotest.string "same stdout" r1.Workloads.Workload.stdout
    r2.Workloads.Workload.stdout

(* --- Golden exact counters ------------------------------------------------ *)

(* Every registry variant, and Value_profile plus the Section 9.1 stub
   on two workloads, must reproduce the output digest, launch count and
   every Gpu.Stats counter recorded in golden/counters.txt. The table
   is written by golden/record_golden.exe and is regenerated only for a
   deliberate change to the machine model. *)
let golden_table =
  lazy
    (Golden.parse
       (In_channel.with_open_bin "golden/counters.txt" In_channel.input_all))

let check_golden jobs () =
  let table = Lazy.force golden_table in
  let drifts =
    List.concat_map
      (fun j ->
        let fields = Golden.run j in
        match List.assoc_opt (Golden.key j) table with
        | None -> [ Golden.label j ^ ": no reference in golden/counters.txt" ]
        | Some reference -> Golden.drifts j ~reference fields)
      jobs
  in
  if drifts <> [] then
    Alcotest.failf "%d drift(s) from the golden table:\n%s" (List.length drifts)
      (String.concat "\n" drifts)

let test_all_variants_smoke () =
  check Alcotest.int "35 registry variants" 35
    (List.length Golden.registry_jobs);
  check_golden Golden.registry_jobs ()

let test_registry_lookup () =
  check Alcotest.bool "28 workloads" true
    (List.length Workloads.Registry.all = 28);
  check Alcotest.string "qualified bfs" "parboil"
    (Workloads.Registry.find "parboil/bfs").Workloads.Workload.suite;
  check Alcotest.string "rodinia bfs" "rodinia"
    (Workloads.Registry.find "rodinia/bfs").Workloads.Workload.suite;
  check Alcotest.bool "unknown" true
    (Workloads.Registry.find_opt "nope" = None)

let test_datasets_shapes () =
  let g = Workloads.Datasets.scale_free_graph ~seed:1 ~nodes:500 ~avg_degree:6 in
  check Alcotest.int "offsets length" 501
    (Array.length g.Workloads.Datasets.row_offsets);
  check Alcotest.bool "edges present" true
    (Array.length g.Workloads.Datasets.columns > 500);
  let r = Workloads.Datasets.road_graph ~seed:2 ~width:10 ~height:8 in
  check Alcotest.int "road nodes" 80 r.Workloads.Datasets.num_nodes;
  Array.iter
    (fun c ->
       if c < 0 || c >= 80 then Alcotest.fail "column out of range")
    r.Workloads.Datasets.columns;
  let m = Workloads.Datasets.banded_matrix ~seed:3 ~n:64 ~band:2 in
  let width, idx, vals = Workloads.Datasets.csr_to_ell m in
  check Alcotest.int "ell width" 5 width;
  check Alcotest.int "ell size" (64 * 5) (Array.length idx);
  check Alcotest.int "ell vals" (64 * 5) (Array.length vals);
  (* ELL and CSR must encode the same matrix: check one matvec row. *)
  let x = Array.init 64 (fun i -> float_of_int (i + 1)) in
  let row_csr r =
    let s = ref 0.0 in
    for j = m.Workloads.Datasets.offsets.(r)
      to m.Workloads.Datasets.offsets.(r + 1) - 1 do
      s := !s +. (m.Workloads.Datasets.values.(j)
                  *. x.(m.Workloads.Datasets.indices.(j)))
    done;
    !s
  in
  let row_ell r =
    let s = ref 0.0 in
    for k = 0 to width - 1 do
      s := !s +. (vals.((k * 64) + r) *. x.(idx.((k * 64) + r)))
    done;
    !s
  in
  check (Alcotest.float 1e-9) "row 0" (row_csr 0) (row_ell 0);
  check (Alcotest.float 1e-9) "row 31" (row_csr 31) (row_ell 31)

let test_rng_determinism () =
  let a = Workloads.Rng.create ~seed:5 in
  let b = Workloads.Rng.create ~seed:5 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Workloads.Rng.int a 1000)
      (Workloads.Rng.int b 1000)
  done;
  let c = Workloads.Rng.create ~seed:6 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Workloads.Rng.int a 1000 <> Workloads.Rng.int c 1000 then
      differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let suite =
  [ ("workloads.datasets",
     [ Alcotest.test_case "shapes" `Quick test_datasets_shapes;
       Alcotest.test_case "rng" `Quick test_rng_determinism ]);
    ("workloads.correctness",
     [ Alcotest.test_case "bfs = host bfs" `Quick test_bfs_parboil_matches_host;
       Alcotest.test_case "histo = host histo" `Quick test_histo_matches_host;
       Alcotest.test_case "nw = host dp" `Quick test_nw_matches_host;
       Alcotest.test_case "sgemm ~ host" `Quick test_sgemm_close_to_host;
       Alcotest.test_case "minife ELL = CSR" `Quick test_minife_variants_agree ]);
    ("workloads.determinism",
     [ Alcotest.test_case "spmv" `Quick
         (deterministic "spmv" Workloads.Wl_spmv.workload "small");
       Alcotest.test_case "bfs UT" `Quick
         (deterministic "bfs" Workloads.Wl_bfs_parboil.workload "UT");
       Alcotest.test_case "heartwall" `Quick
         (deterministic "heartwall" Workloads.Wl_heartwall.workload "default");
       Alcotest.test_case "mummergpu" `Quick
         (deterministic "mummergpu" Workloads.Wl_mummer.workload "default") ]);
    ("workloads.registry",
     [ Alcotest.test_case "lookup" `Quick test_registry_lookup;
       Alcotest.test_case "all variants smoke" `Slow test_all_variants_smoke;
       Alcotest.test_case "instrumented exact counters" `Slow
         (check_golden Golden.instrumented_jobs) ]) ]
