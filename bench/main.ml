(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on the simulated GPU.

     dune exec bench/main.exe              - everything (standard mode)
     dune exec bench/main.exe table1       - one experiment
     dune exec bench/main.exe -- --quick   - reduced injection counts

   Experiments:
     table1  - per-benchmark branch divergence (Case Study I)
     fig5    - per-branch divergence histograms, bfs 1M vs UT
     fig7    - PMF of unique cache lines per warp access (Case Study II)
     fig8    - occupancy x divergence matrices, miniFE CSR vs ELL
     table2  - value profiling: const bits & scalar % (Case Study III)
     fig10   - error injection outcomes (Case Study IV)
     table3  - instrumentation overheads (T wall-clock, K kernel cycles)
     analysis - static-analyzer wall time per kernel across the suite

   Speed of the simulator itself is measured by perfbench/ (see
   BENCHMARK.json), not here.

   Flags: --quick (reduced injection counts), --jobs N (domain-pool
   width for the matrix experiments; 1 = sequential), --seed S. *)

(* The typed run configuration, threaded into every experiment: no
   more bare refs consulted ad hoc, and `--quick`/`--jobs`/`--seed`
   behave uniformly across experiments. *)
type runcfg = {
  quick : bool;
  jobs : int;
  seed : int;
  pool : Par.Pool.t;  (* inline executor when jobs = 1 *)
}

let cfg = Gpu.Config.default

let fresh () = Gpu.Device.create ~cfg ()

let wl name = Workloads.Registry.find name

let run_plain w variant =
  let device = fresh () in
  w.Workloads.Workload.run device ~variant

let run_instrumented pairs w variant =
  let device = fresh () in
  Sassi.Runtime.with_instrumentation device (pairs device) (fun _ ->
      w.Workloads.Workload.run device ~variant)

let hline = String.make 78 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n%!" hline title hline

(* Combined manifests for the matrix experiments (table1, fig10).
   Deliberately deterministic artifacts: wall time is zeroed and --jobs
   is stripped from argv, so `bench table1 --jobs 1` and `--jobs 4`
   write byte-identical files — the determinism contract reduced to a
   `cmp`. *)
let write_experiment_manifest ~experiment ~rc ~counters ~histograms =
  let dir = "bench-manifests" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir ("bench-" ^ experiment ^ ".json") in
  let rec strip_jobs = function
    | [] -> []
    | "--jobs" :: _ :: rest -> strip_jobs rest
    | a :: rest -> a :: strip_jobs rest
  in
  let m =
    { Telemetry.Manifest.m_workload = "bench/" ^ experiment;
      m_variant = "matrix";
      m_instrument = "bench";
      m_seed = rc.seed;
      m_argv = strip_jobs (Array.to_list Sys.argv);
      m_wall_time_s = 0.0;
      m_build = Telemetry.Build_info.collect ();
      m_config = Gpu.Config.to_assoc cfg;
      m_counters = counters;
      m_metrics = [];
      m_histograms = histograms }
  in
  Telemetry.Manifest.write path m;
  Printf.printf "\nmanifest -> %s\n%!" path

(* --- Table 1: branch divergence ----------------------------------------- *)

let table1_rows =
  [ ("parboil", "bfs", "1M"); ("parboil", "bfs", "NY");
    ("parboil", "bfs", "SF"); ("parboil", "bfs", "UT");
    ("parboil", "sgemm", "small"); ("parboil", "sgemm", "medium");
    ("parboil", "tpacf", "small"); ("rodinia", "bfs", "default");
    ("rodinia", "gaussian", "default"); ("rodinia", "heartwall", "default");
    ("rodinia", "srad_v1", "default"); ("rodinia", "srad_v2", "default");
    ("rodinia", "streamcluster", "default") ]

let branch_summary suite name variant =
  let w = wl (suite ^ "/" ^ name) in
  let collector = ref None in
  let pairs device =
    let bs = Handlers.Branch_stats.create device in
    collector := Some bs;
    Handlers.Branch_stats.pairs bs
  in
  let r = run_instrumented pairs w variant in
  match !collector with
  | Some bs -> (Handlers.Branch_stats.summary bs, bs, r)
  | None -> assert false

(* Each row is one independent instrumented run: fanned out over the
   domain pool, printed (and reduced into the manifest) in row order,
   so the output is byte-identical for any --jobs. *)
let table1 rc =
  section
    "Table 1: average branch divergence statistics (Case Study I handler)";
  Printf.printf "%-10s %-14s %-8s | %8s %9s %6s | %10s %10s %6s\n" "suite"
    "benchmark" "dataset" "static" "divgnt" "%" "dynamic" "divergent" "%";
  let rows = Array.of_list table1_rows in
  let tasks =
    Array.map
      (fun (suite, name, variant) ->
         fun () ->
           let s, _, r = branch_summary suite name variant in
           (s, r.Workloads.Workload.stats))
      rows
  in
  let results =
    Par.Campaign.run_tasks rc.pool tasks ~on_result:(fun i (s, _) ->
        let suite, name, variant = rows.(i) in
        let open Handlers.Branch_stats in
        Printf.printf
          "%-10s %-14s %-8s | %8d %9d %6.0f | %10d %10d %6.1f\n%!" suite name
          variant s.static_branches s.static_divergent
          (100.0 *. float_of_int s.static_divergent
           /. float_of_int (max 1 s.static_branches))
          s.dynamic_branches s.dynamic_divergent
          (100.0 *. float_of_int s.dynamic_divergent
           /. float_of_int (max 1 s.dynamic_branches)))
  in
  let merged = Par.Reduce.stats (Array.map snd results) in
  let sum f =
    Array.fold_left
      (fun acc (s, _) -> acc + f s) 0 results
  in
  let open Handlers.Branch_stats in
  write_experiment_manifest ~experiment:"table1" ~rc
    ~counters:
      (( "rows", Array.length rows )
       :: ("static_branches", sum (fun s -> s.static_branches))
       :: ("static_divergent", sum (fun s -> s.static_divergent))
       :: ("dynamic_branches", sum (fun s -> s.dynamic_branches))
       :: ("dynamic_divergent", sum (fun s -> s.dynamic_divergent))
       :: Gpu.Stats.to_assoc merged)
    ~histograms:[]

(* --- Figure 5: per-branch histograms ------------------------------------- *)

let fig5 (_rc : runcfg) =
  section "Figure 5: per-branch divergence, Parboil bfs (1M) vs (UT)";
  List.iter
    (fun variant ->
       let _, bs, _ = branch_summary "parboil" "bfs" variant in
       Printf.printf "\nParboil bfs (%s) - branches sorted by execution \
                      count\n" variant;
       Printf.printf "%-12s %10s %10s  divergent | non-divergent\n" "branch"
         "execs" "divergent";
       List.iter
         (fun b ->
            let open Handlers.Branch_stats in
            let dbar =
              String.make (min 40 (b.divergent * 40 / max 1 b.total)) '#'
            in
            let nbar =
              String.make
                (min 40 ((b.total - b.divergent) * 40 / max 1 b.total))
                '.'
            in
            Printf.printf "0x%08x %10d %10d  %s%s\n" b.ins_addr b.total
              b.divergent dbar nbar)
         (Handlers.Branch_stats.branches bs))
    [ "1M"; "UT" ]

(* --- Figure 7: memory divergence PMF -------------------------------------- *)

let fig7_rows =
  [ ("parboil/bfs", "NY"); ("parboil/bfs", "SF"); ("parboil/bfs", "UT");
    ("parboil/spmv", "small"); ("parboil/spmv", "medium");
    ("parboil/spmv", "large"); ("rodinia/bfs", "default");
    ("rodinia/heartwall", "default"); ("parboil/mri-gridding", "default");
    ("minife/miniFE", "ELL"); ("minife/miniFE", "CSR") ]

let memdiv_profile name variant =
  let w = wl name in
  let collector = ref None in
  let pairs device =
    let md = Handlers.Mem_divergence.create device in
    collector := Some md;
    Handlers.Mem_divergence.pairs md
  in
  let _ = run_instrumented pairs w variant in
  match !collector with
  | Some md -> md
  | None -> assert false

let fig7 rc =
  section
    "Figure 7: distribution (PMF) of unique 32B cache lines requested per \
     warp memory instruction (Case Study II handler)";
  let rows = Array.of_list fig7_rows in
  let tasks =
    Array.map
      (fun (name, variant) -> fun () -> memdiv_profile name variant)
      rows
  in
  ignore
    (Par.Campaign.run_tasks rc.pool tasks ~on_result:(fun i md ->
         let name, variant = rows.(i) in
         let pmf = Handlers.Mem_divergence.pmf md in
         Printf.printf "\n%s (%s):  [fully diverged: %.2f]\n" name variant
           (Handlers.Mem_divergence.fully_diverged_fraction md);
         Array.iteri
           (fun u f ->
              if f > 0.004 then
                Printf.printf "  %2d unique: %5.1f%% %s\n" (u + 1)
                  (100.0 *. f)
                  (String.make (int_of_float (f *. 56.0)) '#'))
           pmf;
         Printf.printf "%!"))

(* --- Figure 8: miniFE matrices -------------------------------------------- *)

let fig8 (_rc : runcfg) =
  section
    "Figure 8: warp occupancy (rows, active threads) x address divergence \
     (cols, unique lines) for miniFE variants; log10 count glyphs";
  List.iter
    (fun variant ->
       let md = memdiv_profile "minife/miniFE" variant in
       let m = Handlers.Mem_divergence.matrix md in
       Printf.printf "\nminiFE-%s        unique lines 1..32 ->\n" variant;
       let glyph v =
         if v = 0 then '.'
         else if v < 10 then '1'
         else if v < 100 then '2'
         else if v < 1000 then '3'
         else if v < 10000 then '4'
         else '5'
       in
       for a = 31 downto 0 do
         if Array.exists (fun x -> x > 0) m.(a) then begin
           Printf.printf "  occ %2d | " (a + 1);
           for u = 0 to 31 do
             print_char (glyph m.(a).(u))
           done;
           print_newline ()
         end
       done;
       Printf.printf "%!")
    [ "CSR"; "ELL" ]

(* --- Table 2: value profiling ---------------------------------------------- *)

let table2_rows =
  [ "parboil/bfs"; "parboil/cutcp"; "parboil/histo"; "parboil/lbm";
    "parboil/mri-gridding"; "parboil/mri-q"; "parboil/sad"; "parboil/sgemm";
    "parboil/spmv"; "parboil/stencil"; "parboil/tpacf"; "rodinia/b+tree";
    "rodinia/backprop"; "rodinia/bfs"; "rodinia/gaussian";
    "rodinia/heartwall"; "rodinia/hotspot"; "rodinia/kmeans";
    "rodinia/lavaMD"; "rodinia/lud"; "rodinia/mummergpu"; "rodinia/nn";
    "rodinia/nw"; "rodinia/pathfinder"; "rodinia/srad_v1"; "rodinia/srad_v2";
    "rodinia/streamcluster" ]

let table2 rc =
  section
    "Table 2: value profiling - constant bits and scalar writes \
     (Case Study III handler)";
  Printf.printf "%-22s | %12s %10s | %12s %10s\n" "benchmark"
    "dyn const%" "dyn scal%" "st const%" "st scal%";
  let rows = Array.of_list table2_rows in
  let tasks =
    Array.map
      (fun name ->
         fun () ->
           let w = wl name in
           let collector = ref None in
           let pairs device =
             let vp = Handlers.Value_profile.create device in
             collector := Some vp;
             Handlers.Value_profile.pairs vp
           in
           let _ =
             run_instrumented pairs w w.Workloads.Workload.default_variant
           in
           Handlers.Value_profile.summary (Option.get !collector))
      rows
  in
  ignore
    (Par.Campaign.run_tasks rc.pool tasks ~on_result:(fun i s ->
         let open Handlers.Value_profile in
         Printf.printf "%-22s | %12.0f %10.0f | %12.0f %10.0f\n%!" rows.(i)
           s.dynamic_const_bits_pct s.dynamic_scalar_pct
           s.static_const_bits_pct s.static_scalar_pct))

(* --- Figure 10: error injection -------------------------------------------- *)

let fig10_apps =
  [ ("parboil/bfs", "UT"); ("parboil/spmv", "small");
    ("parboil/histo", "default"); ("parboil/sad", "default");
    ("parboil/mri-gridding", "default"); ("rodinia/nn", "default");
    ("rodinia/backprop", "default"); ("rodinia/b+tree", "default");
    ("rodinia/pathfinder", "default"); ("rodinia/gaussian", "default");
    ("rodinia/kmeans", "default"); ("rodinia/mummergpu", "default") ]

(* One app = one campaign = one pool task; the per-app campaign seed
   is split from the bench seed and the app index, so the full figure
   replays identically under any --jobs. *)
let fig10 rc =
  let injections = if rc.quick then 8 else 24 in
  section
    (Printf.sprintf
       "Figure 10: error injection outcomes (%d single-bit register flips \
        per application, Case Study IV flow)"
       injections);
  Printf.printf "%-22s | %7s %7s %6s %8s %8s %8s\n" "benchmark" "masked"
    "crash" "hang" "symptom" "sdc-out" "sdc-std";
  let apps = Array.of_list fig10_apps in
  let tasks =
    Array.mapi
      (fun i (name, variant) ->
         fun () ->
           let w = wl name in
           let seed = Par.Seed.split ~seed:rc.seed ~index:i in
           Workloads.Campaign.run_detailed ~cfg ~seed ~injections w ~variant)
      apps
  in
  let details =
    Par.Campaign.run_tasks rc.pool tasks
      ~on_result:(fun i (d : Workloads.Campaign.detail) ->
          let name, _ = apps.(i) in
          let m, c, h, s, so, sf =
            Workloads.Campaign.fractions d.Workloads.Campaign.d_tally
          in
          Printf.printf
            "%-22s | %6.1f%% %6.1f%% %5.1f%% %7.1f%% %7.1f%% %7.1f%%\n%!"
            name (100. *. m) (100. *. c) (100. *. h) (100. *. s) (100. *. sf)
            (100. *. so))
  in
  let open Workloads.Campaign in
  let tallies = Array.map (fun d -> d.d_tally) details in
  let sum f = Array.fold_left (fun a t -> a + f t) 0 tallies in
  let total = sum (fun t -> t.total) in
  let pct x = 100.0 *. float_of_int x /. float_of_int (max 1 total) in
  Printf.printf "%-22s | %6.1f%% %6.1f%% %5.1f%% %7.1f%% %7.1f%% %7.1f%%\n"
    "AVERAGE"
    (pct (sum (fun t -> t.masked)))
    (pct (sum (fun t -> t.crashes)))
    (pct (sum (fun t -> t.hangs)))
    (pct (sum (fun t -> t.failure_symptoms)))
    (pct (sum (fun t -> t.sdc_output)))
    (pct (sum (fun t -> t.sdc_stdout)));
  let merged = Par.Reduce.stats (Array.map (fun d -> d.d_stats) details) in
  write_experiment_manifest ~experiment:"fig10" ~rc
    ~counters:
      (("apps", Array.length apps)
       :: ("injections_per_app", injections)
       :: ("masked", sum (fun t -> t.masked))
       :: ("crashes", sum (fun t -> t.crashes))
       :: ("hangs", sum (fun t -> t.hangs))
       :: ("failure_symptoms", sum (fun t -> t.failure_symptoms))
       :: ("sdc_stdout", sum (fun t -> t.sdc_stdout))
       :: ("sdc_output", sum (fun t -> t.sdc_output))
       :: ("injections_total", total)
       :: Gpu.Stats.to_assoc merged)
    ~histograms:[]

(* --- Table 3: instrumentation overheads ------------------------------------ *)

let case_studies =
  [ ("I",
     fun device ->
       Handlers.Branch_stats.pairs (Handlers.Branch_stats.create device));
    ("II",
     fun device ->
       Handlers.Mem_divergence.pairs (Handlers.Mem_divergence.create device));
    ("III",
     fun device ->
       Handlers.Value_profile.pairs (Handlers.Value_profile.create device));
    ("IV",
     fun _device ->
       Handlers.Error_inject.Profile.pairs
         (Handlers.Error_inject.Profile.create ())) ]

let stub_pairs _device =
  [ (Sassi.Select.after
       [ Sassi.Select.Reg_writes; Sassi.Select.Pred_writes ]
       [ Sassi.Select.Reg_info ],
     Sassi.Handler.noop) ]

(* Wall-clock bracketing lives in one place now (Obs.Clock), shared
   with the sassi_run driver. *)
let timed f = Obs.Clock.with_wall_time f

let table3_rows =
  [ "parboil/sgemm"; "parboil/spmv"; "parboil/bfs"; "parboil/mri-q";
    "parboil/mri-gridding"; "parboil/cutcp"; "parboil/histo";
    "parboil/stencil"; "parboil/sad"; "parboil/lbm"; "parboil/tpacf";
    "rodinia/nn"; "rodinia/hotspot"; "rodinia/lud"; "rodinia/b+tree";
    "rodinia/bfs"; "rodinia/pathfinder"; "rodinia/srad_v2";
    "rodinia/mummergpu"; "rodinia/backprop"; "rodinia/kmeans";
    "rodinia/lavaMD"; "rodinia/srad_v1"; "rodinia/nw"; "rodinia/gaussian";
    "rodinia/streamcluster"; "rodinia/heartwall" ]

let table3 (_rc : runcfg) =
  section
    "Table 3: instrumentation overheads. T = whole-program wall-clock \
     ratio, K = kernel (simulated cycles) ratio; stub = empty handler at \
     Case Study III sites";
  Printf.printf "%-22s %7s %10s |" "benchmark" "t(s)" "k(cyc)";
  List.iter (fun (n, _) -> Printf.printf "   CS-%s     |" n) case_studies;
  Printf.printf "  stubK\n";
  let n_cs = List.length case_studies in
  let geo = Array.make (2 * n_cs) 0.0 in
  let rows = ref 0 in
  let stub_log_sum = ref 0.0 in
  let cs3_log_sum = ref 0.0 in
  List.iter
    (fun name ->
       let w = wl name in
       let variant = w.Workloads.Workload.default_variant in
       let base, t_base = timed (fun () -> run_plain w variant) in
       let k_base =
         max 1 base.Workloads.Workload.stats.Gpu.Stats.cycles
       in
       Printf.printf "%-22s %7.2f %10d |" name t_base k_base;
       incr rows;
       List.iteri
         (fun i (cs_name, pairs) ->
            let r, t = timed (fun () -> run_instrumented pairs w variant) in
            let tr = t /. max 1e-6 t_base in
            let kr =
              float_of_int r.Workloads.Workload.stats.Gpu.Stats.cycles
              /. float_of_int k_base
            in
            if cs_name = "III" then cs3_log_sum := !cs3_log_sum +. log kr;
            geo.(2 * i) <- geo.(2 * i) +. log tr;
            geo.((2 * i) + 1) <- geo.((2 * i) + 1) +. log kr;
            Printf.printf " %4.1ft %4.1fk |" tr kr)
         case_studies;
       let stub, _ = timed (fun () -> run_instrumented stub_pairs w variant) in
       let stub_k =
         float_of_int stub.Workloads.Workload.stats.Gpu.Stats.cycles
         /. float_of_int k_base
       in
       stub_log_sum := !stub_log_sum +. log stub_k;
       Printf.printf " %5.1fk\n%!" stub_k)
    table3_rows;
  let fl = float_of_int !rows in
  Printf.printf "\n%-22s %18s |" "GEOMEAN" "";
  List.iteri
    (fun i _ ->
       Printf.printf " %4.1ft %4.1fk |"
         (exp (geo.(2 * i) /. fl))
         (exp (geo.((2 * i) + 1) /. fl)))
    case_studies;
  let stub_geo = exp (!stub_log_sum /. fl) in
  let cs3_geo = exp (!cs3_log_sum /. fl) in
  Printf.printf " %5.1fk\n" stub_geo;
  Printf.printf
    "\nAblation (paper Section 9.1): the empty handler already costs \
     %.1fx kernel cycles vs %.1fx with the full value-profiling handler - \
     ABI call setup and register spills account for %.0f%% of the \
     instrumentation overhead.\n%!"
    stub_geo cs3_geo
    (100.0 *. (stub_geo -. 1.0) /. max 0.001 (cs3_geo -. 1.0))

(* --- Cache design-space exploration (paper Sec. 9.4) ----------------------- *)

let cachesim_rows =
  [ ("minife/miniFE", "CSR"); ("minife/miniFE", "ELL");
    ("parboil/spmv", "small") ]

let cachesim (_rc : runcfg) =
  section
    "Extension (paper Sec. 9.4, 'Driving other simulators'): SASSI memory \
     traces replayed through a standalone cache simulator";
  List.iter
    (fun (name, variant) ->
       let w = wl name in
       let tr = Handlers.Mem_trace.create () in
       let _ =
         run_instrumented (fun _ -> Handlers.Mem_trace.pairs tr) w variant
       in
       let trace = Handlers.Mem_trace.trace tr in
       Printf.printf "\n%s (%s): %d warp accesses traced (%d dropped)\n" name
         variant (Handlers.Mem_trace.length tr) (Handlers.Mem_trace.dropped tr);
       List.iter
         (fun r ->
            Format.printf "  %a@." Handlers.Cache_explorer.pp_result r)
         (Handlers.Cache_explorer.sweep trace
            Handlers.Cache_explorer.default_sweep);
       Printf.printf "%!")
    cachesim_rows

(* --- Architecture design-space exploration ------------------------------- *)

let scaling_rows =
  [ ("parboil/sgemm", "small"); ("parboil/spmv", "medium");
    ("rodinia/streamcluster", "default") ]

let scaling (_rc : runcfg) =
  section
    "Extension: architecture design-space exploration on the simulated \
     device - kernel cycles vs. SM count (the workflow the paper's intro \
     motivates)";
  Printf.printf "%-24s %-9s |" "benchmark" "variant";
  List.iter (fun sms -> Printf.printf " %4d SM |" sms) [ 1; 2; 4; 8 ];
  Printf.printf "  speedup 1->8\n";
  List.iter
    (fun (name, variant) ->
       let w = wl name in
       Printf.printf "%-24s %-9s |" name variant;
       let cycles =
         List.map
           (fun sms ->
              let device =
                Gpu.Device.create ~cfg:{ cfg with Gpu.Config.num_sms = sms } ()
              in
              let r = w.Workloads.Workload.run device ~variant in
              let c = r.Workloads.Workload.stats.Gpu.Stats.cycles in
              Printf.printf " %7d |" c;
              c)
           [ 1; 2; 4; 8 ]
       in
       (match cycles with
        | [ c1; _; _; c8 ] ->
          Printf.printf " %9.2fx\n%!" (float_of_int c1 /. float_of_int c8)
        | _ -> Printf.printf "\n%!"))
    scaling_rows

(* --- PC-sampling profiling: hotspot accuracy -------------------------------- *)

let profiling_rows =
  [ ("parboil/sgemm", "small"); ("parboil/spmv", "small");
    ("rodinia/bfs", "default") ]

(* Top-5 PCs by count, descending, PC-ascending tie-break. *)
let top5 tbl =
  Hashtbl.fold (fun pc c acc -> (pc, c) :: acc) tbl []
  |> List.sort (fun (pa, ca) (pb, cb) ->
      match compare cb ca with 0 -> compare pa pb | c -> c)
  |> List.filteri (fun i _ -> i < 5)

(* Tie-aware rank overlap: a sampled top-5 PC agrees when its exact
   issue count reaches the 5th-largest exact count. Issue counts are
   heavily tied inside hot loops (every body instruction executes the
   same number of times), so membership in the tie group is what a
   rank comparison can meaningfully check. *)
let top5_overlap ~exact sampled =
  let threshold =
    match List.rev (top5 exact) with (_, c) :: _ -> c | [] -> max_int
  in
  List.length
    (List.filter
       (fun (pc, _) ->
          match Hashtbl.find_opt exact pc with
          | Some c -> c >= threshold
          | None -> false)
       (top5 sampled))

let profiling (_rc : runcfg) =
  section
    "Extension: PC-sampling profiler (nvprof-style) - sampled hotspot \
     ranking validated against exact per-PC issue counts from the Activity \
     API";
  Printf.printf "%-24s %-8s | %9s %8s | %5s\n" "benchmark" "variant"
    "samples" "hits" "top5";
  let summaries = ref [] in
  List.iter
    (fun (name, variant) ->
       let w = wl name in
       (* Ground truth: exact per-PC issue counts, streamed out of the
          activity ring through the buffer-completed callback so
          capacity never truncates them. *)
       let exact = Hashtbl.create 512 in
       let bump tbl pc n =
         Hashtbl.replace tbl pc
           (n + Option.value ~default:0 (Hashtbl.find_opt tbl pc))
       in
       let tally_one r =
         match r.Trace.Record.payload with
         | Trace.Record.Warp_issue { pc; _ } -> bump exact pc 1
         | _ -> ()
       in
       let dev_exact = fresh () in
       Cupti.Activity.enable ~capacity:(1 lsl 16)
         ~overflow:(Trace.Ring.Flush_callback (Array.iter tally_one))
         dev_exact
         [ Cupti.Activity.Warp ];
       let _ = w.Workloads.Workload.run dev_exact ~variant in
       List.iter tally_one (Cupti.Activity.flush dev_exact);
       Cupti.Activity.disable dev_exact;
       (* Profiled run. *)
       let device = fresh () in
       let s = Cupti.Pc_sampling.enable device in
       let _ = w.Workloads.Workload.run device ~variant in
       Cupti.Pc_sampling.disable device;
       let sampled = Hashtbl.create 512 in
       Prof.Pc_sampling.fold_pcs s
         (fun () _kernel pc ~total ~by_reason:_ -> bump sampled pc total)
         ();
       let overlap = top5_overlap ~exact sampled in
       Printf.printf "%-24s %-8s | %9d %8d | %d/5\n%!" name variant
         (Prof.Pc_sampling.total_samples s)
         (Prof.Pc_sampling.hits s) overlap;
       summaries :=
         Trace.Json.Obj
           [ ("benchmark", Trace.Json.Str name);
             ("variant", Trace.Json.Str variant);
             ("samples", Trace.Json.Int (Prof.Pc_sampling.total_samples s));
             ("hits", Trace.Json.Int (Prof.Pc_sampling.hits s));
             ("top5_overlap", Trace.Json.Int overlap) ]
         :: !summaries)
    profiling_rows;
  (* Machine-readable summary through the shared JSON serializer. *)
  Printf.printf "\nprofiling-json: %s\n%!"
    (Trace.Json.to_string (Trace.Json.List (List.rev !summaries)))

(* --- Telemetry: invariance and memory-latency histograms --------------------- *)

let telemetry_rows =
  [ ("parboil/sgemm", "small"); ("parboil/spmv", "small");
    ("rodinia/bfs", "default"); ("parboil/stencil", "default") ]

(* Coalesced vs divergent access patterns for the histogram study:
   sgemm streams unit-stride tiles, spmv chases sparse columns. *)
let telemetry_hist_rows = [ ("parboil/sgemm", "small"); ("parboil/spmv", "small") ]

let telemetry (_rc : runcfg) =
  section
    "Extension: telemetry invariance - Stats equality with the metrics \
     sink installed vs. plain (the sink must only observe)";
  Printf.printf "%-24s %-8s | %9s %6s\n" "benchmark" "variant" "series"
    "stats";
  let sinks =
    List.map
      (fun (name, variant) ->
         let w = wl name in
         let base = run_plain w variant in
         let device = fresh () in
         let t = Cupti.Telemetry.enable device in
         let r = w.Workloads.Workload.run device ~variant in
         Cupti.Telemetry.disable device;
         let identical =
           Gpu.Stats.to_assoc base.Workloads.Workload.stats
           = Gpu.Stats.to_assoc r.Workloads.Workload.stats
         in
         Printf.printf "%-24s %-8s | %9d %6s\n%!" name variant
           (Telemetry.Series.length (Cupti.Telemetry.series t))
           (if identical then "same" else "DRIFT");
         ((name, variant), t))
      telemetry_rows
  in
  Printf.printf
    "\nMemory-request latency histograms (log2 buckets): coalesced \
     (sgemm) vs divergent (spmv) access patterns\n";
  List.iter
    (fun (name, variant) ->
       let t = List.assoc (name, variant) sinks in
       List.iter
         (fun (hname, h) ->
            match hname with
            | "sassi_mem_request_latency_cycles"
            | "sassi_mem_transactions_per_access" ->
              Printf.printf "\n%s (%s) %s:\n%s" name variant hname
                (Telemetry.Hist.render h)
            | _ -> ())
         (List.filter_map
            (fun (s : Telemetry.Registry.spec) ->
               match s.Telemetry.Registry.sp_instrument with
               | Telemetry.Registry.Histogram h ->
                 Some (s.Telemetry.Registry.sp_name, h)
               | _ -> None)
            (Telemetry.Registry.specs (Cupti.Telemetry.registry t)));
       Printf.printf "%!")
    telemetry_hist_rows

(* --- analysis: static-analyzer wall time per kernel --------------------- *)

(* The verifier is meant to run inside the compiler on every build, so
   its cost must stay O(instructions x dataflow passes). This prints
   the measured per-kernel wall time across the whole workload suite
   alongside the instruction count, so a super-linear regression shows
   up as ns/instr drifting with kernel size. *)
let analysis rc =
  section "analysis: static-analysis wall time per kernel (a compiler-pass budget)";
  let reps = if rc.quick then 5 else 20 in
  Printf.printf "  %-26s %7s %7s %9s %9s %9s\n" "kernel" "instrs" "blocks"
    "findings" "us/run" "ns/instr";
  let total_instrs = ref 0 and total_us = ref 0.0 in
  List.iter
    (fun w ->
       let device = fresh () in
       let kernels = ref [] in
       Gpu.Device.set_transform device
         (Some
            (fun k ->
               if not (List.mem_assoc k.Sass.Program.name !kernels) then
                 kernels := (k.Sass.Program.name, k) :: !kernels;
               k));
       let _ =
         w.Workloads.Workload.run device
           ~variant:w.Workloads.Workload.default_variant
       in
       List.iter
         (fun (kname, k) ->
            let instrs = Array.length k.Sass.Program.instrs in
            let cfg_k = Sass.Cfg.build k.Sass.Program.instrs in
            let nblocks = Array.length cfg_k.Sass.Cfg.blocks in
            let findings = Analysis.Verifier.verify k in
            let (), dt_total =
              timed (fun () ->
                  for _ = 1 to reps do
                    ignore (Analysis.Verifier.verify k)
                  done)
            in
            let dt = dt_total /. float_of_int reps in
            total_instrs := !total_instrs + instrs;
            total_us := !total_us +. (dt *. 1e6);
            Printf.printf "  %-26s %7d %7d %9d %9.1f %9.1f\n" kname instrs
              nblocks
              (List.length findings)
              (dt *. 1e6)
              (dt *. 1e9 /. float_of_int instrs))
         (List.rev !kernels))
    Workloads.Registry.all;
  Printf.printf
    "  total: %d instrs, %.1f us for one verify of every kernel\n%!"
    !total_instrs !total_us

(* --- analysis-mem: static memory predictions vs the machine ---------------- *)

(* Launch facts captured on a kernel's first launch; the parameter
   reader stays valid after the run (the constant bank is a live heap
   object), so predictions are computed lazily afterwards. *)
type mem_capture = {
  mc_geom : Analysis.Affine.geom;
  mc_param : int -> int option;
  mutable mc_multi : bool;  (* relaunched with a different geometry *)
}

(* Validates the static memory predictors end to end: one plain run
   captures kernels and launch geometry, a Mem_audit-instrumented
   rerun measures per-site bank-conflict degree and coalesced line
   counts from the machine's own lane addresses, and the abstract
   interpreter predicts the same numbers from the SASS alone. Gates:
   gld/gst/shared counters must not move under instrumentation, the
   audit totals must reconcile with the machine's counters exactly,
   every exact prediction must equal the measured min = max, and on
   sgemm (dense, fully affine) every site must be exact. spmv's
   row/column indirection is the designed counterexample: its direct
   sites are exact, its data-dependent sites carry the note. *)
let analysis_mem_rows =
  [ ("parboil", "sgemm", "small", true); ("parboil", "spmv", "small", false) ]

let analysis_mem rc =
  section
    "analysis-mem: static bank-conflict & coalescing predictions vs machine";
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
         incr failures;
         Printf.printf "FAIL %s\n%!" m)
      fmt
  in
  let wl_objs =
    List.map
      (fun (suite, name, variant, all_exact) ->
         let w = wl (suite ^ "/" ^ name) in
         (* Leg 1: plain run, capturing kernels and launch facts. *)
         let device = fresh () in
         let kernels = ref [] in
         let captures = Hashtbl.create 4 in
         Gpu.Device.set_transform device
           (Some
              (fun k ->
                 if not (List.mem_assoc k.Sass.Program.name !kernels) then
                   kernels := (k.Sass.Program.name, k) :: !kernels;
                 k));
         ignore
           (Gpu.Device.on_launch device (fun l ->
                let kname = l.Gpu.State.l_kernel.Sass.Program.name in
                let geom =
                  { Analysis.Affine.g_block_x = l.Gpu.State.l_block_x;
                    g_block_y = l.Gpu.State.l_block_y;
                    g_grid_x = l.Gpu.State.l_grid_x;
                    g_grid_y = l.Gpu.State.l_grid_y }
                in
                match Hashtbl.find_opt captures kname with
                | Some mc -> if mc.mc_geom <> geom then mc.mc_multi <- true
                | None ->
                  let params = l.Gpu.State.l_params in
                  let bytes = l.Gpu.State.l_kernel.Sass.Program.param_bytes in
                  let param off =
                    if off >= 0 && off + 4 <= bytes then
                      Some (Gpu.Memory.read params ~width:Sass.Opcode.W32 off)
                    else None
                  in
                  Hashtbl.add captures kname
                    { mc_geom = geom; mc_param = param; mc_multi = false }));
         let r_plain = w.Workloads.Workload.run device ~variant in
         (* Leg 2: Mem_audit-instrumented rerun on a fresh device. *)
         let device2 = fresh () in
         let audit =
           Handlers.Mem_audit.create ~line_bytes:cfg.Gpu.Config.line_bytes
         in
         let r_audit =
           Sassi.Runtime.with_instrumentation device2
             (Handlers.Mem_audit.pairs audit)
             (fun _ -> w.Workloads.Workload.run device2 ~variant)
         in
         let sp = r_plain.Workloads.Workload.stats
         and sa = r_audit.Workloads.Workload.stats in
         if
           r_plain.Workloads.Workload.output_digest
           <> r_audit.Workloads.Workload.output_digest
         then
           fail "%s/%s: output digest moved under instrumentation" suite name;
         List.iter
           (fun (cname, a, b) ->
              if a <> b then
                fail "%s/%s: %s moved under instrumentation: %d -> %d" suite
                  name cname a b)
           [ ("gld_transactions", sp.Gpu.Stats.gld_transactions,
              sa.Gpu.Stats.gld_transactions);
             ("gst_transactions", sp.Gpu.Stats.gst_transactions,
              sa.Gpu.Stats.gst_transactions);
             ("shared_accesses", sp.Gpu.Stats.shared_accesses,
              sa.Gpu.Stats.shared_accesses);
             ("shared_conflicts", sp.Gpu.Stats.shared_conflicts,
              sa.Gpu.Stats.shared_conflicts) ];
         (* The audit must be redundant with the machine's counters. *)
         let sites = Handlers.Mem_audit.sites audit in
         let sum pred f =
           List.fold_left
             (fun acc (s : Handlers.Mem_audit.site) ->
                if pred s then acc + f s else acc)
             0 sites
         in
         let shared (s : Handlers.Mem_audit.site) =
           s.Handlers.Mem_audit.s_space = Sass.Opcode.Shared
         in
         let global_ld (s : Handlers.Mem_audit.site) =
           s.Handlers.Mem_audit.s_space = Sass.Opcode.Global
           && not s.Handlers.Mem_audit.s_store
         in
         let global_st (s : Handlers.Mem_audit.site) =
           s.Handlers.Mem_audit.s_space = Sass.Opcode.Global
           && s.Handlers.Mem_audit.s_store
         in
         let reconcile what audit_total machine =
           if audit_total <> machine then
             fail "%s/%s: audit %s = %d but machine counted %d" suite name
               what audit_total machine
         in
         reconcile "gld lines"
           (sum global_ld (fun s -> s.Handlers.Mem_audit.s_total))
           sa.Gpu.Stats.gld_transactions;
         reconcile "gst lines"
           (sum global_st (fun s -> s.Handlers.Mem_audit.s_total))
           sa.Gpu.Stats.gst_transactions;
         reconcile "shared accesses"
           (sum shared (fun s -> s.Handlers.Mem_audit.s_execs))
           sa.Gpu.Stats.shared_accesses;
         reconcile "shared conflicts"
           (sum shared (fun s ->
                s.Handlers.Mem_audit.s_total - s.Handlers.Mem_audit.s_execs))
           sa.Gpu.Stats.shared_conflicts;
         (* Static predictions vs the per-site measurements. *)
         Printf.printf
           "%s/%s (%s)\n  %-24s %6s %-6s %2s | %9s %9s %6s  verdict\n" suite
           name variant "kernel" "pc" "space" "rw" "predicted" "measured"
           "execs";
         let n_sites = ref 0 and n_exact = ref 0 and n_matched = ref 0 in
         let site_objs = ref [] in
         List.iter
           (fun (kname, (k : Sass.Program.kernel)) ->
              match Hashtbl.find_opt captures kname with
              | None -> fail "%s/%s: kernel %s never launched" suite name kname
              | Some mc when mc.mc_multi ->
                Printf.printf
                  "  %-24s launched with varying geometry; skipped\n" kname
              | Some mc ->
                let ctx =
                  Analysis.Absdom.concrete_ctx ~param:mc.mc_param mc.mc_geom
                in
                let instrs = k.Sass.Program.instrs in
                let cfgk = Sass.Cfg.build instrs in
                let states = Analysis.Absdom.analyze ctx instrs cfgk in
                let preds =
                  Analysis.Mempredict.predict ~geom:mc.mc_geom
                    ~line_bytes:cfg.Gpu.Config.line_bytes instrs cfgk states
                in
                List.iter
                  (fun (p : Analysis.Mempredict.prediction) ->
                     incr n_sites;
                     if p.Analysis.Mempredict.p_exact then incr n_exact;
                     let measured =
                       List.find_opt
                         (fun (s : Handlers.Mem_audit.site) ->
                            s.Handlers.Mem_audit.s_kernel = kname
                            && s.Handlers.Mem_audit.s_pc
                               = p.Analysis.Mempredict.p_pc)
                         sites
                     in
                     let verdict =
                       match measured with
                       | None -> "unexecuted"
                       | Some s ->
                         if
                           p.Analysis.Mempredict.p_exact
                           && not s.Handlers.Mem_audit.s_partial
                         then
                           if
                             p.Analysis.Mempredict.p_min
                             = p.Analysis.Mempredict.p_max
                             && s.Handlers.Mem_audit.s_min
                                = p.Analysis.Mempredict.p_min
                             && s.Handlers.Mem_audit.s_max
                                = p.Analysis.Mempredict.p_max
                           then begin
                             incr n_matched;
                             "exact"
                           end
                           else begin
                             fail
                               "%s/%s %s pc %d: predicted %d..%d, measured \
                                %d..%d"
                               suite name kname p.Analysis.Mempredict.p_pc
                               p.Analysis.Mempredict.p_min
                               p.Analysis.Mempredict.p_max
                               s.Handlers.Mem_audit.s_min
                               s.Handlers.Mem_audit.s_max;
                             "MISMATCH"
                           end
                         else "~ " ^ p.Analysis.Mempredict.p_note
                     in
                     if
                       all_exact && not p.Analysis.Mempredict.p_exact
                     then
                       fail "%s/%s %s pc %d: expected exact site, got: %s"
                         suite name kname p.Analysis.Mempredict.p_pc
                         p.Analysis.Mempredict.p_note;
                     let m_min, m_max, m_execs =
                       match measured with
                       | None -> (0, 0, 0)
                       | Some s ->
                         (s.Handlers.Mem_audit.s_min,
                          s.Handlers.Mem_audit.s_max,
                          s.Handlers.Mem_audit.s_execs)
                     in
                     Printf.printf
                       "  %-24s %6d %-6s %2s | %4d..%-4d %4d..%-4d %6d  %s\n"
                       kname p.Analysis.Mempredict.p_pc
                       (Format.asprintf "%a" Sass.Opcode.pp_space
                          p.Analysis.Mempredict.p_space)
                       (if p.Analysis.Mempredict.p_store then "ST" else "LD")
                       p.Analysis.Mempredict.p_min
                       p.Analysis.Mempredict.p_max m_min m_max m_execs
                       verdict;
                     site_objs :=
                       Trace.Json.Obj
                         [ ("kernel", Trace.Json.Str kname);
                           ("pc",
                            Trace.Json.Int p.Analysis.Mempredict.p_pc);
                           ("space",
                            Trace.Json.Str
                              (Format.asprintf "%a" Sass.Opcode.pp_space
                                 p.Analysis.Mempredict.p_space));
                           ("store",
                            Trace.Json.Bool p.Analysis.Mempredict.p_store);
                           ("predicted_min",
                            Trace.Json.Int p.Analysis.Mempredict.p_min);
                           ("predicted_max",
                            Trace.Json.Int p.Analysis.Mempredict.p_max);
                           ("measured_min", Trace.Json.Int m_min);
                           ("measured_max", Trace.Json.Int m_max);
                           ("execs", Trace.Json.Int m_execs);
                           ("exact",
                            Trace.Json.Bool p.Analysis.Mempredict.p_exact);
                           ("note",
                            Trace.Json.Str p.Analysis.Mempredict.p_note) ]
                       :: !site_objs)
                  preds)
           (List.rev !kernels);
         if !n_matched = 0 then
           fail "%s/%s: no exact prediction was validated (vacuous run)"
             suite name;
         Printf.printf
           "  %d site(s): %d exact, %d validated against the machine\n%!"
           !n_sites !n_exact !n_matched;
         ( Printf.sprintf "%s/%s" suite name,
           Trace.Json.Obj
             [ ("workload", Trace.Json.Str (suite ^ "/" ^ name));
               ("variant", Trace.Json.Str variant);
               ("sites", Trace.Json.Int !n_sites);
               ("exact", Trace.Json.Int !n_exact);
               ("validated", Trace.Json.Int !n_matched);
               ("gld_transactions",
                Trace.Json.Int sa.Gpu.Stats.gld_transactions);
               ("gst_transactions",
                Trace.Json.Int sa.Gpu.Stats.gst_transactions);
               ("shared_accesses",
                Trace.Json.Int sa.Gpu.Stats.shared_accesses);
               ("shared_conflicts",
                Trace.Json.Int sa.Gpu.Stats.shared_conflicts);
               ("per_site", Trace.Json.List (List.rev !site_objs)) ],
           (!n_sites, !n_exact, !n_matched) ))
      analysis_mem_rows
  in
  let counters =
    List.concat_map
      (fun (key, _, (n, e, m)) ->
         [ (key ^ "/sites", n); (key ^ "/exact", e); (key ^ "/validated", m) ])
      wl_objs
  in
  write_experiment_manifest ~experiment:"analysis-mem" ~rc ~counters
    ~histograms:[];
  let json =
    Trace.Json.Obj
      [ ("schema", Trace.Json.Str "sassi-bench-analysis-mem/1");
        ("failures", Trace.Json.Int !failures);
        ("workloads",
         Trace.Json.List (List.map (fun (_, o, _) -> o) wl_objs)) ]
  in
  Trace.Json.write_file "BENCH_analysis_mem.json" json;
  Printf.printf "\nwrote BENCH_analysis_mem.json\n%!";
  if !failures > 0 then begin
    Printf.eprintf
      "analysis-mem: %d prediction/reconciliation failure(s)\n" !failures;
    exit 1
  end

(* --- Driver -------------------------------------------------------------------- *)

let all rc =
  table1 rc;
  fig5 rc;
  fig7 rc;
  fig8 rc;
  table2 rc;
  fig10 rc;
  table3 rc;
  cachesim rc;
  scaling rc;
  profiling rc;
  telemetry rc;
  analysis rc;
  analysis_mem rc

let usage =
  "table1|fig5|fig7|fig8|table2|fig10|table3|cachesim|scaling|profiling|\
   telemetry|analysis|analysis-mem|all"

let () =
  let quick = ref false and jobs = ref 1 and seed = ref 2025 in
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 && n <= Par.Pool.max_domains ->
          jobs := n;
          parse acc rest
        | _ -> bad "bench: --jobs expects an integer in 1..%d"
                 Par.Pool.max_domains)
    | [ "--jobs" ] -> bad "bench: --jobs expects an argument"
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with
        | Some s ->
          seed := s;
          parse acc rest
        | None -> bad "bench: --seed expects an integer")
    | [ "--seed" ] -> bad "bench: --seed expects an argument"
    | "--" :: rest -> parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let cmds = parse [] (List.tl (Array.to_list Sys.argv)) in
  let pool = Par.Pool.create ~domains:!jobs () in
  let rc = { quick = !quick; jobs = !jobs; seed = !seed; pool } in
  let t0 = Unix.gettimeofday () in
  (match cmds with
   | [] -> all rc
   | cmds ->
     List.iter
       (function
         | "table1" -> table1 rc
         | "fig5" -> fig5 rc
         | "fig7" -> fig7 rc
         | "fig8" -> fig8 rc
         | "table2" -> table2 rc
         | "fig10" -> fig10 rc
         | "table3" -> table3 rc
         | "cachesim" -> cachesim rc
         | "scaling" -> scaling rc
         | "profiling" -> profiling rc
         | "telemetry" -> telemetry rc
         | "analysis" -> analysis rc
         | "analysis-mem" -> analysis_mem rc
         | "all" -> all rc
         | other ->
           Printf.eprintf "unknown experiment %s (%s)\n" other usage;
           exit 1)
       cmds);
  Par.Pool.shutdown pool;
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
