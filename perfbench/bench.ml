(* perfbench: the repository benchmark. One run executes one named
   workload as a closed loop (one client) for --seconds, checks every
   job's output against the committed references, and prints the
   end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1)
   as the last stdout line, one JSON object. Layers are reached only
   through their public calls and the Obs spans the program already
   emits. perfbench/README.md documents the workloads and metrics. *)

(* ---- workloads ---- *)

open Jobs

let plain_sim =
  [ job ~variant:"small" Plain "parboil/sgemm";
    job Plain "parboil/cutcp";
    job ~variant:"large" Plain "parboil/spmv";
    job ~variant:"1M" Plain "parboil/bfs";
    job Plain "parboil/histo";
    job Plain "rodinia/bfs";
    job Plain "rodinia/nw";
    job Plain "rodinia/gaussian" ]

let sassi_targets =
  [ ("parboil/spmv", "small"); ("parboil/bfs", "NY"); ("rodinia/mummergpu", "default") ]

(* rodinia/nn runs under Value_profile and the stub only. nn has no
   conditional branch, so Branch_stats finds no site in it, and its
   Branch_stats and Mem_divergence jobs were the two fastest of
   profiled-sim: without them the median falls between two jobs of
   near-equal time, not into a gap between job times. *)
let sassi_jobs =
  let on h targets = List.map (fun (w, variant) -> job ~variant (Sassi h) w) targets in
  let nn = ("rodinia/nn", "default") in
  on "value" (sassi_targets @ [ nn ]) @ on "branch" sassi_targets @ on "memdiv" sassi_targets
  @ on "stub" (sassi_targets @ [ nn ])

let observed_jobs =
  [ job ~variant:"small" Observed "parboil/sgemm";
    job ~variant:"medium" Observed "parboil/spmv";
    job Observed "rodinia/gaussian";
    job Observed "parboil/histo";
    job Observed "rodinia/lud" ]

(* Campaigns per pass of the served workloads. *)
let served_campaigns = 4

(* profiled-sim runs both kinds of profiler over the simulator in one
   job list: SASSI instrumentation and the CUPTI-style observers. The
   observed jobs alone spread too much from run to run (README.md,
   Run-to-run spread); among the SASSI jobs they make a third of a
   pass. *)
let device_workloads =
  [ ("plain-sim", plain_sim); ("profiled-sim", sassi_jobs @ observed_jobs) ]

(* served-campaign-http is not in BENCHMARK.json: the daemon's double
   close fails some of its requests (README.md, Known limits). *)
let served_workloads =
  [ ("served-campaign", Served.Job_table); ("served-campaign-http", Served.Loopback) ]

let workload_names = List.map fst device_workloads @ List.map fst served_workloads

(* ---- host facts ---- *)

let nproc () =
  match Unix.open_process_in "nproc" with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    Option.value n ~default:(Domain.recommended_domain_count ())

let host_json ~seed ~width =
  Trace.Json.Obj
    [ ("nproc", Trace.Json.Int width);
      ("recommended_domain_count", Trace.Json.Int (Domain.recommended_domain_count ()));
      ("build", Telemetry.Build_info.to_json (Telemetry.Build_info.collect ()));
      ("seed", Trace.Json.Int seed);
      ( "note",
        Trace.Json.Str
          "simulated timing model, unvalidated against hardware: no error \
           figure is given" ) ]

(* ---- the harness: one workload, set up and ready to run job i ---- *)

type harness = {
  keys : string array;  (** the job list, in its stated order *)
  run : int -> traced:bool -> Measure.outcome;
  served : Served.t option;
  facts : (string, facts) Hashtbl.t;  (** first facts seen per job key *)
  stop : unit -> unit;
}

(* Set-up: program initialisation, then an untimed warm-up of the job
   list's first job (served: one request), so heap growth and
   first-touch costs settle before timing. Returns the harness and how
   the warm-up job ended. *)
let setup ~workload ~seed ~width refs =
  let facts = Hashtbl.create 32 in
  let h =
    match List.assoc_opt workload device_workloads with
    | Some specs ->
      let specs = Array.of_list specs in
      let run i ~traced =
        let s = specs.(i) in
        match
          Obs.Tracer.with_span ~cat:"bench"
            ~attrs:[ ("job", Obs.Span.Str (key s)) ]
            ("job:" ^ key s)
            (fun () -> Jobs.run ~traced s)
        with
        | exception e -> Measure.Failed (key s ^ ": " ^ Printexc.to_string e)
        | f ->
          if not (Hashtbl.mem facts (key s)) then Hashtbl.replace facts (key s) f;
          (match Jobs.check refs ~key:(key s) f with
           | Ok () -> Measure.Passed
           | Error e -> Measure.Failed e)
      in
      { keys = Array.map key specs; run; served = None; facts; stop = ignore }
    | None ->
      let transport = List.assoc workload served_workloads in
      let t = Served.start ~transport ~seed ~width ~n:served_campaigns in
      let run i ~traced =
        match Served.request t ~traced i with
        | () -> Measure.Passed
        | exception e -> Measure.Failed (Printexc.to_string e)
      in
      { keys = Array.map (fun c -> c.Par.Campaign.c_name) t.Served.campaigns;
        run; served = Some t; facts; stop = (fun () -> Served.stop t) }
  in
  let warm = h.run 0 ~traced:false in
  Option.iter (fun t -> t.Served.requests <- []) h.served;
  (h, warm)

(* A set-up sample from a fresh process: spawn this executable in
   --setup-only mode and time it from spawn to its "ready" line, so
   process start and program initialisation are inside the sample. A
   child whose warm-up job failed prints the failure instead. *)
let child_setup ~workload ~seed =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
         "--setup-only" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "no reply" in
  let t1 = Unix.gettimeofday () in
  close_in ic;
  match (snd (Unix.waitpid [] pid), line) with
  | Unix.WEXITED 0, "ready" -> Ok (t1 -. t0)
  | _ -> Error ("set-up process: " ^ line)

(* ---- the timed phase ---- *)

type sample = {
  s_key : string;  (** the job's key *)
  s_traced : bool;
  s_ms : float;
}

type phase = {
  samples : sample list;  (** jobs that passed, oldest first *)
  tally : Measure.tally;
  wall_s : float;  (** sum of pass walls *)
  setups : (float, string) result list;  (** set-up samples in seconds, or why one failed *)
  spans : Obs.Span.t list;  (** traced passes, timestamps on one axis *)
  traced_wall_s : float;  (** sum of traced pass walls *)
  passes : (bool * float) list;  (** (traced, wall) per pass *)
}

(* Set-up samples per untraced run, each from a fresh process. *)
let setup_runs = 9

(* Closed loop over seed-shuffled passes of the job list. A pass that
   has started is finished, so every run times whole passes and the
   job mix behind each percentile is the same in every run. Only jobs
   that passed their checks are samples: a job that fails early must
   not make the workload look faster. With [trace], odd passes are
   traced (tracer on, layer hooks installed) and even passes are not,
   so both see the same jobs and the same heap history. An untraced
   run on a slow host starts new passes past [seconds] of timing only
   until it has the 100 samples p90 needs, and never past 1.5 x
   [seconds].

   [sample_setup] (untraced device runs) takes the set-up samples
   between passes, one per [seconds / setup_runs] of timing. The
   host's speed drifts over tens of seconds, so samples spread over the
   run see the host as the jobs see it, not only in the second before
   timing starts. Their time is not timing: the phase's clock counts
   pass walls only. *)
let timed_phase h ~rng ~seconds ~trace ~sample_setup =
  let n = Array.length h.keys in
  let t_start = Unix.gettimeofday () in
  let samples = ref [] and tally = ref Measure.empty and nsamples = ref 0 in
  let spans = ref [] and traced_wall = ref 0. and passes = ref [] in
  let timed = ref 0. and setups = ref [] in
  let setup_due () =
    let k = List.length !setups in
    k < setup_runs && float_of_int k *. seconds /. float_of_int setup_runs <= !timed
  in
  let go_on () =
    !timed < seconds || ((not trace) && !nsamples < 100 && !timed < 1.5 *. seconds)
  in
  let pass = ref 0 in
  while go_on () do
    Option.iter (fun f -> if setup_due () then setups := f () :: !setups) sample_setup;
    let traced = trace && !pass mod 2 = 1 in
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- x
    done;
    let p0 = Unix.gettimeofday () in
    if traced then Obs.Tracer.enable ();
    Array.iter
      (fun i ->
         let t0 = Unix.gettimeofday () in
         let res = h.run i ~traced in
         let t1 = Unix.gettimeofday () in
         tally := Measure.record !tally res;
         if res = Measure.Passed then begin
           samples :=
             { s_key = h.keys.(i); s_traced = traced; s_ms = (t1 -. t0) *. 1000. } :: !samples;
           incr nsamples
         end)
      perm;
    let p1 = Unix.gettimeofday () in
    if traced then begin
      let off = int_of_float ((p0 -. t_start) *. 1e6) in
      spans :=
        List.rev_append
          (List.map (fun s -> { s with Obs.Span.sp_ts_us = s.Obs.Span.sp_ts_us + off })
             (Obs.Tracer.drain ()))
          !spans;
      traced_wall := !traced_wall +. (p1 -. p0)
    end;
    passes := (traced, p1 -. p0) :: !passes;
    timed := !timed +. (p1 -. p0);
    incr pass
  done;
  Option.iter
    (fun f -> while List.length !setups < setup_runs do setups := f () :: !setups done)
    sample_setup;
  { samples = List.rev !samples; tally = !tally; wall_s = !timed; setups = List.rev !setups;
    spans = List.rev !spans; traced_wall_s = !traced_wall; passes = List.rev !passes }

(* ---- metric catalogue: (name, unit), in reporting order ---- *)

let end_to_end =
  [ ("setup_s", "s"); ("jobs_per_s", "jobs/s"); ("job_ms_p50", "ms");
    ("job_ms_p90", "ms"); ("peak_rss_mb", "MiB") ]

let per_layer =
  [ ("gpu.warp_instr_per_s", "1/s"); ("gpu.minor_words_per_warp_instr", "words/instr");
    ("gpu.launch_share", "ratio"); ("gpu.device_create_ms", "ms");
    ("gpu.launches", "count"); ("gpu.warp_instrs", "count"); ("gpu.cycles", "count");
    ("gpu.ipc", "instr/cycle"); ("gpu.l1_hit_ratio", "ratio"); ("gpu.l2_hit_ratio", "ratio");
    ("gpu.divergent_branch_ratio", "ratio") ]
  @ [ ("workloads.driver_ms", "ms"); ("kernel.compile_ms", "ms");
      ("kernel.compile_share", "ratio"); ("kernel.typecheck_ms", "ms");
      ("kernel.lower_ms", "ms"); ("kernel.optimize_ms", "ms"); ("kernel.regalloc_ms", "ms");
      ("kernel.emit_ms", "ms"); ("analysis.verify_ms", "ms");
      ("kernel.cache_hit_ratio", "ratio"); ("core.inject_ms", "ms");
      ("core.code_growth", "ratio"); ("core.warp_instr_growth", "ratio");
      ("core.cycle_overhead", "ratio"); ("core.hcalls", "count");
      ("handlers.us_per_call", "us"); ("handlers.share", "ratio");
      ("trace.records", "count"); ("trace.dropped", "count"); ("prof.samples", "count");
      ("trace.export_ms", "ms"); ("trace.export_mb", "MiB"); ("telemetry.export_ms", "ms");
      ("prof.report_ms", "ms"); ("par.busy_ratio", "ratio"); ("par.steals", "count");
      ("par.reduce_ms", "ms"); ("serve.queue_ms", "ms"); ("serve.exec_ms", "ms");
      ("serve.overhead_ms", "ms"); ("serve.call_ms_p50", "ms");
      ("serve.polls_per_job", "count"); ("serve.rss_growth_mb", "MiB");
      ("obs.trace_overhead_pct", "%") ]

(* ---- exact counts ---- *)

let ratio a b = if b = 0. then 0. else a /. b

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

(* The exact counts: deterministic, so identical across seeds' job
   orders, traced and untraced runs, and repeated runs of the same
   code. [pass] is one pass of the job list, each job's facts keyed by
   job key (device workloads: as first seen; served: the reference runs
   of every campaign); instrumented jobs are set against their plain
   references. *)
let exact_counts ~(pass : (string * facts) list) ~refs =
  let c name f = float_of_int (counter f name) in
  let x name (_, f) = float_of_int (extra f name) in
  let total name = sum (fun (_, f) -> c name f) pass in
  let sassi =
    List.filter_map
      (fun (k, f) ->
         match String.index_opt k ':' with
         | Some i when String.sub k 0 i <> "observed" ->
           Option.map (fun p -> (f, p))
             (Hashtbl.find_opt refs (String.sub k (i + 1) (String.length k - i - 1)))
         | _ -> None)
      pass
  in
  let growth name = ratio (sum (fun (f, _) -> c name f) sassi) (sum (fun (_, p) -> c name p) sassi) in
  let observed = List.filter (fun (k, _) -> mode_of_key k = Observed) pass in
  [ ("gpu.launches", sum (fun (_, f) -> float_of_int f.f_launches) pass);
    ("gpu.warp_instrs", total "warp_instrs"); ("gpu.cycles", total "cycles");
    ("gpu.ipc", ratio (total "warp_instrs") (total "cycles"));
    ("gpu.l1_hit_ratio", ratio (total "l1_hits") (total "l1_hits" +. total "l1_misses"));
    ("gpu.l2_hit_ratio", ratio (total "l2_hits") (total "l2_hits" +. total "l2_misses"));
    ("gpu.divergent_branch_ratio", ratio (total "divergent_branches") (total "branches"));
    ("core.code_growth", ratio (sum (x "instrumented_instrs") pass) (sum (x "kernel_instrs") pass));
    ("core.warp_instr_growth", growth "warp_instrs"); ("core.cycle_overhead", growth "cycles");
    ("core.hcalls", sum (fun (f, _) -> c "hcalls" f) sassi);
    ("trace.records", sum (x "records") pass); ("trace.dropped", sum (x "dropped") pass);
    ("prof.samples", sum (x "samples") pass);
    ( "trace.export_mb",
      ratio (sum (x "chrome_bytes") observed) (float_of_int (List.length observed)) /. 1048576. ) ]

(* ---- the per-layer ledger (traced passes) ---- *)

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let compile_phases = [ "typecheck"; "lower"; "optimize"; "regalloc"; "emit" ]

(* Which layer a span's self time belongs to, and its row in the
   where-the-time-goes table. *)
let layer_of (s : Obs.Span.t) =
  let name = s.Obs.Span.sp_name in
  match s.Obs.Span.sp_cat with
  | "compile" when name = "verify" -> ("analysis", "verify")
  | "compile" when List.mem name compile_phases -> ("kernel", name)
  | "compile" -> ("kernel", "compile driver")
  | "launch" -> ("gpu", "launch (simulate)")
  | "bench" -> ("bench", "job harness")
  | "job" -> ("par", "campaign job (device create + driver)")
  | "campaign" -> ("par", "campaign fan-out wait")
  | "reduce" -> ("par", "reduce")
  | "http" -> ("serve", "http handler")
  | cat -> (cat, name)

type served_facts = {
  sv_create_ms : float;  (** median Gpu.Device.create, sampled after timing *)
  sv_cache_hit_ratio : float;
  sv_rss_growth_mb : float;
  sv_warp_instrs : int array;  (** per campaign *)
}

type ledger = {
  metrics : (string * float) list;
  table : (string * string * int * float) list;  (** layer, row, count, self ms *)
  base_ms : float;  (** traced job wall: the base of every share *)
}

let ledger ~(ph : phase) ~served ~width ~exact_values =
  let spans = ph.spans in
  let traced = List.filter (fun s -> s.s_traced) ph.samples in
  let jobs = float_of_int (max 1 (List.length traced)) in
  let base_ms = sum (fun s -> s.s_ms) traced in
  let dur pred = sum (fun s -> if pred s then float_of_int (Obs.Span.duration_us s) /. 1000. else 0.) spans in
  let per_job pred = dur pred /. jobs in
  (* per job of one mode: SASSI work per SASSI job, exports per observed job *)
  let per_mode_job m pred =
    let n = List.length (List.filter (fun s -> m (mode_of_key s.s_key)) traced) in
    ratio (dur pred) (float_of_int n)
  in
  let sassi = function Sassi _ -> true | _ -> false and observed m = m = Observed in
  let named n s = s.Obs.Span.sp_name = n in
  let cat c s = s.Obs.Span.sp_cat = c in
  let compile_ms = dur (fun s -> starts_with "compile:" s.Obs.Span.sp_name) in
  let launch_ms = dur (cat "launch") in
  let selfs = Measure.self_times spans in
  let g = Jobs.gauges in
  let traced_passes, untraced_passes = List.partition fst ph.passes in
  let median_pass l = Measure.median (Array.of_list (List.map snd l)) in
  let overhead =
    if traced_passes = [] || untraced_passes = [] then 0.
    else 100. *. (median_pass traced_passes /. median_pass untraced_passes -. 1.)
  in
  let layer_specific =
    match served with
    | None ->
      let creates = List.length (List.filter (named "gpu.create") spans) in
      [ ("gpu.warp_instr_per_s", ratio (float_of_int g.launch_warp_instrs) g.launch_s);
        ( "gpu.minor_words_per_warp_instr",
          ratio g.launch_words (float_of_int g.launch_warp_instrs) );
        ( "gpu.device_create_ms",
          ratio (dur (named "gpu.create")) (float_of_int creates) );
        ( "workloads.driver_ms",
          sum (fun (s, us) -> if named "workloads.run" s then float_of_int us /. 1000. else 0.) selfs
          /. jobs ) ]
    | Some (t, sv) ->
      let trq = List.filter (fun r -> r.Served.rq_traced) t.Served.requests in
      let mean f = ratio (sum f trq) (float_of_int (List.length trq)) in
      let calls = List.concat_map (fun r -> r.Served.rq_calls_s) trq in
      (* steals during a traced request: its counter minus the previous
         request's (the list is newest first) *)
      let rec steals acc = function
        | r :: (prev :: _ as rest) ->
          steals
            (if r.Served.rq_traced then acc +. r.Served.rq_steals -. prev.Served.rq_steals
             else acc)
            rest
        | _ -> acc
      in
      [ ( "gpu.warp_instr_per_s",
          ratio
            (sum (fun r -> float_of_int sv.sv_warp_instrs.(r.Served.rq_campaign)) trq)
            (launch_ms /. 1000.) );
        ("gpu.device_create_ms", sv.sv_create_ms);
        ("kernel.cache_hit_ratio", sv.sv_cache_hit_ratio);
        ( "par.busy_ratio",
          ratio (dur (cat "job")) (ph.traced_wall_s *. 1000. *. float_of_int width) );
        ("par.steals", ratio (steals 0. t.Served.requests) (float_of_int (List.length trq)));
        ("par.reduce_ms", per_job (cat "reduce"));
        ("serve.queue_ms", 1000. *. mean (fun r -> r.Served.rq_queue_s));
        ("serve.exec_ms", 1000. *. mean (fun r -> r.Served.rq_exec_s));
        ( "serve.overhead_ms",
          1000. *. mean (fun r -> r.Served.rq_latency_s -. r.Served.rq_exec_s) );
        ( "serve.call_ms_p50",
          if calls = [] then 0. else 1000. *. Measure.median (Array.of_list calls) );
        ("serve.polls_per_job", mean (fun r -> float_of_int r.Served.rq_polls));
        ("serve.rss_growth_mb", sv.sv_rss_growth_mb) ]
  in
  let timed =
    [ ("gpu.launch_share", ratio launch_ms base_ms);
      ("kernel.compile_ms", compile_ms /. jobs);
      ("kernel.compile_share", ratio compile_ms base_ms) ]
    @ List.map (fun p -> ("kernel." ^ p ^ "_ms", per_job (named p))) compile_phases
    @ [ ("analysis.verify_ms", per_job (named "verify"));
        ("core.inject_ms", per_mode_job sassi (named "core.inject"));
        ("handlers.us_per_call", 1e6 *. ratio g.handler_s (float_of_int g.handler_calls));
        ("handlers.share", ratio (g.handler_s *. 1000.) base_ms);
        ("trace.export_ms", per_mode_job observed (named "trace.export"));
        ("telemetry.export_ms", per_mode_job observed (named "telemetry.export"));
        ("prof.report_ms", per_mode_job observed (named "prof.report"));
        ("obs.trace_overhead_pct", overhead) ]
  in
  let known = layer_specific @ timed @ exact_values in
  (* a layer this workload does not exercise reads 0 *)
  let metrics =
    List.map (fun (n, _) -> (n, Option.value (List.assoc_opt n known) ~default:0.)) per_layer
  in
  (* where the time goes: self time per (layer, row); handler bodies
     run inside launches, so their time moves from gpu to handlers *)
  let rows = Hashtbl.create 32 in
  let add k c t =
    let c0, t0 = Option.value (Hashtbl.find_opt rows k) ~default:(0, 0.) in
    Hashtbl.replace rows k (c0 + c, t0 +. t)
  in
  List.iter (fun (s, us) -> add (layer_of s) 1 (float_of_int us /. 1000.)) selfs;
  if g.handler_calls > 0 then begin
    add ("gpu", "launch (simulate)") 0 (-.g.handler_s *. 1000.);
    add ("handlers", "handler bodies") g.handler_calls (g.handler_s *. 1000.)
  end;
  let table =
    Hashtbl.fold (fun (l, r) (c, t) acc -> (l, r, c, t) :: acc) rows []
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  in
  { metrics; table; base_ms }

(* ---- output ---- *)

let result_json ~correct ~(tally : Measure.tally) metrics units =
  Trace.Json.Obj
    [ ("correct", Trace.Json.Bool correct);
      ("attempted", Trace.Json.Int tally.Measure.attempted);
      ("failed", Trace.Json.Int tally.Measure.failed);
      ( "metrics",
        Trace.Json.Obj
          (List.map
             (fun (n, v) ->
                ( n,
                  Trace.Json.Obj
                    [ ("value", Trace.Json.Float v);
                      ("unit", Trace.Json.Str (List.assoc n units)) ] ))
             metrics) ) ]

let out_dir = ".bench_out"

let out_path name =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat out_dir name

let print_table ~served (l : ledger) =
  Printf.printf "where the time goes (self time; base = traced job wall %.1f ms)\n" l.base_ms;
  if served <> None then
    print_string
      "  note: campaign jobs run on parallel worker tracks, so their shares can\n\
      \  pass 100%\n";
  if served = Some Served.Loopback then
    print_string
      "  note: daemon threads share domain 0's span stack, so the split between\n\
      \  http handler and campaign fan-out wait is unreliable\n";
  Printf.printf "  %-10s %-40s %8s %11s %8s\n" "layer" "span" "count" "self ms" "share";
  List.iter
    (fun (layer, row, c, t) ->
       Printf.printf "  %-10s %-40s %8d %11.1f %7.1f%%\n" layer row c t
         (100. *. ratio t l.base_ms))
    l.table

let table_json (l : ledger) =
  Trace.Json.List
    (List.map
       (fun (layer, row, c, t) ->
          Trace.Json.Obj
            [ ("layer", Trace.Json.Str layer); ("span", Trace.Json.Str row);
              ("count", Trace.Json.Int c); ("self_ms", Trace.Json.Float t);
              ("base_ms", Trace.Json.Float l.base_ms) ])
       l.table)

(* ---- main ---- *)

let run ~workload ~seed ~seconds ~trace =
  let width = nproc () in
  let refs = Jobs.load_refs () in
  let child () = child_setup ~workload ~seed in
  (* served-campaign-http takes its set-up samples before its daemon
     starts: the daemon closes each connection's descriptor twice
     (README.md, Known limits), so a pipe opened while it serves can be
     closed under the benchmark. The other workloads spread theirs over
     timing. *)
  let loopback = List.assoc_opt workload served_workloads = Some Served.Loopback in
  let early = if trace || not loopback then [] else List.init setup_runs (fun _ -> child ()) in
  let h, warm = setup ~workload ~seed ~width refs in
  let rng = Random.State.make [| seed |] in
  let cache0 = Kernel.Cache.stats () and rss0 = Measure.vm_rss_mib () in
  let sample_setup = if trace || loopback then None else Some child in
  let ph = timed_phase h ~rng ~seconds ~trace ~sample_setup in
  let setups = early @ ph.setups in
  let setup_times = List.filter_map Result.to_option setups in
  let peak = Option.value (Measure.peak_rss_mib ()) ~default:0. in
  let cache1 = Kernel.Cache.stats () and rss1 = Measure.vm_rss_mib () in
  h.stop ();
  (* post-timing checks, and one pass of the job list's exact facts *)
  let pass, served, late_errors =
    match h.served with
    | None ->
      ( Array.to_list h.keys
        |> List.filter_map (fun k -> Option.map (fun f -> (k, f)) (Hashtbl.find_opt h.facts k)),
        None, [] )
    | Some t ->
      let outcomes, errors = Served.verify t refs in
      let creates =
        Array.init 5 (fun _ ->
            1000. *. snd (Obs.Clock.with_wall_time (fun () -> ignore (Gpu.Device.create ()))))
      in
      let hits = cache1.Kernel.Cache.c_hits - cache0.Kernel.Cache.c_hits in
      let misses = cache1.Kernel.Cache.c_misses - cache0.Kernel.Cache.c_misses in
      let sv =
        { sv_create_ms = Measure.median creates;
          sv_cache_hit_ratio = ratio (float_of_int hits) (float_of_int (hits + misses));
          sv_rss_growth_mb =
            (match (rss0, rss1) with Some a, Some b -> b -. a | _ -> 0.);
          sv_warp_instrs =
            Array.map (fun o -> o.Serve.Runner.o_stats.Gpu.Stats.warp_instrs) outcomes }
      in
      let pass =
        Array.to_list outcomes
        |> List.concat_map (fun o ->
            List.filter_map
              (function
                | Serve.Runner.R_run r -> Some ("run", Jobs.facts_of r [])
                | Serve.Runner.R_inject _ -> None)
              (Array.to_list o.Serve.Runner.o_results))
      in
      (pass, Some (t, sv), errors)
  in
  (* a set-up whose warm-up job failed counts as a failed job *)
  let tally =
    List.fold_left Measure.record ph.tally
      ((if warm = Measure.Passed then [] else [ warm ])
       @ List.filter_map (function Ok _ -> None | Error e -> Some (Measure.Failed e)) setups)
  in
  let tally = List.fold_left Measure.reject tally late_errors in
  let correct = tally.Measure.failed = 0 in
  let exact_values = exact_counts ~pass ~refs in
  let host = host_json ~seed ~width in
  Printf.printf "perfbench %s: seed %d, %g s, trace %d\n" workload seed seconds
    (if trace then 1 else 0);
  Printf.printf "host: %s\n" (Trace.Json.to_string host);
  Printf.printf "jobs: %d attempted, %d failed\n" tally.Measure.attempted tally.Measure.failed;
  List.iter (fun e -> Printf.printf "  failure: %s\n" e) tally.Measure.errors;
  Printf.printf "exact counts (one pass of the job list):\n";
  List.iter (fun (n, v) -> Printf.printf "  %-32s %.10g\n" n v) exact_values;
  let ms =
    Array.of_list (List.filter_map (fun s -> if s.s_traced then None else Some s.s_ms) ph.samples)
  in
  let n = Array.length ms in
  let metrics, units, extra =
    if trace then begin
      let l = ledger ~ph ~served ~width ~exact_values in
      print_table ~served:(Option.map (fun (t, _) -> t.Served.transport) served) l;
      Printf.printf "per-layer metrics:\n";
      List.iter
        (fun (name, v) -> Printf.printf "  %-32s %16.4f %s\n" name v (List.assoc name per_layer))
        l.metrics;
      let path = out_path (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
      Obs.Export.write_file path ph.spans;
      Printf.printf "spans: %d -> %s (opens in Perfetto)\n" (List.length ph.spans) path;
      ( l.metrics, per_layer,
        [ ("table", table_json l);
          ( "passes",
            Trace.Json.List
              (List.map
                 (fun (traced, wall) ->
                    Trace.Json.Obj
                      [ ("traced", Trace.Json.Bool traced); ("wall_s", Trace.Json.Float wall) ])
                 ph.passes) ) ] )
    end
    else begin
      let refuse name e =
        Printf.eprintf "perfbench: %s refused: %s\n" name e;
        exit 2
      in
      let p90 =
        match Measure.tail_percentile ms 90. with
        | Ok v -> v
        | Error e -> refuse "job_ms_p90" e
      in
      if setup_times = [] then refuse "setup_s" "no set-up succeeded";
      let metrics =
        [ ("setup_s", Measure.median (Array.of_list setup_times));
          ("jobs_per_s", float_of_int n /. ph.wall_s);
          ("job_ms_p50", Measure.median ms);
          ("job_ms_p90", p90);
          ("peak_rss_mb", peak) ]
      in
      List.iter
        (fun (name, v) ->
           let note =
             match name with
             | "setup_s" -> Printf.sprintf "median of %d set-ups" (List.length setup_times)
             | "peak_rss_mb" -> "VmHWM of this process"
             | "jobs_per_s" -> Printf.sprintf "n=%d in %.2f s" n ph.wall_s
             | _ -> Printf.sprintf "n=%d" n
           in
           Printf.printf "  %-12s %14.4f %-6s (%s)\n" name v (List.assoc name end_to_end) note)
        metrics;
      (metrics, end_to_end, [])
    end
  in
  let result = result_json ~correct ~tally metrics units in
  let path = out_path (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (if trace then 1 else 0)) in
  Trace.Json.write_file path
    (Trace.Json.Obj
       ([ ("workload", Trace.Json.Str workload); ("host", host);
          ("seconds", Trace.Json.Float seconds); ("samples", Trace.Json.Int n);
          ( "setup_samples_s",
            Trace.Json.List (List.map (fun s -> Trace.Json.Float s) setup_times) );
          ( "exact",
            Trace.Json.Obj (List.map (fun (k, v) -> (k, Trace.Json.Float v)) exact_values) );
          ("errors", Trace.Json.List (List.map (fun e -> Trace.Json.Str e) tally.Measure.errors));
          ("result", result) ]
        @ extra));
  Printf.printf "result: %s\n" path;
  print_endline (Trace.Json.to_string result)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let setup_only = ref false and record = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workload_names);
      ("--seed", Arg.Set_int seed, " workload seed (job order, campaign seeds)");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer ledger");
      ("--setup-only", Arg.Set setup_only, " set up, print \"ready\", exit");
      ("--record-refs", Arg.Set record, " print the reference table (refs.json)") ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record then
    print_endline
      (Trace.Json.to_string
         (Jobs.record_refs (List.concat_map snd device_workloads @ Served.campaign_runs)))
  else if not (List.mem !workload workload_names) then begin
    Printf.eprintf "perfbench: unknown workload %S (expected one of %s)\n" !workload
      (String.concat ", " workload_names);
    exit 2
  end
  else if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end
  else if !setup_only then begin
    let h, warm = setup ~workload:!workload ~seed:!seed ~width:(nproc ()) (Jobs.load_refs ()) in
    print_endline
      (match warm with Measure.Passed -> "ready" | Measure.Failed e -> "warm-up job failed: " ^ e);
    h.stop ();
    if warm <> Measure.Passed then exit 1
  end
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
