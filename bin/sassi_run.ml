(* sassi_run: command-line driver for the simulated-GPU SASSI stack.

   Subcommands:
     list                     - list registered workloads and variants
     run WORKLOAD             - run a workload, optionally instrumented
     disasm WORKLOAD          - print the SASS of a workload's kernels
                                (before and, optionally, after injection)
     lint WORKLOAD|all        - static analysis over compiled kernels
     analyze WORKLOAD         - per-site instrumentation cost model
     campaign WORKLOAD|FILE   - fault-injection campaign, or a whole
                                job matrix on a --jobs N domain pool
     compare A.json B.json    - diff two run manifests
     trace-summary FILE       - validate + summarize a host-trace file *)

open Cmdliner

(* Every instrumentation kind, by name: [install device] creates its
   handlers and returns their pairs together with a printer for the
   summary `run` shows after the workload. [analyze] models the pairs'
   specs; "none" there means the stub's no-op handler, while `run -i
   none` installs nothing. *)
let instruments =
  let noop =
    [ (Sassi.Select.before [ Sassi.Select.All ] [], Sassi.Handler.noop) ]
  in
  [ ("none", fun _ -> (noop, ignore));
    ( "opcode",
      fun device ->
        let h = Handlers.Opcode_hist.create device in
        ( Handlers.Opcode_hist.pairs h,
          fun () ->
            let c = Handlers.Opcode_hist.read h in
            Format.printf
              "opcode histogram: mem=%d ext=%d ctrl=%d sync=%d numeric=%d \
               tex=%d total=%d@."
              c.Handlers.Opcode_hist.memory
              c.Handlers.Opcode_hist.extended_memory
              c.Handlers.Opcode_hist.control c.Handlers.Opcode_hist.sync
              c.Handlers.Opcode_hist.numeric c.Handlers.Opcode_hist.texture
              c.Handlers.Opcode_hist.total ) );
    ( "branch",
      fun device ->
        let h = Handlers.Branch_stats.create device in
        ( Handlers.Branch_stats.pairs h,
          fun () ->
            let s = Handlers.Branch_stats.summary h in
            Format.printf
              "branches: static %d (%d divergent), dynamic %d (%d divergent)@."
              s.Handlers.Branch_stats.static_branches
              s.Handlers.Branch_stats.static_divergent
              s.Handlers.Branch_stats.dynamic_branches
              s.Handlers.Branch_stats.dynamic_divergent ) );
    ( "memdiv",
      fun device ->
        let h = Handlers.Mem_divergence.create device in
        ( Handlers.Mem_divergence.pairs h,
          fun () ->
            Format.printf "unique-lines PMF:";
            Array.iteri
              (fun u f ->
                 if f > 0.005 then
                   Format.printf " %d:%.1f%%" (u + 1) (100. *. f))
              (Handlers.Mem_divergence.pmf h);
            Format.printf "@." ) );
    ( "value",
      fun device ->
        let h = Handlers.Value_profile.create device in
        ( Handlers.Value_profile.pairs h,
          fun () ->
            let s = Handlers.Value_profile.summary h in
            Format.printf
              "value profile: dyn const bits %.0f%%, dyn scalar %.0f%%, \
               static const bits %.0f%%, static scalar %.0f%%@."
              s.Handlers.Value_profile.dynamic_const_bits_pct
              s.Handlers.Value_profile.dynamic_scalar_pct
              s.Handlers.Value_profile.static_const_bits_pct
              s.Handlers.Value_profile.static_scalar_pct ) );
    ( "blocks",
      fun device ->
        let h = Handlers.Block_profile.create device in
        ( Handlers.Block_profile.pairs h,
          fun () ->
            Format.printf "kernel entries %d, exits %d; hottest blocks:@."
              (Handlers.Block_profile.entries h)
              (Handlers.Block_profile.exits h);
            List.iteri
              (fun i b ->
                 if i < 8 then
                   Format.printf "  0x%08x: %d warp execs, %d thread execs@."
                     b.Handlers.Block_profile.ins_addr
                     b.Handlers.Block_profile.warp_execs
                     b.Handlers.Block_profile.thread_execs)
              (Handlers.Block_profile.blocks h) ) );
    ( "trace",
      fun _ ->
        let tr = Handlers.Mem_trace.create () in
        ( Handlers.Mem_trace.pairs tr,
          fun () ->
            Format.printf "traced %d global warp accesses; cache sweep:@."
              (Handlers.Mem_trace.length tr);
            List.iter
              (fun res ->
                 Format.printf "  %a@." Handlers.Cache_explorer.pp_result res)
              (Handlers.Cache_explorer.sweep (Handlers.Mem_trace.trace tr)
                 Handlers.Cache_explorer.default_sweep) ) );
    ("stub", fun _ -> (noop, ignore)) ]

(* "kernel,mem,warp" -> activity kinds; [Error] names the bad kind. *)
let parse_trace_filter = function
  | None -> Ok Cupti.Activity.all_kinds
  | Some spec ->
    let parts =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    List.fold_left
      (fun acc p ->
         match (acc, Cupti.Activity.kind_of_string p) with
         | Error e, _ -> Error e
         | Ok _, None -> Error p
         | Ok ks, Some k -> Ok (k :: ks))
      (Ok []) parts
    |> Result.map List.rev

let dump_trace device path =
  let records = Cupti.Activity.records device in
  let dropped = Cupti.Activity.dropped device in
  (try
     if Filename.check_suffix path ".ndjson" then
       Trace.Ndjson.write_file path records
     else Trace.Chrome.write_file path records
   with Sys_error m ->
     Format.eprintf "cannot write trace: %s@." m;
     exit 1);
  Format.printf "trace: %d activity records (%d dropped) -> %s@."
    (List.length records) dropped path;
  let tl = Trace.Timeline.build records in
  Format.printf "%a" Trace.Timeline.pp_summary tl

(* Numeric flags are validated up front, before any simulation or
   file I/O, so a bad value always dies with the same one-line error
   regardless of which features are enabled. *)
let check_positive name v =
  if v <= 0 then begin
    Format.eprintf "%s must be positive (got %d)@." name v;
    exit 1
  end

let check_jobs jobs =
  if jobs < 1 || jobs > Par.Pool.max_domains then begin
    Format.eprintf "--jobs must be in 1..%d (got %d)@." Par.Pool.max_domains
      jobs;
    exit 1
  end

(* Drain the ambient tracer and write the Chrome trace_event file.
   Shared tail of `run --host-trace` and `campaign --host-trace`;
   call only after every traced task has been joined. *)
let dump_host_trace path =
  let spans = Obs.Tracer.drain () in
  (try Obs.Export.write_file path spans
   with Sys_error m ->
     Format.eprintf "cannot write host trace: %s@." m;
     exit 1);
  Format.printf "host trace: %d span(s) -> %s@." (List.length spans) path;
  Format.printf "%a" Obs.Export.pp_summary spans

(* "ipc,l1_hit_rate" -> metrics from the registry; exits on unknown
   names before any simulation runs. *)
let parse_metrics = function
  | None -> None
  | Some spec ->
    let names =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    (match Prof.Metrics.resolve names with
     | Ok ms -> Some ms
     | Error e ->
       Format.eprintf "%s@." e;
       exit 1)

let run_workload name variant instrument show_stats trace_out trace_filter
    trace_capacity profile pc_sampling_period metrics_spec profile_out
    stats_json telemetry telemetry_interval telemetry_out manifest_out seed
    l1_bytes host_trace =
  check_positive "--trace-capacity" trace_capacity;
  check_positive "--pc-sampling-period" pc_sampling_period;
  check_positive "--telemetry-interval" telemetry_interval;
  (match l1_bytes with
   | Some b -> check_positive "--l1-bytes" b
   | None -> ());
  match Workloads.Registry.find_opt name with
  | None ->
    Format.eprintf "unknown workload %s; try `sassi_run list`@." name;
    1
  | Some w ->
    let variant =
      match variant with
      | Some v -> v
      | None -> w.Workloads.Workload.default_variant
    in
    let metric_list = parse_metrics metrics_spec in
    let profiling = profile || profile_out <> None || metric_list <> None in
    let cfg =
      match l1_bytes with
      | None -> Gpu.Config.default
      | Some b -> { Gpu.Config.default with Gpu.Config.l1_bytes = b }
    in
    let device = Gpu.Device.create ~cfg () in
    let sampling =
      if profiling then
        Some (Cupti.Pc_sampling.enable ~period:pc_sampling_period device)
      else None
    in
    let telemetry_on =
      telemetry || telemetry_out <> None || manifest_out <> None
    in
    let tele =
      if telemetry_on then
        Some (Cupti.Telemetry.enable ~interval:telemetry_interval device)
      else None
    in
    (match (trace_out, parse_trace_filter trace_filter) with
     | _, Error bad ->
       Format.eprintf
         "unknown trace kind %s (expected kernel, block, warp, mem, cache, \
          handler, fault)@."
         bad;
       exit 1
     | None, Ok _ -> ()
     | Some path, Ok kinds ->
       (* Fail on an unwritable output before simulating, not after. *)
       (try close_out (open_out path)
        with Sys_error m ->
          Format.eprintf "cannot write trace: %s@." m;
          exit 1);
       Cupti.Activity.enable ~capacity:trace_capacity device kinds);
    if host_trace <> None then Obs.Tracer.enable ();
    let last_result = ref None in
    let finish (r : Workloads.Workload.result) =
      last_result := Some r;
      Format.printf "%s/%s (%s): %s@." w.Workloads.Workload.suite
        w.Workloads.Workload.name variant r.Workloads.Workload.stdout;
      Format.printf "output digest: %s@." r.Workloads.Workload.output_digest;
      if show_stats then
        Format.printf "stats: %a@.launches: %d@." Gpu.Stats.pp
          r.Workloads.Workload.stats r.Workloads.Workload.launches
    in
    let (), wall_time_s =
      Obs.Clock.with_wall_time @@ fun () ->
      Obs.Tracer.with_span ~cat:"run"
        ~attrs:
          [ ("workload", Obs.Span.Str name);
            ("variant", Obs.Span.Str variant);
            ("instrument", Obs.Span.Str instrument) ]
        ("run:" ^ name)
      @@ fun () ->
      if instrument = "none" then
        finish (w.Workloads.Workload.run device ~variant)
      else begin
        let pairs, summary = List.assoc instrument instruments device in
        finish
          (Sassi.Runtime.with_instrumentation device pairs (fun _ ->
               w.Workloads.Workload.run device ~variant));
        summary ()
      end
    in
    (match trace_out with
     | Some path -> dump_trace device path
     | None -> ());
    (match (sampling, !last_result) with
     | Some s, Some r ->
       Cupti.Pc_sampling.disable device;
       let report =
         Cupti.Pc_sampling.report ?metrics:metric_list
           ~stats:r.Workloads.Workload.stats device s
       in
       (match profile_out with
        | None -> print_string (Prof.Report.to_text report)
        | Some path ->
          (try Prof.Report.write_file path report
           with Sys_error m ->
             Format.eprintf "cannot write profile: %s@." m;
             exit 1);
          Format.printf "profile: %d warp samples (%d sampler hits) -> %s@."
            (Prof.Pc_sampling.total_samples s)
            (Prof.Pc_sampling.hits s)
            path)
     | _ -> ());
    (match tele with
     | None -> ()
     | Some t ->
       (match telemetry_out with
        | Some path ->
          (try Telemetry.Export.write_file path (Cupti.Telemetry.registry t)
           with Sys_error m ->
             Format.eprintf "cannot write telemetry: %s@." m;
             exit 1);
          Format.printf "telemetry: %d instruments -> %s@."
            (List.length
               (Telemetry.Registry.specs (Cupti.Telemetry.registry t)))
            path
        | None -> ());
       if telemetry then begin
         Format.printf "telemetry histograms:@.";
         List.iter
           (fun (hname, s) ->
              if s.Telemetry.Hist.s_count > 0 then
                Format.printf
                  "  %-36s n=%-9d p50=%-9.1f p99=%-9.1f max=%d@." hname
                  s.Telemetry.Hist.s_count s.Telemetry.Hist.s_p50
                  s.Telemetry.Hist.s_p99 s.Telemetry.Hist.s_max)
           (Cupti.Telemetry.histograms t);
         Format.printf "telemetry series: %d rows (%d dropped)@."
           (Telemetry.Series.length (Cupti.Telemetry.series t))
           (Telemetry.Series.dropped (Cupti.Telemetry.series t))
       end);
    (match (manifest_out, !last_result) with
     | Some path, Some r ->
       let env =
         { Prof.Metrics.stats = r.Workloads.Workload.stats; cfg; sampling }
       in
       let metrics =
         List.concat_map
           (fun m ->
              match Prof.Metrics.compute env m with
              | Some (Prof.Metrics.Scalar v) -> [ (Prof.Metrics.name m, v) ]
              | Some (Prof.Metrics.Breakdown kvs) ->
                List.map
                  (fun (k, v) -> (Prof.Metrics.name m ^ "/" ^ k, v))
                  kvs
              | None -> [])
           Prof.Metrics.registry
       in
       let counters =
         (("launches", r.Workloads.Workload.launches)
          :: Gpu.Stats.to_assoc r.Workloads.Workload.stats)
         @ (match tele with
            | Some t -> Cupti.Telemetry.counters t
            | None -> [])
       in
       let m =
         { Telemetry.Manifest.m_workload = name;
           m_variant = variant;
           m_instrument = instrument;
           m_seed = seed;
           m_argv = Array.to_list Sys.argv;
           m_wall_time_s = wall_time_s;
           m_build = Telemetry.Build_info.collect ();
           m_config = Gpu.Config.to_assoc cfg;
           m_counters = counters;
           m_metrics = metrics;
           m_histograms =
             (match tele with
              | Some t -> Cupti.Telemetry.histograms t
              | None -> []) }
       in
       (try Telemetry.Manifest.write path m
        with Sys_error msg ->
          Format.eprintf "cannot write manifest: %s@." msg;
          exit 1);
       Format.printf "manifest -> %s@." path
     | _ -> ());
    (match !last_result with
     | Some r when stats_json ->
       let fields =
         ("launches", Trace.Json.Int r.Workloads.Workload.launches)
         :: List.map
              (fun (n, v) -> (n, Trace.Json.Int v))
              (Gpu.Stats.to_assoc r.Workloads.Workload.stats)
       in
       print_endline (Trace.Json.to_string (Trace.Json.Obj fields))
     | _ -> ());
    (match host_trace with
     | Some path -> dump_host_trace path
     | None -> ());
    0

(* Diff two run manifests; exit 0 when clean, 1 on regressions past
   threshold, 2 when a manifest cannot be read. *)
let compare_manifests path_a path_b threshold all =
  if threshold < 0.0 then begin
    Format.eprintf "--threshold must be non-negative (got %g)@." threshold;
    exit 1
  end;
  let read path =
    match Telemetry.Manifest.read path with
    | Ok m -> m
    | Error e ->
      Format.eprintf "%s@." e;
      exit 2
    | exception Sys_error m ->
      Format.eprintf "%s@." m;
      exit 2
  in
  let a = read path_a in
  let b = read path_b in
  let r = Telemetry.Compare.diff ~threshold a b in
  print_string (Telemetry.Compare.render ~all r);
  if Telemetry.Compare.regressions r <> [] then 1 else 0

let campaign target variant injections seed jobs manifest_out host_trace
    host_metrics progress =
  check_positive "--injections" injections;
  check_jobs jobs;
  (* The positional argument is either a campaign job-manifest file
     (sassi-campaign/1 JSON, see Par.Campaign) or a registry workload
     name; a lone workload becomes a one-job Inject campaign with the
     CLI's --variant/--injections/--seed, preserving the old CLI. *)
  let camp =
    if Sys.file_exists target && not (Sys.is_directory target) then
      match Par.Campaign.read target with
      | Ok c -> c
      | Error e ->
        Format.eprintf "%s@." e;
        exit 2
    else if Workloads.Registry.find_opt target <> None then
      Par.Campaign.make ~name:target ~seed
        [ Par.Campaign.job ?variant ~kind:Par.Campaign.Inject ~injections
            target ]
    else begin
      Format.eprintf
        "unknown workload or campaign file %s; try `sassi_run list`@." target;
      exit 1
    end
  in
  let njobs = List.length camp.Par.Campaign.c_jobs in
  Format.printf "campaign %s: %d job(s), seed %d, jobs %d@."
    camp.Par.Campaign.c_name njobs camp.Par.Campaign.c_seed jobs;
  if host_trace <> None then Obs.Tracer.enable ();
  (* Execution lives in Serve.Runner — the exact code the daemon's job
     API runs — so a served job's manifest is byte-identical to this
     subcommand's by construction. *)
  let code =
    Par.Pool.with_pool ~domains:jobs @@ fun pool ->
    let meter = Obs.Progress.create ~enabled:progress ~total:njobs () in
    let on_result i r =
      (* Counter samples ride the trace timeline (one point per joined
         job), never the manifest: queue depth is scheduling-dependent. *)
      Obs.Tracer.counter ~cat:"pool" "pool"
        [ ("queued", float_of_int (Par.Pool.stats pool).Par.Pool.s_queued) ];
      if Obs.Progress.active meter then Obs.Progress.step meter
      else begin
        let j = List.nth camp.Par.Campaign.c_jobs i in
        match r with
        | Serve.Runner.R_run res ->
          Format.printf "[%d/%d] run    %-24s (%s): %s@." (i + 1) njobs
            j.Par.Campaign.j_workload
            (Serve.Runner.variant_of camp i)
            res.Workloads.Workload.stdout
        | Serve.Runner.R_inject d ->
          Format.printf "[%d/%d] inject %-24s (%s): %a@." (i + 1) njobs
            j.Par.Campaign.j_workload
            (Serve.Runner.variant_of camp i)
            Workloads.Campaign.pp d.Workloads.Campaign.d_tally
      end
    in
    match Serve.Runner.run ~pool ~on_result camp with
    | Error e ->
      Obs.Progress.finish meter;
      Format.eprintf "%s@." e;
      1
    | Ok outcome ->
      Obs.Progress.finish meter;
      (match host_metrics with
       | None -> ()
       | Some path ->
         let reg = Telemetry.Registry.create () in
         Par.Pool.register_telemetry pool reg;
         (try Telemetry.Export.write_file path reg
          with Sys_error m ->
            Format.eprintf "cannot write pool metrics: %s@." m;
            exit 1);
         Format.printf "pool metrics -> %s@." path);
      let inject_count =
        Array.fold_left
          (fun n r ->
             match r with Serve.Runner.R_inject _ -> n + 1 | _ -> n)
          0 outcome.Serve.Runner.o_results
      in
      let t = outcome.Serve.Runner.o_tally in
      let open Workloads.Campaign in
      if inject_count > 1 then
        Format.printf "aggregate: masked %d  crash %d  hang %d  symptom %d  \
                       sdc-stdout %d  sdc-output %d  (n=%d)@."
          t.masked t.crashes t.hangs t.failure_symptoms t.sdc_stdout
          t.sdc_output t.total;
      Format.printf "campaign wall time: %.2f s@."
        outcome.Serve.Runner.o_wall_time_s;
      let pool_stats = Par.Pool.stats pool in
      if jobs > 1 then
        Format.printf "pool: %d task(s) on %d domain(s)@."
          pool_stats.Par.Pool.s_tasks pool_stats.Par.Pool.s_size;
      (match manifest_out with
       | None -> ()
       | Some path ->
         (* The runner's manifest is canonical (argv, wall time, and
            counters all deterministic), so manifests from any --jobs
            setting — or from the daemon — diff byte-identical. *)
         (try Telemetry.Manifest.write path outcome.Serve.Runner.o_manifest
          with Sys_error msg ->
            Format.eprintf "cannot write manifest: %s@." msg;
            exit 1);
         Format.printf "manifest -> %s@." path);
      0
  in
  (match host_trace with
   | Some path -> dump_host_trace path
   | None -> ());
  code

(* Profiling-as-a-service: boot the HTTP daemon and serve until a
   POST /shutdown (or SIGINT) arrives. The listening line is printed
   first and flushed so scripts that need the resolved ephemeral port
   can scrape it from stdout. *)
let serve port host jobs feed_capacity no_cache cache_bytes =
  check_jobs jobs;
  check_positive "--feed-capacity" feed_capacity;
  check_positive "--cache-bytes" cache_bytes;
  let cfg =
    { Serve.Daemon.cfg_host = host;
      cfg_port = port;
      cfg_pool_jobs = jobs;
      cfg_feed_capacity = feed_capacity;
      cfg_cache = not no_cache;
      cfg_cache_bytes = cache_bytes;
      cfg_access_log = Some stdout }
  in
  match Serve.Daemon.create cfg with
  | exception Unix.Unix_error (e, _, _) ->
    Format.eprintf "cannot listen on %s:%d: %s@." host port
      (Unix.error_message e);
    exit 1
  | d ->
    Format.printf "sassi serve listening on http://%s:%d@." host
      (Serve.Daemon.port d);
    Serve.Daemon.run d;
    Format.printf "sassi serve: shut down@.";
    0

(* Validate a --host-trace (or any Chrome trace_event) file: parse it
   with the same JSON reader the sinks use, check the trace shape, and
   summarize events per phase and track. Exit 2 on a parse failure,
   1 on a shape problem, 0 when the file is a loadable trace — CI's
   host-trace gate keys off exactly these codes. *)
let trace_summary path =
  match Trace.Json.parse_file path with
  | exception Sys_error m ->
    Format.eprintf "%s@." m;
    2
  | Error e ->
    Format.eprintf "%s: parse error: %s@." path e;
    2
  | Ok doc ->
    (match Trace.Json.member "traceEvents" doc with
     | Some (Trace.Json.List events) ->
       let phs = Hashtbl.create 8 in
       let tracks = Hashtbl.create 8 in
       let bad = ref 0 in
       List.iter
         (fun ev ->
            match (Trace.Json.member "ph" ev, Trace.Json.member "tid" ev) with
            | Some (Trace.Json.Str ph), Some (Trace.Json.Int tid) ->
              Hashtbl.replace phs ph
                (1 + Option.value ~default:0 (Hashtbl.find_opt phs ph));
              if ph <> "M" then Hashtbl.replace tracks tid ()
            | _ -> incr bad)
         events;
       if !bad > 0 then begin
         Format.eprintf "%s: %d event(s) missing ph/tid@." path !bad;
         1
       end
       else begin
         Format.printf "%s: %d event(s), %d track(s)@." path
           (List.length events) (Hashtbl.length tracks);
         Hashtbl.fold (fun ph n acc -> (ph, n) :: acc) phs []
         |> List.sort compare
         |> List.iter (fun (ph, n) ->
             Format.printf "  ph %-2s %6d event(s)@." ph n);
         0
       end
     | _ ->
       Format.eprintf "%s: not a Chrome trace (no traceEvents list)@." path;
       1)

let list_workloads () =
  List.iter
    (fun w ->
       Format.printf "%-10s %-14s variants: %s@." w.Workloads.Workload.suite
         w.Workloads.Workload.name
         (String.concat ", " w.Workloads.Workload.variants))
    Workloads.Registry.all;
  0

(* Disassembles one small demo kernel both clean and instrumented. *)
let disasm name instrumented =
  match Workloads.Registry.find_opt name with
  | None ->
    Format.eprintf "unknown workload %s@." name;
    1
  | Some w ->
    let device = Gpu.Device.create () in
    let shown = ref [] in
    let print_kernel k =
      if not (List.mem k.Sass.Program.name !shown) then begin
        shown := k.Sass.Program.name :: !shown;
        Format.printf "%a@." Sass.Program.pp k
      end
    in
    if instrumented then begin
      let rt = Sassi.Runtime.create () in
      Sassi.Runtime.attach rt device
        [ (Sassi.Select.before [ Sassi.Select.Memory_ops ]
             [ Sassi.Select.Mem_info ],
           Sassi.Handler.noop) ];
      (* Piggyback on the transform cache: wrap the transform to print. *)
      Gpu.Device.set_hcall device (Some (fun _ -> ()));
      let previous = device.Gpu.State.d_transform in
      Gpu.Device.set_transform device
        (Some
           (fun k ->
              let k' =
                match previous with
                | Some t -> t k
                | None -> k
              in
              print_kernel k';
              k'))
    end
    else
      Gpu.Device.set_transform device
        (Some
           (fun k ->
              print_kernel k;
              k));
    let _ =
      w.Workloads.Workload.run device
        ~variant:w.Workloads.Workload.default_variant
    in
    0

(* Concrete launch facts recorded per kernel name on its first
   launch: the grid/block geometry, a reader over the parameter bank,
   and the allocation watermark at launch time — everything needed to
   build a concrete abstract-interpretation context
   ({!Analysis.Absdom.concrete_ctx}). *)
type launch_info = {
  li_geom : Analysis.Affine.geom;
  li_param : int -> int option;
  li_heap : int;
  mutable li_multi : bool;  (* relaunched with a different geometry *)
}

(* Runs a workload once uninstrumented, capturing every kernel the
   device compiles (in launch order), the per-kernel launch facts, and
   the run result — the shared front half of `lint` and `analyze`. *)
let capture_kernels w variant =
  let device = Gpu.Device.create () in
  let kernels = ref [] in
  let launches = Hashtbl.create 8 in
  Gpu.Device.set_transform device
    (Some
       (fun k ->
          if not (List.mem_assoc k.Sass.Program.name !kernels) then
            kernels := (k.Sass.Program.name, k) :: !kernels;
          k));
  ignore
    (Gpu.Device.on_launch device (fun l ->
         let name = l.Gpu.State.l_kernel.Sass.Program.name in
         let geom =
           { Analysis.Affine.g_block_x = l.Gpu.State.l_block_x;
             g_block_y = l.Gpu.State.l_block_y;
             g_grid_x = l.Gpu.State.l_grid_x;
             g_grid_y = l.Gpu.State.l_grid_y }
         in
         match Hashtbl.find_opt launches name with
         | Some li -> if li.li_geom <> geom then li.li_multi <- true
         | None ->
           let params = l.Gpu.State.l_params in
           let param_bytes = l.Gpu.State.l_kernel.Sass.Program.param_bytes in
           let param off =
             if off >= 0 && off + 4 <= param_bytes then
               Some (Gpu.Memory.read params ~width:Sass.Opcode.W32 off)
             else None
           in
           Hashtbl.add launches name
             { li_geom = geom; li_param = param;
               li_heap = Gpu.Device.heap_used device; li_multi = false }));
  let r = w.Workloads.Workload.run device ~variant in
  (List.rev !kernels, launches, r)

(* Context for analyzing one captured kernel: concrete when every
   observed launch used a single geometry. A kernel relaunched with
   differing geometries falls back to the static context — proving a
   claim under the first geometry only would silently miss races and
   OOB that appear under a later launch shape. *)
type ctx_kind =
  | Ctx_concrete of launch_info
  | Ctx_static  (* never launched *)
  | Ctx_multi  (* multiple geometries observed: static fallback *)

let ctx_for launches kname (k : Sass.Program.kernel) =
  match Hashtbl.find_opt launches kname with
  | Some li when not li.li_multi ->
    (Analysis.Absdom.concrete_ctx ~param:li.li_param li.li_geom,
     Ctx_concrete li)
  | Some _ -> (Analysis.Absdom.static_for k.Sass.Program.instrs, Ctx_multi)
  | None -> (Analysis.Absdom.static_for k.Sass.Program.instrs, Ctx_static)

(* Per-kernel race classification counts: (sites, safe, race, unknown). *)
let race_counts sites =
  List.fold_left
    (fun (n, s, r, u) (site : Analysis.Race_check.site) ->
       match site.Analysis.Race_check.s_class with
       | Analysis.Race_check.Proven_safe -> (n + 1, s + 1, r, u)
       | Analysis.Race_check.Proven_race -> (n + 1, s, r + 1, u)
       | Analysis.Race_check.Unknown -> (n + 1, s, r, u + 1))
    (0, 0, 0, 0) sites

let race_baseline_schema = "sassi.race-baseline.v1"

(* Baseline file: {"schema": ..., "kernels": {"suite/wl:kernel":
   {"sites": n, "safe": n, "race": n, "unknown": n}}}. *)
let read_race_baseline path =
  match Trace.Json.parse_file path with
  | exception Sys_error msg -> Error msg
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok j ->
    (match Trace.Json.member "kernels" j with
     | Some (Trace.Json.Obj ks) ->
       let get field o =
         match Trace.Json.member field o with
         | Some (Trace.Json.Int n) -> n
         | _ -> 0
       in
       Ok
         (List.map
            (fun (key, o) ->
               (key, (get "sites" o, get "safe" o, get "race" o,
                      get "unknown" o)))
            ks)
     | _ -> Error (path ^ ": missing `kernels' object"))

let write_race_baseline path counts =
  let kernels =
    List.map
      (fun (key, (n, s, r, u)) ->
         ( key,
           Trace.Json.Obj
             [ ("sites", Trace.Json.Int n); ("safe", Trace.Json.Int s);
               ("race", Trace.Json.Int r); ("unknown", Trace.Json.Int u) ] ))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) counts)
  in
  Trace.Json.write_file path
    (Trace.Json.Obj
       [ ("schema", Trace.Json.Str race_baseline_schema);
         ("kernels", Trace.Json.Obj kernels) ])

(* Waiver file: one kernel per line (either the qualified
   "suite/wl:kernel" key or the bare kernel name), #-comments. *)
let read_waivers path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let acc = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then acc := line :: !acc
       done
     with End_of_file -> ());
    close_in ic;
    Ok !acc

let lint name variant json prove_races mem_report baseline_file
    write_baseline_file waivers_file =
  (* A baseline read or write only makes sense over classified sites. *)
  let prove_races =
    prove_races || baseline_file <> None || write_baseline_file <> None
  in
  let targets =
    if name = "all" then
      Some (List.map (fun w -> (w, None)) Workloads.Registry.all)
    else
      match Workloads.Registry.find_opt name with
      | None -> None
      | Some w -> Some [ (w, variant) ]
  in
  let inputs =
    let waivers =
      match waivers_file with None -> Ok [] | Some p -> read_waivers p
    in
    let baseline =
      match baseline_file with
      | None -> Ok []
      | Some p -> read_race_baseline p
    in
    match (waivers, baseline) with
    | Error msg, _ | _, Error msg -> Error msg
    | Ok w, Ok b -> Ok (w, b)
  in
  match (targets, inputs) with
  | None, _ ->
    Format.eprintf "unknown workload %s; try `sassi_run list` or `all`@." name;
    2
  | _, Error msg ->
    Format.eprintf "lint: %s@." msg;
    2
  | Some targets, Ok (waivers, baseline) ->
    let total_err = ref 0 and total_warn = ref 0 in
    let counts = ref [] in
    let wl_json = ref [] in
    List.iter
      (fun (w, variant) ->
         let variant =
           match variant with
           | Some v -> v
           | None -> w.Workloads.Workload.default_variant
         in
         let qualified =
           w.Workloads.Workload.suite ^ "/" ^ w.Workloads.Workload.name
         in
         let kernels, launches, _ = capture_kernels w variant in
         let kernel_objs =
           List.map
             (fun (kname, k) ->
                let findings = Analysis.Verifier.verify k in
                let e, wn, _ = Analysis.Verifier.summary findings in
                total_err := !total_err + e;
                total_warn := !total_warn + wn;
                if not json then begin
                  Format.printf "%s/%s (%s) kernel %s: %d error(s), %d \
                                 warning(s)@."
                    w.Workloads.Workload.suite w.Workloads.Workload.name
                    variant kname e wn;
                  List.iter
                    (fun f -> Format.printf "  %a@." Analysis.Finding.pp f)
                    findings
                end;
                let fields =
                  ref
                    [ ( "findings",
                        Trace.Json.List
                          (List.map Analysis.Finding.to_json findings) ) ]
                in
                if prove_races then begin
                  let ctx, kind = ctx_for launches kname k in
                  let concrete =
                    match kind with Ctx_concrete _ -> true | _ -> false
                  in
                  let sites =
                    Analysis.Verifier.race_sites ~ctx ~concrete k
                  in
                  let n, s, r, u = race_counts sites in
                  counts :=
                    (qualified ^ ":" ^ kname, (n, s, r, u)) :: !counts;
                  total_err := !total_err + r;
                  if not json then begin
                    Format.printf
                      "  races: %d site(s): %d proven-safe, %d proven-race, \
                       %d unknown [%s]@."
                      n s r u
                      (match kind with
                       | Ctx_concrete _ -> "concrete launch"
                       | Ctx_multi ->
                         "multiple geometries observed; static"
                       | Ctx_static -> "static");
                    List.iter
                      (fun (site : Analysis.Race_check.site) ->
                         if site.Analysis.Race_check.s_class
                            <> Analysis.Race_check.Proven_safe
                         then
                           Format.printf "    pc %d %s: %s%s@."
                             site.Analysis.Race_check.s_pc
                             (if site.Analysis.Race_check.s_store then "ST"
                              else "LD")
                             (Analysis.Race_check.classification_name
                                site.Analysis.Race_check.s_class)
                             (if site.Analysis.Race_check.s_note = "" then ""
                              else " (" ^ site.Analysis.Race_check.s_note
                                   ^ ")"))
                      sites
                  end;
                  fields :=
                    ( "races",
                      Trace.Json.Obj
                        [ ("sites", Trace.Json.Int n);
                          ("safe", Trace.Json.Int s);
                          ("race", Trace.Json.Int r);
                          ("unknown", Trace.Json.Int u);
                          ("concrete", Trace.Json.Bool concrete);
                          ( "multi_geometry",
                            Trace.Json.Bool
                              (match kind with
                               | Ctx_multi -> true
                               | _ -> false) ) ] )
                    :: !fields
                end;
                if mem_report then begin
                  let ctx, kind = ctx_for launches kname k in
                  match kind with
                  | Ctx_static ->
                    if not json then
                      Format.printf
                        "  mem: kernel never launched; no geometry to \
                         predict against@."
                  | Ctx_multi ->
                    (* Predictions are per-geometry; against several
                       observed shapes there is no single concrete
                       answer to validate. *)
                    if not json then
                      Format.printf
                        "  mem: multiple launch geometries observed; \
                         skipping concrete predictions@."
                  | Ctx_concrete li ->
                    let instrs = k.Sass.Program.instrs in
                    let cfg = Sass.Cfg.build instrs in
                    let states = Analysis.Absdom.analyze ctx instrs cfg in
                    let preds =
                      Analysis.Mempredict.predict ~geom:li.li_geom
                        ~line_bytes:Gpu.Config.default.Gpu.Config.line_bytes
                        instrs cfg states
                    in
                    if not json then
                      List.iter
                        (fun (p : Analysis.Mempredict.prediction) ->
                           Format.printf
                             "  mem: pc %d %s %s %dB: %s %d..%d%s@."
                             p.Analysis.Mempredict.p_pc
                             (Format.asprintf "%a" Sass.Opcode.pp_space
                                p.Analysis.Mempredict.p_space)
                             (if p.Analysis.Mempredict.p_store then "ST"
                              else "LD")
                             p.Analysis.Mempredict.p_bytes
                             (if p.Analysis.Mempredict.p_space
                                 = Sass.Opcode.Shared
                              then "degree" else "transactions")
                             p.Analysis.Mempredict.p_min
                             p.Analysis.Mempredict.p_max
                             (if p.Analysis.Mempredict.p_exact then " exact"
                              else " ~ " ^ p.Analysis.Mempredict.p_note))
                        preds;
                    fields :=
                      ( "mem",
                        Trace.Json.List
                          (List.map
                             (fun (p : Analysis.Mempredict.prediction) ->
                                Trace.Json.Obj
                                  [ ("pc",
                                     Trace.Json.Int
                                       p.Analysis.Mempredict.p_pc);
                                    ("space",
                                     Trace.Json.Str
                                       (Format.asprintf "%a"
                                          Sass.Opcode.pp_space
                                          p.Analysis.Mempredict.p_space));
                                    ("store",
                                     Trace.Json.Bool
                                       p.Analysis.Mempredict.p_store);
                                    ("min",
                                     Trace.Json.Int
                                       p.Analysis.Mempredict.p_min);
                                    ("max",
                                     Trace.Json.Int
                                       p.Analysis.Mempredict.p_max);
                                    ("exact",
                                     Trace.Json.Bool
                                       p.Analysis.Mempredict.p_exact);
                                    ("note",
                                     Trace.Json.Str
                                       p.Analysis.Mempredict.p_note) ])
                             preds) )
                      :: !fields
                end;
                (kname, Trace.Json.Obj (List.rev !fields)))
             kernels
         in
         wl_json :=
           Trace.Json.Obj
             [ ("workload", Trace.Json.Str w.Workloads.Workload.name);
               ("variant", Trace.Json.Str variant);
               ("kernels", Trace.Json.Obj kernel_objs) ]
           :: !wl_json)
      targets;
    (* Registry ratchet: against a baseline, no kernel may lose a
       proven-safe site or gain an unknown one without a waiver. *)
    let waived key =
      List.mem key waivers
      || (match String.index_opt key ':' with
          | Some i ->
            List.mem
              (String.sub key (i + 1) (String.length key - i - 1))
              waivers
          | None -> false)
    in
    let regressions =
      List.filter_map
        (fun (key, (_, safe, _, unknown)) ->
           match List.assoc_opt key baseline with
           | Some (_, bsafe, _, bunknown)
             when (safe < bsafe || unknown > bunknown) && not (waived key) ->
             Some
               (Printf.sprintf
                  "%s: proven-safe %d -> %d, unknown %d -> %d" key bsafe
                  safe bunknown unknown)
           | _ -> None)
        !counts
    in
    if not json then
      List.iter (Format.printf "lint: race regression: %s@.") regressions;
    (match write_baseline_file with
     | None -> ()
     | Some path ->
       write_race_baseline path !counts;
       if not json then Format.printf "lint: wrote %s@." path);
    if json then
      print_endline
        (Trace.Json.to_string
           (Trace.Json.Obj
              [ ("workloads", Trace.Json.List (List.rev !wl_json));
                ("errors", Trace.Json.Int !total_err);
                ("warnings", Trace.Json.Int !total_warn);
                ("regressions",
                 Trace.Json.List
                   (List.map (fun r -> Trace.Json.Str r) regressions)) ]))
    else
      Format.printf "lint: %d error(s), %d warning(s)@." !total_err
        !total_warn;
    if !total_err > 0 || regressions <> [] then 1 else 0

let analyze name variant instrument json dump_cfg dump_live validate =
  match Workloads.Registry.find_opt name with
  | None ->
    Format.eprintf "unknown workload %s; try `sassi_run list`@." name;
    1
  | Some w ->
    let variant =
      match variant with
      | Some v -> v
      | None -> w.Workloads.Workload.default_variant
    in
    let kernels, _, baseline = capture_kernels w variant in
    let install = List.assoc instrument instruments in
    let specs = List.map fst (fst (install (Gpu.Device.create ()))) in
    let costs =
      List.map
        (fun (kname, k) -> (kname, k, Analysis.Cost.analyze ~specs k))
        kernels
    in
    (match dump_cfg with
     | None -> ()
     | Some path ->
       let doc =
         String.concat "\n"
           (List.map
              (fun (kname, k) ->
                 let instrs = k.Sass.Program.instrs in
                 let live =
                   if dump_live then Some (Sass.Liveness.analyze instrs)
                   else None
                 in
                 Analysis.Dot.render ?live ~name:kname instrs
                   (Sass.Cfg.build instrs))
              kernels)
       in
       if path = "-" then print_string doc
       else begin
         (try
            let oc = open_out path in
            output_string oc doc;
            close_out oc
          with Sys_error m ->
            Format.eprintf "cannot write cfg dump: %s@." m;
            exit 1);
         Format.printf "cfg dot (%d kernel(s)%s) -> %s@."
           (List.length kernels)
           (if dump_live then ", live sets" else "")
           path
       end);
    if not json then begin
      Format.printf
        "static instrumentation cost (%s) for %s/%s (%s):@." instrument
        w.Workloads.Workload.suite w.Workloads.Workload.name variant;
      Format.printf "  %-24s %6s %6s %10s %10s %6s@." "kernel" "instrs"
        "sites" "avg-spill" "inj-instrs" "frame";
      List.iter
        (fun (kname, k, (c : Analysis.Cost.t)) ->
           let nsites = List.length c.Analysis.Cost.c_sites in
           let avg_spill =
             if nsites = 0 then 0.0
             else
               float_of_int
                 (List.fold_left
                    (fun a s -> a + s.Analysis.Cost.c_spills)
                    0 c.Analysis.Cost.c_sites)
               /. float_of_int nsites
           in
           Format.printf "  %-24s %6d %6d %10.2f %10d %6d@." kname
             (Array.length k.Sass.Program.instrs)
             nsites avg_spill c.Analysis.Cost.c_static_instrs
             c.Analysis.Cost.c_frame_bytes)
        costs
    end;
    let validation =
      if not validate then None
      else begin
        let device = Gpu.Device.create () in
        let tele = Cupti.Telemetry.enable device in
        let pairs, _ = install device in
        let r2, per_kernel =
          Sassi.Runtime.with_instrumentation device pairs (fun rt ->
              let r = w.Workloads.Workload.run device ~variant in
              ( r,
                List.map
                  (fun (kname, k) ->
                     (kname, k, Sassi.Runtime.sites_for_kernel rt kname))
                  kernels ))
        in
        let counts = Cupti.Telemetry.handler_sites tele in
        let predicted =
          List.fold_left
            (fun acc (_, k, sites) ->
               acc
               + Analysis.Cost.predict_extra_instrs
                   (Analysis.Cost.of_sites k sites)
                   ~counts)
            0 per_kernel
        in
        let measured =
          r2.Workloads.Workload.stats.Gpu.Stats.warp_instrs
          - baseline.Workloads.Workload.stats.Gpu.Stats.warp_instrs
        in
        let err_pct =
          if measured = 0 then 0.0
          else
            100.0
            *. float_of_int (abs (predicted - measured))
            /. float_of_int measured
        in
        if not json then
          Format.printf
            "validation: predicted %d extra warp instrs, measured %d \
             (%.2f%% error)@."
            predicted measured err_pct;
        Some (predicted, measured, err_pct)
      end
    in
    if json then begin
      let fields =
        [ ("workload", Trace.Json.Str w.Workloads.Workload.name);
          ("variant", Trace.Json.Str variant);
          ("instrument", Trace.Json.Str instrument);
          ( "kernels",
            Trace.Json.List
              (List.map (fun (_, _, c) -> Analysis.Cost.to_json c) costs) ) ]
        @
        match validation with
        | None -> []
        | Some (p, m, e) ->
          [ ( "validation",
              Trace.Json.Obj
                [ ("predicted_extra_instrs", Trace.Json.Int p);
                  ("measured_extra_instrs", Trace.Json.Int m);
                  ("error_pct", Trace.Json.Float e) ] ) ]
      in
      print_endline (Trace.Json.to_string (Trace.Json.Obj fields))
    end;
    0

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let variant_arg =
  Arg.(value & opt (some string) None
       & info [ "v"; "variant" ] ~docv:"VARIANT" ~doc:"Dataset variant.")

let instrument_enum = Arg.enum (List.map (fun (k, _) -> (k, k)) instruments)

let instrument_arg =
  Arg.(value & opt instrument_enum "none"
       & info [ "i"; "instrument" ] ~docv:"KIND"
           ~doc:("Instrumentation: "
                 ^ String.concat ", " (List.map fst instruments) ^ "."))

let stats_arg =
  Arg.(value & flag & info [ "s"; "stats" ] ~doc:"Print machine statistics.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Collect activity records and write them to $(docv): \
                 Chrome trace_event JSON (load in chrome://tracing or \
                 Perfetto), or NDJSON when $(docv) ends in .ndjson.")

let trace_filter_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-filter" ] ~docv:"KINDS"
           ~doc:"Comma-separated activity kinds to record: kernel, block, \
                 warp, mem, cache, handler, fault (default: all).")

let trace_capacity_arg =
  Arg.(value & opt int 262144
       & info [ "trace-capacity" ] ~docv:"N"
           ~doc:"Ring-buffer capacity in records; the oldest records are \
                 dropped (and counted) on overflow.")

let instrumented_arg =
  Arg.(value & flag
       & info [ "instrumented" ] ~doc:"Show SASS after SASSI injection.")

let profile_arg =
  Arg.(value & flag
       & info [ "p"; "profile" ]
           ~doc:"Enable PC sampling and print an nvprof-style report \
                 (metrics, stall breakdown, hotspot tables) after the run.")

let pc_sampling_period_arg =
  Arg.(value & opt int Cupti.Pc_sampling.default_period
       & info [ "pc-sampling-period" ] ~docv:"N"
           ~doc:"Issue slots between PC samples (smaller = denser).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "m"; "metrics" ] ~docv:"NAMES"
           ~doc:"Comma-separated metrics to report (implies --profile); \
                 see --query-metrics for the list.")

let profile_out_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Write the profile report to $(docv) (implies --profile); \
                 format by extension: .json, .csv, else text.")

let stats_json_arg =
  Arg.(value & flag
       & info [ "stats-json" ]
           ~doc:"Print the launch statistics as one JSON object.")

let telemetry_arg =
  Arg.(value & flag
       & info [ "t"; "telemetry" ]
           ~doc:"Collect histogram metrics and time-series gauges and \
                 print a summary after the run.")

let telemetry_interval_arg =
  Arg.(value & opt int Cupti.Telemetry.default_interval
       & info [ "telemetry-interval" ] ~docv:"N"
           ~doc:"Cycles between time-series samples.")

let telemetry_out_arg =
  Arg.(value & opt (some string) None
       & info [ "telemetry-out" ] ~docv:"FILE"
           ~doc:"Write the metric registry to $(docv) (implies \
                 --telemetry): JSON when $(docv) ends in .json, \
                 Prometheus text exposition otherwise.")

let manifest_arg =
  Arg.(value & opt (some string) None
       & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Write a run manifest (workload, config, seed, argv, \
                 wall time, build info, counters, metrics, histogram \
                 summaries) to $(docv); implies --telemetry. Feed two \
                 manifests to $(b,sassi_run compare).")

let run_seed_arg =
  Arg.(value & opt int 0
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Run seed recorded in the manifest.")

let l1_bytes_arg =
  Arg.(value & opt (some int) None
       & info [ "l1-bytes" ] ~docv:"BYTES"
           ~doc:"Override the per-SM L1 size (default \
                 $(b,Gpu.Config.default)); used by CI to seed a known \
                 perf regression.")

let host_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "host-trace" ] ~docv:"FILE"
           ~doc:"Record host-side spans (campaign, jobs, compile \
                 phases, kernel launches) and write them to $(docv) as \
                 Chrome trace_event JSON — one track per domain; load \
                 in chrome://tracing or Perfetto, or inspect with \
                 $(b,sassi_run trace-summary). Simulation results are \
                 bit-identical with or without this flag.")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Run a workload on the simulated GPU")
    Term.(const run_workload $ workload_arg $ variant_arg $ instrument_arg
          $ stats_arg $ trace_arg $ trace_filter_arg $ trace_capacity_arg
          $ profile_arg $ pc_sampling_period_arg $ metrics_arg
          $ profile_out_arg $ stats_json_arg $ telemetry_arg
          $ telemetry_interval_arg $ telemetry_out_arg $ manifest_arg
          $ run_seed_arg $ l1_bytes_arg $ host_trace_arg)

let manifest_a_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE.json")

let manifest_b_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"CANDIDATE.json")

let threshold_arg =
  Arg.(value & opt float 2.0
       & info [ "threshold" ] ~docv:"PCT"
           ~doc:"Relative moves within $(docv) percent count as \
                 unchanged.")

let compare_all_arg =
  Arg.(value & flag
       & info [ "all" ] ~doc:"Also list rows that did not move past the \
                              threshold.")

let compare_cmd =
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Diff two run manifests and rank regressions"
       ~man:
         [ `S Manpage.s_exit_status;
           `P "0 on no regressions past threshold; 1 when at least one \
               regression is found; 2 when a manifest cannot be read." ])
    Term.(const compare_manifests $ manifest_a_arg $ manifest_b_arg
          $ threshold_arg $ compare_all_arg)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List workloads")
    Term.(const list_workloads $ const ())

let injections_arg =
  Arg.(value & opt int 50
       & info [ "n"; "injections" ] ~docv:"N" ~doc:"Number of injections.")

let seed_arg =
  Arg.(value & opt int 2025 & info [ "seed" ] ~docv:"SEED")

let campaign_target_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"WORKLOAD|CAMPAIGN.json")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the campaign pool (1 = run inline \
                 on the calling domain). Results are joined in job \
                 order, so any $(docv) produces bit-identical output.")

let campaign_manifest_arg =
  Arg.(value & opt (some string) None
       & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Write a campaign result manifest (aggregate tally and \
                 merged device statistics) to $(docv); feed two to \
                 $(b,sassi_run compare) — CI diffs a --jobs 2 run \
                 against --jobs 1 this way.")

let host_metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "host-metrics" ] ~docv:"FILE"
           ~doc:"Write the domain pool's introspection metrics (task \
                 and idle-wake counters, queue depth, per-worker task \
                 counts) to $(docv): JSON when $(docv) ends in \
                 .json, Prometheus text exposition otherwise. These \
                 values are scheduling-dependent, so they live here, \
                 never in the $(b,--manifest) counters.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Redraw a live one-line meter on stderr as jobs finish: \
                 done/total, throughput, ETA. Auto-disabled when stderr \
                 is not a terminal, so redirected runs stay \
                 byte-identical.")

let campaign_cmd =
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a fault-injection campaign or a campaign job matrix"
       ~man:
         [ `S Manpage.s_description;
           `P "With a workload name, runs the Case Study IV flow: one \
               fault-injection campaign with $(b,--injections) single-bit \
               flips. With a sassi-campaign/1 JSON file, runs the whole \
               job matrix (plain runs and injection campaigns) on a \
               domain pool of $(b,--jobs) workers; per-job seeds are \
               split from the campaign seed and the job index, so every \
               $(b,--jobs) setting replays the same results." ])
    Term.(const campaign $ campaign_target_arg $ variant_arg $ injections_arg
          $ seed_arg $ jobs_arg $ campaign_manifest_arg $ host_trace_arg
          $ host_metrics_arg $ progress_arg)

let trace_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.json")

let trace_summary_cmd =
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Validate and summarize a Chrome trace_event file"
       ~man:
         [ `S Manpage.s_description;
           `P "Parses a $(b,--host-trace) (or $(b,--trace)) output file \
               and reports event counts per phase type and the number of \
               tracks. CI uses this as the loadability gate for host \
               traces.";
           `S Manpage.s_exit_status;
           `P "0 when the file parses and has trace_event shape; 1 on a \
               shape problem; 2 when the file cannot be parsed." ])
    Term.(const trace_summary $ trace_file_arg)

let port_arg =
  Arg.(value & opt int 0
       & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"TCP port to listen on; 0 (the default) picks an \
                 ephemeral port, printed on the listening line.")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")

let feed_capacity_arg =
  Arg.(value & opt int 65536
       & info [ "feed-capacity" ] ~docv:"N"
           ~doc:"Activity-feed ring capacity in records; the ring drops \
                 its oldest records under overflow, so a slow /trace \
                 follower bounds memory, not correctness.")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the content-addressed compile cache (enabled \
                 by default when serving).")

let cache_bytes_arg =
  Arg.(value & opt int Kernel.Cache.default_max_bytes
       & info [ "cache-bytes" ] ~docv:"BYTES"
           ~doc:"Compile-cache LRU byte budget.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve profiling jobs and live metrics over HTTP"
       ~man:
         [ `S Manpage.s_description;
           `P "Boots the profiling daemon: campaigns POSTed to /jobs \
               run on a $(b,--jobs)-wide domain pool (one at a time, in \
               submission order, exactly like the CLI), GET /metrics \
               serves a live Prometheus scrape of every registered \
               series, GET /trace streams activity records as NDJSON, \
               and /healthz and /readyz answer liveness and readiness \
               probes. A manifest fetched from /jobs/ID/manifest is \
               byte-identical to the file $(b,sassi_run campaign \
               --manifest) writes for the same campaign. POST \
               /shutdown stops the daemon cleanly." ])
    Term.(const serve $ port_arg $ host_arg $ jobs_arg $ feed_capacity_arg
          $ no_cache_arg $ cache_bytes_arg)

let disasm_cmd =
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a workload's kernels")
    Term.(const disasm $ workload_arg $ instrumented_arg)

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit the report as one JSON document.")

let prove_races_arg =
  Arg.(value & flag
       & info [ "prove-races" ]
           ~doc:"Classify every shared-memory access as proven-safe, \
                 proven-race, or unknown using the abstract \
                 interpreter seeded with the captured launch geometry \
                 and kernel parameters. Proven races count as errors.")

let mem_report_arg =
  Arg.(value & flag
       & info [ "mem-report" ]
           ~doc:"Print the static per-site bank-conflict degree and \
                 coalesced-transaction predictions for each kernel's \
                 shared and global accesses (requires a captured \
                 launch for the geometry).")

let race_baseline_arg =
  Arg.(value & opt (some string) None
       & info [ "race-baseline" ] ~docv:"FILE"
           ~doc:"Compare race classifications against a baseline \
                 written by $(b,--write-race-baseline); any kernel \
                 that loses a proven-safe site or gains an unknown \
                 one is a regression (exit 1) unless waived.")

let write_race_baseline_arg =
  Arg.(value & opt (some string) None
       & info [ "write-race-baseline" ] ~docv:"FILE"
           ~doc:"Write the per-kernel race classification counts as a \
                 baseline file.")

let race_waivers_arg =
  Arg.(value & opt (some string) None
       & info [ "race-waivers" ] ~docv:"FILE"
           ~doc:"Kernels exempt from the baseline ratchet, one per \
                 line (qualified $(i,suite/workload:kernel) or bare \
                 kernel name; # starts a comment).")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify a workload's kernels (or `all')"
       ~man:
         [ `S Manpage.s_description;
           `P "Compiles the workload's kernels (by running the workload \
               once, uninstrumented) and runs the static analyzers over \
               each: uninitialized-register reads, barriers under \
               divergent control flow, shared-memory races, static \
               out-of-bounds accesses, unreachable code and dead \
               stores. The run also captures each kernel's launch \
               geometry, parameters and allocation watermark, which \
               seed the abstract interpreter behind \
               $(b,--prove-races) and $(b,--mem-report).";
           `S Manpage.s_exit_status;
           `P "0 when no error-severity finding is reported and no \
               baseline regression is detected; 1 when findings or \
               regressions exist; 2 on usage or parse errors (unknown \
               workload, unreadable or malformed baseline/waiver \
               files). Warnings never change the exit status." ])
    Term.(const lint $ workload_arg $ variant_arg $ json_arg
          $ prove_races_arg $ mem_report_arg $ race_baseline_arg
          $ write_race_baseline_arg $ race_waivers_arg)

let dump_cfg_arg =
  Arg.(value & opt (some string) None
       & info [ "dump-cfg" ] ~docv:"FILE"
           ~doc:"Write the kernels' control-flow graphs as Graphviz dot \
                 to $(docv) ($(b,-) for stdout).")

let dump_live_arg =
  Arg.(value & flag
       & info [ "dump-live" ]
           ~doc:"Annotate --dump-cfg blocks with live-in/live-out \
                 register sets.")

let validate_arg =
  Arg.(value & flag
       & info [ "validate" ]
           ~doc:"Re-run the workload instrumented and compare the cost \
                 model's predicted extra warp instructions against the \
                 measured delta (per-site invocation counts come from \
                 the telemetry handler-overhead counters).")

let analyze_instrument_arg =
  Arg.(value & opt instrument_enum "stub"
       & info [ "i"; "instrument" ] ~docv:"KIND"
           ~doc:"Instrumentation whose cost to model (default stub: a \
                 no-op handler before every instruction).")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static per-site instrumentation cost model for a workload"
       ~man:
         [ `S Manpage.s_description;
           `P "Predicts, per instrumentation site, the injected sequence \
               length and register spills a SASSI instrumentation would \
               incur — from liveness analysis alone, without running the \
               instrumented kernel. With $(b,--validate) the prediction \
               is checked against a measured instrumented run." ])
    Term.(const analyze $ workload_arg $ variant_arg
          $ analyze_instrument_arg $ json_arg $ dump_cfg_arg $ dump_live_arg
          $ validate_arg)

(* `sassi_run --query-metrics` works at top level, like nvprof. *)
let query_metrics_arg =
  Arg.(value & flag
       & info [ "query-metrics" ]
           ~doc:"List the derived metrics available to $(b,run --metrics).")

let build_info_arg =
  Arg.(value & flag
       & info [ "build-info" ]
           ~doc:"Print version, dune profile, compiler, and host, then \
                 exit. The same fields are embedded in run manifests.")

let default_term =
  Term.(ret
          (const (fun query build_info ->
               if build_info then begin
                 Format.printf "%a@." Telemetry.Build_info.pp
                   (Telemetry.Build_info.collect ());
                 `Ok 0
               end
               else if query then begin
                 List.iter
                   (fun m ->
                      Format.printf "%-28s %-12s %s@." (Prof.Metrics.name m)
                        (Prof.Metrics.unit_ m) (Prof.Metrics.description m))
                   Prof.Metrics.registry;
                 `Ok 0
               end
               else `Help (`Pager, None))
           $ query_metrics_arg $ build_info_arg))

let main =
  Cmd.group ~default:default_term
    (Cmd.info "sassi_run" ~version:"1.0"
       ~doc:"SASSI on a simulated GPU: selective instrumentation driver")
    [ run_cmd; list_cmd; disasm_cmd; campaign_cmd; compare_cmd; lint_cmd;
      analyze_cmd; trace_summary_cmd; serve_cmd ]

let () = exit (Cmd.eval' main)
