(* Campaign execution, shared verbatim by the CLI subcommand and the
   daemon's job scheduler. The logic is a straight factoring of what
   `sassi_run campaign` used to do inline, with two deliberate
   changes:

   - errors return instead of exiting, so a daemon job that names an
     unknown workload fails that job, not the server;
   - the manifest is a canonical artifact (argv = ["campaign"; name],
     wall time 0.0): byte-identical across entry points and --jobs
     widths. Measured wall time is returned on the side for display.

   Run jobs optionally collect CUPTI-style activity records (kernel
   launches/exits by default). Records are flushed per job and handed
   to the [activity] callback from the ordered result stream on the
   calling domain — so feed consumers see job batches in job order,
   never interleaved mid-job. *)

type job_result =
  | R_run of Workloads.Workload.result
  | R_inject of Workloads.Campaign.detail

type outcome = {
  o_results : job_result array;
  o_tally : Workloads.Campaign.tally;
  o_stats : Gpu.Stats.t;
  o_manifest : Telemetry.Manifest.t;
  o_wall_time_s : float;
}

let resolve (camp : Par.Campaign.t) =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | (j : Par.Campaign.job) :: rest ->
      (match Workloads.Registry.find_opt j.Par.Campaign.j_workload with
       | Some w -> go (w :: acc) rest
       | None ->
         Error
           (Printf.sprintf "unknown workload %s in campaign %s"
              j.Par.Campaign.j_workload camp.Par.Campaign.c_name))
  in
  go [] camp.Par.Campaign.c_jobs

let variant_of (camp : Par.Campaign.t) i =
  let j = List.nth camp.Par.Campaign.c_jobs i in
  match j.Par.Campaign.j_variant with
  | Some v -> v
  | None ->
    (match Workloads.Registry.find_opt j.Par.Campaign.j_workload with
     | Some w -> w.Workloads.Workload.default_variant
     | None -> invalid_arg "Runner.variant_of: unresolved workload")

let zero_tally =
  { Workloads.Campaign.masked = 0; crashes = 0; hangs = 0;
    failure_symptoms = 0; sdc_stdout = 0; sdc_output = 0; total = 0 }

let add_tally a (t : Workloads.Campaign.tally) =
  { Workloads.Campaign.masked = a.Workloads.Campaign.masked + t.Workloads.Campaign.masked;
    crashes = a.Workloads.Campaign.crashes + t.Workloads.Campaign.crashes;
    hangs = a.Workloads.Campaign.hangs + t.Workloads.Campaign.hangs;
    failure_symptoms =
      a.Workloads.Campaign.failure_symptoms + t.Workloads.Campaign.failure_symptoms;
    sdc_stdout = a.Workloads.Campaign.sdc_stdout + t.Workloads.Campaign.sdc_stdout;
    sdc_output = a.Workloads.Campaign.sdc_output + t.Workloads.Campaign.sdc_output;
    total = a.Workloads.Campaign.total + t.Workloads.Campaign.total }

let stats_of = function
  | R_run r -> r.Workloads.Workload.stats
  | R_inject d -> d.Workloads.Campaign.d_stats

let aggregate_tally results =
  Array.fold_left
    (fun acc r ->
       match r with
       | R_inject d -> add_tally acc d.Workloads.Campaign.d_tally
       | R_run _ -> acc)
    zero_tally results

let aggregate_counters outcome (camp : Par.Campaign.t) =
  let t = outcome.o_tally in
  ("jobs_total", List.length camp.Par.Campaign.c_jobs)
  :: ("masked", t.Workloads.Campaign.masked)
  :: ("crashes", t.Workloads.Campaign.crashes)
  :: ("hangs", t.Workloads.Campaign.hangs)
  :: ("failure_symptoms", t.Workloads.Campaign.failure_symptoms)
  :: ("sdc_stdout", t.Workloads.Campaign.sdc_stdout)
  :: ("sdc_output", t.Workloads.Campaign.sdc_output)
  :: ("injections_total", t.Workloads.Campaign.total)
  :: Gpu.Stats.to_assoc outcome.o_stats

let manifest ~counters camp =
  { Telemetry.Manifest.m_workload = "campaign/" ^ camp.Par.Campaign.c_name;
    m_variant = "matrix";
    m_instrument = "campaign";
    m_seed = camp.Par.Campaign.c_seed;
    (* Canonical, not Sys.argv: the same campaign must produce the
       same manifest bytes whether it arrived via the CLI or POST
       /jobs. Wall time is deliberately 0.0 for the same reason. *)
    m_argv = [ "campaign"; camp.Par.Campaign.c_name ];
    m_wall_time_s = 0.0;
    m_build = Telemetry.Build_info.collect ();
    m_config = Gpu.Config.to_assoc Gpu.Config.default;
    m_counters = counters;
    m_metrics = [];
    m_histograms = [] }

let run ~pool ?(trace_kinds = [ Cupti.Activity.Kernel ]) ?activity
    ?(on_result = fun _ _ -> ()) (camp : Par.Campaign.t) =
  match resolve camp with
  | Error _ as e -> e
  | Ok resolved ->
    let jobs_arr = Array.of_list camp.Par.Campaign.c_jobs in
    let njobs = Array.length jobs_arr in
    if njobs = 0 then
      Error (Printf.sprintf "campaign %s has no jobs" camp.Par.Campaign.c_name)
    else begin
      (* A lone inject job would be one pool task running its
         injections one after another. Its job task runs on the
         calling thread instead (the CLI's main domain or the daemon's
         scheduler thread, never a pool worker, which must not await):
         it awaits the golden and profiling runs as one pool task, then
         fans the injections out over the pool. The caller only waits,
         so the daemon's HTTP threads, which share its domain, are not
         held up by simulation. *)
      let lone_inject =
        njobs = 1 && jobs_arr.(0).Par.Campaign.j_kind = Par.Campaign.Inject
      in
      let tasks =
        Array.mapi
          (fun i (j : Par.Campaign.job) ->
             let w = resolved.(i) in
             let variant =
               match j.Par.Campaign.j_variant with
               | Some v -> v
               | None -> w.Workloads.Workload.default_variant
             in
             let jseed = Par.Campaign.job_seed camp ~index:i in
             fun () ->
               Obs.Tracer.with_span ~cat:"job"
                 ~attrs:
                   [ ("index", Obs.Span.Int i);
                     ("variant", Obs.Span.Str variant);
                     ("seed", Obs.Span.Int jseed) ]
                 (Printf.sprintf "job:%d:%s" i j.Par.Campaign.j_workload)
               @@ fun () ->
               match j.Par.Campaign.j_kind with
               | Par.Campaign.Run ->
                 let device = Gpu.Device.create () in
                 if activity <> None then
                   Cupti.Activity.enable device trace_kinds;
                 let r = w.Workloads.Workload.run device ~variant in
                 let records =
                   if activity <> None then Cupti.Activity.flush device
                   else []
                 in
                 (R_run r, records)
               | Par.Campaign.Inject ->
                 let injections = j.Par.Campaign.j_injections in
                 let prepare () =
                   Workloads.Campaign.prepare ~seed:jseed ~injections w
                     ~variant
                 in
                 let detail =
                   if lone_inject then
                     Workloads.Campaign.inject ~pool
                       (Par.Pool.await (Par.Pool.submit pool prepare))
                   else Workloads.Campaign.inject (prepare ())
                 in
                 (R_inject detail, []))
          jobs_arr
      in
      let results, wall_time_s =
        Obs.Clock.with_wall_time @@ fun () ->
        Obs.Tracer.with_span ~cat:"campaign"
          ~attrs:
            [ ("jobs", Obs.Span.Int njobs);
              ("pool", Obs.Span.Int (Par.Pool.size pool)) ]
          ("campaign:" ^ camp.Par.Campaign.c_name)
        @@ fun () ->
        let on_result i (r, records) =
          (match activity with
           | Some f when records <> [] -> f i records
           | _ -> ());
          on_result i r
        in
        if lone_inject then begin
          let r = tasks.(0) () in
          on_result 0 r;
          [| r |]
        end
        else Par.Campaign.run_tasks pool tasks ~on_result
      in
      let results = Array.map fst results in
      let merged =
        Obs.Tracer.with_span ~cat:"reduce" "reduce" (fun () ->
            Par.Reduce.stats (Array.map stats_of results))
      in
      let partial =
        { o_results = results;
          o_tally = aggregate_tally results;
          o_stats = merged;
          o_manifest = manifest ~counters:[] camp;
          o_wall_time_s = wall_time_s }
      in
      Ok
        { partial with
          o_manifest =
            manifest ~counters:(aggregate_counters partial camp) camp }
    end
