type t = {
  registry : Telemetry.Registry.t;
  sink : Gpu.State.telemetry;
}

let default_interval = 1000

let series_columns =
  [| "occupancy";
     "issue_rate";
     "l1_hit_rate";
     "l2_hit_rate";
     "dram_queue_depth" |]

let enable ?(interval = default_interval) device =
  if interval <= 0 then
    invalid_arg "Telemetry.enable: interval must be positive";
  if Gpu.Device.telemetry device <> None then
    invalid_arg "Telemetry.enable: telemetry already enabled";
  let reg = Telemetry.Registry.create () in
  let hist name help = Telemetry.Registry.histogram reg ~help name in
  (* Hoisted lets: record fields evaluate in unspecified order, and
     the registry must see instruments in presentation order. *)
  let mem_latency =
    hist "sassi_mem_request_latency_cycles"
      "Per-warp memory request latency after coalescing, in device cycles"
  in
  let mem_transactions =
    hist "sassi_mem_transactions_per_access"
      "Cache-line transactions generated by one coalesced warp access"
  in
  let branch_lanes =
    hist "sassi_branch_active_lanes"
      "Active lanes at each executed conditional branch"
  in
  let divergent_taken =
    hist "sassi_divergent_taken_lanes"
      "Lanes taking the branch at each divergent warp split"
  in
  let barrier_wait =
    hist "sassi_barrier_wait_cycles"
      "Cycles each warp waited at a released barrier"
  in
  let handler_cycles =
    hist "sassi_handler_overhead_cycles"
      "Device-API cycles charged per SASSI handler invocation"
  in
  let sink =
    { Gpu.State.tm_interval = interval;
      tm_mem_latency = mem_latency;
      tm_mem_transactions = mem_transactions;
      tm_branch_lanes = branch_lanes;
      tm_divergent_taken_lanes = divergent_taken;
      tm_barrier_wait = barrier_wait;
      tm_handler_cycles = handler_cycles;
      tm_handler_sites = Hashtbl.create 64;
      tm_series = Telemetry.Series.create ~interval series_columns;
      tm_next_sample = interval;
      tm_base =
        { Gpu.State.ts_cycle = 0;
          ts_issued = 0;
          ts_l1_hits = 0;
          ts_l1_misses = 0;
          ts_l2_hits = 0;
          ts_l2_misses = 0 } }
  in
  Telemetry.Registry.register reg
    ~help:"Total SASSI handler invocations across all sites"
    "sassi_handler_invocations_total"
    (Telemetry.Registry.Counter
       (fun () ->
         Hashtbl.fold
           (fun _ r acc -> acc + !r)
           sink.Gpu.State.tm_handler_sites 0));
  Telemetry.Registry.register reg
    ~help:"Series rows dropped oldest-first after capacity"
    "sassi_series_dropped_rows_total"
    (Telemetry.Registry.Counter
       (fun () -> Telemetry.Series.dropped sink.Gpu.State.tm_series));
  (* Name and help text are kept byte for byte: telemetry exports carry
     them and benchmark references pin those exports (DESIGN decision
     7). *)
  Telemetry.Registry.register reg
    ~help:
      "Launches the device-sharding eligibility scan forced sequential \
       (cross-block atomics or SASSI handlers); moves regardless of the \
       domain setting"
    "sassi_device_fallback_total"
    (Telemetry.Registry.Counter
       (fun () -> Gpu.Device.sharding_fallbacks device));
  Gpu.Device.set_telemetry device (Some sink);
  { registry = reg; sink }

let disable device = Gpu.Device.set_telemetry device None

let enabled device = Gpu.Device.telemetry device <> None

let registry t = t.registry

let series t = t.sink.Gpu.State.tm_series

let interval t = t.sink.Gpu.State.tm_interval

let handler_sites t =
  Hashtbl.fold
    (fun site r acc -> (site, !r) :: acc)
    t.sink.Gpu.State.tm_handler_sites []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let counters t =
  List.filter_map
    (fun (s : Telemetry.Registry.spec) ->
      match s.Telemetry.Registry.sp_instrument with
      | Telemetry.Registry.Counter read ->
        Some (s.Telemetry.Registry.sp_name, read ())
      | _ -> None)
    (Telemetry.Registry.specs t.registry)

let histograms t =
  List.filter_map
    (fun (s : Telemetry.Registry.spec) ->
      match s.Telemetry.Registry.sp_instrument with
      | Telemetry.Registry.Histogram h ->
        Some (s.Telemetry.Registry.sp_name, Telemetry.Hist.summarize h)
      | _ -> None)
    (Telemetry.Registry.specs t.registry)
