type tally = {
  masked : int;
  crashes : int;
  hangs : int;
  failure_symptoms : int;
  sdc_stdout : int;
  sdc_output : int;
  total : int;
}

let tally_of_outcomes outcomes =
  let t =
    ref { masked = 0; crashes = 0; hangs = 0; failure_symptoms = 0;
          sdc_stdout = 0; sdc_output = 0; total = 0 }
  in
  List.iter
    (fun o ->
       let c = !t in
       t :=
         (match o with
          | Handlers.Error_inject.Masked -> { c with masked = c.masked + 1 }
          | Handlers.Error_inject.Crash _ -> { c with crashes = c.crashes + 1 }
          | Handlers.Error_inject.Hang -> { c with hangs = c.hangs + 1 }
          | Handlers.Error_inject.Failure_symptom _ ->
            { c with failure_symptoms = c.failure_symptoms + 1 }
          | Handlers.Error_inject.Sdc_stdout ->
            { c with sdc_stdout = c.sdc_stdout + 1 }
          | Handlers.Error_inject.Sdc_output ->
            { c with sdc_output = c.sdc_output + 1 });
       t := { !t with total = !t.total + 1 })
    outcomes;
  !t

type detail = {
  d_tally : tally;
  d_outcomes : Handlers.Error_inject.outcome list;
  d_stats : Gpu.Stats.t;
}

(* The three-step flow. Steps 0-2 (golden run, profiling run, site
   selection) are inherently sequential and make one [plan]; step 3 is
   one independent device run per target, fanned out over [pool] when
   given. Each injection task builds its own device and handler state,
   so tasks share nothing; outcomes and stats are joined in target
   order, making the parallel result bit-identical to the sequential
   one. *)
type plan = {
  p_cfg : Gpu.Config.t;
  p_workload : Workload.t;
  p_variant : string;
  p_golden : string * string;
  p_targets : Handlers.Error_inject.target list;
}

let prepare ?(cfg = Gpu.Config.default) ?(seed = 2025) ~injections w ~variant
    =
  (* Step 0: golden reference. *)
  let golden =
    let dev = Gpu.Device.create ~cfg () in
    let r = w.Workload.run dev ~variant in
    (r.Workload.output_digest, r.Workload.stdout)
  in
  (* Step 1: profiling run (Section 8.1 step 1). *)
  let profile = Handlers.Error_inject.Profile.create () in
  let devp = Gpu.Device.create ~cfg () in
  let _ =
    Sassi.Runtime.with_instrumentation devp
      (Handlers.Error_inject.Profile.pairs profile)
      (fun _ -> w.Workload.run devp ~variant)
  in
  (* Step 2: statistical site selection on the host. *)
  { p_cfg = cfg;
    p_workload = w;
    p_variant = variant;
    p_golden = golden;
    p_targets =
      Handlers.Error_inject.Profile.pick_targets profile ~seed ~n:injections }

let inject ?pool p =
  let w = p.p_workload and variant = p.p_variant in
  (* Step 3: one injection per run, classify the outcome. *)
  let run_one target () =
    let injected = ref false in
    let stats = ref (Gpu.Stats.create ()) in
    let outcome =
      Handlers.Error_inject.classify ~reference:p.p_golden (fun () ->
          let dev = Gpu.Device.create ~cfg:p.p_cfg () in
          let r =
            Sassi.Runtime.with_instrumentation dev
              (Handlers.Error_inject.injection_pairs target ~injected)
              (fun _ -> w.Workload.run dev ~variant)
          in
          stats := r.Workload.stats;
          (r.Workload.output_digest, r.Workload.stdout))
    in
    (outcome, !stats)
  in
  let per_task =
    match pool with
    | None -> Array.of_list (List.map (fun t -> run_one t ()) p.p_targets)
    | Some pool ->
      Par.Pool.map_ordered pool (fun t -> run_one t ())
        (Array.of_list p.p_targets)
  in
  let outcomes = List.map fst (Array.to_list per_task) in
  { d_tally = tally_of_outcomes outcomes;
    d_outcomes = outcomes;
    d_stats = Par.Reduce.stats (Array.map snd per_task) }

let run_detailed ?cfg ?seed ?pool ~injections w ~variant =
  inject ?pool (prepare ?cfg ?seed ~injections w ~variant)

let run ?cfg ?seed ?pool ~injections w ~variant =
  (run_detailed ?cfg ?seed ?pool ~injections w ~variant).d_tally

let fractions t =
  let f x = if t.total = 0 then 0.0 else float_of_int x /. float_of_int t.total in
  (f t.masked, f t.crashes, f t.hangs, f t.failure_symptoms,
   f t.sdc_stdout, f t.sdc_output)

let pp ppf t =
  let m, c, h, s, so, sf = fractions t in
  Format.fprintf ppf
    "masked %.1f%%  crash %.1f%%  hang %.1f%%  symptom %.1f%%  \
     sdc-stdout %.1f%%  sdc-output %.1f%%  (n=%d)"
    (100. *. m) (100. *. c) (100. *. h) (100. *. s) (100. *. so)
    (100. *. sf) t.total
