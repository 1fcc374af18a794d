(* Device jobs of the plain-sim and profiled-sim workloads: one job is
   one workload run on a fresh device, reached only through the
   program's public calls. Each run yields its exact facts (output
   digest, launch count, every Gpu.Stats counter, and mode-specific
   counts), which are checked against the committed references in
   refs.json. *)

type mode =
  | Plain
  | Sassi of string  (** "branch", "memdiv", "value" or "stub" *)
  | Observed

type spec = {
  workload : string;  (** registry name, e.g. "parboil/sgemm" *)
  variant : string;
  mode : mode;
}

let job ?(variant = "default") mode workload = { workload; variant; mode }

let plain_key s = s.workload ^ "@" ^ s.variant

let key s =
  match s.mode with
  | Plain -> plain_key s
  | Sassi h -> h ^ ":" ^ plain_key s
  | Observed -> "observed:" ^ plain_key s

(* The mode a job key names: [key]'s prefix read back. *)
let mode_of_key k =
  match String.index_opt k ':' with
  | None -> Plain
  | Some i when String.sub k 0 i = "observed" -> Observed
  | Some i -> Sassi (String.sub k 0 i)

type facts = {
  f_digest : string;
  f_launches : int;
  f_counters : (string * int) list;  (** {!Gpu.Stats.to_assoc} order *)
  f_extra : (string * int) list;  (** mode-specific exact counts *)
}

let counter f name = try List.assoc name f.f_counters with Not_found -> 0

let extra f name = try List.assoc name f.f_extra with Not_found -> 0

(* ---- traced-pass gauges ----

   Layer time that is too fine-grained for one span per event is
   aggregated here instead (the simulator issues millions of handler
   calls): on_launch -> on_exit intervals with their minor-heap words,
   and wrapped handler bodies. Only traced jobs touch these. *)

type gauges = {
  mutable launch_s : float;
  mutable launch_words : float;
  mutable launch_warp_instrs : int;
  mutable handler_s : float;
  mutable handler_calls : int;
}

let gauges =
  { launch_s = 0.; launch_words = 0.; launch_warp_instrs = 0;
    handler_s = 0.; handler_calls = 0 }

let watch_launches device =
  let t0 = ref 0. and w0 = ref 0. in
  ignore
    (Gpu.Device.on_launch device (fun _ ->
         w0 := Gc.minor_words ();
         t0 := Unix.gettimeofday ()));
  ignore
    (Gpu.Device.on_exit device (fun l ->
         let t1 = Unix.gettimeofday () in
         gauges.launch_s <- gauges.launch_s +. (t1 -. !t0);
         gauges.launch_words <- gauges.launch_words +. (Gc.minor_words () -. !w0);
         gauges.launch_warp_instrs <-
           gauges.launch_warp_instrs + l.Gpu.State.l_stats.Gpu.Stats.warp_instrs))

let timed_handler (h : Sassi.Handler.t) =
  Sassi.Handler.make ~regs:h.Sassi.Handler.regs ~name:h.Sassi.Handler.name
    (fun ctx ->
       let t0 = Unix.gettimeofday () in
       h.Sassi.Handler.fn ctx;
       gauges.handler_s <- gauges.handler_s +. (Unix.gettimeofday () -. t0);
       gauges.handler_calls <- gauges.handler_calls + 1)

(* ---- running one job ---- *)

(* The paper's Case Study I-III handlers, plus the Section 9.1 stub:
   the empty handler at Case Study III's sites. *)
let handler_pairs name device =
  match name with
  | "branch" -> Handlers.Branch_stats.pairs (Handlers.Branch_stats.create device)
  | "memdiv" ->
    Handlers.Mem_divergence.pairs (Handlers.Mem_divergence.create device)
  | "value" -> Handlers.Value_profile.pairs (Handlers.Value_profile.create device)
  | "stub" ->
    List.map
      (fun (spec, _) -> (spec, Sassi.Handler.noop))
      (Handlers.Value_profile.pairs (Handlers.Value_profile.create device))
  | other -> invalid_arg ("unknown handler set " ^ other)

(* Wrap the SASSI transform the runtime installed, so injection is
   timed (a "core" span nested in the program's launch span) and its
   static code growth counted on the kernels the job really launches. *)
let count_injection device ~orig ~instrumented =
  match device.Gpu.State.d_transform with
  | None -> ()
  | Some tr ->
    Gpu.Device.set_transform device
      (Some
         (fun k ->
            Obs.Tracer.with_span ~cat:"core" "core.inject" (fun () ->
                let k' = tr k in
                orig := !orig + Array.length k.Sass.Program.instrs;
                instrumented := !instrumented + Array.length k'.Sass.Program.instrs;
                k')))

let facts_of (r : Workloads.Workload.result) extra =
  { f_digest = r.Workloads.Workload.output_digest;
    f_launches = r.Workloads.Workload.launches;
    f_counters = Gpu.Stats.to_assoc r.Workloads.Workload.stats;
    f_extra = extra }

let run ~traced s =
  let w = Workloads.Registry.find s.workload in
  let device = Obs.Tracer.with_span ~cat:"gpu" "gpu.create" (fun () -> Gpu.Device.create ()) in
  if traced then watch_launches device;
  let run_workload () =
    Obs.Tracer.with_span ~cat:"workloads" "workloads.run" (fun () ->
        w.Workloads.Workload.run device ~variant:s.variant)
  in
  match s.mode with
  | Plain -> facts_of (run_workload ()) []
  | Sassi h ->
    let pairs = handler_pairs h device in
    let pairs =
      if traced then List.map (fun (sp, h) -> (sp, timed_handler h)) pairs
      else pairs
    in
    let orig = ref 0 and instrumented = ref 0 in
    let r =
      Sassi.Runtime.with_instrumentation device pairs (fun _ ->
          count_injection device ~orig ~instrumented;
          run_workload ())
    in
    facts_of r [ ("kernel_instrs", !orig); ("instrumented_instrs", !instrumented) ]
  | Observed ->
    (* Every nvprof/CUPTI-style observer on, then the user-facing
       exports rendered in memory so disk speed stays out. *)
    let tele, sampling =
      Obs.Tracer.with_span ~cat:"cupti" "cupti.enable" (fun () ->
          Cupti.Activity.enable_all device;
          (Cupti.Telemetry.enable device, Cupti.Pc_sampling.enable device))
    in
    let r = run_workload () in
    let records =
      Obs.Tracer.with_span ~cat:"cupti" "cupti.flush" (fun () ->
          Cupti.Activity.flush device)
    in
    let chrome =
      Obs.Tracer.with_span ~cat:"trace" "trace.export" (fun () ->
          Trace.Chrome.to_string records)
    in
    let prom, tjson =
      Obs.Tracer.with_span ~cat:"telemetry" "telemetry.export" (fun () ->
          let reg = Cupti.Telemetry.registry tele in
          ( Telemetry.Export.prometheus reg,
            Trace.Json.to_string (Telemetry.Export.to_json reg) ))
    in
    let text, rjson =
      Obs.Tracer.with_span ~cat:"prof" "prof.report" (fun () ->
          Cupti.Pc_sampling.disable device;
          let rep =
            Cupti.Pc_sampling.report ~stats:r.Workloads.Workload.stats device
              sampling
          in
          (Prof.Report.to_text rep, Prof.Report.to_json_string rep))
    in
    facts_of r
      [ ("records", List.length records);
        ("dropped", Cupti.Activity.dropped device);
        ("samples", Prof.Pc_sampling.total_samples sampling);
        ("chrome_bytes", String.length chrome);
        ("telemetry_bytes", String.length prom + String.length tjson);
        ("report_bytes", String.length text + String.length rjson) ]

(* ---- references ---- *)

let schema = "perfbench-refs/1"

let int_obj l = Trace.Json.Obj (List.map (fun (k, v) -> (k, Trace.Json.Int v)) l)

let facts_to_json f =
  Trace.Json.Obj
    [ ("digest", Trace.Json.Str f.f_digest);
      ("launches", Trace.Json.Int f.f_launches);
      ("counters", int_obj f.f_counters);
      ("extra", int_obj f.f_extra) ]

let facts_of_json j =
  let ints name =
    match Trace.Json.member name j with
    | Some (Trace.Json.Obj l) ->
      List.map
        (function
          | k, Trace.Json.Int v -> (k, v)
          | k, _ -> failwith ("refs: non-integer " ^ k))
        l
    | _ -> failwith ("refs: missing " ^ name)
  in
  match (Trace.Json.member "digest" j, Trace.Json.member "launches" j) with
  | Some (Trace.Json.Str d), Some (Trace.Json.Int n) ->
    { f_digest = d; f_launches = n; f_counters = ints "counters";
      f_extra = ints "extra" }
  | _ -> failwith "refs: entry without digest/launches"

type refs = (string, facts) Hashtbl.t

let load_refs () : refs =
  match Trace.Json.of_string Refs_data.json with
  | Error e -> failwith ("refs.json: " ^ e)
  | Ok doc ->
    (match (Trace.Json.member "schema" doc, Trace.Json.member "jobs" doc) with
     | Some (Trace.Json.Str s), Some (Trace.Json.Obj jobs) when s = schema ->
       let t = Hashtbl.create 64 in
       List.iter (fun (k, v) -> Hashtbl.replace t k (facts_of_json v)) jobs;
       t
     | _ -> failwith ("refs.json: expected schema " ^ schema))

(* Every difference from the reference, each named: the digest, the
   launch count, and each exact counter. *)
let drift ~key ~(expected : facts) (got : facts) =
  let diffs what exp act =
    List.filter_map
      (fun (name, v) ->
         let a = try List.assoc name act with Not_found -> -1 in
         if a = v then None
         else Some (Printf.sprintf "%s %s %d (reference %d)" what name a v))
      exp
  in
  (if got.f_digest <> expected.f_digest then
     [ Printf.sprintf "output digest %s (reference %s)" got.f_digest
         expected.f_digest ]
   else [])
  @ (if got.f_launches <> expected.f_launches then
       [ Printf.sprintf "launches %d (reference %d)" got.f_launches
           expected.f_launches ]
     else [])
  @ diffs "counter" expected.f_counters got.f_counters
  @ diffs "count" expected.f_extra got.f_extra
  |> List.map (fun d -> key ^ ": " ^ d)

let check (refs : refs) ~key got =
  match Hashtbl.find_opt refs key with
  | None -> Error (key ^ ": no reference recorded")
  | Some expected ->
    (match drift ~key ~expected got with
     | [] -> Ok ()
     | ds -> Error (String.concat "; " ds))

(* Reference recording: run each distinct job once and refuse to
   record a table that breaks the no-perturbation guarantee (an
   instrumented or observed run must reproduce the plain digest, an
   observed run the plain counters too). *)
let record_refs specs =
  let seen = Hashtbl.create 64 in
  let plain s = { s with mode = Plain } in
  let all = List.concat_map (fun s -> [ plain s; s ]) specs in
  List.iter
    (fun s ->
       if not (Hashtbl.mem seen (key s)) then
         Hashtbl.replace seen (key s) (run ~traced:false s))
    all;
  List.iter
    (fun s ->
       let f = Hashtbl.find seen (key s) and p = Hashtbl.find seen (plain_key s) in
       if f.f_digest <> p.f_digest then
         failwith (key s ^ ": output digest differs from the plain run");
       if s.mode = Observed && f.f_counters <> p.f_counters then
         failwith (key s ^ ": counters differ from the plain run"))
    all;
  let keys = List.sort_uniq compare (List.map key all) in
  Trace.Json.Obj
    [ ("schema", Trace.Json.Str schema);
      ( "jobs",
        Trace.Json.Obj
          (List.map (fun k -> (k, facts_to_json (Hashtbl.find seen k))) keys) ) ]
