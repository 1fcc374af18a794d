(* Exact-counter jobs pinned by [counters.txt]: every registry variant
   run plain, plus Value_profile and the Section 9.1 stub
   ([Handler.noop] at Value_profile's sites) on spmv/small, nn and
   bfs/NY, whose instrumented runs cover the spill/fill, P2R/R2P and
   HCALL paths, and Case Studies I and II (Branch_stats, Mem_divergence)
   on spmv/small and bfs/NY: their guarded-flag, memory-info and
   partially masked call sequences.

   One table line per job: [workload variant mode] and then
   [name=value] fields, the output digest and launch count first and
   then every [Gpu.Stats.to_assoc] counter in its order. *)

type job = {
  workload : string;  (** qualified registry name *)
  variant : string;
  mode : string;  (** "plain", "value", "stub", "branch" or "memdiv" *)
}

let registry_jobs =
  List.concat_map
    (fun (w : Workloads.Workload.t) ->
      let workload = w.suite ^ "/" ^ w.name in
      List.map
        (fun variant -> { workload; variant; mode = "plain" })
        w.variants)
    Workloads.Registry.all

let instrumented_jobs =
  List.concat_map
    (fun (workload, variant, modes) ->
      List.map (fun mode -> { workload; variant; mode }) modes)
    [
      ("parboil/spmv", "small", [ "value"; "stub" ]);
      ("rodinia/nn", "default", [ "value"; "stub" ]);
      ("parboil/spmv", "small", [ "branch"; "memdiv" ]);
      ("parboil/bfs", "NY", [ "value"; "stub"; "branch"; "memdiv" ]);
    ]

let jobs = registry_jobs @ instrumented_jobs

let label j =
  if j.mode = "plain" then Printf.sprintf "%s %s" j.workload j.variant
  else Printf.sprintf "%s %s %s" j.workload j.variant j.mode

let key j = Printf.sprintf "%s %s %s" j.workload j.variant j.mode

let pairs mode device =
  let value () =
    Handlers.Value_profile.pairs (Handlers.Value_profile.create device)
  in
  match mode with
  | "value" -> value ()
  | "stub" -> List.map (fun (spec, _) -> (spec, Sassi.Handler.noop)) (value ())
  | "branch" -> Handlers.Branch_stats.pairs (Handlers.Branch_stats.create device)
  | "memdiv" ->
    Handlers.Mem_divergence.pairs (Handlers.Mem_divergence.create device)
  | m -> invalid_arg ("Golden.pairs: unknown mode " ^ m)

(* The job's exact facts as ordered (name, value) fields, run on
   [device] (a fresh one by default). *)
let run ?(device = Gpu.Device.create ()) j =
  let w = Workloads.Registry.find j.workload in
  let go () = w.Workloads.Workload.run device ~variant:j.variant in
  let r =
    if j.mode = "plain" then go ()
    else
      Sassi.Runtime.with_instrumentation device (pairs j.mode device)
        (fun _ -> go ())
  in
  ("digest", r.Workloads.Workload.output_digest)
  :: ("launches", string_of_int r.Workloads.Workload.launches)
  :: List.map
       (fun (n, v) -> (n, string_of_int v))
       (Gpu.Stats.to_assoc r.Workloads.Workload.stats)

let line j fields =
  String.concat " " (key j :: List.map (fun (n, v) -> n ^ "=" ^ v) fields)

(* Parse a table into key -> fields; [#] lines are comments. *)
let parse text =
  let field f =
    match String.index_opt f '=' with
    | Some i ->
      (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
    | None -> invalid_arg ("Golden.parse: bad field " ^ f)
  in
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | wl :: variant :: mode :: fields when l.[0] <> '#' ->
           Some (String.concat " " [ wl; variant; mode ], List.map field fields)
         | _ -> None)

(* Every difference between a fresh run and its reference fields, one
   message per drifting field. *)
let drifts j ~reference fields =
  let what n =
    if n = "digest" || n = "launches" then n else "counter " ^ n
  in
  let say fmt = Printf.sprintf ("%s: %s " ^^ fmt) (label j) in
  List.filter_map
    (fun (n, v) ->
      match List.assoc_opt n reference with
      | Some r when r = v -> None
      | Some r -> Some (say "%s (reference %s)" (what n) v r)
      | None -> Some (say "%s has no reference" (what n) v))
    fields
  @ List.filter_map
      (fun (n, r) ->
        if List.mem_assoc n fields then None
        else Some (say "%s is no longer reported" (what n) r))
      reference
