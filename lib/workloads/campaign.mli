(** Error-injection campaign driver (paper Section 8's experimental
    flow): golden run, profiling run, statistical site selection, then
    one injection per run with outcome classification. *)

type tally = {
  masked : int;
  crashes : int;
  hangs : int;
  failure_symptoms : int;
  sdc_stdout : int;
  sdc_output : int;
  total : int;
}

type detail = {
  d_tally : tally;
  d_outcomes : Handlers.Error_inject.outcome list;  (** in target order *)
  d_stats : Gpu.Stats.t;  (** injection-run stats merged in target order *)
}

val run :
  ?cfg:Gpu.Config.t ->
  ?seed:int ->
  ?pool:Par.Pool.t ->
  injections:int ->
  Workload.t ->
  variant:string ->
  tally
(** Runs the full three-step flow on fresh devices. Each injection run
    re-executes the workload with exactly one bit flip. With [pool]
    the injection runs (step 3) fan out across domains; outcomes are
    joined in target order, so the tally is identical to a sequential
    run. *)

val run_detailed :
  ?cfg:Gpu.Config.t ->
  ?seed:int ->
  ?pool:Par.Pool.t ->
  injections:int ->
  Workload.t ->
  variant:string ->
  detail
(** [run] plus the per-target outcome list and the deterministic
    task-order merge of every injection run's device stats. *)

(** {1 The flow in two halves} *)

type plan
(** Steps 0-2 done: the golden outputs and the chosen injection
    targets. *)

val prepare :
  ?cfg:Gpu.Config.t ->
  ?seed:int ->
  injections:int ->
  Workload.t ->
  variant:string ->
  plan
(** The golden run, the profiling run and the site selection, on the
    calling domain. *)

val inject : ?pool:Par.Pool.t -> plan -> detail
(** Step 3: one injection run per target, fanned out over [pool] when
    given; [run_detailed] is [inject (prepare ...)]. With [pool] it
    awaits the pool's futures, so it must then not run inside a pool
    task. *)

val tally_of_outcomes : Handlers.Error_inject.outcome list -> tally

val pp : Format.formatter -> tally -> unit

val fractions : tally -> float * float * float * float * float * float
(** (masked, crash, hang, symptom, sdc-stdout, sdc-output) as
    fractions of total. *)
