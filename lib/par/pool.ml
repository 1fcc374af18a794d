(* Domain pool with one FIFO run queue.

   Placement: every submission joins one queue under the pool's mutex,
   and an idle worker takes the oldest task, so tasks start in
   submission order and [iter_ordered] can hand on result [i] as soon
   as tasks [0..i] finish. Tasks are whole simulations (milliseconds to
   seconds) that never spawn subtasks, so one lock per task costs
   nothing measurable.

   Determinism contract: the pool never reorders *results*. Futures
   are awaited by the submitter, and [map_ordered]/[iter_ordered]
   join strictly in task-index order, so any reduction built on them
   is bit-identical to a sequential run no matter how the scheduler
   interleaved the work.

   A pool created with [domains <= 1] spawns nothing and runs each
   task inline at submission: `--jobs 1` *is* the sequential baseline,
   not a one-worker approximation of it.

   Introspection: every worker keeps its own task/idle counters
   (plain per-worker atomics, no shared cache line contention on the
   hot path); [stats] snapshots them together with the queue depth,
   and [register_telemetry] exposes the same numbers through the
   standard registry so the Prometheus/JSON exporters pick them up
   unchanged. Workers also claim host-trace track [i + 1] at spawn,
   so an [Obs.Tracer]-traced campaign renders one timeline row per
   domain. *)

type 'a fstate =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_lock : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : 'a fstate;
}

type task = unit -> unit

(* One counter block per worker; the inline pool keeps a single block
   for the calling domain so [stats] has one shape everywhere. *)
type worker_counters = {
  wc_tasks : int Atomic.t;
  wc_idle_wakes : int Atomic.t;
}

type t = {
  queue : task Queue.t;         (* empty forever when inline *)
  counters : worker_counters array;  (* length [domains] *)
  mutable domains : unit Domain.t array;
  lock : Mutex.t;               (* guards [queue] and [stopped] *)
  cond : Condition.t;           (* signaled on submit and shutdown *)
  mutable stopped : bool;
}

type worker_stats = {
  ws_tasks : int;
  ws_idle_wakes : int;
}

type stats = {
  s_size : int;
  s_tasks : int;
  s_queued : int;
  s_workers : worker_stats array;
}

let size t = Array.length t.counters

let inline_pool t = size t = 1

let stats t =
  let workers =
    Array.map
      (fun wc ->
         { ws_tasks = Atomic.get wc.wc_tasks;
           ws_idle_wakes = Atomic.get wc.wc_idle_wakes })
      t.counters
  in
  { s_size = size t;
    s_tasks = Array.fold_left (fun a w -> a + w.ws_tasks) 0 workers;
    s_queued = Mutex.protect t.lock (fun () -> Queue.length t.queue);
    s_workers = workers }

let register_telemetry t reg =
  let open Telemetry.Registry in
  register reg ~help:"Tasks executed by the domain pool"
    "sassi_pool_tasks_total"
    (Counter (fun () -> (stats t).s_tasks));
  register reg ~help:"Times a worker woke from the idle wait"
    "sassi_pool_idle_wakes_total"
    (Counter
       (fun () ->
          Array.fold_left (fun a w -> a + w.ws_idle_wakes) 0
            (stats t).s_workers));
  register reg ~help:"Tasks waiting in the run queue"
    "sassi_pool_queue_depth"
    (Gauge (fun () -> float_of_int (stats t).s_queued));
  Array.iteri
    (fun i _ ->
       register reg ~labels:[ ("worker", string_of_int i) ]
         ~help:"Tasks executed by one worker"
         "sassi_pool_worker_tasks_total"
         (Counter (fun () -> (stats t).s_workers.(i).ws_tasks)))
    t.counters

(* ---------- futures ---------- *)

let make_future () =
  { f_lock = Mutex.create ();
    f_cond = Condition.create ();
    f_state = Pending }

let resolve fut st =
  Mutex.lock fut.f_lock;
  fut.f_state <- st;
  Condition.broadcast fut.f_cond;
  Mutex.unlock fut.f_lock

let await fut =
  Mutex.lock fut.f_lock;
  while fut.f_state = Pending do
    Condition.wait fut.f_cond fut.f_lock
  done;
  let st = fut.f_state in
  Mutex.unlock fut.f_lock;
  match st with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let run_into fut f =
  match f () with
  | v -> resolve fut (Done v)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    resolve fut (Failed (e, bt))

(* ---------- workers ---------- *)

let worker t self =
  Obs.Tracer.set_track (self + 1);
  (* The oldest queued task, or [None] once the pool is stopped and
     the queue drained; sleeps while there is nothing to do. *)
  let rec next () =
    match Queue.take_opt t.queue with
    | Some _ as task -> task
    | None when t.stopped -> None
    | None ->
      Condition.wait t.cond t.lock;
      Atomic.incr t.counters.(self).wc_idle_wakes;
      next ()
  in
  let rec loop () =
    match Mutex.protect t.lock next with
    | None -> ()
    | Some task ->
      Atomic.incr t.counters.(self).wc_tasks;
      task ();
      loop ()
  in
  loop ()

(* ---------- lifecycle ---------- *)

let max_domains = 64

let create ?(domains = 2) () =
  if domains < 1 || domains > max_domains then
    invalid_arg
      (Printf.sprintf "Pool.create: domains must be in [1, %d] (got %d)"
         max_domains domains);
  let t =
    { queue = Queue.create ();
      counters =
        Array.init domains (fun _ ->
            { wc_tasks = Atomic.make 0; wc_idle_wakes = Atomic.make 0 });
      domains = [||];
      lock = Mutex.create ();
      cond = Condition.create ();
      stopped = false }
  in
  if domains > 1 then
    t.domains <- Array.init domains (fun i -> Domain.spawn (fun () -> worker t i));
  t

let check_running t =
  if t.stopped then invalid_arg "Pool: submitted to a stopped pool"

let submit t f =
  let fut = make_future () in
  if inline_pool t then begin
    check_running t;
    Atomic.incr t.counters.(0).wc_tasks;
    run_into fut f
  end
  else
    Mutex.protect t.lock (fun () ->
        check_running t;
        Queue.push (fun () -> run_into fut f) t.queue;
        Condition.signal t.cond);
  fut

let shutdown t =
  Mutex.lock t.lock;
  let was_stopped = t.stopped in
  t.stopped <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  if not was_stopped then begin
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ---------- ordered fan-out ---------- *)

let map_ordered t f xs =
  if inline_pool t then
    Array.map
      (fun x ->
         Atomic.incr t.counters.(0).wc_tasks;
         f x)
      xs
  else begin
    let futs = Array.map (fun x -> submit t (fun () -> f x)) xs in
    Array.map await futs
  end

let iter_ordered t fs ~on_result =
  if inline_pool t then
    Array.iteri
      (fun i task ->
         Atomic.incr t.counters.(0).wc_tasks;
         on_result i (task ()))
      fs
  else begin
    let futs = Array.map (submit t) fs in
    Array.iteri (fun i fut -> on_result i (await fut)) futs
  end
