(* One mutex guards the whole table; the scheduler thread is the only
   writer of job transitions, request threads only read snapshots.
   Jobs execute strictly in submission order on the shared pool — the
   determinism story of a served campaign is then exactly the CLI's. *)

type state =
  | Queued
  | Running
  | Done
  | Failed of string

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"

type job = {
  jb_id : string;
  jb_spec : Par.Campaign.t;
  jb_submitted_s : float;
  jb_state : state;
  jb_started_s : float option;
  jb_finished_s : float option;
  jb_wall_time_s : float option;
  jb_manifest : Telemetry.Manifest.t option;
  jb_tally : Workloads.Campaign.tally option;
  jb_stats : Gpu.Stats.t option;
}

(* Bounds on what the table keeps, fixed here rather than configured:
   a campaign client needs its job only until it has read the
   manifest, so a window of the newest finished jobs serves every
   poller that keeps up, and the queue bound turns a flood of POSTs
   into 429s instead of unbounded memory. *)
let finished_window = 128

let max_queued = 64

let retry_after_s = 1

exception Queue_full

type t = {
  pool : Par.Pool.t;
  activity : (Trace.Record.t list -> unit) option;
  on_done : (job -> unit) option;
  lock : Mutex.t;
  cond : Condition.t;  (* signaled on submit and stop *)
  table : (string, job) Hashtbl.t;  (* queued, running, finished window *)
  queue : string Queue.t;  (* queued ids, oldest first *)
  finished : string Queue.t;  (* finished ids in the table, oldest first *)
  mutable running : string option;
  mutable next_id : int;
  mutable n_done : int;
  mutable n_failed : int;
  mutable stopping : bool;
  mutable scheduler : Thread.t option;
}

let create ~pool ?activity ?on_done () =
  { pool;
    activity;
    on_done;
    lock = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 256;
    queue = Queue.create ();
    finished = Queue.create ();
    running = None;
    next_id = 0;
    n_done = 0;
    n_failed = 0;
    stopping = false;
    scheduler = None }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let update t id f =
  match Hashtbl.find_opt t.table id with
  | None -> None
  | Some j ->
    let j' = f j in
    Hashtbl.replace t.table id j';
    Some j'

(* Pop the oldest queued job and mark it running, or wait; None means
   stop. One lock hold, so counts never see the job in neither
   state. *)
let next_job t =
  Mutex.lock t.lock;
  let rec go () =
    match Queue.take_opt t.queue with
    | Some id ->
      let job =
        { (Hashtbl.find t.table id) with
          jb_state = Running;
          jb_started_s = Some (Unix.gettimeofday ()) }
      in
      Hashtbl.replace t.table id job;
      t.running <- Some id;
      Mutex.unlock t.lock;
      Some job
    | None ->
      if t.stopping then begin
        Mutex.unlock t.lock;
        None
      end
      else begin
        Condition.wait t.cond t.lock;
        go ()
      end
  in
  go ()

(* Count a job that reached a terminal state and retire it into the
   finished window, evicting the oldest finished job beyond it. The
   caller holds the lock. *)
let retire t (j : job) =
  (match j.jb_state with
   | Failed _ -> t.n_failed <- t.n_failed + 1
   | _ -> t.n_done <- t.n_done + 1);
  Queue.add j.jb_id t.finished;
  if Queue.length t.finished > finished_window then
    Hashtbl.remove t.table (Queue.take t.finished)

let finish t id f =
  let done_job =
    locked t (fun () ->
        t.running <- None;
        let j =
          update t id (fun j ->
              f { j with jb_finished_s = Some (Unix.gettimeofday ()) })
        in
        Option.iter (retire t) j;
        j)
  in
  match (done_job, t.on_done) with
  | Some j, Some cb -> cb j
  | _ -> ()

let run_one t (job : job) =
  let id = job.jb_id in
  match
    Runner.run ~pool:t.pool
      ?activity:(Option.map (fun f _i records -> f records) t.activity)
      job.jb_spec
  with
  | Ok outcome ->
    finish t id (fun j ->
        { j with jb_state = Done;
          jb_wall_time_s = Some outcome.Runner.o_wall_time_s;
          jb_manifest = Some outcome.Runner.o_manifest;
          jb_tally = Some outcome.Runner.o_tally;
          jb_stats = Some outcome.Runner.o_stats })
  | Error msg -> finish t id (fun j -> { j with jb_state = Failed msg })
  | exception e ->
    finish t id (fun j -> { j with jb_state = Failed (Printexc.to_string e) })

let scheduler_loop t =
  let rec go () =
    match next_job t with
    | None -> ()
    | Some job ->
      run_one t job;
      go ()
  in
  go ()

let start t =
  locked t (fun () ->
      if t.scheduler = None then
        t.scheduler <- Some (Thread.create scheduler_loop t))

let submit t spec =
  let job =
    locked t (fun () ->
        if t.stopping then invalid_arg "Jobs.submit: daemon is shutting down";
        if Queue.length t.queue >= max_queued then raise Queue_full;
        t.next_id <- t.next_id + 1;
        let id = Printf.sprintf "job-%d" t.next_id in
        let job =
          { jb_id = id;
            jb_spec = spec;
            jb_submitted_s = Unix.gettimeofday ();
            jb_state = Queued;
            jb_started_s = None;
            jb_finished_s = None;
            jb_wall_time_s = None;
            jb_manifest = None;
            jb_tally = None;
            jb_stats = None }
        in
        Hashtbl.replace t.table id job;
        Queue.add id t.queue;
        Condition.broadcast t.cond;
        job)
  in
  job

let find t id = locked t (fun () -> Hashtbl.find_opt t.table id)

(* Ids are dense: "job-N" for 1 <= N <= next_id was issued, so one no
   longer in the table has left the finished window. *)
let evicted t id =
  match Scanf.sscanf_opt id "job-%d%!" Fun.id with
  | Some k when Printf.sprintf "job-%d" k = id ->
    locked t (fun () ->
        k >= 1 && k <= t.next_id && not (Hashtbl.mem t.table id))
  | _ -> false

let list t =
  locked t (fun () ->
      let ids =
        List.of_seq (Queue.to_seq t.finished)
        @ Option.to_list t.running
        @ List.of_seq (Queue.to_seq t.queue)
      in
      List.map (Hashtbl.find t.table) ids)

let counts t =
  locked t (fun () ->
      ( Queue.length t.queue,
        (if Option.is_none t.running then 0 else 1),
        t.n_done,
        t.n_failed ))

let drained t =
  let q, r, _, _ = counts t in
  q = 0 && r = 0

let stop t =
  let th =
    locked t (fun () ->
        t.stopping <- true;
        (* Jobs still queued will never run; fail them now so pollers
           see a terminal state instead of an eternal "queued". *)
        Queue.iter
          (fun id ->
             Option.iter (retire t)
               (update t id (fun j ->
                    { j with jb_state = Failed "server shutdown" })))
          t.queue;
        Queue.clear t.queue;
        Condition.broadcast t.cond;
        let th = t.scheduler in
        t.scheduler <- None;
        th)
  in
  Option.iter Thread.join th
