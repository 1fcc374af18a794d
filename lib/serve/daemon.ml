(* One blocking accept loop, one thread per connection, one scheduler
   thread behind the job API. Request handlers are short (the heavy
   work happens on the pool via the scheduler); the only long-lived
   handlers are /trace followers, which poll the feed in slices and
   end when the feed closes at shutdown or their peer closes. SIGPIPE
   is ignored so a follower that disconnects mid-stream costs us an
   EPIPE, not the process. *)

type config = {
  cfg_host : string;
  cfg_port : int;
  cfg_pool_jobs : int;
  cfg_feed_capacity : int;
  cfg_cache : bool;
  cfg_cache_bytes : int;
  cfg_access_log : out_channel option;
}

let default_config =
  { cfg_host = "127.0.0.1";
    cfg_port = 0;
    cfg_pool_jobs = 2;
    cfg_feed_capacity = 65536;
    cfg_cache = true;
    cfg_cache_bytes = Kernel.Cache.default_max_bytes;
    cfg_access_log = Some stdout }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  actual_port : int;
  pool : Par.Pool.t;
  feed : Feed.t;
  jobs_tbl : Jobs.t;
  mtr : Metrics.t;
  lock : Mutex.t;
  mutable stopping : bool;
  mutable accepting : bool;  (* the run loop owns the listen fd *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if cfg.cfg_cache then Kernel.Cache.enable ~max_bytes:cfg.cfg_cache_bytes ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.cfg_host, cfg.cfg_port));
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let actual_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.cfg_port
  in
  let pool = Par.Pool.create ~domains:cfg.cfg_pool_jobs () in
  let feed = Feed.create ~capacity:cfg.cfg_feed_capacity () in
  let mtr = Metrics.create () in
  Metrics.attach_pool mtr pool;
  Metrics.attach_cache mtr;
  let on_done (j : Jobs.job) =
    let duration_us =
      match (j.Jobs.jb_wall_time_s, j.Jobs.jb_started_s, j.Jobs.jb_finished_s)
      with
      | Some w, _, _ -> int_of_float (w *. 1e6)
      | None, Some a, Some b -> int_of_float ((b -. a) *. 1e6)
      | _ -> 0
    in
    Metrics.job_finished mtr
      ~ok:(match j.Jobs.jb_state with Jobs.Done -> true | _ -> false)
      ~duration_us;
    Option.iter (Metrics.observe_job_stats mtr) j.Jobs.jb_stats
  in
  let jobs_tbl =
    Jobs.create ~pool ~activity:(Feed.push_batch feed) ~on_done ()
  in
  Jobs.start jobs_tbl;
  Metrics.set_jobs_source mtr (fun () -> Jobs.counts jobs_tbl);
  { cfg;
    listen_fd = fd;
    actual_port;
    pool;
    feed;
    jobs_tbl;
    mtr;
    lock = Mutex.create ();
    stopping = false;
    accepting = false }

let port t = t.actual_port

let jobs t = t.jobs_tbl

let pool t = t.pool

let metrics t = t.mtr

let shutdown t =
  let proceed =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          true
        end)
  in
  if proceed then begin
    (* close(2) does not wake a thread blocked in accept(2); shutting
       the listening socket down does (accept returns EINVAL). The run
       loop closes the fd itself on exit; we close here only when no
       loop ever started. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    if not (locked t (fun () -> t.accepting)) then
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Jobs.stop t.jobs_tbl;
    Feed.close t.feed;
    Par.Pool.shutdown t.pool
  end

(* ---- JSON views ---- *)

let tally_json (ty : Workloads.Campaign.tally) =
  Trace.Json.Obj
    [ ("masked", Trace.Json.Int ty.Workloads.Campaign.masked);
      ("crashes", Trace.Json.Int ty.Workloads.Campaign.crashes);
      ("hangs", Trace.Json.Int ty.Workloads.Campaign.hangs);
      ("failure_symptoms", Trace.Json.Int ty.Workloads.Campaign.failure_symptoms);
      ("sdc_stdout", Trace.Json.Int ty.Workloads.Campaign.sdc_stdout);
      ("sdc_output", Trace.Json.Int ty.Workloads.Campaign.sdc_output);
      ("total", Trace.Json.Int ty.Workloads.Campaign.total) ]

let job_json (j : Jobs.job) =
  let base =
    [ ("id", Trace.Json.Str j.Jobs.jb_id);
      ("state", Trace.Json.Str (Jobs.state_to_string j.Jobs.jb_state));
      ("campaign", Trace.Json.Str j.Jobs.jb_spec.Par.Campaign.c_name);
      ("jobs", Trace.Json.Int (List.length j.Jobs.jb_spec.Par.Campaign.c_jobs));
      ("seed", Trace.Json.Int j.Jobs.jb_spec.Par.Campaign.c_seed);
      ("submitted_s", Trace.Json.Float j.Jobs.jb_submitted_s) ]
  in
  let opt name f v = Option.to_list (Option.map (fun x -> (name, f x)) v) in
  let err =
    match j.Jobs.jb_state with
    | Jobs.Failed msg -> [ ("error", Trace.Json.Str msg) ]
    | _ -> []
  in
  Trace.Json.Obj
    (base
     @ opt "wall_time_s" (fun w -> Trace.Json.Float w) j.Jobs.jb_wall_time_s
     @ opt "tally" tally_json j.Jobs.jb_tally
     @ err)

(* ---- routing ---- *)

let path_parts path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let endpoint_of req =
  match path_parts req.Http.rq_path with
  | [ "metrics" ] -> "metrics"
  | [ "healthz" ] -> "healthz"
  | [ "readyz" ] -> "readyz"
  | [ "jobs" ] -> "jobs"
  | [ "jobs"; _ ] -> "job"
  | [ "jobs"; _; "manifest" ] -> "manifest"
  | [ "trace" ] -> "trace"
  | [ "shutdown" ] -> "shutdown"
  | _ -> "other"

let handle_metrics t oc =
  let body = Telemetry.Export.prometheus (Metrics.registry t.mtr) in
  ( 200,
    Http.respond ~content_type:"text/plain; version=0.0.4" ~code:200 oc body )

let handle_readyz t oc =
  let q, r, _, _ = Jobs.counts t.jobs_tbl in
  if q = 0 && r = 0 then
    (200, Http.respond_json ~code:200 oc
            (Trace.Json.Obj [ ("status", Trace.Json.Str "ready") ]))
  else
    ( 503,
      Http.respond_json ~code:503 oc
        (Trace.Json.Obj
           [ ("status", Trace.Json.Str "busy");
             ("queued", Trace.Json.Int q);
             ("running", Trace.Json.Int r) ]) )

let handle_post_job t req oc =
  match Par.Campaign.of_string req.Http.rq_body with
  | Error msg -> (400, Http.error_json ~code:400 oc msg)
  | Ok camp ->
    (match Jobs.submit t.jobs_tbl camp with
     | job ->
       Metrics.job_submitted t.mtr;
       ( 202,
         Http.respond_json ~code:202 oc
           (Trace.Json.Obj
              [ ("id", Trace.Json.Str job.Jobs.jb_id);
                ("state",
                 Trace.Json.Str (Jobs.state_to_string job.Jobs.jb_state)) ]) )
     | exception Jobs.Queue_full ->
       ( 429,
         Http.error_json
           ~extra_headers:[ ("Retry-After", string_of_int Jobs.retry_after_s) ]
           ~code:429 oc
           (Printf.sprintf "job queue full (%d queued)" Jobs.max_queued) )
     | exception Invalid_argument _ ->
       (503, Http.error_json ~code:503 oc "daemon is shutting down"))

(* A job id the table does not hold: 410 once the finished window has
   dropped it, 404 if it was never issued. *)
let missing_job t id oc =
  if Jobs.evicted t.jobs_tbl id then
    ( 410,
      Http.error_json ~code:410 oc
        (Printf.sprintf "job %s evicted: the newest %d finished jobs are kept"
           id Jobs.finished_window) )
  else (404, Http.error_json ~code:404 oc ("no such job: " ^ id))

let handle_manifest t id oc =
  match Jobs.find t.jobs_tbl id with
  | None -> missing_job t id oc
  | Some j ->
    (match (j.Jobs.jb_state, j.Jobs.jb_manifest) with
     | Jobs.Done, Some m ->
       (200, Http.respond_json ~code:200 oc (Telemetry.Manifest.to_json m))
     | Jobs.Failed msg, _ ->
       (409, Http.error_json ~code:409 oc ("job failed: " ^ msg))
     | _ ->
       ( 409,
         Http.error_json ~code:409 oc
           ("job not finished: " ^ Jobs.state_to_string j.Jobs.jb_state) ))

let record_lines records =
  let b = Buffer.create 1024 in
  List.iter
    (fun (_, r) ->
       Trace.Ndjson.record_to_buffer b r;
       Buffer.add_char b '\n')
    records;
  Buffer.contents b

(* Longest a follower waits on the feed before it checks its deadline,
   the daemon's state and its peer again; so also about how long a
   follower that left holds its thread. *)
let follow_slice_s = 0.25

(* The peer closed its end: its socket reads ready and yields EOF (or
   a reset). Anything it sent after its request is discarded. The
   zero-timeout select keeps the check free for a peer that is still
   there. *)
let peer_gone fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> (
    match Unix.read fd (Bytes.create 512) 0 512 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> true)
  | exception Unix.Unix_error _ -> false

let handle_trace t req oc =
  let max_records =
    Option.bind (Http.query req "max") int_of_string_opt
  in
  let cap rs =
    match max_records with
    | Some n when n >= 0 ->
      let len = List.length rs in
      if len <= n then rs
      else List.filteri (fun i _ -> i >= len - n) rs
    | _ -> rs
  in
  let follow = Http.query req "follow" = Some "1" in
  if not follow then begin
    let body = record_lines (cap (Feed.snapshot t.feed)) in
    (200, Http.respond ~content_type:"application/x-ndjson" ~code:200 oc body)
  end
  else begin
    (* Stream until the feed closes, an optional deadline passes, or
       the client goes away: seen between slices, or as a write
       failure. *)
    let deadline =
      Option.bind (Http.query req "timeout") float_of_string_opt
      |> Option.map (fun s -> Unix.gettimeofday () +. s)
    in
    Http.start_stream ~content_type:"application/x-ndjson" ~code:200 oc;
    let sent = ref 0 in
    let write records =
      let s = record_lines records in
      output_string oc s;
      flush oc;
      sent := !sent + String.length s
    in
    (try
       let initial = cap (Feed.snapshot t.feed) in
       write initial;
       let last =
         ref (List.fold_left (fun acc (s, _) -> max acc s) 0 initial)
       in
       let expired () =
         match deadline with
         | Some d -> Unix.gettimeofday () >= d
         | None -> false
       in
       let finished () =
         Feed.closed t.feed
         || locked t (fun () -> t.stopping)
         || peer_gone (Unix.descr_of_out_channel oc)
       in
       while not (finished () || expired ()) do
         let slice =
           match deadline with
           | Some d ->
             Float.max 0.05
               (Float.min follow_slice_s (d -. Unix.gettimeofday ()))
           | None -> follow_slice_s
         in
         let fresh = Feed.wait_beyond t.feed ~seq:!last ~timeout_s:slice in
         if fresh <> [] then begin
           write fresh;
           last := List.fold_left (fun acc (s, _) -> max acc s) !last fresh
         end
       done;
       (* Drain anything that raced the close. *)
       let fresh = Feed.wait_beyond t.feed ~seq:!last ~timeout_s:0.0 in
       if fresh <> [] then write fresh
     with Sys_error _ | Unix.Unix_error _ -> ());
    (200, !sent)
  end

let handle t req oc =
  match (req.Http.rq_method, path_parts req.Http.rq_path) with
  | "GET", [ "metrics" ] -> handle_metrics t oc
  | "GET", [ "healthz" ] ->
    (200, Http.respond_json ~code:200 oc
            (Trace.Json.Obj [ ("status", Trace.Json.Str "ok") ]))
  | "GET", [ "readyz" ] -> handle_readyz t oc
  | "GET", [ "jobs" ] ->
    ( 200,
      Http.respond_json ~code:200 oc
        (Trace.Json.Obj
           [ ("jobs", Trace.Json.List (List.map job_json (Jobs.list t.jobs_tbl)))
           ]) )
  | "POST", [ "jobs" ] -> handle_post_job t req oc
  | "GET", [ "jobs"; id ] ->
    (match Jobs.find t.jobs_tbl id with
     | Some j -> (200, Http.respond_json ~code:200 oc (job_json j))
     | None -> missing_job t id oc)
  | "GET", [ "jobs"; id; "manifest" ] -> handle_manifest t id oc
  | "GET", [ "trace" ] -> handle_trace t req oc
  | "POST", [ "shutdown" ] ->
    let n =
      Http.respond_json ~code:200 oc
        (Trace.Json.Obj [ ("status", Trace.Json.Str "shutting down") ])
    in
    ignore (Thread.create shutdown t);
    (200, n)
  | _, _ -> (404, Http.error_json ~code:404 oc "not found")

let access_log t ~req ~code ~bytes ~duration_us =
  match t.cfg.cfg_access_log with
  | None -> ()
  | Some ch ->
    let line =
      Trace.Json.to_string
        (Trace.Json.Obj
           [ ("ts", Trace.Json.Float (Unix.gettimeofday ()));
             ("method", Trace.Json.Str req.Http.rq_method);
             ("path", Trace.Json.Str req.Http.rq_path);
             ("endpoint", Trace.Json.Str (endpoint_of req));
             ("code", Trace.Json.Int code);
             ("bytes", Trace.Json.Int bytes);
             ("duration_us", Trace.Json.Int duration_us) ])
    in
    locked t (fun () ->
        output_string ch line;
        output_char ch '\n';
        flush ch)

(* Bounds how long a handler thread waits for each receive from its
   peer. A read that times out raises [Sys_blocked_io] (EAGAIN), and a
   client that stalls mid-request is closed like one that went away.
   Well above curl's 1 s wait before it sends a body without a 100
   Continue. *)
let read_timeout_s = 5.0

let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (match
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
     Http.read_request ic
   with
   | None -> ()
   | Some req ->
     Metrics.request_begin t.mtr;
     let t0 = Unix.gettimeofday () in
     let code, bytes =
       try
         Obs.Tracer.with_span ~cat:"http"
           ~attrs:
             [ ("method", Obs.Span.Str req.Http.rq_method);
               ("path", Obs.Span.Str req.Http.rq_path) ]
           ("http:" ^ req.Http.rq_path)
           (fun () -> handle t req oc)
       with
       | Sys_error _ | Unix.Unix_error _ ->
         (499, 0)  (* client went away mid-response *)
       | e ->
         (try ignore (Http.error_json ~code:500 oc (Printexc.to_string e))
          with _ -> ());
         (500, 0)
     in
     let duration_us =
       int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)
     in
     Metrics.request_end t.mtr ~endpoint:(endpoint_of req) ~code ~duration_us;
     access_log t ~req ~code ~bytes ~duration_us
   | exception Http.Bad_request msg ->
     (try ignore (Http.error_json ~code:400 oc msg) with _ -> ())
   | exception
       (Sys_error _ | Sys_blocked_io | Unix.Unix_error _ | End_of_file) ->
     ());
  (* [ic] and [oc] share [fd]: close it exactly once, or a descriptor
     accepted in between is closed under its new owner. The _noerr
     form still closes when the final flush fails on a client that
     went away. *)
  close_out_noerr oc

let run t =
  locked t (fun () -> t.accepting <- true);
  let rec loop () =
    if locked t (fun () -> t.stopping) then ()
    else
      match Unix.accept t.listen_fd with
      | fd, _addr ->
        if locked t (fun () -> t.stopping) then
          (try Unix.close fd with Unix.Unix_error _ -> ())
        else ignore (Thread.create (handle_connection t) fd);
        loop ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ ->
        (* shutdown(2) from Daemon.shutdown lands here as EINVAL *)
        ()
  in
  loop ();
  locked t (fun () -> t.accepting <- false);
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())

let start t = Thread.create run t
