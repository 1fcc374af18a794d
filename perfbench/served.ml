(* The served-campaign workloads: a Serve.Daemon in this process,
   driven by one closed-loop client. A job is one request: submit a
   small campaign, poll its state until it finishes, then fetch its
   manifest and the Prometheus metrics. Manifests are checked after
   timing against Serve.Runner.run on the same campaigns.

   The client reaches the daemon in one of two ways. [Job_table] calls
   the daemon's own job API (Serve.Jobs.submit and find on
   Serve.Daemon.jobs, and the text GET /metrics renders): scheduler,
   pool, compile cache, job table and metrics, without sockets.
   [Loopback] makes each call an HTTP exchange on a fresh connection.
   The daemon's connection handler closes each socket twice (README.md,
   Known limits), so on [Loopback] a connection opened between the two
   closes can be shut under its owner and its request fails. *)

type transport =
  | Job_table
  | Loopback

let poll_interval_s = 0.005

(* A reply or a job that takes longer fails its request, so a stuck
   daemon cannot hold a run past its time limit. *)
let timeout_s = 30.

(* One HTTP/1.1 exchange on a fresh connection (the daemon answers
   every request with Connection: close): (status, body). *)
let http ~port ?(body = "") meth path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       let req =
         Printf.sprintf
           "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\
            Connection: close\r\n\r\n%s"
           meth path (String.length body) body
       in
       let rec send off =
         if off < String.length req then
           send (off + Unix.write_substring fd req off (String.length req - off))
       in
       send 0;
       let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
       let rec recv () =
         let n = Unix.read fd chunk 0 (Bytes.length chunk) in
         if n > 0 then begin
           Buffer.add_subbytes buf chunk 0 n;
           recv ()
         end
       in
       recv ();
       let raw = Buffer.contents buf in
       let code =
         match String.index_opt raw ' ' with
         | Some i when String.length raw >= i + 4 ->
           Option.value ~default:0 (int_of_string_opt (String.sub raw (i + 1) 3))
         | _ -> 0
       in
       let body =
         let rec find i =
           if i + 4 > String.length raw then String.length raw
           else if String.sub raw i 4 = "\r\n\r\n" then i + 4
           else find (i + 1)
         in
         let i = find 0 in
         String.sub raw i (String.length raw - i)
       in
       (code, body))

let json_field name body =
  match Trace.Json.of_string body with
  | Ok j ->
    (match Trace.Json.member name j with
     | Some (Trace.Json.Str s) -> Some s
     | _ -> None)
  | Error _ -> None

(* Value of an unlabelled Prometheus sample, e.g. sassi_pool_steals_total. *)
let prom_value name body =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)

(* The request's campaign: two plain runs that fan out across the
   pool's domains. *)
let campaign_jobs =
  [ Par.Campaign.job "rodinia/nn"; Par.Campaign.job ~variant:"small" "parboil/spmv" ]

let campaign_runs =
  [ Jobs.job Jobs.Plain "rodinia/nn"; Jobs.job ~variant:"small" Jobs.Plain "parboil/spmv" ]

(* Per-request measurements kept for the ledger. *)
type request = {
  rq_campaign : int;
  rq_traced : bool;
  rq_latency_s : float;
  rq_queue_s : float;
  rq_exec_s : float;
  rq_polls : int;
  rq_calls_s : float list;  (** client-side time of each call *)
  rq_steals : float;  (** sassi_pool_steals_total after the request *)
  rq_manifest : string;
}

type t = {
  daemon : Serve.Daemon.t;
  transport : transport;
  thread : Thread.t option;  (** the accept loop, on [Loopback] only *)
  port : int;
  width : int;
  campaigns : Par.Campaign.t array;
  mutable requests : request list;  (** newest first *)
}

(* The body GET /jobs/:id/manifest answers with. *)
let manifest_text m = Trace.Json.to_string (Telemetry.Manifest.to_json m) ^ "\n"

let request t ~traced i =
  let camp = t.campaigns.(i) in
  let jobs = Serve.Daemon.jobs t.daemon in
  let calls = ref [] in
  let call f =
    let r, dt = Obs.Clock.with_wall_time f in
    calls := dt :: !calls;
    r
  in
  let http ?body meth path expect =
    let code, reply = http ~port:t.port ?body meth path in
    if code <> expect then
      failwith (Printf.sprintf "%s %s answered %d: %s" meth path code reply);
    reply
  in
  let t0 = Obs.Clock.now_s () in
  let id =
    call (fun () ->
        match t.transport with
        | Job_table ->
          (* what POST /jobs does, less the HTTP *)
          let j = Serve.Jobs.submit jobs camp in
          Serve.Metrics.job_submitted (Serve.Daemon.metrics t.daemon);
          j.Serve.Jobs.jb_id
        | Loopback ->
          let posted =
            http ~body:(Trace.Json.to_string (Par.Campaign.to_json camp)) "POST" "/jobs" 202
          in
          (match json_field "id" posted with
           | Some id -> id
           | None -> failwith ("POST /jobs: no job id in " ^ posted)))
  in
  (* the job's state, and what to report if it is not done *)
  let state () =
    call (fun () ->
        match t.transport with
        | Job_table ->
          (match Serve.Jobs.find jobs id with
           | Some { Serve.Jobs.jb_state = Serve.Jobs.Failed e; _ } -> (Some "failed", e)
           | Some j -> (Some (Serve.Jobs.state_to_string j.Serve.Jobs.jb_state), "")
           | None -> (None, "no such job"))
        | Loopback ->
          let reply = http "GET" ("/jobs/" ^ id) 200 in
          (json_field "state" reply, reply))
  in
  let rec poll n =
    match state () with
    | Some "done", _ -> n
    | Some ("queued" | "running"), _ when Obs.Clock.now_s () -. t0 < timeout_s ->
      Thread.delay poll_interval_s;
      poll (n + 1)
    | _, detail -> failwith ("job " ^ id ^ " did not finish: " ^ detail)
  in
  let polls = poll 1 in
  let manifest =
    call (fun () ->
        match t.transport with
        | Job_table ->
          (match Serve.Jobs.find jobs id with
           | Some { Serve.Jobs.jb_manifest = Some m; _ } -> manifest_text m
           | _ -> failwith ("job " ^ id ^ ": no manifest"))
        | Loopback -> http "GET" ("/jobs/" ^ id ^ "/manifest") 200)
  in
  let metrics =
    call (fun () ->
        match t.transport with
        | Job_table ->
          Telemetry.Export.prometheus (Serve.Metrics.registry (Serve.Daemon.metrics t.daemon))
        | Loopback -> http "GET" "/metrics" 200)
  in
  let latency = Obs.Clock.now_s () -. t0 in
  let queue, exec =
    match Serve.Jobs.find jobs id with
    | Some
        { Serve.Jobs.jb_submitted_s = s; jb_started_s = Some a;
          jb_finished_s = Some f; _ } ->
      (a -. s, f -. a)
    | _ -> failwith ("job " ^ id ^ ": no start/finish times")
  in
  t.requests <-
    { rq_campaign = i; rq_traced = traced; rq_latency_s = latency;
      rq_queue_s = queue; rq_exec_s = exec; rq_polls = polls;
      rq_calls_s = !calls;
      rq_steals =
        Option.value ~default:0. (prom_value "sassi_pool_steals_total" metrics);
      rq_manifest = manifest }
    :: t.requests

let wait_ready port =
  let deadline = Obs.Clock.now_s () +. 30. in
  let rec go () =
    match http ~port "GET" "/readyz" with
    | 200, _ -> ()
    | _ | (exception Unix.Unix_error _) ->
      if Obs.Clock.now_s () > deadline then failwith "daemon never became ready";
      Thread.delay 0.001;
      go ()
  in
  go ()

(* Campaign seeds derive from the benchmark seed; [n] campaigns make
   one pass of the job list. On [Job_table] the accept loop never
   starts: Serve.Daemon.create has already started the scheduler. *)
let start ~transport ~seed ~width ~n =
  let cfg =
    { Serve.Daemon.default_config with
      Serve.Daemon.cfg_pool_jobs = width;
      cfg_access_log = None }
  in
  let daemon = Serve.Daemon.create cfg in
  let port = Serve.Daemon.port daemon in
  let thread =
    match transport with
    | Job_table -> None
    | Loopback ->
      let th = Serve.Daemon.start daemon in
      wait_ready port;
      Some th
  in
  let campaigns =
    Array.init n (fun i ->
        Par.Campaign.make
          ~name:(Printf.sprintf "perfbench-%d" i)
          ~seed:(Par.Seed.split ~seed ~index:i) campaign_jobs)
  in
  { daemon; transport; thread; port; width; campaigns; requests = [] }

let stop t =
  Serve.Daemon.shutdown t.daemon;
  Option.iter Thread.join t.thread

(* After timing: every served manifest must be byte-identical to the
   one Serve.Runner.run produces for the same campaign, and the
   reference runs must match refs.json. Returns the reference outcomes
   (for the exact counters) and one error per failing timed request. *)
let verify t refs =
  let outcomes =
    Par.Pool.with_pool ~domains:t.width (fun pool ->
        Array.map
          (fun camp ->
             match Serve.Runner.run ~pool camp with
             | Ok o -> o
             | Error e -> failwith ("reference campaign: " ^ e))
          t.campaigns)
  in
  let problem i o =
    let name = t.campaigns.(i).Par.Campaign.c_name in
    let runs =
      List.concat
        (List.mapi
           (fun j r ->
              match r with
              | Serve.Runner.R_run r ->
                let s = List.nth campaign_runs j in
                (match Jobs.check refs ~key:(Jobs.key s) (Jobs.facts_of r []) with
                 | Ok () -> []
                 | Error e -> [ e ])
              | Serve.Runner.R_inject _ -> [])
           (Array.to_list o.Serve.Runner.o_results))
    in
    let manifest = manifest_text o.Serve.Runner.o_manifest in
    (manifest, if runs = [] then None else Some (name ^ ": " ^ String.concat "; " runs))
  in
  let expected = Array.mapi problem outcomes in
  let errors =
    List.filter_map
      (fun rq ->
         match expected.(rq.rq_campaign) with
         | _, Some e -> Some e
         | m, None when m = rq.rq_manifest -> None
         | _ ->
           Some
             (t.campaigns.(rq.rq_campaign).Par.Campaign.c_name
              ^ ": served manifest differs from Serve.Runner.run"))
      t.requests
  in
  (outcomes, errors)
