(* Tests for the serving stack: the HTTP message layer, the activity
   feed, the shared campaign runner (manifest identity across entry
   points and pool widths), the job table, and a full in-process
   daemon exercised over real sockets. *)

let check = Alcotest.check

(* --- helpers ------------------------------------------------------------ *)

(* A tiny campaign that runs in well under a second: one plain run and
   one 2-injection campaign of the cheapest workload. *)
let tiny_campaign =
  Par.Campaign.make ~name:"serve-test" ~seed:7
    [ Par.Campaign.job ~variant:"small" ~kind:Par.Campaign.Run "parboil/spmv";
      Par.Campaign.job ~variant:"small" ~kind:Par.Campaign.Inject
        ~injections:2 "parboil/spmv" ]

(* One plain run of the cheapest workload, a few milliseconds: the
   soak test's unit of work. *)
let nn_campaign i =
  Par.Campaign.make ~name:(Printf.sprintf "nn-%d" i) ~seed:i
    [ Par.Campaign.job ~kind:Par.Campaign.Run "rodinia/nn" ]

(* A campaign whose job fails at once: its workload does not exist. *)
let failing_campaign i =
  Par.Campaign.make ~name:(Printf.sprintf "bad-%d" i) ~seed:i
    [ Par.Campaign.job "no/such-workload" ]

(* Poll [ready] until it holds. The deadline only keeps a broken build
   from hanging the run; no assertion depends on it. *)
let wait_for what ready =
  let deadline = Unix.gettimeofday () +. 60.0 in
  while not (ready ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "never %s" what;
    Thread.delay 0.001
  done

let wait_drained jobs =
  wait_for "drained" (fun () -> Serve.Jobs.drained jobs)

let manifest_bytes m =
  Trace.Json.to_string (Telemetry.Manifest.to_json m) ^ "\n"

(* Feed a raw request through a pipe so Http.read_request sees exactly
   the bytes a socket would deliver. *)
let parse_raw raw =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  output_string oc raw;
  close_out oc;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      Serve.Http.read_request ic)

(* Minimal HTTP client for the daemon tests: send [raw] as is, then
   read to EOF (every daemon response is Connection: close) without
   closing the sending side. The receive timeout turns a reply that
   never comes into an exception, not a hung run. *)
let exchange_raw port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc raw;
  flush oc;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  (try
     let rec go () =
       let n = input ic chunk 0 4096 in
       if n > 0 then begin
         Buffer.add_subbytes buf chunk 0 n;
         go ()
       end
     in
     go ()
   with End_of_file -> ());
  (try close_in ic with _ -> ());
  Buffer.contents buf

(* Status code and body of the reply to [raw]. *)
let exchange port raw =
  let raw = exchange_raw port raw in
  let code =
    try int_of_string (String.sub raw (String.index raw ' ' + 1) 3)
    with _ -> 0
  in
  let body =
    let rec find i =
      if i + 3 >= String.length raw then String.length raw
      else if String.sub raw i 4 = "\r\n\r\n" then i + 4
      else find (i + 1)
    in
    let i = find 0 in
    String.sub raw i (String.length raw - i)
  in
  (code, body)

let request_text ~body ~meth ~path =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    meth path (String.length body) body

let http_request ?(body = "") ~meth ~path port =
  exchange port (request_text ~body ~meth ~path)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Value of a Prometheus series line, e.g. (series_value "sassi_x" body). *)
let series_value name body =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
      if String.length line > String.length name
         && String.sub line 0 (String.length name) = name
      then
        match String.rindex_opt line ' ' with
        | Some i ->
          float_of_string_opt
            (String.sub line (i + 1) (String.length line - i - 1))
        | None -> None
      else None)

(* --- Http --------------------------------------------------------------- *)

let test_http_parse_get () =
  match parse_raw "GET /jobs/job-3?follow=1&max=10 HTTP/1.1\r\nHost: x\r\nX-Th: v\r\n\r\n" with
  | None -> Alcotest.fail "no request parsed"
  | Some rq ->
    check Alcotest.string "method" "GET" rq.Serve.Http.rq_method;
    check Alcotest.string "path" "/jobs/job-3" rq.Serve.Http.rq_path;
    check Alcotest.(option string) "query follow" (Some "1")
      (Serve.Http.query rq "follow");
    check Alcotest.(option string) "query max" (Some "10")
      (Serve.Http.query rq "max");
    check Alcotest.(option string) "header case-insensitive" (Some "v")
      (Serve.Http.header rq "x-th")

let test_http_parse_post_body () =
  let body = "{\"a\": 1}" in
  let raw =
    Printf.sprintf "POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  match parse_raw raw with
  | None -> Alcotest.fail "no request parsed"
  | Some rq ->
    check Alcotest.string "method" "POST" rq.Serve.Http.rq_method;
    check Alcotest.string "body" body rq.Serve.Http.rq_body

let test_http_rejects_garbage () =
  (match parse_raw "NOT A REQUEST\r\n\r\n" with
   | exception Serve.Http.Bad_request _ -> ()
   | _ -> Alcotest.fail "garbage request line accepted");
  (match parse_raw "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n" with
   | exception Serve.Http.Bad_request _ -> ()
   | _ -> Alcotest.fail "bad content-length accepted");
  check Alcotest.bool "eof before request is None" true
    (parse_raw "" = None)

let test_http_respond_roundtrip () =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  let n =
    Serve.Http.respond_json ~code:200 oc
      (Trace.Json.Obj [ ("ok", Trace.Json.Bool true) ])
  in
  close_out oc;
  let ic = Unix.in_channel_of_descr r in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  let raw = Buffer.contents buf in
  check Alcotest.bool "status line" true
    (contains ~needle:"HTTP/1.1 200 OK\r\n" raw);
  check Alcotest.bool "content-length header" true
    (contains ~needle:(Printf.sprintf "Content-Length: %d\r\n" n) raw);
  check Alcotest.bool "body with trailing newline" true
    (contains ~needle:"{\"ok\":true}\n" raw)

(* --- Feed --------------------------------------------------------------- *)

let record i =
  Trace.Record.make ~cycle:i ~sm:0 ~warp:0
    (Trace.Record.Kernel_exit { name = "k"; launch_id = i; cycles = i })

let test_feed_sequencing () =
  let f = Serve.Feed.create ~capacity:8 () in
  Serve.Feed.push_batch f [ record 1; record 2; record 3 ];
  let seqs = List.map fst (Serve.Feed.snapshot f) in
  check Alcotest.(list int) "dense sequence" [ 1; 2; 3 ] seqs;
  let fresh = Serve.Feed.wait_beyond f ~seq:2 ~timeout_s:0.0 in
  check Alcotest.(list int) "beyond 2" [ 3 ] (List.map fst fresh);
  check Alcotest.int "pushed" 3 (Serve.Feed.pushed f)

let test_feed_overflow_gap () =
  let f = Serve.Feed.create ~capacity:4 () in
  Serve.Feed.push_batch f (List.init 10 record);
  let seqs = List.map fst (Serve.Feed.snapshot f) in
  (* Ring keeps the newest 4; the gap 1..6 is visible as dropped. *)
  check Alcotest.(list int) "newest survive" [ 7; 8; 9; 10 ] seqs;
  check Alcotest.int "dropped" 6 (Serve.Feed.dropped f)

let test_feed_close_wakes () =
  let f = Serve.Feed.create () in
  let woke = ref false in
  let th =
    Thread.create
      (fun () ->
         let fresh = Serve.Feed.wait_beyond f ~seq:0 ~timeout_s:10.0 in
         woke := fresh = [])
      ()
  in
  Thread.delay 0.05;
  Serve.Feed.close f;
  Thread.join th;
  check Alcotest.bool "follower woke empty on close" true !woke;
  Serve.Feed.push_batch f [ record 1 ];
  check Alcotest.int "push after close is a no-op" 0 (Serve.Feed.pushed f)

(* --- Runner ------------------------------------------------------------- *)

let test_runner_manifest_identity_across_widths () =
  let run domains =
    Par.Pool.with_pool ~domains (fun pool ->
        match Serve.Runner.run ~pool tiny_campaign with
        | Ok o -> o
        | Error e -> Alcotest.fail e)
  in
  let a = run 1 in
  let b = run 2 in
  check Alcotest.string "manifest bytes identical at widths 1 and 2"
    (manifest_bytes a.Serve.Runner.o_manifest)
    (manifest_bytes b.Serve.Runner.o_manifest);
  check Alcotest.bool "wall time is never in the manifest" true
    (a.Serve.Runner.o_manifest.Telemetry.Manifest.m_wall_time_s = 0.0);
  check Alcotest.(list string) "argv is canonical"
    [ "campaign"; "serve-test" ]
    a.Serve.Runner.o_manifest.Telemetry.Manifest.m_argv

(* A one-job Inject campaign runs its golden and profiling runs as one
   pool task and its injections as one pool task each, and its manifest
   does not depend on the pool width. *)
let test_runner_lone_inject_fans_out () =
  let camp =
    Par.Campaign.make ~name:"lone" ~seed:3
      [ Par.Campaign.job ~variant:"small" ~kind:Par.Campaign.Inject
          ~injections:4 "parboil/spmv" ]
  in
  let run domains =
    Par.Pool.with_pool ~domains (fun pool ->
        let before = (Par.Pool.stats pool).Par.Pool.s_tasks in
        match Serve.Runner.run ~pool camp with
        | Ok o -> (o, (Par.Pool.stats pool).Par.Pool.s_tasks - before)
        | Error e -> Alcotest.fail e)
  in
  let a, _ = run 1 in
  let b, tasks = run 2 in
  check Alcotest.int "one preparation task, one per injection" 5 tasks;
  check Alcotest.string "manifest bytes identical at widths 1 and 2"
    (manifest_bytes a.Serve.Runner.o_manifest)
    (manifest_bytes b.Serve.Runner.o_manifest)

let test_runner_streams_activity_in_order () =
  let batches = ref [] in
  Par.Pool.with_pool ~domains:2 (fun pool ->
      match
        Serve.Runner.run ~pool
          ~activity:(fun i records -> batches := (i, List.length records) :: !batches)
          tiny_campaign
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  (* Only job 0 is a Run job; Inject jobs never emit activity. *)
  match List.rev !batches with
  | [ (0, n) ] -> check Alcotest.bool "run job emitted records" true (n > 0)
  | other ->
    Alcotest.failf "unexpected activity batches: %s"
      (String.concat ";"
         (List.map (fun (i, n) -> Printf.sprintf "(%d,%d)" i n) other))

let test_runner_errors_returned () =
  Par.Pool.with_pool ~domains:1 (fun pool ->
      (match
         Serve.Runner.run ~pool
           (Par.Campaign.make ~name:"bad" ~seed:1
              [ Par.Campaign.job "no/such-workload" ])
       with
       | Error e ->
         check Alcotest.bool "names the workload" true
           (contains ~needle:"no/such-workload" e)
       | Ok _ -> Alcotest.fail "unknown workload accepted");
      match
        Serve.Runner.run ~pool (Par.Campaign.make ~name:"empty" ~seed:1 [])
      with
      | Error e ->
        check Alcotest.bool "empty campaign rejected" true
          (contains ~needle:"no jobs" e)
      | Ok _ -> Alcotest.fail "empty campaign accepted")

(* --- Jobs --------------------------------------------------------------- *)

let test_jobs_lifecycle () =
  Par.Pool.with_pool ~domains:2 (fun pool ->
      let done_ids = ref [] in
      let jobs =
        Serve.Jobs.create ~pool
          ~on_done:(fun j -> done_ids := j.Serve.Jobs.jb_id :: !done_ids)
          ()
      in
      Serve.Jobs.start jobs;
      let j1 = Serve.Jobs.submit jobs tiny_campaign in
      let j2 =
        Serve.Jobs.submit jobs
          (Par.Campaign.make ~name:"bad" ~seed:1
             [ Par.Campaign.job "no/such-workload" ])
      in
      check Alcotest.string "dense ids" "job-1" j1.Serve.Jobs.jb_id;
      check Alcotest.string "dense ids" "job-2" j2.Serve.Jobs.jb_id;
      let rec wait id n =
        if n = 0 then Alcotest.fail "job never finished";
        match Serve.Jobs.find jobs id with
        | Some ({ Serve.Jobs.jb_state = Serve.Jobs.Done; _ } as j)
        | Some ({ Serve.Jobs.jb_state = Serve.Jobs.Failed _; _ } as j) -> j
        | _ ->
          Thread.delay 0.05;
          wait id (n - 1)
      in
      let d1 = wait "job-1" 1200 in
      let d2 = wait "job-2" 1200 in
      (match d1.Serve.Jobs.jb_state with
       | Serve.Jobs.Done ->
         check Alcotest.bool "manifest recorded" true
           (d1.Serve.Jobs.jb_manifest <> None);
         check Alcotest.bool "stats recorded" true
           (d1.Serve.Jobs.jb_stats <> None)
       | s ->
         Alcotest.failf "job-1 ended %s" (Serve.Jobs.state_to_string s));
      (match d2.Serve.Jobs.jb_state with
       | Serve.Jobs.Failed e ->
         check Alcotest.bool "failure names workload" true
           (contains ~needle:"no/such-workload" e)
       | s -> Alcotest.failf "job-2 ended %s" (Serve.Jobs.state_to_string s));
      check Alcotest.bool "drained once both terminal" true
        (Serve.Jobs.drained jobs);
      let q, r, d, f = Serve.Jobs.counts jobs in
      check Alcotest.(list int) "counts" [ 0; 0; 1; 1 ] [ q; r; d; f ];
      check Alcotest.(list string) "on_done fired in order"
        [ "job-1"; "job-2" ] (List.rev !done_ids);
      check Alcotest.(list string) "list is oldest-first"
        [ "job-1"; "job-2" ]
        (List.map (fun j -> j.Serve.Jobs.jb_id) (Serve.Jobs.list jobs));
      Serve.Jobs.stop jobs;
      Serve.Jobs.stop jobs;  (* idempotent *)
      match Serve.Jobs.submit jobs tiny_campaign with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "submit after stop accepted")

let test_jobs_manifest_matches_runner () =
  Par.Pool.with_pool ~domains:2 (fun pool ->
      let direct =
        match Serve.Runner.run ~pool tiny_campaign with
        | Ok o -> o.Serve.Runner.o_manifest
        | Error e -> Alcotest.fail e
      in
      let jobs = Serve.Jobs.create ~pool () in
      Serve.Jobs.start jobs;
      let j = Serve.Jobs.submit jobs tiny_campaign in
      let rec wait n =
        if n = 0 then Alcotest.fail "job never finished";
        match Serve.Jobs.find jobs j.Serve.Jobs.jb_id with
        | Some { Serve.Jobs.jb_state = Serve.Jobs.Done; jb_manifest = Some m; _ }
          -> m
        | Some { Serve.Jobs.jb_state = Serve.Jobs.Failed e; _ } ->
          Alcotest.fail e
        | _ ->
          Thread.delay 0.05;
          wait (n - 1)
      in
      let served = wait 1200 in
      Serve.Jobs.stop jobs;
      check Alcotest.string "scheduled job manifest == direct runner manifest"
        (manifest_bytes direct) (manifest_bytes served))

let counts jobs =
  let q, r, d, f = Serve.Jobs.counts jobs in
  [ q; r; d; f ]

(* With no scheduler draining it, the queue takes [max_queued] jobs
   and refuses the next one; stop fails the queued jobs. *)
let test_jobs_queue_full () =
  Par.Pool.with_pool ~domains:1 (fun pool ->
      let jobs = Serve.Jobs.create ~pool () in
      let bound = Serve.Jobs.max_queued in
      for i = 1 to bound do
        ignore (Serve.Jobs.submit jobs (nn_campaign i))
      done;
      (match Serve.Jobs.submit jobs (nn_campaign 0) with
       | exception Serve.Jobs.Queue_full -> ()
       | j ->
         Alcotest.failf "submit %d accepted as %s" (bound + 1)
           j.Serve.Jobs.jb_id);
      check Alcotest.(list int) "all queued" [ bound; 0; 0; 0 ] (counts jobs);
      check Alcotest.bool "not drained" false (Serve.Jobs.drained jobs);
      Serve.Jobs.stop jobs;
      check Alcotest.(list int) "queued jobs failed at stop" [ 0; 0; 0; bound ]
        (counts jobs);
      check Alcotest.bool "every job failed by the shutdown" true
        (List.for_all
           (fun j -> j.Serve.Jobs.jb_state = Serve.Jobs.Failed "server shutdown")
           (Serve.Jobs.list jobs)))

(* The table keeps the newest [finished_window] finished jobs; an id
   that left it is told apart from one never issued. *)
let test_jobs_finished_window () =
  Par.Pool.with_pool ~domains:1 (fun pool ->
      let jobs = Serve.Jobs.create ~pool () in
      Serve.Jobs.start jobs;
      let window = Serve.Jobs.finished_window in
      let n = window + 2 in
      for i = 1 to n do
        ignore (Serve.Jobs.submit jobs (failing_campaign i));
        wait_drained jobs
      done;
      check Alcotest.(list int) "counts cover evicted jobs" [ 0; 0; 0; n ]
        (counts jobs);
      check Alcotest.(list string) "the newest window, oldest first"
        (List.init window (fun i -> Printf.sprintf "job-%d" (i + 3)))
        (List.map (fun j -> j.Serve.Jobs.jb_id) (Serve.Jobs.list jobs));
      check Alcotest.bool "oldest evicted" true
        (Serve.Jobs.find jobs "job-1" = None);
      List.iter
        (fun (id, expect) ->
           check Alcotest.bool ("evicted " ^ id) expect
             (Serve.Jobs.evicted jobs id))
        [ ("job-1", true); ("job-2", true); ("job-3", false);
          (Printf.sprintf "job-%d" (n + 1), false); ("job-0", false);
          ("job-01", false); ("job-", false); ("nope", false) ];
      Serve.Jobs.stop jobs)

(* 600 one-job campaigns through submit and find, as a polling client
   drives the table: it keeps the newest 128, counts all 600, and its
   live words after the last job are within 10% of those after the
   200th. *)
let test_jobs_soak_flat_memory () =
  Par.Pool.with_pool ~domains:2 (fun pool ->
      let jobs = Serve.Jobs.create ~pool () in
      Serve.Jobs.start jobs;
      let total = 600 in
      let run i =
        let id = (Serve.Jobs.submit jobs (nn_campaign i)).Serve.Jobs.jb_id in
        wait_for (id ^ " done") (fun () ->
            match Serve.Jobs.find jobs id with
            | Some { Serve.Jobs.jb_state = Serve.Jobs.Done; jb_manifest = Some _; _ }
              -> true
            | Some { Serve.Jobs.jb_state = Serve.Jobs.Failed e; _ } ->
              Alcotest.failf "%s failed: %s" id e
            | Some _ -> false
            | None -> Alcotest.failf "%s left the table before it was read" id)
      in
      let live_words () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let at_200 = ref 0 in
      for i = 1 to total do
        run i;
        if i = 200 then at_200 := live_words ()
      done;
      let at_600 = live_words () in
      Serve.Jobs.stop jobs;
      let window = Serve.Jobs.finished_window in
      check Alcotest.int "jobs kept" window (List.length (Serve.Jobs.list jobs));
      let gone = total - window in
      check Alcotest.bool (Printf.sprintf "oldest %d ids gone" gone) true
        (List.for_all
           (fun i ->
              let id = Printf.sprintf "job-%d" i in
              Serve.Jobs.find jobs id = None && Serve.Jobs.evicted jobs id)
           (List.init gone (fun i -> i + 1)));
      check Alcotest.(list int) "all done" [ 0; 0; total; 0 ] (counts jobs);
      if abs (at_600 - !at_200) * 10 > !at_200 then
        Alcotest.failf "live words %d after job 200, %d after job %d (over 10%%)"
          !at_200 at_600 total)

(* --- Daemon (in-process, over real sockets) ----------------------------- *)

let with_daemon f =
  let d =
    Serve.Daemon.create
      { Serve.Daemon.default_config with
        Serve.Daemon.cfg_port = 0;
        cfg_pool_jobs = 2;
        cfg_access_log = None }
  in
  let th = Serve.Daemon.start d in
  Fun.protect
    ~finally:(fun () ->
        Serve.Daemon.shutdown d;
        Thread.join th)
    (fun () -> f d (Serve.Daemon.port d))

let test_daemon_probes_and_routing () =
  with_daemon (fun _d port ->
      let code, body = http_request ~meth:"GET" ~path:"/healthz" port in
      check Alcotest.int "healthz code" 200 code;
      check Alcotest.string "healthz body" "{\"status\":\"ok\"}\n" body;
      let code, _ = http_request ~meth:"GET" ~path:"/readyz" port in
      check Alcotest.int "readyz idle" 200 code;
      let code, _ = http_request ~meth:"GET" ~path:"/nope" port in
      check Alcotest.int "unknown path" 404 code;
      let code, _ = http_request ~meth:"POST" ~path:"/jobs" ~body:"}{" port in
      check Alcotest.int "bad campaign json" 400 code;
      let code, _ = http_request ~meth:"GET" ~path:"/jobs/job-99" port in
      check Alcotest.int "unknown job" 404 code)

let test_daemon_unterminated_line () =
  (* One byte past the 8 KiB line cap and no newline, with the socket
     kept open: the daemon must answer 400 instead of waiting for an
     LF. *)
  with_daemon (fun _d port ->
      let code, _ = exchange port (String.make 8193 'a') in
      check Alcotest.int "overlong unterminated line" 400 code)

(* A short request line and no newline, with the socket kept open:
   the daemon's receive timeout must close the connection instead of
   holding its handler thread until the peer leaves. The client waits
   longer than that timeout, so a daemon without one fails here
   rather than hanging the run. *)
let test_daemon_read_timeout () =
  with_daemon (fun _d port ->
      let deadline = Serve.Daemon.read_timeout_s +. 2.0 in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          ignore (Unix.write_substring fd "GET /healthz" 0 12);
          let t0 = Unix.gettimeofday () in
          let rec closed () =
            match Unix.read fd (Bytes.create 512) 0 512 with
            | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> true
            | _ -> closed ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              -> false
          in
          check Alcotest.bool "daemon closed the stalled connection" true
            (closed ());
          check Alcotest.bool "closed within the timeout plus 2 s" true
            (Unix.gettimeofday () -. t0 < deadline)))

let poll_job_done port id =
  let rec go n =
    if n = 0 then Alcotest.fail "served job never finished";
    let _, body = http_request ~meth:"GET" ~path:("/jobs/" ^ id) port in
    if contains ~needle:"\"state\":\"done\"" body then body
    else if contains ~needle:"\"state\":\"failed\"" body then
      Alcotest.failf "served job failed: %s" body
    else begin
      Thread.delay 0.05;
      go (n - 1)
    end
  in
  go 1200

let test_daemon_job_flow_and_manifest_identity () =
  (* What the daemon must serve: the canonical runner manifest, to the
     byte, plus a trace stream carrying the run job's records. *)
  let expected =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        match Serve.Runner.run ~pool tiny_campaign with
        | Ok o -> manifest_bytes o.Serve.Runner.o_manifest
        | Error e -> Alcotest.fail e)
  in
  with_daemon (fun _d port ->
      let body = Trace.Json.to_string (Par.Campaign.to_json tiny_campaign) in
      let code, resp = http_request ~meth:"POST" ~path:"/jobs" ~body port in
      check Alcotest.int "submit accepted" 202 code;
      check Alcotest.bool "job id returned" true
        (contains ~needle:"job-1" resp);
      (* Premature manifest fetch conflicts rather than 404s. *)
      let code, _ =
        http_request ~meth:"GET" ~path:"/jobs/job-1/manifest" port
      in
      check Alcotest.bool "manifest before done is 409 (or just done)" true
        (code = 409 || code = 200);
      let status = poll_job_done port "job-1" in
      check Alcotest.bool "status carries tally" true
        (contains ~needle:"\"tally\"" status);
      let code, manifest =
        http_request ~meth:"GET" ~path:"/jobs/job-1/manifest" port
      in
      check Alcotest.int "manifest served" 200 code;
      check Alcotest.string "served manifest byte-identical to CLI runner"
        expected manifest;
      let code, listing = http_request ~meth:"GET" ~path:"/jobs" port in
      check Alcotest.int "job listing" 200 code;
      check Alcotest.bool "listing contains the job" true
        (contains ~needle:"job-1" listing);
      let _, trace = http_request ~meth:"GET" ~path:"/trace" port in
      check Alcotest.bool "trace carries the run job's records" true
        (contains ~needle:"kernel_launch" trace);
      let _, follow =
        http_request ~meth:"GET" ~path:"/trace?follow=1&timeout=0.2" port
      in
      check Alcotest.bool "follow stream replays resident records" true
        (contains ~needle:"kernel_launch" follow))

(* [max] caps the backlog a /trace follower gets, not where its stream
   starts. After a 2-run campaign, a follower with max=0 gets no line
   until a new record arrives and one with max=1 gets one line; a
   record pushed after a follower started still reaches it. *)
let test_daemon_follow_max_caps_backlog () =
  let lines body =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
  in
  let submit_and_wait port camp id =
    let body = Trace.Json.to_string (Par.Campaign.to_json camp) in
    let code, _ = http_request ~meth:"POST" ~path:"/jobs" ~body port in
    check Alcotest.int (id ^ " accepted") 202 code;
    ignore (poll_job_done port id)
  in
  let two_runs =
    Par.Campaign.make ~name:"two-runs" ~seed:3
      [ Par.Campaign.job ~kind:Par.Campaign.Run "rodinia/nn";
        Par.Campaign.job ~kind:Par.Campaign.Run "rodinia/nn" ]
  in
  with_daemon (fun _d port ->
      submit_and_wait port two_runs "job-1";
      let get path = lines (snd (http_request ~meth:"GET" ~path port)) in
      let resident = get "/trace" in
      check Alcotest.bool "the campaign left records" true (resident <> []);
      check Alcotest.int "snapshot, max=0" 0 (List.length (get "/trace?max=0"));
      check Alcotest.int "follow, max=0: no backlog" 0
        (List.length (get "/trace?follow=1&max=0&timeout=0.3"));
      check Alcotest.(list string) "follow, max=1: the newest record"
        [ List.nth resident (List.length resident - 1) ]
        (get "/trace?follow=1&max=1&timeout=0.3");
      (* A follower with no backlog, then one more run job. *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let rq =
            "GET /trace?follow=1&max=0&timeout=30 HTTP/1.1\r\nHost: x\r\n\r\n"
          in
          ignore (Unix.write_substring fd rq 0 (String.length rq));
          let got = Buffer.create 1024 and b = Bytes.create 1024 in
          let read_until ready =
            while not (ready (Buffer.contents got)) do
              let n = Unix.read fd b 0 1024 in
              if n = 0 then Alcotest.fail "follower stream closed early";
              Buffer.add_subbytes got b 0 n
            done
          in
          read_until (contains ~needle:"\r\n\r\n");
          submit_and_wait port (nn_campaign 1) "job-2";
          let fresh =
            List.filteri
              (fun i _ -> i >= List.length resident)
              (get "/trace")
          in
          check Alcotest.bool "the new job pushed records" true (fresh <> []);
          let body () =
            let s = Buffer.contents got in
            let i = 4 + Str.search_forward (Str.regexp_string "\r\n\r\n") s 0 in
            String.sub s i (String.length s - i)
          in
          read_until (fun _ -> List.length (lines (body ())) >= List.length fresh);
          check Alcotest.(list string) "follower streams the new records only"
            fresh (lines (body ()))))

let test_daemon_metrics_scrape_monotonic () =
  with_daemon (fun _d port ->
      let _ = http_request ~meth:"GET" ~path:"/healthz" port in
      let _, s1 = http_request ~meth:"GET" ~path:"/metrics" port in
      List.iter
        (fun series ->
           check Alcotest.bool (series ^ " present") true
             (contains ~needle:series s1))
        [ "sassi_build_info"; "sassi_uptime_seconds";
          "sassi_serve_requests_total"; "sassi_serve_request_duration_us";
          "sassi_serve_in_flight"; "sassi_pool_tasks_total";
          "sassi_cache_hits_total"; "sassi_serve_jobs_submitted_total" ];
      let _, s2 = http_request ~meth:"GET" ~path:"/metrics" port in
      let v body name =
        match series_value name body with
        | Some v -> v
        | None -> Alcotest.failf "series %s missing" name
      in
      let n1 = v s1 "sassi_serve_requests_total{endpoint=\"metrics\"}" in
      let n2 = v s2 "sassi_serve_requests_total{endpoint=\"metrics\"}" in
      check Alcotest.bool "request counter strictly monotonic across scrapes"
        true (n2 > n1);
      check Alcotest.bool "healthz counted" true
        (v s1 "sassi_serve_requests_total{endpoint=\"healthz\"}" >= 1.0);
      (* The histogram snapshot must be internally consistent: the
         +Inf bucket carries exactly _count observations. *)
      let count = v s2 "sassi_serve_request_duration_us_count" in
      let inf =
        v s2 "sassi_serve_request_duration_us_bucket{le=\"+Inf\"}"
      in
      check (Alcotest.float 0.0) "+Inf bucket equals count" count inf)

(* Many short connections at once: each exchange must succeed. A
   handler that closes its descriptor twice closes whichever socket
   was given the same number in between, and the exchange on it
   fails. Failures are counted, not raised, so all of them show. A
   client can also be left reading a socket that is no longer its own
   and has no receive timeout, so the clients are awaited with a
   deadline instead of joined. *)
let test_daemon_concurrent_connections () =
  with_daemon (fun _d port ->
      let failed = Atomic.make 0 and finished = Atomic.make 0 in
      let client () =
        for _ = 1 to 50 do
          match http_request ~meth:"GET" ~path:"/healthz" port with
          | 200, "{\"status\":\"ok\"}\n" -> ()
          | _ -> Atomic.incr failed
          | exception _ -> Atomic.incr failed
        done;
        Atomic.incr finished
      in
      for _ = 1 to 4 do
        ignore (Thread.create client ())
      done;
      let deadline = Unix.gettimeofday () +. 30.0 in
      while Atomic.get finished < 4 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check Alcotest.int "clients finished" 4 (Atomic.get finished);
      check Alcotest.int "failed exchanges of 4 x 50" 0 (Atomic.get failed))

(* Once the finished window has dropped a job, its status and manifest
   answer 410; an id never issued stays 404. *)
let test_daemon_evicted_job_gone () =
  with_daemon (fun d port ->
      let jobs = Serve.Daemon.jobs d in
      let n = Serve.Jobs.finished_window + 1 in
      for i = 1 to n do
        ignore (Serve.Jobs.submit jobs (failing_campaign i));
        wait_drained jobs
      done;
      let code path = fst (http_request ~meth:"GET" ~path port) in
      check Alcotest.int "evicted status" 410 (code "/jobs/job-1");
      check Alcotest.int "evicted manifest" 410 (code "/jobs/job-1/manifest");
      check Alcotest.int "oldest kept" 200 (code "/jobs/job-2");
      check Alcotest.int "never issued" 404
        (code (Printf.sprintf "/jobs/job-%d" (n + 1))))

(* With the running job held on the pool, [max_queued] more POSTs are
   accepted and the next one gets 429 with Retry-After. The pool's
   workers are held by tasks that wait for a flag, so the outcome does
   not depend on how long anything takes. *)
let test_daemon_queue_full_429 () =
  with_daemon (fun d port ->
      let pool = Serve.Daemon.pool d in
      let release = Atomic.make false in
      let blockers =
        List.init (Par.Pool.size pool) (fun _ ->
            Par.Pool.submit pool (fun () ->
                while not (Atomic.get release) do
                  Unix.sleepf 0.001
                done))
      in
      Fun.protect
        ~finally:(fun () ->
            Atomic.set release true;
            List.iter Par.Pool.await blockers)
        (fun () ->
           let post i =
             http_request ~meth:"POST" ~path:"/jobs"
               ~body:(Trace.Json.to_string (Par.Campaign.to_json (nn_campaign i)))
               port
           in
           check Alcotest.int "first job accepted" 202 (fst (post 0));
           wait_for "job-1 running" (fun () ->
               match Serve.Jobs.find (Serve.Daemon.jobs d) "job-1" with
               | Some { Serve.Jobs.jb_state = Serve.Jobs.Running; _ } -> true
               | _ -> false);
           for i = 1 to Serve.Jobs.max_queued do
             check Alcotest.int (Printf.sprintf "queued job %d accepted" i) 202
               (fst (post i))
           done;
           let raw =
             exchange_raw port
               (request_text ~meth:"POST" ~path:"/jobs"
                  ~body:(Trace.Json.to_string
                           (Par.Campaign.to_json (nn_campaign 0))))
           in
           check Alcotest.bool "429 status line" true
             (contains ~needle:"HTTP/1.1 429 Too Many Requests\r\n" raw);
           check Alcotest.bool "Retry-After header" true
             (contains
                ~needle:
                  (Printf.sprintf "Retry-After: %d\r\n" Serve.Jobs.retry_after_s)
                raw);
           let code, _ = http_request ~meth:"GET" ~path:"/readyz" port in
           check Alcotest.int "busy while jobs wait" 503 code))

(* Followers that connect and close while no record arrives: each
   handler notices within a second, returns and logs its request, and
   the daemon still answers. *)
let test_daemon_reaps_departed_followers () =
  let log = Filename.temp_file "sassi-access" ".log" in
  let ch = open_out log in
  let d =
    Serve.Daemon.create
      { Serve.Daemon.default_config with
        Serve.Daemon.cfg_port = 0;
        cfg_pool_jobs = 1;
        cfg_access_log = Some ch }
  in
  let th = Serve.Daemon.start d in
  let port = Serve.Daemon.port d in
  Fun.protect
    ~finally:(fun () ->
        Serve.Daemon.shutdown d;
        Thread.join th;
        close_out ch;
        Sys.remove log)
    (fun () ->
       let followers = 5 in
       for _ = 1 to followers do
         let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
             Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
             let rq = "GET /trace?follow=1 HTTP/1.1\r\nHost: x\r\n\r\n" in
             ignore (Unix.write_substring fd rq 0 (String.length rq));
             (* Leave once the stream's head has arrived. *)
             let head = Buffer.create 256 and b = Bytes.create 256 in
             while not (contains ~needle:"\r\n\r\n" (Buffer.contents head)) do
               let n = Unix.read fd b 0 256 in
               if n = 0 then Alcotest.fail "follower stream closed early";
               Buffer.add_subbytes head b 0 n
             done)
       done;
       let logged () =
         In_channel.with_open_text log In_channel.input_all
         |> String.split_on_char '\n'
         |> List.filter (contains ~needle:"\"endpoint\":\"trace\"")
         |> List.length
       in
       let deadline = Unix.gettimeofday () +. 1.0 in
       while logged () < followers && Unix.gettimeofday () < deadline do
         Thread.delay 0.02
       done;
       check Alcotest.int "followers' requests logged within a second"
         followers (logged ());
       let code, _ = http_request ~meth:"GET" ~path:"/healthz" port in
       check Alcotest.int "healthz still answers" 200 code;
       let _, metrics = http_request ~meth:"GET" ~path:"/metrics" port in
       check (Alcotest.option (Alcotest.float 0.0))
         "only the scrape itself in flight" (Some 1.0)
         (series_value "sassi_serve_in_flight" metrics))

let test_daemon_shutdown_via_http () =
  let d =
    Serve.Daemon.create
      { Serve.Daemon.default_config with
        Serve.Daemon.cfg_port = 0;
        cfg_pool_jobs = 1;
        cfg_access_log = None }
  in
  let th = Serve.Daemon.start d in
  let port = Serve.Daemon.port d in
  let code, _ = http_request ~meth:"POST" ~path:"/shutdown" port in
  check Alcotest.int "shutdown acknowledged" 200 code;
  Thread.join th;
  (match http_request ~meth:"GET" ~path:"/healthz" port with
   | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
   | code, _ -> Alcotest.failf "daemon still answering after shutdown: %d" code);
  (* Idempotent from any thread. *)
  Serve.Daemon.shutdown d

let suite =
  [ ("serve.http",
     [ Alcotest.test_case "parse GET with query" `Quick test_http_parse_get;
       Alcotest.test_case "parse POST body" `Quick test_http_parse_post_body;
       Alcotest.test_case "reject malformed input" `Quick
         test_http_rejects_garbage;
       Alcotest.test_case "respond round-trip" `Quick
         test_http_respond_roundtrip ]);
    ("serve.feed",
     [ Alcotest.test_case "sequence numbers" `Quick test_feed_sequencing;
       Alcotest.test_case "overflow keeps newest, counts dropped" `Quick
         test_feed_overflow_gap;
       Alcotest.test_case "close wakes followers" `Quick
         test_feed_close_wakes ]);
    ("serve.runner",
     [ Alcotest.test_case "manifest identical across pool widths" `Slow
         test_runner_manifest_identity_across_widths;
       Alcotest.test_case "activity streams in job order" `Slow
         test_runner_streams_activity_in_order;
       Alcotest.test_case "lone inject job fans out" `Slow
         test_runner_lone_inject_fans_out;
       Alcotest.test_case "errors returned, not raised" `Quick
         test_runner_errors_returned ]);
    ("serve.jobs",
     [ Alcotest.test_case "lifecycle, counts, stop" `Slow test_jobs_lifecycle;
       Alcotest.test_case "scheduled manifest equals direct runner" `Slow
         test_jobs_manifest_matches_runner;
       Alcotest.test_case "queue bound raises Queue_full" `Quick
         test_jobs_queue_full;
       Alcotest.test_case "finished window evicts oldest" `Quick
         test_jobs_finished_window;
       Alcotest.test_case "soak: 600 jobs, flat memory" `Slow
         test_jobs_soak_flat_memory ]);
    ("serve.daemon",
     [ Alcotest.test_case "probes and routing" `Quick
         test_daemon_probes_and_routing;
       Alcotest.test_case "job flow, manifest identity, trace stream" `Slow
         test_daemon_job_flow_and_manifest_identity;
       Alcotest.test_case "follow max caps only the backlog" `Slow
         test_daemon_follow_max_caps_backlog;
       Alcotest.test_case "metrics scrape monotonic and consistent" `Quick
         test_daemon_metrics_scrape_monotonic;
       Alcotest.test_case "concurrent connections" `Quick
         test_daemon_concurrent_connections;
       Alcotest.test_case "unterminated overlong line gets 400" `Quick
         test_daemon_unterminated_line;
       Alcotest.test_case "stalled request line times out" `Quick
         test_daemon_read_timeout;
       Alcotest.test_case "evicted job answers 410" `Quick
         test_daemon_evicted_job_gone;
       Alcotest.test_case "full queue answers 429" `Quick
         test_daemon_queue_full_429;
       Alcotest.test_case "departed followers reaped" `Quick
         test_daemon_reaps_departed_followers;
       Alcotest.test_case "HTTP shutdown" `Quick test_daemon_shutdown_via_http
     ]) ]
