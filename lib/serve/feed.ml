(* Mutex around a Drop_oldest Trace.Ring of records. A record's
   sequence number is the ring's pushed count when it went in, so the
   resident records carry [pushed - length + 1 .. pushed] and a
   follower's fresh records are the newest [pushed - seq]: no copy of
   the ring when nothing is new. Followers detect gaps caused by
   Drop_oldest overwrites without any extra state.

   Followers poll in short slices instead of blocking on a condition:
   the stdlib Condition has no timed wait, and a 50 ms poll is far
   below scrape/stream latency anyone can observe while keeping the
   implementation free of waker threads. *)

type t = {
  lock : Mutex.t;
  ring : Trace.Record.t Trace.Ring.t;
  mutable finished : bool;
}

let create ?(capacity = 65536) () =
  { lock = Mutex.create ();
    ring = Trace.Ring.create ~policy:Trace.Ring.Drop_oldest ~capacity ();
    finished = false }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let push_batch t records =
  locked t (fun () ->
      if not t.finished then
        List.iter (Trace.Ring.push t.ring) records)

(* Resident records with sequence number [> seq], oldest first; the
   caller holds the lock. *)
let beyond t ~seq =
  let pushed = Trace.Ring.pushed t.ring in
  let fresh = Trace.Ring.newest t.ring (pushed - seq) in
  let first = pushed - List.length fresh + 1 in
  List.mapi (fun i r -> (first + i, r)) fresh

let snapshot t = locked t (fun () -> beyond t ~seq:0)

let wait_beyond t ~seq ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let fresh, stop = locked t (fun () -> (beyond t ~seq, t.finished)) in
    if fresh <> [] || stop || Unix.gettimeofday () >= deadline then fresh
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let pushed t = locked t (fun () -> Trace.Ring.pushed t.ring)

let dropped t = locked t (fun () -> Trace.Ring.dropped t.ring)

let close t = locked t (fun () -> t.finished <- true)

let closed t = locked t (fun () -> t.finished)
