type result = {
  mutable transactions : int;
  mutable latency : int;
}

(* Per-SM slot: the trace context stamped on probe records, plus the
   access scratch that keeps the access paths allocation-free. *)
type slot = {
  mutable sl_cycle : int;
  mutable sl_warp : int;
  (* The caller's per-lane byte addresses for the next access. *)
  sl_lanes : int array;
  (* The access's unique lines, ascending. *)
  sl_lines : int array;
  (* Distinct shared-memory words or atomic addresses of the access,
     bucketed by their low five bits (a word's bank): bucket [b] holds
     [sl_bucket_count.(b)] values at [sl_buckets.(32 * b ..)]. The
     counts are zeroed again after each access. *)
  sl_buckets : int array;
  sl_bucket_count : int array;
  mutable sl_widest : int;  (* the largest bucket of the last access *)
  sl_result : result;
}

and tm_sink = {
  tm_latency : Telemetry.Hist.t;
  tm_transactions : Telemetry.Hist.t;
}

type t = {
  cfg : Config.t;
  l1s : Cache.t array;
  (* Partitioned L2: the capacity is split into [num_sms] equal
     slices and SM [i] only ever probes slice [i] (DESIGN decision 9:
     a shared L2 that SM 0 fully warms before SM 1 starts is an
     artifact of running SMs in order, not fidelity). *)
  l2s : Cache.t array;
  slots : slot array;
  mutable tr_sink : Trace.Collector.t option;
  mutable tm_sink : tm_sink option;
}

let global_window = 0

let local_window = 1 lsl 40

let texture_window = 1 lsl 41

(* Lines one access of [bytes] can touch, at most. *)
let max_lines ~line_bytes bytes = ((bytes - 1) / line_bytes) + 2

let create (cfg : Config.t) =
  let num_sms = cfg.Config.num_sms in
  let line_bytes = cfg.Config.line_bytes in
  { cfg;
    l1s =
      Array.init num_sms (fun i ->
          Cache.create
            ~name:(Printf.sprintf "L1[%d]" i)
            ~size_bytes:cfg.Config.l1_bytes ~assoc:cfg.Config.l1_assoc
            ~line_bytes);
    l2s =
      Array.init num_sms (fun i ->
          Cache.create
            ~name:(Printf.sprintf "L2[%d]" i)
            ~size_bytes:(cfg.Config.l2_bytes / num_sms)
            ~assoc:cfg.Config.l2_assoc ~line_bytes);
    slots =
      Array.init num_sms (fun _ ->
          { sl_cycle = 0;
            sl_warp = -1;
            sl_lanes = Array.make 32 0;
            sl_lines = Array.make (32 * max_lines ~line_bytes 8) 0;
            sl_buckets = Array.make (32 * 32) 0;
            sl_bucket_count = Array.make 32 0;
            sl_widest = 0;
            sl_result = { transactions = 0; latency = 0 } });
    tr_sink = None;
    tm_sink = None }

let lanes t ~sm = t.slots.(sm).sl_lanes

let set_trace_sink t sink = t.tr_sink <- sink

let set_telemetry_sink t sink = t.tm_sink <- sink

let observe_access t (r : result) =
  match t.tm_sink with
  | None -> ()
  | Some tm ->
    Telemetry.Hist.observe tm.tm_latency r.latency;
    Telemetry.Hist.observe tm.tm_transactions r.transactions

let set_trace_ctx t ~sm ~cycle ~warp =
  let sl = t.slots.(sm) in
  sl.sl_cycle <- cycle;
  sl.sl_warp <- warp

let trace_probe t ~sm ~level ~hit =
  match t.tr_sink with
  | None -> ()
  | Some c ->
    let sl = t.slots.(sm) in
    Trace.Collector.emit c
      (Trace.Record.make ~cycle:sl.sl_cycle ~sm ~warp:sl.sl_warp
         (Trace.Record.Cache_access { level; hit }))

(* --- Coalescing ----------------------------------------------------------- *)

(* Insert the lines [addr, addr + bytes) covers into the ascending,
   duplicate-free prefix [lines.(0 .. n-1)] and return its new length.
   Lanes mostly ascend, so the scan from the end usually stops at
   once. *)
let add_lines lines n ~line_bytes ~addr ~bytes =
  let n = ref n in
  for l = addr / line_bytes to (addr + bytes - 1) / line_bytes do
    let i = ref (!n - 1) in
    while !i >= 0 && Array.unsafe_get lines !i > l do decr i done;
    if !i < 0 || Array.unsafe_get lines !i <> l then begin
      Array.blit lines (!i + 1) lines (!i + 2) (!n - !i - 1);
      lines.(!i + 1) <- l;
      incr n
    end
  done;
  !n

let coalesce ~line_bytes pairs =
  let cap =
    List.fold_left (fun a (_, w) -> a + max_lines ~line_bytes w) 0 pairs
  in
  let lines = Array.make cap 0 in
  let n =
    List.fold_left
      (fun n (addr, bytes) -> add_lines lines n ~line_bytes ~addr ~bytes)
      0 pairs
  in
  Array.to_list (Array.sub lines 0 n)

(* --- Timing --------------------------------------------------------------- *)

let line_latency t ~sm line_addr stats =
  let cfg = t.cfg in
  match Cache.access t.l1s.(sm) line_addr with
  | Cache.Hit ->
    stats.Stats.l1_hits <- stats.Stats.l1_hits + 1;
    trace_probe t ~sm ~level:Trace.Record.L1 ~hit:true;
    cfg.Config.lat_l1
  | Cache.Miss ->
    stats.Stats.l1_misses <- stats.Stats.l1_misses + 1;
    trace_probe t ~sm ~level:Trace.Record.L1 ~hit:false;
    (match Cache.access t.l2s.(sm) line_addr with
     | Cache.Hit ->
       stats.Stats.l2_hits <- stats.Stats.l2_hits + 1;
       trace_probe t ~sm ~level:Trace.Record.L2 ~hit:true;
       cfg.Config.lat_l2
     | Cache.Miss ->
       stats.Stats.l2_misses <- stats.Stats.l2_misses + 1;
       trace_probe t ~sm ~level:Trace.Record.L2 ~hit:false;
       cfg.Config.lat_dram)

let probe t ~sm ~stats line worst =
  let lat = line_latency t ~sm (line * t.cfg.Config.line_bytes) stats in
  if lat > worst then lat else worst

(* The warp waits for its slowest line; transactions beyond the first
   serialize at the L1. *)
let settle t ~sm ~stats ~n ~worst =
  stats.Stats.global_transactions <- stats.Stats.global_transactions + n;
  let r = t.slots.(sm).sl_result in
  r.transactions <- n;
  r.latency <- worst + (if n > 1 then (n - 1) * 2 else 0);
  observe_access t r;
  r

(* The access paths index the lane scratch without bounds checks. *)
let check_access fn sl ~n ~width =
  if n < 0 || n > Array.length sl.sl_lanes || width < 1 || width > 8 then
    invalid_arg fn

let global_access t ~sm ~stats ~n ~width =
  let sl = t.slots.(sm) in
  check_access "Memsys.global_access" sl ~n ~width;
  let line_bytes = t.cfg.Config.line_bytes in
  let lines = sl.sl_lines in
  let nl = ref 0 in
  for k = 0 to n - 1 do
    nl :=
      add_lines lines !nl ~line_bytes
        ~addr:(Array.unsafe_get sl.sl_lanes k) ~bytes:width
  done;
  let worst = ref 0 in
  for k = 0 to !nl - 1 do
    worst := probe t ~sm ~stats (Array.unsafe_get lines k) !worst
  done;
  settle t ~sm ~stats ~n:!nl ~worst:!worst

(* Local-memory accesses at a uniform frame offset touch the
   contiguous physical range [first_phys, last_phys + width): the
   per-lane interleaving guarantees perfect coalescing, so the line
   set is computed arithmetically instead of through the coalescer.
   This is the hottest path under instrumentation (spill and fill
   traffic of injected call sequences). *)
let contiguous_access t ~sm ~stats ~first_phys ~last_phys ~width =
  let lb = t.cfg.Config.line_bytes in
  let first = first_phys / lb in
  let last = (last_phys + width - 1) / lb in
  let worst = ref 0 in
  for l = first to last do
    worst := probe t ~sm ~stats l !worst
  done;
  settle t ~sm ~stats ~n:(last - first + 1) ~worst:!worst

(* Bucket the distinct values of [lanes.(k) asr shift] for [k < n];
   returns how many there are and leaves the largest bucket's size in
   [sl_widest]. *)
let distinct sl ~n ~shift =
  let count = sl.sl_bucket_count and buckets = sl.sl_buckets in
  let total = ref 0 and widest = ref 0 in
  for k = 0 to n - 1 do
    let v = Array.unsafe_get sl.sl_lanes k asr shift in
    let b = v land 31 in
    let c = Array.unsafe_get count b in
    let i = ref 0 in
    while !i < c && Array.unsafe_get buckets ((b lsl 5) + !i) <> v do
      incr i
    done;
    if !i = c then begin
      Array.unsafe_set buckets ((b lsl 5) + c) v;
      Array.unsafe_set count b (c + 1);
      incr total;
      if c + 1 > !widest then widest := c + 1
    end
  done;
  for k = 0 to n - 1 do
    let v = Array.unsafe_get sl.sl_lanes k asr shift in
    Array.unsafe_set count (v land 31) 0
  done;
  sl.sl_widest <- !widest;
  !total

let shared_access t ~sm ~stats ~n =
  let sl = t.slots.(sm) in
  check_access "Memsys.shared_access" sl ~n ~width:4;
  (* 32 banks, 4-byte wide; same-word accesses broadcast, so the
     conflict degree is the most distinct words any bank serves. *)
  ignore (distinct sl ~n ~shift:2);
  let conflict = if sl.sl_widest > 1 then sl.sl_widest else 1 in
  stats.Stats.shared_accesses <- stats.Stats.shared_accesses + 1;
  stats.Stats.shared_conflicts <- stats.Stats.shared_conflicts + (conflict - 1);
  let r = sl.sl_result in
  r.transactions <- conflict;
  r.latency <- t.cfg.Config.lat_shared * conflict;
  r

let atomic_access t ~sm ~stats ~n ~width =
  let r = global_access t ~sm ~stats ~n ~width in
  let unique = distinct t.slots.(sm) ~n ~shift:0 in
  r.latency <- r.latency + (t.cfg.Config.lat_atomic * unique);
  r

let l1_stats t ~sm = (Cache.hits t.l1s.(sm), Cache.misses t.l1s.(sm))

let l2_stats t =
  Array.fold_left
    (fun (h, m) c -> (h + Cache.hits c, m + Cache.misses c))
    (0, 0) t.l2s

let invalidate t =
  Array.iter Cache.invalidate_all t.l1s;
  Array.iter Cache.invalidate_all t.l2s
