type t = {
  mutable cycles : int;
  mutable warp_instrs : int;
  mutable thread_instrs : int;
  mutable mem_instrs : int;
  mutable ctrl_instrs : int;
  mutable sync_instrs : int;
  mutable numeric_instrs : int;
  mutable texture_instrs : int;
  mutable spill_instrs : int;
  mutable branches : int;
  mutable divergent_branches : int;
  mutable global_transactions : int;
  mutable gld_requested_bytes : int;
  mutable gld_transactions : int;
  mutable gst_requested_bytes : int;
  mutable gst_transactions : int;
  mutable shared_conflicts : int;
  mutable shared_accesses : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable resident_warp_cycles : int;
  mutable sm_active_cycles : int;
  mutable handler_ops : int;
  mutable handler_cycles : int;
  mutable hcalls : int;
}

let create () =
  { cycles = 0;
    warp_instrs = 0;
    thread_instrs = 0;
    mem_instrs = 0;
    ctrl_instrs = 0;
    sync_instrs = 0;
    numeric_instrs = 0;
    texture_instrs = 0;
    spill_instrs = 0;
    branches = 0;
    divergent_branches = 0;
    global_transactions = 0;
    gld_requested_bytes = 0;
    gld_transactions = 0;
    gst_requested_bytes = 0;
    gst_transactions = 0;
    shared_conflicts = 0;
    shared_accesses = 0;
    l1_hits = 0;
    l1_misses = 0;
    l2_hits = 0;
    l2_misses = 0;
    resident_warp_cycles = 0;
    sm_active_cycles = 0;
    handler_ops = 0;
    handler_cycles = 0;
    hcalls = 0 }

(* The single source of truth for counter names: pp, --stats-json and
   the derived-metrics engine all read counters through this list. *)
let to_assoc t =
  [ ("cycles", t.cycles);
    ("warp_instrs", t.warp_instrs);
    ("thread_instrs", t.thread_instrs);
    ("mem_instrs", t.mem_instrs);
    ("ctrl_instrs", t.ctrl_instrs);
    ("sync_instrs", t.sync_instrs);
    ("numeric_instrs", t.numeric_instrs);
    ("texture_instrs", t.texture_instrs);
    ("spill_instrs", t.spill_instrs);
    ("branches", t.branches);
    ("divergent_branches", t.divergent_branches);
    ("global_transactions", t.global_transactions);
    ("gld_requested_bytes", t.gld_requested_bytes);
    ("gld_transactions", t.gld_transactions);
    ("gst_requested_bytes", t.gst_requested_bytes);
    ("gst_transactions", t.gst_transactions);
    ("shared_conflicts", t.shared_conflicts);
    ("shared_accesses", t.shared_accesses);
    ("l1_hits", t.l1_hits);
    ("l1_misses", t.l1_misses);
    ("l2_hits", t.l2_hits);
    ("l2_misses", t.l2_misses);
    ("resident_warp_cycles", t.resident_warp_cycles);
    ("sm_active_cycles", t.sm_active_cycles);
    ("handler_ops", t.handler_ops);
    ("handler_cycles", t.handler_cycles);
    ("hcalls", t.hcalls) ]

let reset t =
  t.cycles <- 0;
  t.warp_instrs <- 0;
  t.thread_instrs <- 0;
  t.mem_instrs <- 0;
  t.ctrl_instrs <- 0;
  t.sync_instrs <- 0;
  t.numeric_instrs <- 0;
  t.texture_instrs <- 0;
  t.spill_instrs <- 0;
  t.branches <- 0;
  t.divergent_branches <- 0;
  t.global_transactions <- 0;
  t.gld_requested_bytes <- 0;
  t.gld_transactions <- 0;
  t.gst_requested_bytes <- 0;
  t.gst_transactions <- 0;
  t.shared_conflicts <- 0;
  t.shared_accesses <- 0;
  t.l1_hits <- 0;
  t.l1_misses <- 0;
  t.l2_hits <- 0;
  t.l2_misses <- 0;
  t.resident_warp_cycles <- 0;
  t.sm_active_cycles <- 0;
  t.handler_ops <- 0;
  t.handler_cycles <- 0;
  t.hcalls <- 0

let accumulate ~into t =
  into.cycles <- into.cycles + t.cycles;
  into.warp_instrs <- into.warp_instrs + t.warp_instrs;
  into.thread_instrs <- into.thread_instrs + t.thread_instrs;
  into.mem_instrs <- into.mem_instrs + t.mem_instrs;
  into.ctrl_instrs <- into.ctrl_instrs + t.ctrl_instrs;
  into.sync_instrs <- into.sync_instrs + t.sync_instrs;
  into.numeric_instrs <- into.numeric_instrs + t.numeric_instrs;
  into.texture_instrs <- into.texture_instrs + t.texture_instrs;
  into.spill_instrs <- into.spill_instrs + t.spill_instrs;
  into.branches <- into.branches + t.branches;
  into.divergent_branches <- into.divergent_branches + t.divergent_branches;
  into.global_transactions <- into.global_transactions + t.global_transactions;
  into.gld_requested_bytes <- into.gld_requested_bytes + t.gld_requested_bytes;
  into.gld_transactions <- into.gld_transactions + t.gld_transactions;
  into.gst_requested_bytes <- into.gst_requested_bytes + t.gst_requested_bytes;
  into.gst_transactions <- into.gst_transactions + t.gst_transactions;
  into.shared_conflicts <- into.shared_conflicts + t.shared_conflicts;
  into.shared_accesses <- into.shared_accesses + t.shared_accesses;
  into.l1_hits <- into.l1_hits + t.l1_hits;
  into.l1_misses <- into.l1_misses + t.l1_misses;
  into.l2_hits <- into.l2_hits + t.l2_hits;
  into.l2_misses <- into.l2_misses + t.l2_misses;
  into.resident_warp_cycles <-
    into.resident_warp_cycles + t.resident_warp_cycles;
  into.sm_active_cycles <- into.sm_active_cycles + t.sm_active_cycles;
  into.handler_ops <- into.handler_ops + t.handler_ops;
  into.handler_cycles <- into.handler_cycles + t.handler_cycles;
  into.hcalls <- into.hcalls + t.hcalls

(* Name-indexed setters, used by [merge] so that the reduction is
   driven by [to_assoc]: a counter present in the record but missing
   from either list makes [merge] raise instead of silently dropping
   the value. *)
let setters : (string * (t -> int -> unit)) list =
  [ ("cycles", fun t v -> t.cycles <- v);
    ("warp_instrs", fun t v -> t.warp_instrs <- v);
    ("thread_instrs", fun t v -> t.thread_instrs <- v);
    ("mem_instrs", fun t v -> t.mem_instrs <- v);
    ("ctrl_instrs", fun t v -> t.ctrl_instrs <- v);
    ("sync_instrs", fun t v -> t.sync_instrs <- v);
    ("numeric_instrs", fun t v -> t.numeric_instrs <- v);
    ("texture_instrs", fun t v -> t.texture_instrs <- v);
    ("spill_instrs", fun t v -> t.spill_instrs <- v);
    ("branches", fun t v -> t.branches <- v);
    ("divergent_branches", fun t v -> t.divergent_branches <- v);
    ("global_transactions", fun t v -> t.global_transactions <- v);
    ("gld_requested_bytes", fun t v -> t.gld_requested_bytes <- v);
    ("gld_transactions", fun t v -> t.gld_transactions <- v);
    ("gst_requested_bytes", fun t v -> t.gst_requested_bytes <- v);
    ("gst_transactions", fun t v -> t.gst_transactions <- v);
    ("shared_conflicts", fun t v -> t.shared_conflicts <- v);
    ("shared_accesses", fun t v -> t.shared_accesses <- v);
    ("l1_hits", fun t v -> t.l1_hits <- v);
    ("l1_misses", fun t v -> t.l1_misses <- v);
    ("l2_hits", fun t v -> t.l2_hits <- v);
    ("l2_misses", fun t v -> t.l2_misses <- v);
    ("resident_warp_cycles", fun t v -> t.resident_warp_cycles <- v);
    ("sm_active_cycles", fun t v -> t.sm_active_cycles <- v);
    ("handler_ops", fun t v -> t.handler_ops <- v);
    ("handler_cycles", fun t v -> t.handler_cycles <- v);
    ("hcalls", fun t v -> t.hcalls <- v) ]

let merge ~into t =
  let pairs = to_assoc t in
  let into_pairs = to_assoc into in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name pairs) then
        invalid_arg
          (Printf.sprintf "Stats.merge: counter %s missing from to_assoc" name))
    setters;
  List.iter
    (fun (name, v) ->
      let set =
        try List.assoc name setters
        with Not_found ->
          invalid_arg
            (Printf.sprintf "Stats.merge: no setter for counter %s" name)
      in
      let cur = List.assoc name into_pairs in
      set into (if String.equal name "cycles" then max cur v else cur + v))
    pairs

let c_mem = 1
let c_ctrl = 2
let c_sync = 4
let c_numeric = 8
let c_texture = 16
let c_spill = 32

let classes op =
  let open Sass.Opcode in
  let bit b c = if b then c else 0 in
  bit (is_mem op) c_mem lor bit (is_control op) c_ctrl
  lor bit (is_sync op) c_sync lor bit (is_numeric op) c_numeric
  lor bit (is_texture op) c_texture lor bit (is_spill_or_fill op) c_spill

let count_instr t ~classes ~active_lanes =
  t.warp_instrs <- t.warp_instrs + 1;
  t.thread_instrs <- t.thread_instrs + active_lanes;
  if classes land c_mem <> 0 then t.mem_instrs <- t.mem_instrs + 1;
  if classes land c_ctrl <> 0 then t.ctrl_instrs <- t.ctrl_instrs + 1;
  if classes land c_sync <> 0 then t.sync_instrs <- t.sync_instrs + 1;
  if classes land c_numeric <> 0 then t.numeric_instrs <- t.numeric_instrs + 1;
  if classes land c_texture <> 0 then t.texture_instrs <- t.texture_instrs + 1;
  if classes land c_spill <> 0 then t.spill_instrs <- t.spill_instrs + 1

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    (fun ppf (name, v) -> Format.fprintf ppf "%s=%d" name v)
    ppf (to_assoc t)
