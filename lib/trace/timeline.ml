type side_stats = {
  mutable issues : int;
  mutable stall_events : int array;
  mutable stall_cycles : int array;
  mutable mem_accesses : int;
  mutable mem_transactions : int;
  mutable barriers : int;
  mutable first_cycle : int;
  mutable last_cycle : int;
  mutable blocks : int;
}

type t = {
  kernels : (string * int * int) list;
  sms : (int * side_stats) list;
  total : side_stats;
  cache_probes : (int * int) * (int * int);
  handler_invokes : int;
  faults : int;
}

let reason_index = function
  | Record.Stall_memory -> 0
  | Record.Stall_barrier -> 1
  | Record.Stall_exec -> 2

let reasons = [| Record.Stall_memory; Record.Stall_barrier; Record.Stall_exec |]

let n_reasons = Array.length reasons

let fresh () =
  { issues = 0;
    stall_events = Array.make n_reasons 0;
    stall_cycles = Array.make n_reasons 0;
    mem_accesses = 0;
    mem_transactions = 0;
    barriers = 0;
    first_cycle = max_int;
    last_cycle = 0;
    blocks = 0 }

let touch s cycle =
  if cycle < s.first_cycle then s.first_cycle <- cycle;
  if cycle > s.last_cycle then s.last_cycle <- cycle

(* One pass over the records, allocating only an entry per SM: each
   record updates the total and, when it names an SM, that SM's
   entry. *)
let build records =
  let sms = Hashtbl.create 16 in
  let total = fresh () in
  let kernels = ref [] in
  let l1h = ref 0 and l1m = ref 0 and l2h = ref 0 and l2m = ref 0 in
  let handlers = ref 0 and faults = ref 0 in
  let count s (r : Record.t) =
    (match r.Record.payload with
     | Record.Block_dispatch _ -> s.blocks <- s.blocks + 1
     | Record.Warp_issue _ -> s.issues <- s.issues + 1
     | Record.Warp_stall { reason; cycles } ->
       let i = reason_index reason in
       s.stall_events.(i) <- s.stall_events.(i) + 1;
       s.stall_cycles.(i) <- s.stall_cycles.(i) + cycles
     | Record.Warp_barrier _ -> s.barriers <- s.barriers + 1
     | Record.Mem_access { transactions; _ } ->
       s.mem_accesses <- s.mem_accesses + 1;
       s.mem_transactions <- s.mem_transactions + transactions
     | Record.Kernel_launch _ | Record.Kernel_exit _ | Record.Cache_access _
     | Record.Handler_invoke _ | Record.Fault_inject _ -> ());
    touch s r.Record.cycle
  in
  List.iter
    (fun (r : Record.t) ->
       (match r.Record.payload with
        | Record.Kernel_exit { name; launch_id; cycles } ->
          kernels := (name, launch_id, cycles) :: !kernels
        | Record.Cache_access { level; hit } ->
          (match (level, hit) with
           | Record.L1, true -> incr l1h
           | Record.L1, false -> incr l1m
           | Record.L2, true -> incr l2h
           | Record.L2, false -> incr l2m)
        | Record.Handler_invoke _ -> incr handlers
        | Record.Fault_inject _ -> incr faults
        | Record.Kernel_launch _ | Record.Block_dispatch _
        | Record.Warp_issue _ | Record.Warp_stall _ | Record.Warp_barrier _
        | Record.Mem_access _ -> ());
       count total r;
       let sm = r.Record.sm in
       if sm >= 0 then
         count
           (try Hashtbl.find sms sm
            with Not_found ->
              let s = fresh () in
              Hashtbl.replace sms sm s;
              s)
           r)
    records;
  { kernels = List.rev !kernels;
    sms =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) sms []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    total;
    cache_probes = ((!l1h, !l1m), (!l2h, !l2m));
    handler_invokes = !handlers;
    faults = !faults }

let stall_breakdown t =
  Array.to_list reasons
  |> List.map (fun r ->
      let i = reason_index r in
      (r, t.total.stall_events.(i), t.total.stall_cycles.(i)))
  |> List.sort (fun (_, _, a) (_, _, b) -> Int.compare b a)

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, id, cycles) ->
       Format.fprintf ppf "kernel %-24s launch %-3d %10d cycles@." name id
         cycles)
    t.kernels;
  Format.fprintf ppf "stall breakdown:@.";
  List.iter
    (fun (r, events, cycles) ->
       Format.fprintf ppf "  %-8s %10d events %12d warp-cycles@."
         (Record.stall_reason_to_string r)
         events cycles)
    (stall_breakdown t);
  let (l1h, l1m), (l2h, l2m) = t.cache_probes in
  Format.fprintf ppf
    "issues %d, mem accesses %d (%d transactions), barriers %d@."
    t.total.issues t.total.mem_accesses t.total.mem_transactions
    t.total.barriers;
  if l1h + l1m + l2h + l2m > 0 then
    Format.fprintf ppf "cache probes: L1 %d/%d, L2 %d/%d (hits/misses)@." l1h
      l1m l2h l2m;
  if t.handler_invokes > 0 then
    Format.fprintf ppf "handler invocations: %d@." t.handler_invokes;
  if t.faults > 0 then Format.fprintf ppf "faults injected: %d@." t.faults;
  List.iter
    (fun (sm, s) ->
       Format.fprintf ppf
         "SM %-2d: %6d issues %5d blocks, cycles %d..%d, stalls \
          m/b/e %d/%d/%d@."
         sm s.issues s.blocks
         (if s.first_cycle = max_int then 0 else s.first_cycle)
         s.last_cycle s.stall_cycles.(0) s.stall_cycles.(1)
         s.stall_cycles.(2))
    t.sms;
  Format.fprintf ppf "@]"
