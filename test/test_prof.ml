(* Tests for the profiling layer: Stats.to_assoc, the derived-metrics
   engine (formulas on hand-built counters, registry completeness),
   PC-sampling lifecycle and zero-perturbation, the sampled-vs-exact
   hotspot acceptance criterion, report formats (text/CSV/JSON
   through the shared serializer), and Counters.zero_on_launch. *)

open Kernel.Dsl

let check = Alcotest.check

let device () = Gpu.Device.create ~cfg:Gpu.Config.small ()

let feq = Alcotest.float 1e-9

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

(* --- Stats.to_assoc -------------------------------------------------------- *)

let test_stats_to_assoc () =
  let s = Gpu.Stats.create () in
  s.Gpu.Stats.cycles <- 7;
  s.Gpu.Stats.gld_requested_bytes <- 11;
  s.Gpu.Stats.resident_warp_cycles <- 13;
  let assoc = Gpu.Stats.to_assoc s in
  let names = List.map fst assoc in
  check Alcotest.int "one entry per counter"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  check Alcotest.int "cycles" 7 (List.assoc "cycles" assoc);
  check Alcotest.int "gld_requested_bytes" 11
    (List.assoc "gld_requested_bytes" assoc);
  check Alcotest.int "resident_warp_cycles" 13
    (List.assoc "resident_warp_cycles" assoc);
  check Alcotest.int "untouched counters zero" 0
    (List.assoc "l2_misses" assoc);
  (* pp is derived from to_assoc, so every counter name appears. *)
  let pp = Format.asprintf "%a" Gpu.Stats.pp s in
  List.iter
    (fun (n, _) ->
       check Alcotest.bool ("pp mentions " ^ n) true (contains pp (n ^ "=")))
    assoc

(* Stats.accumulate is the reduction behind Par.Reduce.stats, campaign
   manifests and multi-launch Workload stats: adding a stats object to
   a copy of itself must double every counter, cycles included. The
   record literal names every field, so a new counter does not compile
   here until it is given a value; the values are distinct and
   non-zero, so a counter that accumulate skips, or that to_assoc
   drops, shows. *)
let test_stats_accumulate_covers_every_counter () =
  let s =
    { Gpu.Stats.cycles = 1; warp_instrs = 2; thread_instrs = 3;
      mem_instrs = 4; ctrl_instrs = 5; sync_instrs = 6; numeric_instrs = 7;
      texture_instrs = 8; spill_instrs = 9; branches = 10;
      divergent_branches = 11; global_transactions = 12;
      gld_requested_bytes = 13; gld_transactions = 14;
      gst_requested_bytes = 15; gst_transactions = 16; shared_conflicts = 17;
      shared_accesses = 18; l1_hits = 19; l1_misses = 20; l2_hits = 21;
      l2_misses = 22; resident_warp_cycles = 23; sm_active_cycles = 24;
      handler_ops = 25; handler_cycles = 26; hcalls = 27 }
  in
  check Alcotest.(list int) "to_assoc reports every field"
    (List.init 27 succ)
    (List.sort compare (List.map snd (Gpu.Stats.to_assoc s)));
  let d = Gpu.Stats.create () in
  Gpu.Stats.accumulate ~into:d s;
  Gpu.Stats.accumulate ~into:d s;
  List.iter2
    (fun (name, v) (name', v2) ->
      check Alcotest.string "counter order stable" name name';
      check Alcotest.int (name ^ " accumulates as a sum") (2 * v) v2)
    (Gpu.Stats.to_assoc s) (Gpu.Stats.to_assoc d)

(* --- Metric formulas -------------------------------------------------------- *)

let env_of ?sampling stats =
  { Prof.Metrics.stats; cfg = Gpu.Config.default; sampling }

let compute_scalar name env =
  match Prof.Metrics.find name with
  | None -> Alcotest.fail ("metric not in registry: " ^ name)
  | Some m ->
    (match Prof.Metrics.compute env m with
     | Some (Prof.Metrics.Scalar v) -> v
     | Some (Prof.Metrics.Breakdown _) ->
       Alcotest.fail (name ^ ": expected scalar")
     | None -> Alcotest.fail (name ^ ": expected a value"))

let test_metric_formulas () =
  let s = Gpu.Stats.create () in
  let open Gpu.Stats in
  s.cycles <- 100;
  s.warp_instrs <- 50;
  s.thread_instrs <- 50 * 16;
  s.branches <- 10;
  s.divergent_branches <- 2;
  s.gld_requested_bytes <- 512;
  s.gld_transactions <- 32;
  s.gst_requested_bytes <- 64;
  s.gst_transactions <- 4;
  s.l1_hits <- 3;
  s.l1_misses <- 1;
  s.l2_hits <- 1;
  s.l2_misses <- 3;
  s.resident_warp_cycles <- 48 * 200;
  s.sm_active_cycles <- 200;
  let env = env_of s in
  check feq "ipc" 0.5 (compute_scalar "ipc" env);
  check feq "branch_efficiency" 80.0 (compute_scalar "branch_efficiency" env);
  (* 16 active lanes of 32 -> 50% *)
  check feq "warp_execution_efficiency" 50.0
    (compute_scalar "warp_execution_efficiency" env);
  (* 512 requested / (32 x 32B lines) -> 50% *)
  check feq "gld_efficiency" 50.0 (compute_scalar "gld_efficiency" env);
  check feq "gst_efficiency" 50.0 (compute_scalar "gst_efficiency" env);
  check feq "l1_hit_rate" 75.0 (compute_scalar "l1_hit_rate" env);
  check feq "l2_hit_rate" 25.0 (compute_scalar "l2_hit_rate" env);
  (* 48 resident warps every cycle = the full SM capacity *)
  check feq "achieved_occupancy" 1.0
    (compute_scalar "achieved_occupancy" env);
  (* 3 misses x 32B / 100 cycles *)
  check feq "dram_throughput" 0.96 (compute_scalar "dram_throughput" env)

let test_metric_zero_denominators () =
  let env = env_of (Gpu.Stats.create ()) in
  List.iter
    (fun name ->
       match Prof.Metrics.find name with
       | None -> Alcotest.fail ("metric not in registry: " ^ name)
       | Some m ->
         check Alcotest.bool (name ^ " undefined on empty stats") true
           (Prof.Metrics.compute env m = None))
    [ "ipc"; "branch_efficiency"; "gld_efficiency"; "l1_hit_rate";
      "achieved_occupancy"; "stall_breakdown" ]

let test_metric_registry () =
  let names = Prof.Metrics.names () in
  List.iter
    (fun required ->
       check Alcotest.bool ("registry has " ^ required) true
         (List.mem required names))
    [ "ipc"; "achieved_occupancy"; "branch_efficiency";
      "warp_execution_efficiency"; "gld_efficiency"; "gst_efficiency";
      "l1_hit_rate"; "l2_hit_rate"; "dram_throughput"; "stall_breakdown" ];
  List.iter
    (fun m ->
       check Alcotest.bool (Prof.Metrics.name m ^ " described") true
         (String.length (Prof.Metrics.description m) > 0
          && String.length (Prof.Metrics.unit_ m) > 0))
    Prof.Metrics.registry;
  (match Prof.Metrics.resolve [ "ipc"; "no_such_metric" ] with
   | Ok _ -> Alcotest.fail "resolve accepted an unknown metric"
   | Error e ->
     check Alcotest.bool "error names the bad metric" true
       (contains e "no_such_metric"));
  match Prof.Metrics.resolve [ "l2_hit_rate"; "ipc" ] with
  | Ok ms ->
    check
      (Alcotest.list Alcotest.string)
      "resolve keeps order" [ "l2_hit_rate"; "ipc" ]
      (List.map Prof.Metrics.name ms)
  | Error e -> Alcotest.fail e

(* --- PC sampling ------------------------------------------------------------ *)

let test_sampling_lifecycle () =
  let dev = device () in
  check Alcotest.bool "disabled initially" false
    (Cupti.Pc_sampling.enabled dev);
  let s = Cupti.Pc_sampling.enable ~period:16 dev in
  check Alcotest.bool "enabled" true (Cupti.Pc_sampling.enabled dev);
  check Alcotest.bool "double enable rejected" true
    (try
       ignore (Cupti.Pc_sampling.enable dev);
       false
     with Invalid_argument _ -> true);
  let _ = Test_trace.run_saxpy dev 1024 in
  check Alcotest.bool "samples accumulated" true
    (Prof.Pc_sampling.total_samples s > 0);
  check Alcotest.bool "hits accumulated" true (Prof.Pc_sampling.hits s > 0);
  (* every sampled PC maps to a real instruction of its kernel *)
  Prof.Pc_sampling.fold_pcs s
    (fun () kernel pc ~total ~by_reason ->
       check Alcotest.bool "pc in range" true
         (pc >= 0 && pc < Array.length kernel.Sass.Program.instrs);
       check Alcotest.int "reasons sum to total" total
         (Array.fold_left ( + ) 0 by_reason))
    ();
  Cupti.Pc_sampling.disable dev;
  check Alcotest.bool "disabled" false (Cupti.Pc_sampling.enabled dev);
  let frozen = Prof.Pc_sampling.total_samples s in
  let _ = Test_trace.run_saxpy dev 1024 in
  check Alcotest.int "histograms frozen after disable" frozen
    (Prof.Pc_sampling.total_samples s);
  check Alcotest.bool "bad period rejected" true
    (try
       ignore (Prof.Pc_sampling.create ~period:0 ());
       false
     with Invalid_argument _ -> true)

let test_sampling_preserves_stats () =
  let plain = Test_trace.run_saxpy (device ()) 512 in
  let dev = device () in
  let _ = Cupti.Pc_sampling.enable ~period:8 dev in
  let profiled = Test_trace.run_saxpy dev 512 in
  Cupti.Pc_sampling.disable dev;
  check Alcotest.string "profiled stats bit-identical"
    (Format.asprintf "%a" Gpu.Stats.pp plain)
    (Format.asprintf "%a" Gpu.Stats.pp profiled)

let test_stall_breakdown_sums () =
  let dev = device () in
  let s = Cupti.Pc_sampling.enable ~period:8 dev in
  let stats = Test_trace.run_saxpy dev 2048 in
  Cupti.Pc_sampling.disable dev;
  let env =
    { Prof.Metrics.stats; cfg = Gpu.Config.small; sampling = Some s }
  in
  match Prof.Metrics.compute env (Option.get (Prof.Metrics.find "stall_breakdown")) with
  | Some (Prof.Metrics.Breakdown parts) ->
    let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 parts in
    check (Alcotest.float 1e-6) "percentages sum to 100" 100.0 total;
    check Alcotest.int "one part per stall reason" Prof.Stall.count
      (List.length parts)
  | _ -> Alcotest.fail "expected a stall breakdown"

(* --- Acceptance: sampled hotspots vs exact issue counts --------------------- *)

let bump tbl pc n =
  Hashtbl.replace tbl pc
    (n + Option.value ~default:0 (Hashtbl.find_opt tbl pc))

let top5 tbl =
  Hashtbl.fold (fun pc c acc -> (pc, c) :: acc) tbl []
  |> List.sort (fun (pa, ca) (pb, cb) ->
      match compare cb ca with 0 -> compare pa pb | c -> c)
  |> List.filteri (fun i _ -> i < 5)

(* Tie-aware rank overlap (see bench/main.ml): issue counts tie across
   a hot loop's body, so a sampled top-5 PC agrees when its exact
   count reaches the 5th-largest exact count. *)
let sampled_vs_exact name variant =
  let w = Workloads.Registry.find name in
  let exact = Hashtbl.create 512 in
  let tally_one r =
    match r.Trace.Record.payload with
    | Trace.Record.Warp_issue { pc; _ } -> bump exact pc 1
    | _ -> ()
  in
  let dev = Gpu.Device.create () in
  Cupti.Activity.enable ~capacity:(1 lsl 16)
    ~overflow:(Trace.Ring.Flush_callback (Array.iter tally_one))
    dev
    [ Cupti.Activity.Warp ];
  let _ = w.Workloads.Workload.run dev ~variant in
  List.iter tally_one (Cupti.Activity.flush dev);
  Cupti.Activity.disable dev;
  let dev2 = Gpu.Device.create () in
  let s = Cupti.Pc_sampling.enable dev2 in  (* default period *)
  let _ = w.Workloads.Workload.run dev2 ~variant in
  Cupti.Pc_sampling.disable dev2;
  let sampled = Hashtbl.create 512 in
  Prof.Pc_sampling.fold_pcs s
    (fun () _k pc ~total ~by_reason:_ -> bump sampled pc total)
    ();
  let threshold =
    match List.rev (top5 exact) with (_, c) :: _ -> c | [] -> max_int
  in
  List.length
    (List.filter
       (fun (pc, _) ->
          match Hashtbl.find_opt exact pc with
          | Some c -> c >= threshold
          | None -> false)
       (top5 sampled))

let test_hotspots_match_exact () =
  List.iter
    (fun (name, variant) ->
       let overlap = sampled_vs_exact name variant in
       check Alcotest.bool
         (Printf.sprintf "%s (%s) top-5 overlap %d/5 >= 4/5" name variant
            overlap)
         true (overlap >= 4))
    [ ("parboil/sgemm", "small"); ("parboil/spmv", "small") ]

(* --- Reports ----------------------------------------------------------------- *)

let profiled_report () =
  let dev = device () in
  let s = Cupti.Pc_sampling.enable ~period:8 dev in
  let stats = Test_trace.run_saxpy dev 2048 in
  Cupti.Pc_sampling.disable dev;
  Cupti.Pc_sampling.report ~top:5 ~stats dev s

let test_report_text () =
  let r = profiled_report () in
  let text = Prof.Report.to_text r in
  List.iter
    (fun section ->
       check Alcotest.bool ("text has " ^ section) true
         (contains text section))
    [ "== PC sampling =="; "== Metrics =="; "== Stall breakdown ==";
      "== Hotspot instructions"; "== Hot basic blocks ==" ];
  check Alcotest.bool "hotspots nonempty" true (List.length r.Prof.Report.r_instrs > 0);
  check Alcotest.bool "top bound respected" true
    (List.length r.Prof.Report.r_instrs <= 5)

(* Minimal RFC 4180 field parser: the test reads rows back the way a
   spreadsheet would, so quoting bugs fail loudly. *)
let csv_fields line =
  let b = Buffer.create 16 in
  let fields = ref [] in
  let n = String.length line in
  let rec go i inq =
    if i >= n then fields := Buffer.contents b :: !fields
    else
      let c = line.[i] in
      if inq then
        if c = '"' then
          if i + 1 < n && line.[i + 1] = '"' then begin
            Buffer.add_char b '"';
            go (i + 2) true
          end
          else go (i + 1) false
        else begin
          Buffer.add_char b c;
          go (i + 1) true
        end
      else if c = '"' then go (i + 1) true
      else if c = ',' then begin
        fields := Buffer.contents b :: !fields;
        Buffer.clear b;
        go (i + 1) false
      end
      else begin
        Buffer.add_char b c;
        go (i + 1) false
      end
  in
  go 0 false;
  List.rev !fields

let test_report_csv () =
  let r = profiled_report () in
  let csv = Prof.Report.to_csv r in
  (* The blank line separates the hotspot section from the metrics
     section. *)
  let rec split_sections acc = function
    | [] -> (List.rev acc, [])
    | "" :: rest -> (List.rev acc, List.filter (fun l -> l <> "") rest)
    | l :: rest -> split_sections (l :: acc) rest
  in
  let hotspot_lines, metric_lines =
    split_sections [] (String.split_on_char '\n' csv)
  in
  (match hotspot_lines with
   | header :: rows ->
     check Alcotest.string "csv header"
       "kernel,pc,block,samples,selected,exec_dependency,memory_dependency,\
        sync,disasm"
       header;
     check Alcotest.int "one row per hotspot"
       (List.length r.Prof.Report.r_instrs)
       (List.length rows);
     List.iter
       (fun row ->
          check Alcotest.int "hotspot row has 9 fields" 9
            (List.length (csv_fields row));
          check Alcotest.bool "disasm quoted" true
            (String.length row > 0 && row.[String.length row - 1] = '"'))
       rows
   | [] -> Alcotest.fail "empty csv");
  (match metric_lines with
   | header :: rows ->
     check Alcotest.string "metrics header" "metric,value,unit,description"
       header;
     check Alcotest.int "one row per metric"
       (List.length r.Prof.Report.r_metrics)
       (List.length rows);
     List.iter
       (fun row ->
          check Alcotest.int "metric row has 4 fields" 4
            (List.length (csv_fields row)))
       rows;
     (* stall_breakdown's value is comma-separated, so naive splitting
        over-counts unless the field was quoted (RFC 4180). *)
     (match
        List.find_opt
          (fun row -> List.hd (csv_fields row) = "stall_breakdown")
          rows
      with
      | None -> Alcotest.fail "no stall_breakdown metric row"
      | Some row ->
        let v = List.nth (csv_fields row) 1 in
        check Alcotest.bool "breakdown value contains commas" true
          (String.contains v ','))
   | [] -> Alcotest.fail "no metrics section in csv")

let test_report_json () =
  let r = profiled_report () in
  let json = Prof.Report.to_json_string r in
  match Test_trace.Json.parse json with
  | Test_trace.Json.Obj fields ->
    List.iter
      (fun key ->
         check Alcotest.bool ("json has " ^ key) true
           (List.mem_assoc key fields))
      [ "period"; "hits"; "total_samples"; "metrics"; "stalls"; "hotspots";
        "blocks" ];
    (match List.assoc "hotspots" fields with
     | Test_trace.Json.Arr (first :: _) ->
       (match first with
        | Test_trace.Json.Obj hf ->
          check Alcotest.bool "hotspot has disasm" true
            (List.mem_assoc "disasm" hf)
        | _ -> Alcotest.fail "hotspot not an object")
     | _ -> Alcotest.fail "hotspots not a nonempty array")
  | _ -> Alcotest.fail "report JSON is not an object"

(* --- Shared JSON serializer --------------------------------------------------- *)

let test_json_escaping () =
  let tricky = "a\"b\\c\nd\te\rf" in
  let json =
    Trace.Json.to_string
      (Trace.Json.Obj
         [ ("s", Trace.Json.Str tricky);
           ("nan", Trace.Json.Float nan);
           ("i", Trace.Json.Int (-3)) ])
  in
  (match Test_trace.Json.parse json with
   | Test_trace.Json.Obj fields ->
     (match List.assoc "s" fields with
      | Test_trace.Json.Str s ->
        check Alcotest.string "string round-trips" tricky s
      | _ -> Alcotest.fail "s not a string");
     check Alcotest.bool "nan serialized as null" true
       (List.assoc "nan" fields = Test_trace.Json.Null);
     (match List.assoc "i" fields with
      | Test_trace.Json.Num v -> check feq "int round-trips" (-3.0) v
      | _ -> Alcotest.fail "i not a number")
   | _ -> Alcotest.fail "not an object");
  check Alcotest.string "control chars use \\u escapes" "\"\\u0001\""
    (Trace.Json.to_string (Trace.Json.Str "\001"))

(* --- Counters.zero_on_launch --------------------------------------------------- *)

let zk name value =
  kernel name ~params:[ ptr "out" ] (fun p ->
      [ st_global (p 0) (int_ value) ])

let launch dev k =
  let out = Gpu.Device.malloc dev 64 in
  ignore
    (Gpu.Device.launch dev ~kernel:(Kernel.Compile.compile k) ~grid:(1, 1)
       ~block:(32, 1)
       ~args:[ Gpu.Device.Ptr out ])

let test_zero_on_launch () =
  let dev = device () in
  let k1 = zk "t_zk1" 1 and k2 = zk "t_zk2" 2 in
  let c = Cupti.Counters.alloc dev ~slots:2 in
  let set v =
    Gpu.Device.write_u64 dev (Cupti.Counters.addr ~slot:0 c) v;
    Gpu.Device.write_u64 dev (Cupti.Counters.addr ~slot:1 c) (v + 1)
  in
  let slot0 () = (Cupti.Counters.read c).(0) in
  (* wildcard: zeroed on every kernel's launch *)
  let sub = Cupti.Counters.zero_on_launch c dev ~kernel:"*" in
  set 41;
  launch dev k1;
  check Alcotest.int "wildcard zeroes on k1" 0 (slot0 ());
  set 42;
  launch dev k2;
  check Alcotest.int "wildcard zeroes on k2" 0 (slot0 ());
  Cupti.Callback.unsubscribe dev sub;
  set 43;
  launch dev k1;
  check Alcotest.int "unsubscribed: value survives" 43 (slot0 ());
  (* named filter: only the matching kernel zeroes *)
  let sub2 = Cupti.Counters.zero_on_launch c dev ~kernel:"t_zk1" in
  set 44;
  launch dev k2;
  check Alcotest.int "other kernel leaves counters" 44 (slot0 ());
  launch dev k1;
  check Alcotest.int "named kernel zeroes" 0 (slot0 ());
  Cupti.Callback.unsubscribe dev sub2;
  (* read_and_zero both reads and clears *)
  set 45;
  let vals = Cupti.Counters.read_and_zero c in
  check Alcotest.int "read_and_zero returns value" 45 vals.(0);
  check Alcotest.int "read_and_zero returns slot 1" 46 vals.(1);
  check Alcotest.int "read_and_zero clears" 0 (slot0 ())

let suite =
  [ ( "prof",
      [ Alcotest.test_case "stats to_assoc" `Quick test_stats_to_assoc;
        Alcotest.test_case "Stats.accumulate: covers every counter" `Quick
          test_stats_accumulate_covers_every_counter;
        Alcotest.test_case "metric formulas" `Quick test_metric_formulas;
        Alcotest.test_case "metric zero denominators" `Quick
          test_metric_zero_denominators;
        Alcotest.test_case "metric registry" `Quick test_metric_registry;
        Alcotest.test_case "sampling lifecycle" `Quick
          test_sampling_lifecycle;
        Alcotest.test_case "sampling preserves stats" `Quick
          test_sampling_preserves_stats;
        Alcotest.test_case "stall breakdown sums" `Quick
          test_stall_breakdown_sums;
        Alcotest.test_case "hotspots match exact issue counts" `Slow
          test_hotspots_match_exact;
        Alcotest.test_case "report text" `Quick test_report_text;
        Alcotest.test_case "report csv" `Quick test_report_csv;
        Alcotest.test_case "report json" `Quick test_report_json;
        Alcotest.test_case "shared json escaping" `Quick test_json_escaping;
        Alcotest.test_case "counters zero_on_launch" `Quick
          test_zero_on_launch ] ) ]
