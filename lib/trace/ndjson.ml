(* Every field goes through the shared Json writer primitives, so every
   string is JSON-escaped the way the Chrome sink escapes it. *)

let add = Buffer.add_string

let kv = Json.add_field

let record_to_buffer b (r : Record.t) =
  add b "{\"kind\":\"";
  add b (Record.category_to_string (Record.category r));
  kv b "\",\"cycle\":" r.Record.cycle;
  kv b ",\"sm\":" r.Record.sm;
  kv b ",\"warp\":" r.Record.warp;
  (match r.Record.payload with
   | Record.Kernel_launch { name; launch_id; grid = gx, gy; block = bx, by }
     ->
     add b ",\"event\":\"kernel_launch\",\"name\":";
     Json.add_str b name;
     kv b ",\"launch\":" launch_id;
     kv b ",\"grid\":[" gx;
     kv b "," gy;
     kv b "],\"block\":[" bx;
     kv b "," by;
     add b "]"
   | Record.Kernel_exit { name; launch_id; cycles } ->
     add b ",\"event\":\"kernel_exit\",\"name\":";
     Json.add_str b name;
     kv b ",\"launch\":" launch_id;
     kv b ",\"cycles\":" cycles
   | Record.Block_dispatch { block; warps } ->
     kv b ",\"event\":\"block_dispatch\",\"block\":" block;
     kv b ",\"warps\":" warps
   | Record.Warp_issue { pc; op; active } ->
     kv b ",\"event\":\"warp_issue\",\"pc\":" pc;
     add b ",\"op\":";
     Json.add_str b op;
     kv b ",\"active\":" active
   | Record.Warp_stall { reason; cycles } ->
     add b ",\"event\":\"warp_stall\",\"reason\":";
     Json.add_str b (Record.stall_reason_to_string reason);
     kv b ",\"cycles\":" cycles
   | Record.Warp_barrier { pc; arrived } ->
     kv b ",\"event\":\"warp_barrier\",\"pc\":" pc;
     kv b ",\"arrived\":" arrived
   | Record.Mem_access { space; write; bytes; lanes; transactions } ->
     add b ",\"event\":\"mem_access\",\"space\":";
     Json.add_str b (Record.mem_space_to_string space);
     add b (if write then ",\"write\":true" else ",\"write\":false");
     kv b ",\"bytes\":" bytes;
     kv b ",\"lanes\":" lanes;
     kv b ",\"transactions\":" transactions
   | Record.Cache_access { level; hit } ->
     add b ",\"event\":\"cache_access\",\"level\":";
     Json.add_str b (Record.cache_level_to_string level);
     add b (if hit then ",\"hit\":true" else ",\"hit\":false")
   | Record.Handler_invoke { site; pc } ->
     kv b ",\"event\":\"handler_invoke\",\"site\":" site;
     kv b ",\"pc\":" pc
   | Record.Fault_inject { thread; bit; target } ->
     kv b ",\"event\":\"fault_inject\",\"thread\":" thread;
     kv b ",\"bit\":" bit;
     add b ",\"target\":";
     Json.add_str b target);
  add b "}"

let record_to_string r =
  let b = Buffer.create 128 in
  record_to_buffer b r;
  Buffer.contents b

(* One line per record, written out a chunk at a time. *)
let write_file path records =
  Json.with_out_file path (fun oc ->
      let b = Buffer.create 65536 and out = Buffer.output_buffer oc in
      List.iter
        (fun r ->
           record_to_buffer b r;
           add b "\n";
           Json.spill out b)
        records;
      out b)
