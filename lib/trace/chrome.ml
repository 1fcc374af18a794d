(* One pass of Json writer primitives straight into the buffer: no
   string, list or closure is built per record, so the export costs
   what its bytes cost. *)

let add = Buffer.add_string

let kv = Json.add_field

let kernel_pid = 0

let pid_of r = if r.Record.sm < 0 then kernel_pid else r.Record.sm + 1

let tid_of r =
  match r.Record.payload with
  | Record.Kernel_launch { launch_id; _ } | Record.Kernel_exit { launch_id; _ }
    -> launch_id
  | _ -> max 0 r.Record.warp

module Tbl = Hashtbl.Make (Int)

(* pid -> set of tids. Int keys throughout, so finding a track already
   seen allocates nothing and ids of any sign or size keep their order. *)
let tracks records =
  let pids = Tbl.create 16 in
  List.iter
    (fun r ->
       let pid = pid_of r in
       if not (Tbl.mem pids pid) then Tbl.add pids pid (Tbl.create 64);
       Tbl.replace (Tbl.find pids pid) (tid_of r) ())
    records;
  pids

let sorted_keys t = List.sort Int.compare (Tbl.fold (fun k _ l -> k :: l) t [])

(* A metadata event up to its name label, which the caller writes. *)
let meta b what pid tid =
  add b "{\"name\":\"";
  add b what;
  kv b "\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":" pid;
  kv b ",\"tid\":" tid;
  add b ",\"args\":{\"name\":\""

let ids b r =
  kv b ",\"pid\":" (pid_of r);
  kv b ",\"tid\":" (tid_of r)

(* Each arm writes one whole event, its fixed text (the "cat" is
   [Record.category_to_string]) in as few pieces as possible. Warp
   stalls and kernel spans are duration ("X") events, the rest
   instants; a kernel's exit record is stamped at the end of the
   launch, so its span covers the preceding [cycles]. *)
let event b r =
  let ts = r.Record.cycle in
  match r.Record.payload with
  | Record.Kernel_launch { name; grid = gx, gy; block = bx, by; _ } ->
    add b ",\n{\"name\":\"kernel_launch:";
    Json.escape_to b name;
    kv b "\",\"cat\":\"kernel\",\"ph\":\"i\",\"ts\":" ts;
    ids b r;
    kv b ",\"args\":{\"grid\":[" gx;
    kv b "," gy;
    kv b "],\"block\":[" bx;
    kv b "," by;
    add b "]},\"s\":\"t\"}"
  | Record.Kernel_exit { name; cycles; _ } ->
    add b ",\n{\"name\":\"kernel:";
    Json.escape_to b name;
    kv b "\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":" (max 0 (ts - cycles));
    kv b ",\"dur\":" (max 1 cycles);
    ids b r;
    kv b ",\"args\":{\"cycles\":" cycles;
    add b "}}"
  | Record.Block_dispatch { block; warps } ->
    kv b ",\n{\"name\":\"block_dispatch:" block;
    kv b "\",\"cat\":\"block\",\"ph\":\"i\",\"ts\":" ts;
    ids b r;
    kv b ",\"args\":{\"block\":" block;
    kv b ",\"warps\":" warps;
    add b "},\"s\":\"t\"}"
  | Record.Warp_issue { pc; op; active } ->
    add b ",\n{\"name\":\"warp_issue:";
    Json.escape_to b op;
    kv b "\",\"cat\":\"warp\",\"ph\":\"i\",\"ts\":" ts;
    ids b r;
    kv b ",\"args\":{\"pc\":" pc;
    kv b ",\"active\":" active;
    add b "},\"s\":\"t\"}"
  | Record.Warp_stall { reason; cycles } ->
    let reason = Record.stall_reason_to_string reason in
    add b ",\n{\"name\":\"stall:";
    add b reason;
    kv b "\",\"cat\":\"warp\",\"ph\":\"X\",\"ts\":" ts;
    kv b ",\"dur\":" (max 1 cycles);
    ids b r;
    add b ",\"args\":{\"reason\":\"";
    add b reason;
    add b "\"}}"
  | Record.Warp_barrier { pc; arrived } ->
    kv b ",\n{\"name\":\"barrier\",\"cat\":\"warp\",\"ph\":\"i\",\"ts\":" ts;
    ids b r;
    kv b ",\"args\":{\"pc\":" pc;
    kv b ",\"arrived\":" arrived;
    add b "},\"s\":\"t\"}"
  | Record.Mem_access { space; write; bytes; lanes; transactions } ->
    add b ",\n{\"name\":\"";
    add b (if write then "mem_st:" else "mem_ld:");
    add b (Record.mem_space_to_string space);
    kv b "\",\"cat\":\"mem\",\"ph\":\"i\",\"ts\":" ts;
    ids b r;
    kv b ",\"args\":{\"bytes\":" bytes;
    kv b ",\"lanes\":" lanes;
    kv b ",\"transactions\":" transactions;
    add b "},\"s\":\"t\"}"
  | Record.Cache_access { level; hit } ->
    add b ",\n{\"name\":\"";
    add b (Record.cache_level_to_string level);
    add b (if hit then "_hit" else "_miss");
    kv b "\",\"cat\":\"cache\",\"ph\":\"i\",\"ts\":" ts;
    ids b r;
    add b ",\"s\":\"t\"}"
  | Record.Handler_invoke { site; pc } ->
    kv b ",\n{\"name\":\"handler:" site;
    kv b "\",\"cat\":\"handler\",\"ph\":\"i\",\"ts\":" ts;
    ids b r;
    kv b ",\"args\":{\"site\":" site;
    kv b ",\"pc\":" pc;
    add b "},\"s\":\"t\"}"
  | Record.Fault_inject { thread; bit; target } ->
    add b ",\n{\"name\":\"fault_inject:";
    Json.escape_to b target;
    kv b "\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":" ts;
    ids b r;
    kv b ",\"args\":{\"thread\":" thread;
    kv b ",\"bit\":" bit;
    add b "},\"s\":\"t\"}"

(* Process names first, then thread names, each in id order; then the
   records. [spill] runs between records. *)
let write ~spill b records =
  add b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let tracks = tracks records in
  let pids = sorted_keys tracks in
  List.iteri
    (fun i pid ->
       if i > 0 then add b ",\n";
       meta b "process_name" pid 0;
       if pid = kernel_pid then add b "kernels" else kv b "SM " (pid - 1);
       add b "\"}}")
    pids;
  List.iter
    (fun pid ->
       List.iter
         (fun tid ->
            add b ",\n";
            meta b "thread_name" pid tid;
            kv b (if pid = kernel_pid then "launch " else "warp ") tid;
            add b "\"}}")
         (sorted_keys (Tbl.find tracks pid)))
    pids;
  List.iter
    (fun r ->
       event b r;
       spill b)
    records;
  add b "\n]}\n"

let to_buffer b records = write ~spill:ignore b records

(* Chunks, not one doubling buffer: the document is copied once, into
   the result, and never sits in memory twice over. *)
let to_string records =
  let b = Buffer.create 65536 and chunks = ref [] in
  let keep b = chunks := Buffer.contents b :: !chunks in
  write ~spill:(Json.spill keep) b records;
  keep b;
  String.concat "" (List.rev !chunks)

let to_channel oc records =
  let b = Buffer.create 65536 in
  write ~spill:(Json.spill (Buffer.output_buffer oc)) b records;
  Buffer.output_buffer oc b

let write_file path records =
  Json.with_out_file path (fun oc -> to_channel oc records)
