open State

type t = State.device

type arg =
  | I32 of int
  | F32 of float
  | Ptr of int

(* Process-wide default for [d_domains], consulted by [create]. Set
   once by the CLI before any work runs: devices are created deep
   inside campaign/serve tasks (possibly on worker domains), so a
   global default is the only practical way to reach them all. *)
let default_domains = Atomic.make 1

let set_default_domains n =
  if n < 1 then invalid_arg "Device.set_default_domains: must be >= 1";
  Atomic.set default_domains n

let create ?(cfg = Config.default) ?domains () =
  let domains =
    match domains with
    | Some n ->
      if n < 1 then invalid_arg "Device.create: domains must be >= 1";
      n
    | None -> Atomic.get default_domains
  in
  { d_cfg = cfg;
    d_global = Memory.create ~space:Sass.Opcode.Global cfg.Config.global_mem_bytes;
    d_mem = Memsys.create cfg;
    d_alloc = 256;
    d_transform = None;
    d_transform_gen = 0;
    d_kernel_cache = Hashtbl.create 16;
    d_decoded = Code_table.create 16;
    d_launch_cbs = [];
    d_exit_cbs = [];
    d_cb_next = 0;
    d_hcall = None;
    d_launch_count = 0;
    d_invocations = Hashtbl.create 16;
    d_texture = None;
    d_host_access = None;
    d_tracer = None;
    d_trace_base = 0;
    d_sampler = None;
    d_telemetry = None;
    d_domains = domains;
    d_sharding_fallbacks = 0 }

let set_domains t n =
  if n < 1 then invalid_arg "Device.set_domains: must be >= 1";
  t.d_domains <- n

let domains t = t.d_domains

let sharding_fallbacks t = t.d_sharding_fallbacks

let config t = t.d_cfg

let host_touch t ~addr ~bytes ~write =
  match t.d_host_access with
  | Some f -> f ~addr ~bytes ~write
  | None -> ()

let set_host_access_hook t f = t.d_host_access <- f

let heap_used t = t.d_alloc

let malloc t bytes =
  let aligned = (t.d_alloc + 255) land lnot 255 in
  if aligned + bytes > Memory.size t.d_global then raise Out_of_memory;
  t.d_alloc <- aligned + bytes;
  aligned

let memset t ~addr ~len c =
  host_touch t ~addr ~bytes:len ~write:true;
  Memory.fill t.d_global ~pos:addr ~len c

let write_i32s t ~addr values =
  host_touch t ~addr ~bytes:(4 * Array.length values) ~write:true;
  Array.iteri
    (fun i v ->
       Memory.write t.d_global ~width:Sass.Opcode.W32 (addr + (4 * i)) v)
    values

let read_i32s t ~addr ~n =
  host_touch t ~addr ~bytes:(4 * n) ~write:false;
  Array.init n (fun i ->
      Memory.read t.d_global ~width:Sass.Opcode.W32 (addr + (4 * i)))

let write_f32s t ~addr values =
  host_touch t ~addr ~bytes:(4 * Array.length values) ~write:true;
  Array.iteri
    (fun i v ->
       Memory.write t.d_global ~width:Sass.Opcode.W32 (addr + (4 * i))
         (Value.bits_of_f32 v))
    values

let read_f32s t ~addr ~n =
  host_touch t ~addr ~bytes:(4 * n) ~write:false;
  Array.init n (fun i ->
      Value.f32_of_bits
        (Memory.read t.d_global ~width:Sass.Opcode.W32 (addr + (4 * i))))

let write_u64s t ~addr values =
  host_touch t ~addr ~bytes:(8 * Array.length values) ~write:true;
  Array.iteri
    (fun i v -> Memory.write_u64 t.d_global (addr + (8 * i)) v)
    values

let read_u64s t ~addr ~n =
  host_touch t ~addr ~bytes:(8 * n) ~write:false;
  Array.init n (fun i -> Memory.read_u64 t.d_global (addr + (8 * i)))

let read_i32 t addr =
  host_touch t ~addr ~bytes:4 ~write:false;
  Memory.read t.d_global ~width:Sass.Opcode.W32 addr

let write_i32 t addr v =
  host_touch t ~addr ~bytes:4 ~write:true;
  Memory.write t.d_global ~width:Sass.Opcode.W32 addr v

let read_u64 t addr =
  host_touch t ~addr ~bytes:8 ~write:false;
  Memory.read_u64 t.d_global addr

let write_u64 t addr v =
  host_touch t ~addr ~bytes:8 ~write:true;
  Memory.write_u64 t.d_global addr v

let bind_texture t ~addr ~bytes = t.d_texture <- Some (addr, bytes)

let set_transform t tr =
  t.d_transform <- tr;
  t.d_transform_gen <- t.d_transform_gen + 1

let set_hcall t h = t.d_hcall <- h

let set_tracer t tracer =
  t.d_tracer <- tracer;
  (* Mirror into the memory system, which emits L1/L2 probe records
     directly; filter there so an uninterested collector keeps the
     memsys fast path branch-only. *)
  Memsys.set_trace_sink t.d_mem
    (match tracer with
     | Some c when Trace.Collector.wants c Trace.Record.Cache -> Some c
     | _ -> None)

let tracer t = t.d_tracer

let set_sampler t sp = t.d_sampler <- sp

let sampler t = t.d_sampler

let set_telemetry t tm =
  t.d_telemetry <- tm;
  (* Mirror the memory-request histograms into the memory system,
     which observes accesses directly. *)
  Memsys.set_telemetry_sink t.d_mem
    (match tm with
     | Some x ->
       Some
         { Memsys.tm_latency = x.tm_mem_latency;
           Memsys.tm_transactions = x.tm_mem_transactions }
     | None -> None)

let telemetry t = t.d_telemetry

(* Callbacks are stored newest-first (O(1) registration; the old
   append made registering n callbacks O(n^2)) and fired through
   [List.rev], preserving subscription order — ids are handed out
   monotonically, so reversed prepend order is sorted-id order. *)
let on_launch t f =
  let id = t.d_cb_next in
  t.d_cb_next <- id + 1;
  t.d_launch_cbs <- (id, f) :: t.d_launch_cbs;
  id

let on_exit t f =
  let id = t.d_cb_next in
  t.d_cb_next <- id + 1;
  t.d_exit_cbs <- (id, f) :: t.d_exit_cbs;
  id

let unsubscribe t id =
  t.d_launch_cbs <- List.filter (fun (i, _) -> i <> id) t.d_launch_cbs;
  t.d_exit_cbs <- List.filter (fun (i, _) -> i <> id) t.d_exit_cbs

let transformed_kernel t kernel =
  match t.d_transform with
  | None -> kernel
  | Some tr ->
    let key = (kernel.Sass.Program.name, t.d_transform_gen) in
    (match Hashtbl.find_opt t.d_kernel_cache key with
     | Some k -> k
     | None ->
       let k = tr kernel in
       (match Sass.Program.validate k with
        | Ok () -> ()
        | Error e ->
          invalid_arg
            (Printf.sprintf "instrumented kernel %s invalid: %s"
               kernel.Sass.Program.name e));
       Hashtbl.replace t.d_kernel_cache key k;
       k)

(* Decode on the launching domain, before any shard spawns. *)
let decoded t (kernel : Sass.Program.kernel) =
  let instrs = kernel.Sass.Program.instrs in
  match Code_table.find_opt t.d_decoded instrs with
  | Some d -> d
  | None ->
    let shardable = Scheduler.shardable_kernel kernel in
    let d = Decode.kernel ~shardable kernel in
    Code_table.replace t.d_decoded instrs d;
    d

let launch t ~kernel ~grid ~block ~args =
  Obs.Tracer.with_span ~cat:"launch"
    ~attrs:
      [ ("kernel", Obs.Span.Str kernel.Sass.Program.name);
        ("grid", Obs.Span.Str (Printf.sprintf "%dx%d" (fst grid) (snd grid)));
        ("block", Obs.Span.Str (Printf.sprintf "%dx%d" (fst block) (snd block)))
      ]
    ("launch:" ^ kernel.Sass.Program.name)
  @@ fun () ->
  let kernel = transformed_kernel t kernel in
  let gx, gy = grid in
  let bx, by = block in
  if gx <= 0 || gy <= 0 || bx <= 0 || by <= 0 then
    invalid_arg "Device.launch: empty grid or block";
  if bx * by > 1024 then invalid_arg "Device.launch: block too large";
  let param_bytes = max kernel.Sass.Program.param_bytes (4 * List.length args) in
  let params = Memory.create ~space:Sass.Opcode.Param (max 4 param_bytes) in
  List.iteri
    (fun i a ->
       let v =
         match a with
         | I32 v -> v land Value.mask
         | F32 f -> Value.bits_of_f32 f
         | Ptr p -> p land Value.mask
       in
       Memory.write params ~width:Sass.Opcode.W32 (4 * i) v)
    args;
  let invocation =
    match Hashtbl.find_opt t.d_invocations kernel.Sass.Program.name with
    | Some n -> n
    | None -> 0
  in
  Hashtbl.replace t.d_invocations kernel.Sass.Program.name (invocation + 1);
  let launch =
    { l_device = t;
      l_kernel = kernel;
      l_code = decoded t kernel;
      l_grid_x = gx;
      l_grid_y = gy;
      l_block_x = bx;
      l_block_y = by;
      l_params = params;
      l_stats = Stats.create ();
      l_id = t.d_launch_count;
      l_invocation = invocation }
  in
  t.d_launch_count <- t.d_launch_count + 1;
  (match t.d_tracer with
   | Some c when Trace.Collector.wants c Trace.Record.Kernel ->
     Trace.Collector.emit c
       (Trace.Record.make ~cycle:t.d_trace_base ~sm:(-1) ~warp:(-1)
          (Trace.Record.Kernel_launch
             { name = kernel.Sass.Program.name;
               launch_id = launch.l_id;
               grid;
               block }))
   | _ -> ());
  List.iter (fun (_, f) -> f launch) (List.rev t.d_launch_cbs);
  Scheduler.run launch;
  List.iter (fun (_, f) -> f launch) (List.rev t.d_exit_cbs);
  (match t.d_tracer with
   | Some c ->
     let cycles = launch.l_stats.Stats.cycles in
     if Trace.Collector.wants c Trace.Record.Kernel then
       Trace.Collector.emit c
         (Trace.Record.make ~cycle:(t.d_trace_base + cycles) ~sm:(-1)
            ~warp:(-1)
            (Trace.Record.Kernel_exit
               { name = kernel.Sass.Program.name;
                 launch_id = launch.l_id;
                 cycles }));
     (* Later launches start after this one on the trace timeline. *)
     t.d_trace_base <- t.d_trace_base + cycles
   | None -> ());
  launch.l_stats

let invocation_count t name =
  match Hashtbl.find_opt t.d_invocations name with
  | Some n -> n
  | None -> 0
