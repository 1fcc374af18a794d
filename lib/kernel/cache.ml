(* Process-global content-addressed compile cache with an LRU byte
   bound.

   The content address is a digest over Marshal.No_sharing output of
   (AST, max_regs, opt_level): No_sharing makes the byte stream purely
   structural, so two structurally equal ASTs built by different code
   paths hash identically. The AST is immutable data (no closures, no
   mutable fields), which is what makes marshaling it sound.

   Size accounting uses the marshaled length of the *compiled* kernel:
   not the heap footprint to the byte, but monotone in it and cheap,
   which is all an eviction budget needs. Recency is a global tick;
   eviction scans for the minimum, which is fine at the tens-of-
   entries scale a kernel cache lives at. *)

type entry = {
  e_kernel : Sass.Program.kernel;
  e_bytes : int;
  mutable e_tick : int;
}

type t = {
  mutable on : bool;
  mutable max_bytes : int;
  mutable bytes : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  table : (string, entry) Hashtbl.t;
}

type stats = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_entries : int;
  c_bytes : int;
  c_max_bytes : int;
}

let default_max_bytes = 16 * 1024 * 1024

let lock = Mutex.create ()

let state =
  { on = false;
    max_bytes = default_max_bytes;
    bytes = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    table = Hashtbl.create 64 }

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let drop_entries () =
  Hashtbl.reset state.table;
  state.bytes <- 0

let enable ?(max_bytes = default_max_bytes) () =
  if max_bytes <= 0 then
    invalid_arg
      (Printf.sprintf "Kernel.Cache.enable: max_bytes must be positive (got %d)"
         max_bytes);
  locked (fun () ->
      drop_entries ();
      state.on <- true;
      state.max_bytes <- max_bytes;
      state.tick <- 0;
      state.hits <- 0;
      state.misses <- 0;
      state.evictions <- 0)

let disable () =
  locked (fun () ->
      state.on <- false;
      drop_entries ())

let key ~max_regs ~opt_level (k : Ast.kernel) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (k, max_regs, opt_level) [ Marshal.No_sharing ]))

(* Shared instruction records are immutable; only the array spine
   could be written through, so a spine copy fully isolates callers. *)
let publish (k : Sass.Program.kernel) =
  { k with Sass.Program.instrs = Array.copy k.Sass.Program.instrs }

let lookup ~max_regs ~opt_level ast =
  locked (fun () ->
      if not state.on then None
      else
        match Hashtbl.find_opt state.table (key ~max_regs ~opt_level ast) with
        | Some e ->
          state.hits <- state.hits + 1;
          state.tick <- state.tick + 1;
          e.e_tick <- state.tick;
          Some (publish e.e_kernel)
        | None ->
          state.misses <- state.misses + 1;
          None)

let evict_lru () =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
         match acc with
         | Some (_, oldest) when oldest.e_tick <= e.e_tick -> acc
         | _ -> Some (key, e))
      state.table None
  in
  match victim with
  | None -> ()
  | Some (key, e) ->
    Hashtbl.remove state.table key;
    state.bytes <- state.bytes - e.e_bytes;
    state.evictions <- state.evictions + 1

let store ~max_regs ~opt_level ast kernel =
  locked (fun () ->
      if state.on then begin
        let key = key ~max_regs ~opt_level ast in
        if not (Hashtbl.mem state.table key) then begin
          let bytes =
            String.length (Marshal.to_string kernel [ Marshal.No_sharing ])
          in
          if bytes <= state.max_bytes then begin
            while state.bytes + bytes > state.max_bytes do
              evict_lru ()
            done;
            state.tick <- state.tick + 1;
            Hashtbl.replace state.table key
              { e_kernel = publish kernel; e_bytes = bytes;
                e_tick = state.tick };
            state.bytes <- state.bytes + bytes
          end
        end
      end)

let stats () =
  locked (fun () ->
      { c_hits = state.hits;
        c_misses = state.misses;
        c_evictions = state.evictions;
        c_entries = Hashtbl.length state.table;
        c_bytes = state.bytes;
        c_max_bytes = state.max_bytes })

let register_telemetry reg =
  let open Telemetry.Registry in
  register reg ~help:"Compile-cache hits (full pipeline skipped)"
    "sassi_cache_hits_total"
    (Counter (fun () -> (stats ()).c_hits));
  register reg ~help:"Compile-cache misses (full pipeline ran)"
    "sassi_cache_misses_total"
    (Counter (fun () -> (stats ()).c_misses));
  register reg ~help:"Compile-cache LRU evictions"
    "sassi_cache_evictions_total"
    (Counter (fun () -> (stats ()).c_evictions));
  register reg ~help:"Compile-cache resident entries" "sassi_cache_entries"
    (Gauge (fun () -> float_of_int (stats ()).c_entries));
  register reg ~help:"Compile-cache resident bytes"
    "sassi_cache_resident_bytes"
    (Gauge (fun () -> float_of_int (stats ()).c_bytes));
  register reg ~help:"Compile-cache byte budget" "sassi_cache_max_bytes"
    (Gauge (fun () -> float_of_int (stats ()).c_max_bytes))
