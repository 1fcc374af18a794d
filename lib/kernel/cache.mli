(** Content-addressed compile cache.

    Keys are digests of the kernel AST plus the compile configuration
    ([max_regs], [opt_level]), so a cache hit is exactly "this source,
    these options, compiled before" — hot kernels in repeat traffic
    (the serving story: the same workload POSTed to the daemon over
    and over) skip typecheck/lower/optimize/regalloc/emit entirely.
    The verifier gate still runs on every hit; correctness is never
    cached.

    The cache is one process-global table, off by default, guarded by
    a mutex so pool domains can compile concurrently. Residency is
    bounded by an LRU byte budget; {!stats} and
    {!register_telemetry} expose hits/misses/evictions for the
    [/metrics] scrape ([sassi_cache_*] series). Cached kernels are
    returned with a fresh instruction array, so callers that rewrite
    kernels in place can never corrupt the cache. *)

type stats = {
  c_hits : int;
  c_misses : int;  (** lookups while enabled that found nothing *)
  c_evictions : int;  (** entries dropped to stay under the byte budget *)
  c_entries : int;  (** resident entries *)
  c_bytes : int;  (** resident bytes (marshaled-kernel accounting) *)
  c_max_bytes : int;
}

val default_max_bytes : int
(** 16 MiB. *)

val enable : ?max_bytes:int -> unit -> unit
(** Turn the cache on with an empty table and zeroed counters.
    @raise Invalid_argument if [max_bytes <= 0]. *)

val disable : unit -> unit
(** Turn the cache off and drop every entry (counters are kept until
    the next {!enable} so a post-run scrape still sees them). *)

val key : max_regs:int -> opt_level:int -> Ast.kernel -> string
(** The content address: hex digest over a canonical (unshared)
    serialization of the AST and the compile options. *)

val lookup : max_regs:int -> opt_level:int -> Ast.kernel -> Sass.Program.kernel option
(** [Some kernel] on a hit (bumps the entry's recency and the hit
    counter; the returned kernel's instruction array is a fresh
    copy). [None] when disabled (not counted) or on a miss
    (counted). *)

val store :
  max_regs:int -> opt_level:int -> Ast.kernel -> Sass.Program.kernel -> unit
(** Insert a compiled kernel, evicting least-recently-used entries
    until the byte budget holds. No-op when disabled, when the entry
    alone exceeds the whole budget, or when the key is already
    resident. *)

val stats : unit -> stats

val register_telemetry : Telemetry.Registry.t -> unit
(** Register [sassi_cache_{hits,misses,evictions}_total] counters and
    [sassi_cache_{entries,resident_bytes,max_bytes}] gauges. *)
