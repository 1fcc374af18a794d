(** The activity-record taxonomy: typed, cycle-stamped events mirroring
    CUPTI's Activity API records. Every record carries the simulated
    cycle at which it happened plus the SM and warp it belongs to
    ([-1] when the event is not tied to an SM or warp, e.g. kernel
    launches observed from the host). *)

type category =
  | Kernel  (** kernel launch / exit *)
  | Block  (** thread-block dispatch *)
  | Warp  (** warp issue / stall / barrier *)
  | Mem  (** warp-level memory transactions *)
  | Cache  (** L1/L2 hit and miss events *)
  | Handler  (** SASSI handler invocations *)
  | Fault  (** fault-injection events *)

val all_categories : category list

val category_to_string : category -> string

val category_of_string : string -> category option
(** Case-insensitive; returns [None] for unknown names. *)

val category_bit : category -> int
(** Distinct power of two per category, for mask-based filtering. *)

type mem_space =
  | Sp_global
  | Sp_shared
  | Sp_local
  | Sp_texture

val mem_space_to_string : mem_space -> string

type stall_reason =
  | Stall_memory  (** waiting on the memory hierarchy *)
  | Stall_barrier  (** waiting at a block-wide barrier *)
  | Stall_exec  (** long-latency execution pipe (MUFU, IDIV, ...) *)

val stall_reason_to_string : stall_reason -> string

type cache_level =
  | L1
  | L2

val cache_level_to_string : cache_level -> string

type payload =
  | Kernel_launch of {
      name : string;
      launch_id : int;
      grid : int * int;
      block : int * int;
    }
  | Kernel_exit of {
      name : string;
      launch_id : int;
      cycles : int;  (** total simulated kernel cycles *)
    }
  | Block_dispatch of {
      block : int;  (** flat block index *)
      warps : int;  (** warps carved out of the block *)
    }
  | Warp_issue of {
      pc : int;
      op : string;  (** opcode mnemonic *)
      active : int;  (** active lanes at issue *)
    }
  | Warp_stall of {
      reason : stall_reason;
      cycles : int;  (** stall duration in cycles *)
    }
  | Warp_barrier of {
      pc : int;
      arrived : int;  (** warps arrived at the barrier, this one included *)
    }
  | Mem_access of {
      space : mem_space;
      write : bool;
      bytes : int;  (** bytes per lane *)
      lanes : int;  (** lanes participating *)
      transactions : int;  (** coalesced transactions generated *)
    }
  | Cache_access of {
      level : cache_level;
      hit : bool;
    }
  | Handler_invoke of {
      site : int;  (** SASSI site id *)
      pc : int;
    }
  | Fault_inject of {
      thread : int;  (** global thread id targeted *)
      bit : int;  (** flipped bit, [-1] for predicate flips *)
      target : string;  (** "register" or "predicate" *)
    }

type t = {
  cycle : int;
  sm : int;
  warp : int;
  payload : payload;
}

val make : cycle:int -> sm:int -> warp:int -> payload -> t

val category : t -> category
