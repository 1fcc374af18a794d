type category =
  | Kernel
  | Block
  | Warp
  | Mem
  | Cache
  | Handler
  | Fault

let all_categories = [ Kernel; Block; Warp; Mem; Cache; Handler; Fault ]

let category_to_string = function
  | Kernel -> "kernel"
  | Block -> "block"
  | Warp -> "warp"
  | Mem -> "mem"
  | Cache -> "cache"
  | Handler -> "handler"
  | Fault -> "fault"

let category_of_string s =
  match String.lowercase_ascii s with
  | "kernel" -> Some Kernel
  | "block" -> Some Block
  | "warp" -> Some Warp
  | "mem" -> Some Mem
  | "cache" -> Some Cache
  | "handler" -> Some Handler
  | "fault" -> Some Fault
  | _ -> None

let category_bit = function
  | Kernel -> 1
  | Block -> 2
  | Warp -> 4
  | Mem -> 8
  | Cache -> 16
  | Handler -> 32
  | Fault -> 64

type mem_space =
  | Sp_global
  | Sp_shared
  | Sp_local
  | Sp_texture

let mem_space_to_string = function
  | Sp_global -> "global"
  | Sp_shared -> "shared"
  | Sp_local -> "local"
  | Sp_texture -> "texture"

type stall_reason =
  | Stall_memory
  | Stall_barrier
  | Stall_exec

let stall_reason_to_string = function
  | Stall_memory -> "memory"
  | Stall_barrier -> "barrier"
  | Stall_exec -> "exec"

type cache_level =
  | L1
  | L2

let cache_level_to_string = function
  | L1 -> "L1"
  | L2 -> "L2"

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
      cycles : int;
    }
  | Block_dispatch of {
      block : int;
      warps : int;
    }
  | Warp_issue of {
      pc : int;
      op : string;
      active : int;
    }
  | Warp_stall of {
      reason : stall_reason;
      cycles : int;
    }
  | Warp_barrier of {
      pc : int;
      arrived : int;
    }
  | Mem_access of {
      space : mem_space;
      write : bool;
      bytes : int;
      lanes : int;
      transactions : int;
    }
  | Cache_access of {
      level : cache_level;
      hit : bool;
    }
  | Handler_invoke of {
      site : int;
      pc : int;
    }
  | Fault_inject of {
      thread : int;
      bit : int;
      target : string;
    }

type t = {
  cycle : int;
  sm : int;
  warp : int;
  payload : payload;
}

let make ~cycle ~sm ~warp payload = { cycle; sm; warp; payload }

let category t =
  match t.payload with
  | Kernel_launch _ | Kernel_exit _ -> Kernel
  | Block_dispatch _ -> Block
  | Warp_issue _ | Warp_stall _ | Warp_barrier _ -> Warp
  | Mem_access _ -> Mem
  | Cache_access _ -> Cache
  | Handler_invoke _ -> Handler
  | Fault_inject _ -> Fault
