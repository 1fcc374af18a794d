type t = {
  device : Gpu.State.device;
  launch : Gpu.State.launch;
  sm : Gpu.State.sm;
  warp : Gpu.State.warp;
  site : Select.site;
  mask : int;
}

let active_lanes t = Gpu.State.lanes_of_mask t.mask

let lane_active t lane = t.mask land (1 lsl lane) <> 0

let num_active t = Gpu.Value.popc t.mask

let leader t = Gpu.Value.ffs t.mask - 1

let lane_tid t ~lane = Gpu.State.lane_linear_tid t.warp lane

let lane_global_tid t ~lane = Gpu.State.global_tid t.warp ~lane

let charge t ~ops ~cycles =
  let stats = t.sm.Gpu.State.sm_launch.Gpu.State.l_stats in
  stats.Gpu.Stats.handler_ops <- stats.Gpu.Stats.handler_ops + ops;
  stats.Gpu.Stats.handler_cycles <- stats.Gpu.Stats.handler_cycles + cycles;
  t.warp.Gpu.State.w_sassi_scratch <- t.warp.Gpu.State.w_sassi_scratch + cycles

let sp t ~lane = Gpu.State.reg_get t.warp ~lane Sass.Reg.sp

let stack_read t ~lane ~off =
  Gpu.State.local_read t.warp ~lane ~addr:(sp t ~lane + off)

let stack_write t ~lane ~off v =
  Gpu.State.local_write t.warp ~lane ~addr:(sp t ~lane + off) v
