type kind = Trace.Record.category =
  | Kernel
  | Block
  | Warp
  | Mem
  | Cache
  | Handler
  | Fault

let all_kinds = Trace.Record.all_categories

let kind_of_string = Trace.Record.category_of_string

let enable ?(capacity = 262144) ?(overflow = Trace.Ring.Drop_oldest) device
    kinds =
  let c =
    Trace.Collector.create ~capacity ~policy:overflow ~categories:kinds ()
  in
  Gpu.Device.set_tracer device (Some c)

let enable_all ?capacity ?overflow device =
  enable ?capacity ?overflow device all_kinds

let disable device = Gpu.Device.set_tracer device None

let collector device = Gpu.Device.tracer device

let enabled device =
  match collector device with
  | Some _ -> true
  | None -> false

let flush device =
  match collector device with
  | Some c -> Trace.Collector.flush c
  | None -> []

let records device =
  match collector device with
  | Some c -> Trace.Collector.records c
  | None -> []

let dropped device =
  match collector device with
  | Some c -> Trace.Collector.dropped c
  | None -> 0

let delivered device =
  match collector device with
  | Some c -> Trace.Collector.flushed c
  | None -> 0
