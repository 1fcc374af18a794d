type target = {
  t_kernel : string;
  t_invocation : int;
  t_thread : int;
  t_instr : int;
  t_dst_seed : int;
  t_bit_seed : int;
}

type outcome =
  | Masked
  | Crash of string
  | Hang
  | Failure_symptom of string
  | Sdc_stdout
  | Sdc_output

let outcome_to_string = function
  | Masked -> "masked"
  | Crash m -> "crash: " ^ m
  | Hang -> "hang"
  | Failure_symptom m -> "failure-symptom: " ^ m
  | Sdc_stdout -> "sdc-stdout"
  | Sdc_output -> "sdc-output"

let spec_classes = [ Sassi.Select.Reg_writes; Sassi.Select.Pred_writes ]

(* Count one charged profile update, standing in for the device-side
   counter atomic. *)
let charge_update ctx = Sassi.Hctx.charge ctx ~ops:1 ~cycles:30

module Profile = struct
  (* (kernel, invocation) -> thread -> dynamic instruction count *)
  type t = {
    tallies : (string * int, (int, int) Hashtbl.t) Hashtbl.t;
  }

  let create () = { tallies = Hashtbl.create 16 }

  let handler t =
    Sassi.Handler.make ~name:"ei_profile" (fun ctx ->
        let open Sassi in
        let launch = ctx.Hctx.launch in
        let key =
          ( launch.Gpu.State.l_kernel.Sass.Program.name,
            launch.Gpu.State.l_invocation )
        in
        let per_thread =
          match Hashtbl.find_opt t.tallies key with
          | Some h -> h
          | None ->
            let h = Hashtbl.create 1024 in
            Hashtbl.replace t.tallies key h;
            h
        in
        charge_update ctx;
        List.iter
          (fun lane ->
             if Params.Before.will_execute ctx ~lane then begin
               let tid = Hctx.lane_global_tid ctx ~lane in
               let c =
                 match Hashtbl.find_opt per_thread tid with
                 | Some c -> c
                 | None -> 0
               in
               Hashtbl.replace per_thread tid (c + 1)
             end)
          (Hctx.active_lanes ctx))

  let pairs t =
    [ (Sassi.Select.after spec_classes [ Sassi.Select.Reg_info ], handler t) ]

  let total_dynamic_instrs t =
    Hashtbl.fold
      (fun _ per_thread acc ->
         Hashtbl.fold (fun _ c acc -> acc + c) per_thread acc)
      t.tallies 0

  (* Target seeds are split from (campaign seed, target index) rather
     than drawn sequentially, so target [i] flips the same destination
     and bit no matter how many targets precede it or which domain
     later executes its injection run. The site pick [k] stays a
     sequential draw: selection happens on the host before any task is
     scheduled, so it is deterministic either way. *)
  let pick_targets t ~seed ~n =
    let rng = Random.State.make [| seed |] in
    let total = total_dynamic_instrs t in
    if total = 0 then []
    else
      let pick index =
        let k = Random.State.int rng total in
        let split = Par.Seed.split ~seed ~index in
        (* Walk the tallies to the k-th dynamic instruction. *)
        let result = ref None in
        let remaining = ref k in
        (try
           Hashtbl.iter
             (fun (kernel, invocation) per_thread ->
                Hashtbl.iter
                  (fun tid c ->
                     if !remaining < c then begin
                       result :=
                         Some
                           { t_kernel = kernel;
                             t_invocation = invocation;
                             t_thread = tid;
                             t_instr = !remaining;
                             t_dst_seed = split mod 1000;
                             t_bit_seed = split / 1000 mod 1000 };
                       raise Exit
                     end
                     else remaining := !remaining - c)
                  per_thread)
             t.tallies
         with Exit -> ());
        match !result with
        | Some target -> target
        | None -> assert false
      in
      (* Explicit recursion: the draw order of [k] must follow the
         target index (List.init's application order is unspecified). *)
      let rec go i = if i >= n then [] else pick i :: go (i + 1) in
      go 0
end

let injection_handler target ~injected =
  (* Per-run dynamic-instruction counter for the target thread. *)
  let count = ref 0 in
  Sassi.Handler.make ~name:"ei_inject" (fun ctx ->
      let open Sassi in
      let launch = ctx.Hctx.launch in
      (* Every call pays the handler's thread-id check; warps that
         cannot contain the target (global thread ids of a warp are
         contiguous) skip the per-lane walk in O(1). *)
      Hctx.charge ctx ~ops:1 ~cycles:4;
      let warp_base = Hctx.lane_global_tid ctx ~lane:0 in
      if
        (not !injected)
        && target.t_thread >= warp_base
        && target.t_thread < warp_base + 32
        && launch.Gpu.State.l_kernel.Sass.Program.name = target.t_kernel
        && launch.Gpu.State.l_invocation = target.t_invocation
      then begin
        charge_update ctx;
        List.iter
          (fun lane ->
             if
               Hctx.lane_global_tid ctx ~lane = target.t_thread
               && Params.Before.will_execute ctx ~lane
             then begin
               if !count = target.t_instr && not !injected then begin
                 let num_gpr = Params.Registers.num_gpr_dsts ctx in
                 let num_pred = Params.Registers.num_pred_dsts ctx in
                 let total = num_gpr + num_pred in
                 if total > 0 then begin
                   let pick = target.t_dst_seed mod total in
                   let bit, kind =
                     if pick < num_gpr then begin
                       let old = Params.Registers.value ctx ~lane pick in
                       let bit = target.t_bit_seed mod 32 in
                       Params.Registers.set_value ctx ~lane pick
                         (old lxor (1 lsl bit));
                       (bit, "register")
                     end
                     else begin
                       let old = Params.Registers.pred_value ctx ~lane in
                       Params.Registers.set_pred_value ctx ~lane (not old);
                       (-1, "predicate")
                     end
                   in
                   (match ctx.Hctx.device.Gpu.State.d_tracer with
                    | Some c
                      when Trace.Collector.wants c Trace.Record.Fault ->
                      let sm = ctx.Hctx.sm in
                      Trace.Collector.emit c
                        (Trace.Record.make
                           ~cycle:
                             (ctx.Hctx.device.Gpu.State.d_trace_base
                              + sm.Gpu.State.sm_cycle)
                           ~sm:sm.Gpu.State.sm_id
                           ~warp:(Gpu.State.warp_uid ctx.Hctx.warp)
                           (Trace.Record.Fault_inject
                              { thread = target.t_thread;
                                bit;
                                target = kind }))
                    | _ -> ());
                   injected := true
                 end
               end;
               incr count
             end)
          (Hctx.active_lanes ctx)
      end)

let injection_pairs target ~injected =
  [ (Sassi.Select.after spec_classes [ Sassi.Select.Reg_info ],
     injection_handler target ~injected) ]

let classify ~reference run =
  let ref_output, ref_stdout = reference in
  match run () with
  | output, stdout ->
    if output <> ref_output then Sdc_output
    else if stdout <> ref_stdout then Sdc_stdout
    else Masked
  | exception Gpu.Trap.Hang _ -> Hang
  | exception ((Gpu.Trap.Memory_fault _ | Gpu.Trap.Register_fault _) as e) ->
    Crash (Option.value ~default:"memory fault" (Gpu.Trap.describe e))
  | exception Gpu.Trap.Device_assert m -> Failure_symptom m
  | exception Invalid_argument m -> Failure_symptom m
