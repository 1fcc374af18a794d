let default_period = 64

type entry = {
  pk_kernel : Sass.Program.kernel;
  pk_counts : int array;  (* pc * Stall.count + stall index *)
}

type t = {
  period : int;
  kernels : (string, entry) Hashtbl.t;
  mutable hits : int;
  mutable total_samples : int;
}

let create ?(period = default_period) () =
  if period <= 0 then
    invalid_arg "Pc_sampling.create: period must be positive";
  { period; kernels = Hashtbl.create 8; hits = 0; total_samples = 0 }

let period t = t.period

let hits t = t.hits

let total_samples t = t.total_samples

let entry_for t kernel =
  let name = kernel.Sass.Program.name in
  match Hashtbl.find_opt t.kernels name with
  | Some e -> e
  | None ->
    let n = Array.length kernel.Sass.Program.instrs in
    let e = { pk_kernel = kernel; pk_counts = Array.make (n * Stall.count) 0 } in
    Hashtbl.add t.kernels name e;
    e

(* Attribute a stall reason to a resident warp. A warp whose wakeup
   time has passed was runnable (it just lost scheduler arbitration or
   is about to issue), which CUPTI reports as [selected]; otherwise
   the latency class of its last issued instruction decides between
   the memory and execution dependency buckets. *)
let classify sm w =
  let open Gpu.State in
  match w.w_status with
  | W_barrier -> Stall.Sync
  | _ when w.w_ready_at <= sm.sm_cycle -> Stall.Selected
  | _ -> if w.w_stall_code = 1 then Stall.Mem_dep else Stall.Exec_dep

(* The sampler hook: snapshot every resident, unretired warp of the
   sampled SM. Pure observation -- no simulator state is written, so a
   profiled run produces bit-identical [Gpu.Stats]. *)
let hit t sm =
  let open Gpu.State in
  t.hits <- t.hits + 1;
  let kernel = sm.sm_launch.l_kernel in
  let e = entry_for t kernel in
  let n = Array.length kernel.Sass.Program.instrs in
  Array.iter
    (fun w ->
       if w.w_status <> W_done then
         match w.w_stack with
         | [] -> ()
         | top :: _ ->
           let pc = top.e_pc in
           if pc >= 0 && pc < n then begin
             let reason = classify sm w in
             let idx = (pc * Stall.count) + Stall.index reason in
             e.pk_counts.(idx) <- e.pk_counts.(idx) + 1;
             t.total_samples <- t.total_samples + 1
           end)
    sm.sm_warps

let sampler t : Gpu.State.sampler =
  { Gpu.State.sp_period = t.period; sp_credit = t.period; sp_hit = hit t }

let attach t device =
  (match Gpu.Device.sampler device with
   | Some _ ->
     invalid_arg "Pc_sampling.attach: a sampler is already installed"
   | None -> ());
  Gpu.Device.set_sampler device (Some (sampler t))

let detach device = Gpu.Device.set_sampler device None

let fold_kernels t f acc =
  (* Sort by kernel name so consumers see a deterministic order
     despite the hash table. *)
  Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.kernels []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.fold_left (fun acc (_, e) -> f acc e.pk_kernel e.pk_counts) acc

let fold_pcs t f acc =
  fold_kernels t
    (fun acc kernel counts ->
       let n = Array.length kernel.Sass.Program.instrs in
       let acc = ref acc in
       for pc = 0 to n - 1 do
         let by_reason =
           Array.init Stall.count (fun r -> counts.((pc * Stall.count) + r))
         in
         let total = Array.fold_left ( + ) 0 by_reason in
         if total > 0 then acc := f !acc kernel pc ~total ~by_reason
       done;
       !acc)
    acc

let stall_totals t =
  let totals = Array.make Stall.count 0 in
  Hashtbl.iter
    (fun _ e ->
       Array.iteri
         (fun i c ->
            let r = i mod Stall.count in
            totals.(r) <- totals.(r) + c)
         e.pk_counts)
    t.kernels;
  totals
