open Sass
open State

let special_value sm w ~lane = function
  | Opcode.Sr_tid_x -> tid_x w ~lane
  | Opcode.Sr_tid_y -> tid_y w ~lane
  | Opcode.Sr_ntid_x -> w.w_block.b_launch.l_block_x
  | Opcode.Sr_ntid_y -> w.w_block.b_launch.l_block_y
  | Opcode.Sr_ctaid_x -> w.w_block.b_x
  | Opcode.Sr_ctaid_y -> w.w_block.b_y
  | Opcode.Sr_nctaid_x -> w.w_block.b_launch.l_grid_x
  | Opcode.Sr_nctaid_y -> w.w_block.b_launch.l_grid_y
  | Opcode.Sr_laneid -> lane
  | Opcode.Sr_warpid -> w.w_id
  | Opcode.Sr_smid -> sm.sm_id
  | Opcode.Sr_clock -> sm.sm_cycle land Value.mask

let release_barrier_if_ready blk =
  if blk.b_alive > 0 && blk.b_arrived >= blk.b_alive then begin
    Array.iter
      (fun w -> if w.w_status = W_barrier then w.w_status <- W_ready)
      blk.b_warps;
    blk.b_arrived <- 0
  end

(* Remove exiting lanes from every stack entry; returns true if the
   warp has fully exited. *)
let retire_lanes w exiting =
  w.w_stack <-
    List.filter_map
      (fun e ->
         let m = e.e_mask land lnot exiting in
         if m = 0 then None
         else begin
           e.e_mask <- m;
           Some e
         end)
      w.w_stack;
  w.w_stack = []

let warp_exit w exiting =
  if retire_lanes w exiting then begin
    w.w_status <- W_done;
    let blk = w.w_block in
    blk.b_alive <- blk.b_alive - 1;
    release_barrier_if_ready blk
  end

(* Reconvergence: pop entries whose PC reached their RPC. *)
let rec reconverge w =
  match w.w_stack with
  | e :: rest when e.e_rpc >= 0 && e.e_pc = e.e_rpc ->
    w.w_stack <- rest;
    reconverge w
  | _ -> ()

(* --- Operands ---------------------------------------------------------- *)

(* Everything below reads decoded operands whose shape {!Decode} has
   checked ([fault = ""]), so the unchecked indexing stays in bounds. *)

let on m lane = m land (1 lsl lane) <> 0

(* Source operand [k] in [lane]. Parameter operands were read into
   [ops] once at the start of the step. *)
let operand w ops (d : Decode.instr) k lane =
  let v = Array.unsafe_get d.Decode.srcs k in
  let kind = Array.unsafe_get d.Decode.kinds k in
  if kind = Decode.k_reg then reg_read w lane v
  else if kind = Decode.k_imm then v
  else if kind = Decode.k_param then Array.unsafe_get ops k
  else if pred_read w lane v then 1
  else 0

(* An optional trailing operand reads 0 when absent. *)
let operand_opt w ops (d : Decode.instr) k lane =
  if k < Array.length d.Decode.kinds then operand w ops d k lane else 0

let dst (d : Decode.instr) k = Array.unsafe_get d.Decode.dsts k

(* One lane loop per ALU shape. [f] is a closed function and [p], [q]
   its opcode parameters, so a call allocates nothing. *)
let alu1 w ops d m f p =
  let r = dst d 0 in
  for lane = 0 to warp_size - 1 do
    if on m lane then reg_write w lane r (f p (operand w ops d 0 lane))
  done

let alu2 w ops d m f p =
  let r = dst d 0 in
  for lane = 0 to warp_size - 1 do
    if on m lane then
      reg_write w lane r
        (f p (operand w ops d 0 lane) (operand w ops d 1 lane))
  done

let alu3 w ops d m f =
  let r = dst d 0 in
  for lane = 0 to warp_size - 1 do
    if on m lane then
      reg_write w lane r
        (f (operand w ops d 0 lane) (operand w ops d 1 lane)
           (operand w ops d 2 lane))
  done

let pred_lanes w ops (d : Decode.instr) m f p q =
  for lane = 0 to warp_size - 1 do
    if on m lane then
      pred_write w lane d.Decode.pdst
        (f p q (operand w ops d 0 lane) (operand w ops d 1 lane))
  done

(* --- Memory access helpers -------------------------------------------- *)

let frame_bytes w = w.w_block.b_launch.l_kernel.Program.frame_bytes

(* Synthetic interleaved physical address so that same-offset accesses
   from the 32 lanes of a warp coalesce perfectly, as hardware local
   memory does. *)
let local_phys w ~lane addr =
  Memsys.local_window
  + (warp_uid w * frame_bytes w * warp_size)
  + (addr * warp_size) + (lane * 4)

(* Byte address of texel [idx] (texture clamp addressing; coordinates
   are signed). *)
let texel launch ~width idx =
  let dev = launch.l_device in
  match dev.d_texture with
  | None ->
    raise (Trap.Memory_fault
             { space = Opcode.Tex; addr = idx; kind = Trap.Out_of_bounds })
  | Some (base, bytes) ->
    let elt = Opcode.bytes_of_width width in
    let n = bytes / elt in
    let idx = Value.signed idx in
    let idx = if idx < 0 then 0 else if idx >= n then n - 1 else idx in
    base + (idx * elt)

(* Write each active lane's effective address into the lane array, in
   ascending lane order; returns how many. *)
let lane_addrs w ops d m la =
  let n = ref 0 in
  for lane = 0 to warp_size - 1 do
    if on m lane then begin
      Array.unsafe_set la !n
        (Value.wrap (operand w ops d 0 lane + operand w ops d 1 lane));
      incr n
    end
  done;
  !n

let texel_addrs w ops d m la ~width =
  let launch = w.w_block.b_launch in
  let n = ref 0 in
  for lane = 0 to warp_size - 1 do
    if on m lane then begin
      Array.unsafe_set la !n
        (Memsys.texture_window + texel launch ~width (operand w ops d 0 lane));
      incr n
    end
  done

(* --- Activity tracing -------------------------------------------------- *)

(* One warp-level memory transaction record; the [None] branch is the
   whole cost when tracing is off. *)
let trace_mem dev sm w ~space ~write ~width ~lanes (r : Memsys.result) =
  match dev.d_tracer with
  | None -> ()
  | Some c ->
    if Trace.Collector.wants c Trace.Record.Mem then
      Trace.Collector.emit c
        (Trace.Record.make
           ~cycle:(dev.d_trace_base + sm.sm_cycle)
           ~sm:sm.sm_id ~warp:(warp_uid w)
           (Trace.Record.Mem_access
              { space;
                write;
                bytes = Opcode.bytes_of_width width;
                lanes;
                transactions = r.Memsys.transactions }))

(* Time a warp's global access over the first [n] lane addresses and
   count its requested bytes and transactions; returns the latency. *)
let global_timing dev sm w ~n ~width ~write =
  let stats = sm.sm_launch.l_stats in
  let bytes = Opcode.bytes_of_width width in
  let r =
    Memsys.global_access dev.d_mem ~sm:sm.sm_id ~stats ~n ~width:bytes
  in
  let t = r.Memsys.transactions in
  if write then begin
    stats.Stats.gst_requested_bytes <-
      stats.Stats.gst_requested_bytes + (n * bytes);
    stats.Stats.gst_transactions <- stats.Stats.gst_transactions + t
  end
  else begin
    stats.Stats.gld_requested_bytes <-
      stats.Stats.gld_requested_bytes + (n * bytes);
    stats.Stats.gld_transactions <- stats.Stats.gld_transactions + t
  end;
  trace_mem dev sm w ~space:Trace.Record.Sp_global ~write ~width ~lanes:n r;
  r.Memsys.latency

let shared_timing dev sm w ~n ~width ~write =
  let r =
    Memsys.shared_access dev.d_mem ~sm:sm.sm_id ~stats:sm.sm_launch.l_stats ~n
  in
  trace_mem dev sm w ~space:Trace.Record.Sp_shared ~write ~width ~lanes:n r;
  r.Memsys.latency

(* Local (spill/fill) loads and stores. A uniform frame offset makes
   the interleaved physical addresses one contiguous run; otherwise
   each lane's address goes through the coalescer. *)
let local_access dev sm w ops (d : Decode.instr) m la ~width ~store =
  let n = lane_addrs w ops d m la in
  let frame = frame_bytes w in
  let addr0 = if n > 0 then la.(0) else -1 in
  let uniform = ref true and k = ref 0 in
  for lane = 0 to warp_size - 1 do
    if on m lane then begin
      let addr = Array.unsafe_get la !k in
      incr k;
      if addr <> addr0 then uniform := false;
      if addr < 0 || addr >= frame then
        raise (Trap.Memory_fault
                 { space = Opcode.Local; addr; kind = Trap.Out_of_bounds });
      if store then
        Memory.write w.w_local ~width ((lane * frame) + addr)
          (operand w ops d 2 lane)
      else
        reg_write w lane (dst d 0)
          (Memory.read w.w_local ~width ((lane * frame) + addr))
    end
  done;
  if n = 0 then -1
  else begin
    let stats = sm.sm_launch.l_stats in
    let r =
      if !uniform then
        Memsys.contiguous_access dev.d_mem ~sm:sm.sm_id ~stats
          ~first_phys:(local_phys w ~lane:(Value.ffs m - 1) addr0)
          ~last_phys:(local_phys w ~lane:(Value.flo m) addr0)
          ~width:4
      else begin
        let k = ref 0 in
        for lane = 0 to warp_size - 1 do
          if on m lane then begin
            la.(!k) <- local_phys w ~lane la.(!k);
            incr k
          end
        done;
        Memsys.global_access dev.d_mem ~sm:sm.sm_id ~stats ~n ~width:4
      end
    in
    trace_mem dev sm w ~space:Trace.Record.Sp_local ~write:store ~width
      ~lanes:n r;
    r.Memsys.latency
  end

let atomic_value aop width old operand swap =
  match aop with
  | Opcode.A_add ->
    if width = Opcode.W64 then old + operand else Value.add old operand
  | Opcode.A_min -> Value.min_max ~cmp:Opcode.Lt old operand
  | Opcode.A_max -> Value.min_max ~cmp:Opcode.Gt old operand
  | Opcode.A_exch -> operand
  | Opcode.A_cas -> if old = operand then swap else old
  | Opcode.A_and -> old land operand
  | Opcode.A_or -> old lor operand
  | Opcode.A_xor -> old lxor operand

(* --- The main dispatch ------------------------------------------------- *)

let step sm w =
  reconverge w;
  let e = tos w in
  let launch = w.w_block.b_launch in
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let stats = launch.l_stats in
  let pc = e.e_pc in
  let code = launch.l_code.Decode.code in
  if pc < 0 || pc >= Array.length code then
    raise (Trap.Memory_fault
             { space = Opcode.Global; addr = pc;
               kind = Trap.Invalid_instruction });
  let d = Array.unsafe_get code pc in
  if String.length d.Decode.fault > 0 then invalid_arg d.Decode.fault;
  let m =
    if d.Decode.guard = Decode.no_pred && not d.Decode.negated then e.e_mask
    else begin
      let m = ref 0 in
      for lane = 0 to warp_size - 1 do
        if on e.e_mask lane
           && pred_read w lane d.Decode.guard <> d.Decode.negated
        then m := !m lor (1 lsl lane)
      done;
      !m
    end
  in
  let nactive = Value.popc m in
  Stats.count_instr stats ~classes:d.Decode.classes ~active_lanes:nactive;
  (match dev.d_tracer with
   | Some _ ->
     (* Stamp this SM's context attached to L1/L2 probe records
        emitted from inside the memory system. *)
     Memsys.set_trace_ctx dev.d_mem ~sm:sm.sm_id
       ~cycle:(dev.d_trace_base + sm.sm_cycle)
       ~warp:(warp_uid w)
   | None -> ());
  let ops = sm.sm_operands in
  let kinds = d.Decode.kinds in
  for k = 0 to Array.length kinds - 1 do
    if Array.unsafe_get kinds k = Decode.k_param then
      ops.(k) <- Memory.read launch.l_params ~width:Opcode.W32 d.Decode.srcs.(k)
  done;
  let la = Memsys.lanes dev.d_mem ~sm:sm.sm_id in
  let latency = ref cfg.Config.lat_alu in
  let next_pc = ref (pc + 1) in
  (match d.Decode.op with
   | Opcode.IADD -> alu2 w ops d m (fun () a b -> Value.add a b) ()
   | Opcode.ISUB -> alu2 w ops d m (fun () a b -> Value.sub a b) ()
   | Opcode.IMUL -> alu2 w ops d m (fun () a b -> Value.mul a b) ()
   | Opcode.IMAD -> alu3 w ops d m Value.mad
   | Opcode.IDIV sign ->
     latency := cfg.Config.lat_mufu * 2;
     alu2 w ops d m (fun sign a b -> Value.div ~sign a b) sign
   | Opcode.IMOD sign ->
     latency := cfg.Config.lat_mufu * 2;
     alu2 w ops d m (fun sign a b -> Value.rem ~sign a b) sign
   | Opcode.IMNMX cmp ->
     alu2 w ops d m (fun cmp a b -> Value.min_max ~cmp a b) cmp
   | Opcode.SHL -> alu2 w ops d m (fun () a b -> Value.shl a b) ()
   | Opcode.SHR sign ->
     alu2 w ops d m (fun sign a b -> Value.shr ~sign a b) sign
   | Opcode.LOP logic -> alu2 w ops d m Value.logic logic
   | Opcode.BREV -> alu1 w ops d m (fun () v -> Value.brev v) ()
   | Opcode.POPC -> alu1 w ops d m (fun () v -> Value.popc v) ()
   | Opcode.FLO -> alu1 w ops d m (fun () v -> Value.flo v) ()
   | Opcode.ISETP (cmp, sign) ->
     pred_lanes w ops d m
       (fun cmp sign a b -> Value.compare_int ~cmp ~sign a b)
       cmp sign
   | Opcode.FADD -> alu2 w ops d m (fun () a b -> Value.fadd a b) ()
   | Opcode.FSUB -> alu2 w ops d m (fun () a b -> Value.fsub a b) ()
   | Opcode.FMUL -> alu2 w ops d m (fun () a b -> Value.fmul a b) ()
   | Opcode.FFMA -> alu3 w ops d m Value.ffma
   | Opcode.FMNMX cmp ->
     alu2 w ops d m (fun cmp a b -> Value.fmin_max ~cmp a b) cmp
   | Opcode.MUFU f ->
     latency := cfg.Config.lat_mufu;
     alu1 w ops d m Value.mufu f
   | Opcode.FSETP cmp ->
     pred_lanes w ops d m (fun cmp () a b -> Value.compare_f32 ~cmp a b) cmp ()
   | Opcode.I2F sign -> alu1 w ops d m (fun sign v -> Value.i2f ~sign v) sign
   | Opcode.F2I sign -> alu1 w ops d m (fun sign v -> Value.f2i ~sign v) sign
   | Opcode.MOV -> alu1 w ops d m (fun () v -> v) ()
   | Opcode.SEL -> alu3 w ops d m (fun a b c -> if c <> 0 then a else b)
   | Opcode.S2R sr ->
     for lane = 0 to warp_size - 1 do
       if on m lane then
         reg_write w lane (dst d 0) (special_value sm w ~lane sr)
     done
   | Opcode.P2R ->
     for lane = 0 to warp_size - 1 do
       if on m lane then reg_write w lane (dst d 0) (w.w_preds.(lane) land 0x7F)
     done
   | Opcode.R2P ->
     for lane = 0 to warp_size - 1 do
       if on m lane then
         w.w_preds.(lane) <- (operand w ops d 0 lane land 0x7F) lor pt_bit
     done
   | Opcode.PSETP logic ->
     for lane = 0 to warp_size - 1 do
       if on m lane then begin
         let a = operand w ops d 0 lane <> 0 in
         let b = operand_opt w ops d 1 lane <> 0 in
         pred_write w lane d.Decode.pdst
           (match logic with
            | Opcode.L_and -> a && b
            | Opcode.L_or -> a || b
            | Opcode.L_xor -> a <> b
            | Opcode.L_not -> not a)
       end
     done
   | Opcode.LD (Opcode.Global, width) ->
     let n = lane_addrs w ops d m la in
     let k = ref 0 in
     for lane = 0 to warp_size - 1 do
       if on m lane then begin
         let addr = Array.unsafe_get la !k in
         incr k;
         if width = Opcode.W64 then begin
           reg_write w lane (dst d 0)
             (Memory.read dev.d_global ~width:Opcode.W32 addr);
           reg_write w lane (dst d 1)
             (Memory.read dev.d_global ~width:Opcode.W32 (addr + 4))
         end
         else reg_write w lane (dst d 0) (Memory.read dev.d_global ~width addr)
       end
     done;
     if n > 0 then latency := global_timing dev sm w ~n ~width ~write:false
   | Opcode.LD (Opcode.Shared, width) ->
     let n = lane_addrs w ops d m la in
     let k = ref 0 in
     for lane = 0 to warp_size - 1 do
       if on m lane then begin
         reg_write w lane (dst d 0)
           (Memory.read w.w_block.b_shared ~width (Array.unsafe_get la !k));
         incr k
       end
     done;
     if n > 0 then latency := shared_timing dev sm w ~n ~width ~write:false
   | Opcode.LD (Opcode.Local, width) ->
     let l = local_access dev sm w ops d m la ~width ~store:false in
     if l >= 0 then latency := l
   | Opcode.LD (Opcode.Param, width) ->
     for lane = 0 to warp_size - 1 do
       if on m lane then
         reg_write w lane (dst d 0)
           (Memory.read launch.l_params ~width
              (Value.wrap (operand w ops d 0 lane + operand w ops d 1 lane)))
     done
   | Opcode.LD (Opcode.Tex, width) ->
     for lane = 0 to warp_size - 1 do
       if on m lane then
         reg_write w lane (dst d 0)
           (Memory.read dev.d_global ~width
              (texel launch ~width (operand w ops d 0 lane)))
     done;
     latency := cfg.Config.lat_l1
   | Opcode.ST (Opcode.Global, width) ->
     let n = lane_addrs w ops d m la in
     let k = ref 0 in
     for lane = 0 to warp_size - 1 do
       if on m lane then begin
         let addr = Array.unsafe_get la !k in
         incr k;
         if width = Opcode.W64 then begin
           Memory.write dev.d_global ~width:Opcode.W32 addr
             (operand w ops d 2 lane);
           Memory.write dev.d_global ~width:Opcode.W32 (addr + 4)
             (operand_opt w ops d 3 lane)
         end
         else Memory.write dev.d_global ~width addr (operand w ops d 2 lane)
       end
     done;
     if n > 0 then latency := global_timing dev sm w ~n ~width ~write:true
   | Opcode.ST (Opcode.Shared, width) ->
     let n = lane_addrs w ops d m la in
     let k = ref 0 in
     for lane = 0 to warp_size - 1 do
       if on m lane then begin
         Memory.write w.w_block.b_shared ~width (Array.unsafe_get la !k)
           (operand w ops d 2 lane);
         incr k
       end
     done;
     if n > 0 then latency := shared_timing dev sm w ~n ~width ~write:true
   | Opcode.ST (Opcode.Local, width) ->
     let l = local_access dev sm w ops d m la ~width ~store:true in
     if l >= 0 then latency := l
   | Opcode.ST ((Opcode.Param | Opcode.Tex) as space, _) ->
     raise (Trap.Memory_fault
              { space; addr = 0; kind = Trap.Invalid_instruction })
   | Opcode.ATOM (space, aop, width) | Opcode.RED (space, aop, width) ->
     let mem =
       match space with
       | Opcode.Global -> dev.d_global
       | Opcode.Shared -> w.w_block.b_shared
       | Opcode.Local | Opcode.Param | Opcode.Tex ->
         raise (Trap.Memory_fault
                  { space; addr = 0; kind = Trap.Invalid_instruction })
     in
     let has_dst =
       match d.Decode.op with
       | Opcode.ATOM _ -> true
       | _ -> false
     in
     let n = lane_addrs w ops d m la in
     let k = ref 0 in
     for lane = 0 to warp_size - 1 do
       if on m lane then begin
         let addr = Array.unsafe_get la !k in
         incr k;
         let old = Memory.read mem ~width addr in
         Memory.write mem ~width addr
           (atomic_value aop width old (operand w ops d 2 lane)
              (operand_opt w ops d 3 lane));
         if has_dst then reg_write w lane (dst d 0) old
       end
     done;
     if n > 0 then begin
       let r =
         match space with
         | Opcode.Global ->
           Memsys.atomic_access dev.d_mem ~sm:sm.sm_id ~stats ~n
             ~width:(Opcode.bytes_of_width width)
         | _ -> Memsys.shared_access dev.d_mem ~sm:sm.sm_id ~stats ~n
       in
       let tr_space =
         match space with
         | Opcode.Global -> Trace.Record.Sp_global
         | _ -> Trace.Record.Sp_shared
       in
       trace_mem dev sm w ~space:tr_space ~write:true ~width ~lanes:n r;
       latency := r.Memsys.latency + cfg.Config.lat_atomic
     end
   | Opcode.TLD width ->
     texel_addrs w ops d m la ~width;
     let k = ref 0 in
     for lane = 0 to warp_size - 1 do
       if on m lane then begin
         let v =
           Memory.read dev.d_global ~width
             (Array.unsafe_get la !k - Memsys.texture_window)
         in
         incr k;
         if width = Opcode.W64 then begin
           reg_write w lane (dst d 0) (v land Value.mask);
           reg_write w lane (dst d 1) ((v lsr 32) land Value.mask)
         end
         else reg_write w lane (dst d 0) v
       end
     done;
     if nactive > 0 then begin
       let r =
         Memsys.global_access dev.d_mem ~sm:sm.sm_id ~stats ~n:nactive
           ~width:(Opcode.bytes_of_width width)
       in
       trace_mem dev sm w ~space:Trace.Record.Sp_texture ~write:false ~width
         ~lanes:nactive r;
       latency := r.Memsys.latency
     end
   | Opcode.MEMBAR -> ()
   | Opcode.VOTE mode ->
     let ballot = ref 0 in
     for lane = 0 to warp_size - 1 do
       if on m lane && operand w ops d 0 lane <> 0 then
         ballot := !ballot lor (1 lsl lane)
     done;
     let r =
       match mode with
       | Opcode.V_ballot -> !ballot
       | Opcode.V_any -> if !ballot <> 0 then 1 else 0
       | Opcode.V_all -> if !ballot = m then 1 else 0
     in
     for lane = 0 to warp_size - 1 do
       if on m lane then
         if mode <> Opcode.V_ballot && d.Decode.pdst >= 0 then
           pred_write w lane d.Decode.pdst (r <> 0)
         else reg_write w lane (dst d 0) r
     done
   | Opcode.SHFL mode ->
     (* Read all source values first: dst may alias src. The lane array
        holds them, indexed by lane. *)
     for lane = 0 to warp_size - 1 do
       if on m lane then la.(lane) <- operand w ops d 0 lane
     done;
     for lane = 0 to warp_size - 1 do
       if on m lane then begin
         let b = operand w ops d 1 lane in
         let target =
           match mode with
           | Opcode.S_idx -> b land 31
           | Opcode.S_up -> lane - b
           | Opcode.S_down -> lane + b
           | Opcode.S_bfly -> lane lxor b
         in
         reg_write w lane (dst d 0)
           (if target < 0 || target >= warp_size || not (on m target)
            then la.(lane)
            else la.(target))
       end
     done
   | Opcode.BRA ->
     let target = d.Decode.target in
     if d.Decode.cond_branch then begin
       stats.Stats.branches <- stats.Stats.branches + 1;
       (match dev.d_telemetry with
        | None -> ()
        | Some tm -> Telemetry.Hist.observe tm.tm_branch_lanes (popc_mask m));
       let taken = m in
       let not_taken = e.e_mask land lnot m in
       if taken = 0 then next_pc := pc + 1
       else if not_taken = 0 then next_pc := target
       else begin
         (* Divergence: split the warp. *)
         stats.Stats.divergent_branches <- stats.Stats.divergent_branches + 1;
         (match dev.d_telemetry with
          | None -> ()
          | Some tm ->
            Telemetry.Hist.observe tm.tm_divergent_taken_lanes
              (popc_mask taken));
         let rpc = d.Decode.reconv in
         let rest =
           match w.w_stack with
           | _ :: r -> r
           | [] -> []
         in
         let cont =
           if rpc >= 0 then
             [ { e_pc = rpc; e_rpc = e.e_rpc; e_mask = e.e_mask } ]
           else []
         in
         let nt_entry = { e_pc = pc + 1; e_rpc = rpc; e_mask = not_taken } in
         let t_entry = { e_pc = target; e_rpc = rpc; e_mask = taken } in
         w.w_stack <- (t_entry :: nt_entry :: cont) @ rest;
         next_pc := -2 (* stack already updated *)
       end
     end
     else next_pc := target
   | Opcode.CAL ->
     w.w_call_stack <- (pc + 1) :: w.w_call_stack;
     next_pc := d.Decode.target
   | Opcode.RET ->
     (match w.w_call_stack with
      | ret :: rest ->
        w.w_call_stack <- rest;
        next_pc := ret
      | [] ->
        (* RET at kernel top level exits, like PTX. *)
        warp_exit w m;
        next_pc := (if w.w_stack = [] then -2 else pc + 1))
   | Opcode.EXIT ->
     if m <> 0 then begin
       warp_exit w m;
       (* If some lanes remain (guarded EXIT), execution continues. *)
       next_pc := (if w.w_stack = [] then -2 else pc + 1)
     end
   | Opcode.BAR ->
     w.w_status <- W_barrier;
     (* Stamp the arrival cycle: if the barrier releases, each
        released warp's stamp gives its stall duration. The stamp is
        never earlier than the warp's previous ready time, so
        scheduling is unchanged whether or not tracing is on. *)
     w.w_ready_at <- sm.sm_cycle;
     w.w_block.b_arrived <- w.w_block.b_arrived + 1;
     (match dev.d_tracer with
      | Some c when Trace.Collector.wants c Trace.Record.Warp ->
        Trace.Collector.emit c
          (Trace.Record.make
             ~cycle:(dev.d_trace_base + sm.sm_cycle)
             ~sm:sm.sm_id ~warp:(warp_uid w)
             (Trace.Record.Warp_barrier
                { pc; arrived = w.w_block.b_arrived }))
      | _ -> ());
     release_barrier_if_ready w.w_block;
     (match dev.d_telemetry with
      | Some tm when w.w_status = W_ready ->
        (* The barrier released: every warp of the block now ready was
           waiting since its own arrival stamp (0 for the releaser). *)
        Array.iter
          (fun w' ->
             if w'.w_status = W_ready then
               Telemetry.Hist.observe tm.tm_barrier_wait
                 (sm.sm_cycle - w'.w_ready_at))
          w.w_block.b_warps
      | _ -> ());
     (match dev.d_tracer with
      | Some c
        when w.w_status = W_ready
             && Trace.Collector.wants c Trace.Record.Warp ->
        (* The barrier released in this step: every warp of the block
           now ready was stalled since its own arrival stamp. *)
        Array.iter
          (fun w' ->
             if w'.w_status = W_ready && sm.sm_cycle > w'.w_ready_at then
               Trace.Collector.emit c
                 (Trace.Record.make
                    ~cycle:(dev.d_trace_base + w'.w_ready_at)
                    ~sm:sm.sm_id ~warp:(warp_uid w')
                    (Trace.Record.Warp_stall
                       { reason = Trace.Record.Stall_barrier;
                         cycles = sm.sm_cycle - w'.w_ready_at })))
          w.w_block.b_warps
      | _ -> ())
   | Opcode.NOP -> ()
   | Opcode.HCALL id ->
     stats.Stats.hcalls <- stats.Stats.hcalls + 1;
     latency := 2 * cfg.Config.lat_alu;
     (match dev.d_hcall with
      | None ->
        raise (Trap.Device_assert
                 "HCALL executed with no SASSI runtime installed")
      | Some hook ->
        w.w_sassi_scratch <- 0;
        hook
          { h_launch = launch;
            h_sm = sm;
            h_warp = w;
            h_handler = id;
            h_pc = pc;
            h_mask = m };
        (* Device-API operations performed by the handler charged
           their cycle cost into the warp's scratch accumulator. *)
        latency := !latency + w.w_sassi_scratch;
        w.w_sassi_scratch <- 0));
  (* Advance the PC unless control flow already rewrote the stack. *)
  (match !next_pc with
   | -2 -> ()
   | np ->
     (match w.w_stack with
      | entry :: _ when entry == e -> e.e_pc <- np
      | _ -> ()));
  (match dev.d_tracer with
   | None -> ()
   | Some c ->
     if Trace.Collector.wants c Trace.Record.Warp then begin
       let cycle = dev.d_trace_base + sm.sm_cycle in
       let uid = warp_uid w in
       Trace.Collector.emit c
         (Trace.Record.make ~cycle ~sm:sm.sm_id ~warp:uid
            (Trace.Record.Warp_issue
               { pc; op = d.Decode.name; active = nactive }));
       (* Anything beyond the baseline ALU latency keeps the warp out
          of the issue pool: record it as a stall span. *)
       if !latency > cfg.Config.lat_alu then
         Trace.Collector.emit c
           (Trace.Record.make ~cycle ~sm:sm.sm_id ~warp:uid
              (Trace.Record.Warp_stall
                 { reason =
                     (if d.Decode.mem then Trace.Record.Stall_memory
                      else Trace.Record.Stall_exec);
                   cycles = !latency }))
     end);
  (* PC sampling: remember the latency class of this instruction so
     a sample taken while the warp waits out [latency] can attribute
     the stall (memory vs. execution dependency). Single branch when
     no sampler is installed. *)
  (match dev.d_sampler with
   | None -> ()
   | Some _ -> w.w_stall_code <- (if d.Decode.mem then 1 else 0));
  if w.w_status = W_ready then
    w.w_ready_at <- sm.sm_cycle + !latency
