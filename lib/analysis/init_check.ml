open Sass
module IM = Map.Make (Int)

(* Guard encoding: predicate index * 2 + negation bit. The complement
   of a code flips the low bit. *)
let guard_code (g : Pred.guard) =
  (Pred.index g.Pred.pred * 2) + if g.Pred.negated then 1 else 0

module D = struct
  type instr = Instr.t

  type t = {
    must : Regset.t;  (* definitely initialized GPRs *)
    may : Regset.t;  (* possibly initialized GPRs *)
    must_p : int;  (* bitmasks over P0..P6 *)
    may_p : int;
    gmap : int IM.t;  (* GPR -> guard code of its latest guarded def *)
    gmap_p : int IM.t;
  }

  let equal a b =
    Regset.equal a.must b.must && Regset.equal a.may b.may
    && a.must_p = b.must_p && a.may_p = b.may_p
    && IM.equal Int.equal a.gmap b.gmap
    && IM.equal Int.equal a.gmap_p b.gmap_p

  (* Meet: keep only what holds on both paths. Guard bindings that
     disagree are dropped, which at worst turns a suppressed warning
     back into a warning. *)
  let join a b =
    let merge_g =
      IM.merge (fun _ x y ->
          match (x, y) with
          | Some u, Some v when u = v -> Some u
          | _ -> None)
    in
    { must = Regset.inter a.must b.must;
      may = Regset.union a.may b.may;
      must_p = a.must_p land b.must_p;
      may_p = a.may_p lor b.may_p;
      gmap = merge_g a.gmap b.gmap;
      gmap_p = merge_g a.gmap_p b.gmap_p }

  let widen = join

  let transfer ~pc:_ (i : Instr.t) st =
    let guarded = not (Pred.is_always i.Instr.guard) in
    let gcode = guard_code i.Instr.guard in
    let def_reg st r =
      match r with
      | Reg.RZ -> st
      | Reg.R k ->
        if not guarded then
          { st with
            must = Regset.add k st.must;
            may = Regset.add k st.may;
            gmap = IM.remove k st.gmap }
        else
          (* A def under @P followed by one under @!P covers every
             lane: promote to definitely-initialized. *)
          let promoted =
            match IM.find_opt k st.gmap with
            | Some c -> c = gcode lxor 1
            | None -> false
          in
          { st with
            must = (if promoted then Regset.add k st.must else st.must);
            may = Regset.add k st.may;
            gmap = IM.add k gcode st.gmap }
    in
    let def_pred st p =
      match p with
      | Pred.PT -> st
      | Pred.P k ->
        let bit = 1 lsl k in
        if not guarded then
          { st with
            must_p = st.must_p lor bit;
            may_p = st.may_p lor bit;
            gmap_p = IM.remove k st.gmap_p }
        else
          let promoted =
            match IM.find_opt k st.gmap_p with
            | Some c -> c = gcode lxor 1
            | None -> false
          in
          { st with
            must_p = (if promoted then st.must_p lor bit else st.must_p);
            may_p = st.may_p lor bit;
            gmap_p = IM.add k gcode st.gmap_p }
    in
    let st = List.fold_left def_reg st (Instr.defs i) in
    List.fold_left def_pred st (Instr.pdefs i)
end

module Solver = Dataflow.Make (D)

let entry_state =
  { D.must = Regset.add 1 Regset.empty;  (* R1: ABI stack pointer *)
    may = Regset.add 1 Regset.empty;
    must_p = 0;
    may_p = 0;
    gmap = IM.empty;
    gmap_p = IM.empty }

(* Optimistic seed: must descends from full, may ascends from empty. *)
let top_state =
  { D.must = Regset.full;
    may = Regset.empty;
    must_p = 0x7f;
    may_p = 0;
    gmap = IM.empty;
    gmap_p = IM.empty }

let check ~kernel instrs (cfg : Cfg.t) =
  let res =
    Solver.solve ~direction:Dataflow.Forward ~boundary:entry_state
      ~init:top_state instrs cfg
  in
  let findings = ref [] in
  let report pc kind sev msg =
    findings := Finding.make ~kernel ~pc kind sev msg :: !findings
  in
  Array.iteri
    (fun pc (i : Instr.t) ->
       if Cfg.reachable_block cfg cfg.Cfg.block_of_pc.(pc) then begin
         let st = res.Solver.before.(pc) in
         let use_code =
           if Pred.is_always i.Instr.guard then None
           else Some (guard_code i.Instr.guard)
         in
         List.iter
           (fun r ->
              match r with
              | Reg.RZ -> ()
              | Reg.R k ->
                if not (Regset.mem k st.D.may) then
                  report pc Finding.Uninit_read Finding.Error
                    (Printf.sprintf
                       "%s read by %s but never written on any path"
                       (Reg.to_string r) (Opcode.to_string i.Instr.op))
                else if not (Regset.mem k st.D.must) then begin
                  let suppressed =
                    match (use_code, IM.find_opt k st.D.gmap) with
                    | Some u, Some d -> u = d
                    | _ -> false
                  in
                  if not suppressed then
                    report pc Finding.Maybe_uninit_read Finding.Warning
                      (Printf.sprintf
                         "%s read by %s but only written on some paths \
                          or under a predicate"
                         (Reg.to_string r) (Opcode.to_string i.Instr.op))
                end)
           (List.sort_uniq Reg.compare (Instr.uses i));
         (* P2R deliberately reads the whole predicate file (the
            injector uses it to spill); checking it would flag every
            physical pred-file save. *)
         if i.Instr.op <> Opcode.P2R then
           List.iter
             (fun p ->
                match p with
                | Pred.PT -> ()
                | Pred.P k ->
                  let bit = 1 lsl k in
                  if st.D.may_p land bit = 0 then
                    report pc Finding.Uninit_read Finding.Error
                      (Printf.sprintf
                         "%s read by %s but never written on any path"
                         (Pred.to_string p) (Opcode.to_string i.Instr.op))
                  else if st.D.must_p land bit = 0 then begin
                    let suppressed =
                      match (use_code, IM.find_opt k st.D.gmap_p) with
                      | Some u, Some d -> u = d
                      | _ -> false
                    in
                    if not suppressed then
                      report pc Finding.Maybe_uninit_read Finding.Warning
                        (Printf.sprintf
                           "%s read by %s but only written on some paths \
                            or under a predicate"
                           (Pred.to_string p) (Opcode.to_string i.Instr.op))
                  end)
             (List.sort_uniq Pred.compare (Instr.puses i))
       end)
    instrs;
  List.rev !findings
