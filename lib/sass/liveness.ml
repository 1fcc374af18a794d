(* Backward liveness as a {!Dataflow} domain: GPR indices in a
   {!Regset}, predicate indices in a bitmask. *)

module D = struct
  type t = {
    gprs : Regset.t;
    preds : int;
  }

  type instr = Instr.t

  let equal a b = a.preds = b.preds && Regset.equal a.gprs b.gprs

  let join a b =
    { gprs = Regset.union a.gprs b.gprs; preds = a.preds lor b.preds }

  let widen = join

  (* Given the state after [i], the state before it. *)
  let transfer ~pc:_ (i : Instr.t) after =
    let killed =
      if Pred.is_always i.Instr.guard then
        { gprs =
            List.fold_left
              (fun s r -> Regset.remove (Reg.index r) s)
              after.gprs (Instr.defs i);
          preds =
            List.fold_left
              (fun m p -> m land lnot (1 lsl Pred.index p))
              after.preds (Instr.pdefs i) }
      else after
    in
    { gprs =
        List.fold_left
          (fun s r -> Regset.add (Reg.index r) s)
          killed.gprs (Instr.uses i);
      preds =
        List.fold_left
          (fun m p -> m lor (1 lsl Pred.index p))
          killed.preds (Instr.puses i) }
end

module Solver = Dataflow.Make (D)

type t = Solver.result

let analyze instrs =
  let none = { D.gprs = Regset.empty; preds = 0 } in
  Solver.solve ~direction:Dataflow.Backward ~boundary:none ~init:none instrs
    (Cfg.build instrs)

let gprs (st : D.t) =
  Regset.elements st.D.gprs
  |> List.filter (fun i -> i <> 255)
  |> List.map Reg.of_index

let preds (st : D.t) =
  List.filter (fun i -> st.D.preds land (1 lsl i) <> 0) [ 0; 1; 2; 3; 4; 5; 6 ]
  |> List.map Pred.p

let live_gprs_before t pc = gprs t.Solver.before.(pc)

let live_preds_before t pc = preds t.Solver.before.(pc)

let live_gprs_after t pc = gprs t.Solver.after.(pc)

let live_preds_after t pc = preds t.Solver.after.(pc)
