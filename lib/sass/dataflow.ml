type direction =
  | Forward
  | Backward

module type DOMAIN = sig
  type t
  type instr

  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
  val transfer : pc:int -> instr -> t -> t
end

module Make (D : DOMAIN) = struct
  type result = {
    before : D.t array;
    after : D.t array;
    passes : int;
  }

  (* Reverse-postorder over the forward edges from the entry block,
     with each unreachable component's local RPO appended, so that one
     sweep propagates acyclic flow in one pass and every block — even
     unreachable ones — reaches a fixpoint. *)
  let order_for (cfg : Cfg.t) =
    let blocks = cfg.Cfg.blocks in
    let n = Array.length blocks in
    let visited = Array.make n false in
    let acc = ref [] in
    let rec dfs b =
      if not visited.(b) then begin
        visited.(b) <- true;
        List.iter dfs blocks.(b).Cfg.succs;
        acc := b :: !acc
      end
    in
    let components = ref [] in
    dfs cfg.Cfg.block_of_pc.(0);
    components := !acc;
    acc := [];
    for b = 0 to n - 1 do
      if not visited.(b) then begin
        dfs b;
        components := !components @ !acc;
        acc := []
      end
    done;
    Array.of_list !components

  let solve ~direction ~boundary ~init instrs (cfg : Cfg.t) =
    let blocks = cfg.Cfg.blocks in
    let nb = Array.length blocks in
    let order = order_for cfg in
    let order =
      match direction with
      | Forward -> order
      | Backward ->
        let m = Array.length order in
        Array.init m (fun i -> order.(m - 1 - i))
    in
    let entry = cfg.Cfg.block_of_pc.(0) in
    (* [input.(b)] is the state at the block's flow entry: block start
       for Forward, block end for Backward. *)
    let input = Array.make nb init in
    let output = Array.make nb init in
    let edges_in b =
      match direction with
      | Forward -> blocks.(b).Cfg.preds
      | Backward -> blocks.(b).Cfg.succs
    in
    let is_boundary b =
      match direction with
      | Forward -> b = entry
      | Backward -> blocks.(b).Cfg.succs = []
    in
    let flow b st =
      let first = blocks.(b).Cfg.first and last = blocks.(b).Cfg.last in
      let st = ref st in
      (match direction with
       | Forward ->
         for pc = first to last do
           st := D.transfer ~pc instrs.(pc) !st
         done
       | Backward ->
         for pc = last downto first do
           st := D.transfer ~pc instrs.(pc) !st
         done);
      !st
    in
    (* A block whose (direction-adjusted) in-edge comes from a block
       at the same or a later position in the sweep order heads a
       cycle: states there are widened from the second pass on, so
       domains with infinite ascending chains still terminate. *)
    let pos = Array.make nb 0 in
    Array.iteri (fun i b -> pos.(b) <- i) order;
    let loop_head = Array.make nb false in
    Array.iter
      (fun b ->
         if List.exists (fun p -> pos.(p) >= pos.(b)) (edges_in b) then
           loop_head.(b) <- true)
      order;
    let passes = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      incr passes;
      Array.iter
        (fun b ->
           let base = if is_boundary b then Some boundary else None in
           let inb =
             List.fold_left
               (fun acc p ->
                  match acc with
                  | None -> Some output.(p)
                  | Some s -> Some (D.join s output.(p)))
               base (edges_in b)
           in
           let inb = Option.value inb ~default:init in
           let inb =
             if loop_head.(b) && !passes > 1 then D.widen input.(b) inb
             else inb
           in
           input.(b) <- inb;
           let outb = flow b inb in
           if not (D.equal outb output.(b)) then begin
             output.(b) <- outb;
             changed := true
           end)
        order
    done;
    let n = Array.length instrs in
    let before = Array.make n init and after = Array.make n init in
    Array.iteri
      (fun b blk ->
         match direction with
         | Forward ->
           let st = ref input.(b) in
           for pc = blk.Cfg.first to blk.Cfg.last do
             before.(pc) <- !st;
             st := D.transfer ~pc instrs.(pc) !st;
             after.(pc) <- !st
           done
         | Backward ->
           let st = ref input.(b) in
           for pc = blk.Cfg.last downto blk.Cfg.first do
             after.(pc) <- !st;
             st := D.transfer ~pc instrs.(pc) !st;
             before.(pc) <- !st
           done)
      blocks;
    { before; after; passes = !passes }
end
