(* Bounded time series of gauge snapshots: one row per (cycle, sm)
   sampling point, fixed column set. Rows beyond the capacity drop the
   oldest first (and are counted), mirroring the activity ring's
   accounting discipline so truncation is never silent. *)

type row = {
  r_cycle : int;
  r_sm : int;
  r_values : float array;
}

type t = {
  columns : string array;
  interval : int;
  capacity : int;
  mutable rows : row list; (* newest first *)
  mutable length : int;
  mutable dropped : int;
}

let create ?(capacity = 65536) ~interval columns =
  if interval <= 0 then invalid_arg "Telemetry.Series: interval must be positive";
  if capacity <= 0 then invalid_arg "Telemetry.Series: capacity must be positive";
  { columns = Array.copy columns; interval; capacity; rows = []; length = 0;
    dropped = 0 }

let columns t = Array.copy t.columns

let interval t = t.interval

let sample t ~cycle ~sm values =
  if Array.length values <> Array.length t.columns then
    invalid_arg "Telemetry.Series.sample: column arity mismatch";
  t.rows <- { r_cycle = cycle; r_sm = sm; r_values = Array.copy values } :: t.rows;
  if t.length >= t.capacity then begin
    (* Drop the oldest row; rows is newest-first, so that is the last
       element. Rare (only past capacity), so the O(n) tail drop is
       acceptable next to the export cost. *)
    (match List.rev t.rows with
     | _ :: rest -> t.rows <- List.rev rest
     | [] -> ());
    t.dropped <- t.dropped + 1
  end
  else t.length <- t.length + 1

let capacity t = t.capacity

let length t = t.length

let dropped t = t.dropped

let rows t = List.rev t.rows

let to_json t =
  Trace.Json.Obj
    [ ("interval", Trace.Json.Int t.interval);
      ("columns",
       Trace.Json.List
         (Array.to_list (Array.map (fun c -> Trace.Json.Str c) t.columns)));
      ("dropped", Trace.Json.Int t.dropped);
      ( "rows",
        Trace.Json.List
          (List.map
             (fun r ->
                Trace.Json.List
                  (Trace.Json.Int r.r_cycle :: Trace.Json.Int r.r_sm
                   :: Array.to_list
                        (Array.map (fun v -> Trace.Json.Float v) r.r_values)))
             (rows t)) ) ]
