type t = {
  p_out : out_channel;
  p_total : int;
  p_active : bool;
  p_t0 : float;
  mutable p_done : int;
  mutable p_last_len : int;  (* width of the previous draw, to erase *)
}

let create ?(out = stderr) ?tty ~enabled ~total () =
  let is_tty =
    match tty with
    | Some b -> b
    | None -> (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)
  in
  { p_out = out;
    p_total = total;
    p_active = enabled && is_tty && total > 0;
    p_t0 = Clock.now_s ();
    p_done = 0;
    p_last_len = 0 }

let active t = t.p_active

let draw t line =
  (* Pad with spaces to overwrite any longer previous draw. *)
  let pad = max 0 (t.p_last_len - String.length line) in
  output_string t.p_out ("\r" ^ line ^ String.make pad ' ');
  t.p_last_len <- String.length line;
  flush t.p_out

let step t =
  if t.p_active then begin
    t.p_done <- min t.p_total (t.p_done + 1);
    let elapsed = max 1e-9 (Clock.now_s () -. t.p_t0) in
    let rate = float_of_int t.p_done /. elapsed in
    let eta =
      if t.p_done >= t.p_total then 0.0
      else float_of_int (t.p_total - t.p_done) /. max 1e-9 rate
    in
    let line =
      Printf.sprintf "[%d/%d] %3.0f%% | %.2f jobs/s | eta %.0fs"
        t.p_done t.p_total
        (100.0 *. float_of_int t.p_done /. float_of_int t.p_total)
        rate eta
    in
    draw t line
  end

let finish t =
  if t.p_active && t.p_last_len > 0 then begin
    output_string t.p_out ("\r" ^ String.make t.p_last_len ' ' ^ "\r");
    t.p_last_len <- 0;
    flush t.p_out
  end
