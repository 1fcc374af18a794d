(* Log2-bucketed histogram of non-negative integer observations.
   Bucket 0 counts the value 0; bucket k >= 1 counts values in
   [2^(k-1), 2^k - 1]. Observation is O(1) with no allocation, which
   is what lets the GPU model observe every memory request and branch
   without measurable slowdown; quantiles are reconstructed from the
   buckets with linear interpolation, so they are estimates with at
   most a 2x bucket-width error (exact min and max are tracked on the
   side and used to clamp). *)

let num_buckets = 64

type t = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  buckets : int array;
}

type summary = {
  s_count : int;
  s_sum : int;
  s_min : int;
  s_max : int;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

let create () =
  { count = 0; sum = 0; vmin = max_int; vmax = 0;
    buckets = Array.make num_buckets 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    let v = ref v in
    let i = ref 0 in
    while !v > 0 do
      v := !v lsr 1;
      incr i
    done;
    !i
  end

(* Inclusive value range covered by bucket [k]. *)
let bucket_bounds k = if k = 0 then (0, 0) else (1 lsl (k - 1), (1 lsl k) - 1)

let observe t v =
  let v = if v < 0 then 0 else v in
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1

let count t = t.count

let sum t = t.sum

let min_value t = if t.count = 0 then 0 else t.vmin

let max_value t = t.vmax

let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

let buckets t = Array.copy t.buckets

(* Field-by-field capture; under a concurrent writer each field is
   read once, so the copy is a point-in-time snapshot whose internal
   invariants (count = sum of buckets as of the capture) hold for
   every reader of the copy. *)
let copy t =
  { count = t.count;
    sum = t.sum;
    vmin = t.vmin;
    vmax = t.vmax;
    buckets = Array.copy t.buckets }

let clear t =
  t.count <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- 0;
  Array.fill t.buckets 0 num_buckets 0

let quantile t q =
  if t.count = 0 then 0.
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let target = q *. float_of_int t.count in
    let rec walk k cum =
      if k >= num_buckets then float_of_int t.vmax
      else begin
        let c = t.buckets.(k) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= target then begin
          (* Interpolate within the bucket's value range. *)
          let lo, hi = bucket_bounds k in
          let lo = max lo (min_value t) in
          let hi = min hi t.vmax in
          let inside = (target -. float_of_int cum) /. float_of_int c in
          let inside = if inside < 0. then 0. else inside in
          float_of_int lo +. (float_of_int (hi - lo) *. inside)
        end
        else walk (k + 1) cum'
      end
    in
    walk 0 0
  end

let summarize t =
  { s_count = t.count;
    s_sum = t.sum;
    s_min = min_value t;
    s_max = t.vmax;
    s_mean = mean t;
    s_p50 = quantile t 0.5;
    s_p90 = quantile t 0.9;
    s_p99 = quantile t 0.99 }

let pp ppf t =
  let s = summarize t in
  Format.fprintf ppf
    "n=%d sum=%d min=%d p50=%.1f p90=%.1f p99=%.1f max=%d mean=%.2f"
    s.s_count s.s_sum s.s_min s.s_p50 s.s_p90 s.s_p99 s.s_max s.s_mean

(* ASCII rendering of the non-empty bucket range, for CLI summaries. *)
let render t =
  let b = Buffer.create 256 in
  if t.count = 0 then Buffer.add_string b "  (empty)\n"
  else begin
    let peak = Array.fold_left max 1 t.buckets in
    Array.iteri
      (fun k c ->
         if c > 0 then begin
           let lo, hi = bucket_bounds k in
           let bar = String.make (max 1 (c * 40 / peak)) '#' in
           Buffer.add_string b
             (Printf.sprintf "  %10d..%-10d %9d %s\n" lo hi c bar)
         end)
      t.buckets
  end;
  Buffer.contents b
