type 'a overflow =
  | Drop_oldest
  | Drop_newest
  | Flush_callback of ('a array -> unit)

(* The buffer holds elements unboxed. It is made at the first push,
   holding that element, and doubles as elements arrive, up to the
   capacity, so a ring sized for a long trace costs what it holds.
   Growing copies with [Array.append], which, unlike [Array.make] of a
   large array with a young element, never forces a minor collection.
   A ring grows only while it has neither dropped nor wrapped, so its
   elements then start at index 0. [empty] lets the buffer go, so no
   flushed element stays reachable. *)
type 'a t = {
  cap : int;
  pol : 'a overflow;
  mutable buf : 'a array;  (* [||] until the first push; at most [cap] *)
  mutable head : int;  (* index of the oldest resident element *)
  mutable len : int;
  mutable pushed : int;
  mutable dropped : int;
  mutable flushed : int;
}

let create ?(policy = Drop_oldest) ~capacity () =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { cap = capacity;
    pol = policy;
    buf = [||];
    head = 0;
    len = 0;
    pushed = 0;
    dropped = 0;
    flushed = 0 }

let length t = t.len

let pushed t = t.pushed

let dropped t = t.dropped

let flushed t = t.flushed

let newest t n =
  let n = max 0 (min n t.len) in
  let first = t.head + t.len - n in
  List.init n (fun i -> t.buf.((first + i) mod t.cap))

let to_list t = newest t t.len

(* Resident elements, oldest first, copied with [Array.sub] for the
   same reason [store] grows with [Array.append]. *)
let resident t =
  let k = min t.len (t.cap - t.head) in
  let a = Array.sub t.buf t.head k in
  if k = t.len then a else Array.append a (Array.sub t.buf 0 (t.len - k))

let empty t =
  t.buf <- [||];
  t.head <- 0;
  t.len <- 0

let store t x =
  let n = Array.length t.buf in
  if t.len = n then
    t.buf <-
      (if n = 0 then [| x |]
       else if 2 * n <= t.cap then Array.append t.buf t.buf
       else Array.append t.buf (Array.sub t.buf 0 (t.cap - n)));
  t.buf.((t.head + t.len) mod t.cap) <- x;
  t.len <- t.len + 1

let push t x =
  t.pushed <- t.pushed + 1;
  if t.len < t.cap then store t x
  else
    match t.pol with
    | Drop_oldest ->
      t.buf.(t.head) <- x;
      t.head <- (t.head + 1) mod t.cap;
      t.dropped <- t.dropped + 1
    | Drop_newest -> t.dropped <- t.dropped + 1
    | Flush_callback f ->
      let batch = resident t in
      empty t;
      t.flushed <- t.flushed + Array.length batch;
      f batch;
      store t x

let flush t =
  let xs = to_list t in
  empty t;
  xs

let clear t =
  empty t;
  t.pushed <- 0;
  t.dropped <- 0;
  t.flushed <- 0
