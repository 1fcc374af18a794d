type 'a overflow =
  | Drop_oldest
  | Drop_newest
  | Flush_callback of ('a array -> unit)

type 'a t = {
  cap : int;
  pol : 'a overflow;
  buf : 'a option array;
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
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    pushed = 0;
    dropped = 0;
    flushed = 0 }

let length t = t.len

let pushed t = t.pushed

let dropped t = t.dropped

let flushed t = t.flushed

let resident t =
  Array.init t.len (fun i ->
      match t.buf.((t.head + i) mod t.cap) with
      | Some x -> x
      | None -> assert false)

let empty t =
  Array.fill t.buf 0 t.cap None;
  t.head <- 0;
  t.len <- 0

let store t x =
  t.buf.((t.head + t.len) mod t.cap) <- Some x;
  t.len <- t.len + 1

let push t x =
  t.pushed <- t.pushed + 1;
  if t.len < t.cap then store t x
  else
    match t.pol with
    | Drop_oldest ->
      t.buf.(t.head) <- Some x;
      t.head <- (t.head + 1) mod t.cap;
      t.dropped <- t.dropped + 1
    | Drop_newest -> t.dropped <- t.dropped + 1
    | Flush_callback f ->
      let batch = resident t in
      empty t;
      t.flushed <- t.flushed + Array.length batch;
      f batch;
      store t x

let to_list t = Array.to_list (resident t)

let flush t =
  let xs = to_list t in
  empty t;
  xs

let clear t =
  empty t;
  t.pushed <- 0;
  t.dropped <- 0;
  t.flushed <- 0
