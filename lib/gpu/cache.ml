type outcome =
  | Hit
  | Miss

type t = {
  name : string;
  sets : int;
  assoc : int;
  line_bytes : int;
  tags : int array;  (* sets * assoc; -1 = invalid *)
  stamps : int array;  (* LRU timestamps *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~name ~size_bytes ~assoc ~line_bytes =
  let lines = max 1 (size_bytes / line_bytes) in
  let sets = max 1 (lines / assoc) in
  { name;
    sets;
    assoc;
    line_bytes;
    tags = Array.make (sets * assoc) (-1);
    stamps = Array.make (sets * assoc) 0;
    tick = 0;
    hits = 0;
    misses = 0 }

let tag_of t addr = addr / t.line_bytes

let set_of t tag = tag mod t.sets

(* [base] is a set's first way, below [sets * assoc]: the tag and stamp
   arrays are indexed without bounds checks once the set is known to be
   non-negative (a negative address has a negative set). *)
let access t addr =
  t.tick <- t.tick + 1;
  let tag = tag_of t addr in
  let s = set_of t tag in
  if s < 0 then invalid_arg "index out of bounds";
  let base = s * t.assoc in
  let tags = t.tags and stamps = t.stamps in
  let found = ref (-1) in
  for w = 0 to t.assoc - 1 do
    if Array.unsafe_get tags (base + w) = tag then found := w
  done;
  if !found >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set stamps (base + !found) t.tick;
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Fill: evict the LRU way. *)
    let victim = ref 0 in
    for w = 1 to t.assoc - 1 do
      if Array.unsafe_get stamps (base + w)
         < Array.unsafe_get stamps (base + !victim)
      then victim := w
    done;
    Array.unsafe_set tags (base + !victim) tag;
    Array.unsafe_set stamps (base + !victim) t.tick;
    Miss
  end

let probe t addr =
  let tag = tag_of t addr in
  let s = set_of t tag in
  let base = s * t.assoc in
  let found = ref false in
  for w = 0 to t.assoc - 1 do
    if t.tags.(base + w) = tag then found := true
  done;
  !found

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0

let hits t = t.hits

let misses t = t.misses

let name t = t.name

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
