(* 256-bit sets packed into five native-int words of 52 bits each.
   Treated immutably: every operation copies. Word count and width are
   chosen so shifts stay well inside OCaml's 63-bit ints. *)

let bits = 52
let words = 5
let word_mask = (1 lsl bits) - 1

type t = int array

let empty = Array.make words 0

let full =
  Array.init words (fun w ->
      let lo = w * bits in
      let n = min bits (256 - lo) in
      if n <= 0 then 0 else (1 lsl n) - 1)

let check i =
  if i < 0 || i > 255 then invalid_arg "Regset: index out of range"

let add i s =
  check i;
  let s' = Array.copy s in
  s'.(i / bits) <- s'.(i / bits) lor (1 lsl (i mod bits));
  s'

let remove i s =
  check i;
  let s' = Array.copy s in
  s'.(i / bits) <- s'.(i / bits) land lnot (1 lsl (i mod bits)) land word_mask;
  s'

let mem i s =
  check i;
  s.(i / bits) land (1 lsl (i mod bits)) <> 0

let union a b = Array.init words (fun w -> a.(w) lor b.(w))
let inter a b = Array.init words (fun w -> a.(w) land b.(w))

let equal a b =
  let rec go w = w >= words || (a.(w) = b.(w) && go (w + 1)) in
  go 0

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s

(* Skips empty words: liveness queries call this at every PC, and most
   sets live in the first word. *)
let elements s =
  let out = ref [] in
  for w = words - 1 downto 0 do
    if s.(w) <> 0 then
      for b = bits - 1 downto 0 do
        if s.(w) land (1 lsl b) <> 0 then out := ((w * bits) + b) :: !out
      done
  done;
  !out

let of_list l = List.fold_left (fun s i -> add i s) empty l
