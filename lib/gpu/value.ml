open Sass

let mask = 0xFFFFFFFF

let wrap x = x land mask

let signed x = if x land 0x80000000 <> 0 then x - 0x100000000 else x

let of_signed x = x land mask

let add a b = wrap (a + b)

let sub a b = wrap (a - b)

let mul a b = wrap (a * b)

let mad a b c = wrap ((a * b) + c)

let div ~sign a b =
  if b = 0 then mask
  else
    match sign with
    | Opcode.Unsigned -> wrap (a / b)
    | Opcode.Signed ->
      let sa = signed a and sb = signed b in
      (* OCaml division truncates toward zero, matching C/CUDA. *)
      of_signed (sa / sb)

let rem ~sign a b =
  if b = 0 then mask
  else
    match sign with
    | Opcode.Unsigned -> wrap (a mod b)
    | Opcode.Signed -> of_signed (signed a mod signed b)

let min_max ~cmp a b =
  let sa = signed a and sb = signed b in
  match cmp with
  | Opcode.Lt | Opcode.Le -> if sa < sb then a else b
  | Opcode.Gt | Opcode.Ge -> if sa > sb then a else b
  | Opcode.Eq | Opcode.Ne -> invalid_arg "Value.min_max: Eq/Ne"

let shl a n =
  let n = n land 0xFF in
  if n >= 32 then 0 else wrap (a lsl n)

let shr ~sign a n =
  let n = n land 0xFF in
  match sign with
  | Opcode.Unsigned -> if n >= 32 then 0 else a lsr n
  | Opcode.Signed ->
    if n >= 32 then if a land 0x80000000 <> 0 then mask else 0
    else of_signed (signed a asr n)

let logic op a b =
  match op with
  | Opcode.L_and -> a land b
  | Opcode.L_or -> a lor b
  | Opcode.L_xor -> a lxor b
  | Opcode.L_not -> wrap (lnot a)

let brev a =
  let r = ref 0 in
  for i = 0 to 31 do
    if a land (1 lsl i) <> 0 then r := !r lor (1 lsl (31 - i))
  done;
  !r

let popc a =
  let a = wrap a in
  let a = a - ((a lsr 1) land 0x55555555) in
  let a = (a land 0x33333333) + ((a lsr 2) land 0x33333333) in
  let a = (a + (a lsr 4)) land 0x0F0F0F0F in
  ((a * 0x01010101) land mask) lsr 24

(* Multiplying a single bit [1 lsl i] by this de Bruijn constant puts a
   distinct 5-bit pattern in the top bits of the low word; the table
   maps that pattern back to [i]. The table is never written. *)
let debruijn = 0x077CB531

let debruijn_bit =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit a =
  Array.unsafe_get debruijn_bit
    ((((a land (-a)) * debruijn) land mask) lsr 27)

(* Smearing the highest set bit downwards leaves [i + 1] ones. *)
let flo a =
  let a = wrap a in
  if a = 0 then mask
  else
    let a = a lor (a lsr 1) in
    let a = a lor (a lsr 2) in
    let a = a lor (a lsr 4) in
    let a = a lor (a lsr 8) in
    popc (a lor (a lsr 16)) - 1

let ffs a =
  let a = wrap a in
  if a = 0 then 0 else lowest_bit a + 1

let compare_int ~cmp ~sign a b =
  let a, b =
    match sign with
    | Opcode.Signed -> (signed a, signed b)
    | Opcode.Unsigned -> (a, b)
  in
  match cmp with
  | Opcode.Lt -> a < b
  | Opcode.Le -> a <= b
  | Opcode.Gt -> a > b
  | Opcode.Ge -> a >= b
  | Opcode.Eq -> a = b
  | Opcode.Ne -> a <> b

let f32_of_bits bits = Int32.float_of_bits (Int32.of_int (signed bits))

let bits_of_f32 f = Int32.to_int (Int32.bits_of_float f) land mask

let round32 f = f32_of_bits (bits_of_f32 f)

let fadd a b = bits_of_f32 (f32_of_bits a +. f32_of_bits b)

let fsub a b = bits_of_f32 (f32_of_bits a -. f32_of_bits b)

let fmul a b = bits_of_f32 (f32_of_bits a *. f32_of_bits b)

let ffma a b c =
  (* Fused: a single rounding at the end, like the hardware FFMA. *)
  bits_of_f32 ((f32_of_bits a *. f32_of_bits b) +. f32_of_bits c)

let fmin_max ~cmp a b =
  let fa = f32_of_bits a and fb = f32_of_bits b in
  match cmp with
  | Sass.Opcode.Lt | Sass.Opcode.Le -> if fa < fb then a else b
  | Sass.Opcode.Gt | Sass.Opcode.Ge -> if fa > fb then a else b
  | Sass.Opcode.Eq | Sass.Opcode.Ne -> invalid_arg "Value.fmin_max: Eq/Ne"

let mufu op a =
  let f = f32_of_bits a in
  let r =
    match op with
    | Opcode.Rcp -> 1.0 /. f
    | Opcode.Sqrt -> sqrt f
    | Opcode.Rsq -> 1.0 /. sqrt f
    | Opcode.Ex2 -> Float.exp2 f
    | Opcode.Lg2 -> Float.log2 f
    | Opcode.Sin -> sin f
    | Opcode.Cos -> cos f
  in
  bits_of_f32 (round32 r)

let compare_f32 ~cmp a b =
  let fa = f32_of_bits a and fb = f32_of_bits b in
  match cmp with
  | Opcode.Lt -> fa < fb
  | Opcode.Le -> fa <= fb
  | Opcode.Gt -> fa > fb
  | Opcode.Ge -> fa >= fb
  | Opcode.Eq -> fa = fb
  | Opcode.Ne -> fa <> fb

let i2f ~sign a =
  let v =
    match sign with
    | Opcode.Signed -> float_of_int (signed a)
    | Opcode.Unsigned -> float_of_int a
  in
  bits_of_f32 v

let f2i ~sign a =
  (* Saturating conversion, clamped in the float domain so that huge
     magnitudes cannot overflow int_of_float. *)
  let f = f32_of_bits a in
  if Float.is_nan f then 0
  else
    match sign with
    | Opcode.Signed ->
      if f >= 2147483647.0 then 0x7FFFFFFF
      else if f <= -2147483648.0 then of_signed (-0x80000000)
      else of_signed (int_of_float (Float.trunc f))
    | Opcode.Unsigned ->
      if f >= 4294967295.0 then mask
      else if f <= 0.0 then 0
      else int_of_float (Float.trunc f)
