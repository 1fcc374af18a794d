open Sass

(* Bytes live in fixed pages that materialize on first write; an
   untouched page aliases [zero_page], which is never written. A
   64 MiB global memory therefore costs a page table until a kernel or
   the host touches it. The last page is cut to the memory's size, so
   a small memory (a parameter bank, a shared block) costs no more
   than its bytes. *)

let page_bits = 12

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

let zero_page = Bytes.make page_size '\000'

type t = {
  size : int;
  space : Opcode.space;
  pages : Bytes.t array;
}

let create ~space n =
  { size = n;
    space;
    pages = Array.make ((n + page_size - 1) lsr page_bits) zero_page }

let size t = t.size

let space t = t.space

let check t addr bytes =
  if addr < 0 || addr + bytes > t.size then
    raise (Trap.Memory_fault
             { space = t.space; addr; kind = Trap.Out_of_bounds })

let page_for_read t addr = Array.unsafe_get t.pages (addr lsr page_bits)

let[@inline never] materialize t p =
  let b = Bytes.make (min page_size (t.size - (p lsl page_bits))) '\000' in
  t.pages.(p) <- b;
  b

let page_for_write t addr =
  let p = addr lsr page_bits in
  let pg = Array.unsafe_get t.pages p in
  if pg != zero_page then pg else materialize t p

(* Accesses that straddle a page boundary go byte by byte. *)
let fits addr bytes = addr land page_mask <= page_size - bytes

let get_byte t addr =
  Char.code (Bytes.unsafe_get (page_for_read t addr) (addr land page_mask))

let set_byte t addr v =
  Bytes.unsafe_set (page_for_write t addr) (addr land page_mask)
    (Char.unsafe_chr (v land 0xFF))

let read_bytewise t addr bytes =
  let v = ref 0 in
  for k = bytes - 1 downto 0 do
    v := (!v lsl 8) lor get_byte t (addr + k)
  done;
  !v

let write_bytewise t addr bytes v =
  for k = 0 to bytes - 1 do
    set_byte t (addr + k) (v asr (8 * k))
  done

let read t ~width addr =
  let off = addr land page_mask in
  match width with
  | Opcode.W8 ->
    check t addr 1;
    get_byte t addr
  | Opcode.W16 ->
    check t addr 2;
    if fits addr 2 then Bytes.get_uint16_le (page_for_read t addr) off
    else read_bytewise t addr 2
  | Opcode.W32 ->
    check t addr 4;
    if fits addr 4 then
      Int32.to_int (Bytes.get_int32_le (page_for_read t addr) off)
      land Value.mask
    else read_bytewise t addr 4
  | Opcode.W64 ->
    check t addr 8;
    if fits addr 8 then
      Int64.to_int (Bytes.get_int64_le (page_for_read t addr) off)
    else read_bytewise t addr 8

let write t ~width addr v =
  let off = addr land page_mask in
  match width with
  | Opcode.W8 ->
    check t addr 1;
    set_byte t addr v
  | Opcode.W16 ->
    check t addr 2;
    if fits addr 2 then
      Bytes.set_uint16_le (page_for_write t addr) off (v land 0xFFFF)
    else write_bytewise t addr 2 v
  | Opcode.W32 ->
    check t addr 4;
    if fits addr 4 then
      Bytes.set_int32_le (page_for_write t addr) off
        (Int32.of_int (Value.signed (v land Value.mask)))
    else write_bytewise t addr 4 v
  | Opcode.W64 ->
    check t addr 8;
    if fits addr 8 then
      Bytes.set_int64_le (page_for_write t addr) off (Int64.of_int v)
    else write_bytewise t addr 8 v

let read_u64 t addr = read t ~width:Opcode.W64 addr

let write_u64 t addr v = write t ~width:Opcode.W64 addr v

(* Apply [f page page_off chunk_pos chunk_len] to each page-sized
   chunk of [pos, pos + len). *)
let iter_chunks ~pos ~len f =
  let stop = pos + len in
  let a = ref pos in
  while !a < stop do
    let off = !a land page_mask in
    let n = min (page_size - off) (stop - !a) in
    f (!a lsr page_bits) off (!a - pos) n;
    a := !a + n
  done

let blit_from_bytes t ~dst src =
  check t dst (Bytes.length src);
  iter_chunks ~pos:dst ~len:(Bytes.length src) (fun p off at n ->
      Bytes.blit src at (page_for_write t (p lsl page_bits)) off n)

let blit_to_bytes t ~src dst =
  check t src (Bytes.length dst);
  iter_chunks ~pos:src ~len:(Bytes.length dst) (fun p off at n ->
      Bytes.blit t.pages.(p) off dst at n)

let fill t ~pos ~len c =
  check t pos len;
  iter_chunks ~pos ~len (fun p off _ n ->
      if not (c = '\000' && t.pages.(p) == zero_page) then
        Bytes.fill (page_for_write t (p lsl page_bits)) off n c)
