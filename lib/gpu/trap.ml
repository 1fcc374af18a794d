type fault_kind =
  | Out_of_bounds
  | Misaligned
  | Invalid_instruction

exception Memory_fault of {
    space : Sass.Opcode.space;
    addr : int;
    kind : fault_kind;
  }

exception Register_fault of {
    reg : int;
    regs : int;
  }

exception Hang of { cycles : int }

exception Device_assert of string

let fault_kind_to_string = function
  | Out_of_bounds -> "out-of-bounds"
  | Misaligned -> "misaligned"
  | Invalid_instruction -> "invalid-instruction"

let describe = function
  | Memory_fault { space; addr; kind } ->
    Some
      (Printf.sprintf "memory fault: %s access at %s:0x%x"
         (fault_kind_to_string kind)
         (Format.asprintf "%a" Sass.Opcode.pp_space space)
         addr)
  | Register_fault { reg; regs } ->
    Some
      (Printf.sprintf "register fault: write to R%d beyond a %d-register file"
         reg regs)
  | Hang { cycles } -> Some (Printf.sprintf "hang after %d cycles" cycles)
  | Device_assert msg -> Some (Printf.sprintf "device assert: %s" msg)
  | _ -> None
