(* Minimal JSON document builder and writer primitives shared by every
   JSON-emitting sink (NDJSON and Chrome trace sinks, the profiler
   report writer, bench summaries, --stats-json). One escaping routine,
   one number formatter, so all emitters agree on validity. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Runs of bytes that need no escape are copied with one blit each; a
   string with nothing to escape (almost every name) is one blit. *)
let escape_to b s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring b s !start (i - !start);
      start := i + 1;
      Buffer.add_string b
        (match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | '\t' -> "\\t"
         | '\r' -> "\\r"
         | c -> Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring b s !start (n - !start)

let add_str b s =
  Buffer.add_char b '"';
  escape_to b s;
  Buffer.add_char b '"'

(* Digits are produced on the negative side, where every int has a
   magnitude, so [min_int] needs no special case. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_char b '-';
  add_neg_digits b (if n < 0 then n else -n)

let add_field b s v =
  Buffer.add_string b s;
  add_int b v

(* JSON has no NaN/infinity literals; map them to null. *)
let add_float b f =
  match Float.classify_float f with
  | Float.FP_nan | Float.FP_infinite -> Buffer.add_string b "null"
  | _ -> Buffer.add_string b (Printf.sprintf "%.12g" f)

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f -> add_float b f
  | Str s -> add_str b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_char b ',';
         to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         add_str b k;
         Buffer.add_char b ':';
         to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let spill f b =
  if Buffer.length b >= 65536 then begin
    f b;
    Buffer.clear b
  end

let with_out_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* ---------- parsing ---------- *)

exception Parse_error of string

let utf8_of_code b code =
  (* Re-encode a decoded \uXXXX code point as UTF-8 bytes. *)
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    let g = next () in
    if g <> c then fail (Printf.sprintf "expected '%c', got '%c'" c g)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let hex4 () =
    let d c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let a = d (next ()) in
    let b = d (next ()) in
    let c = d (next ()) in
    let e = d (next ()) in
    (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor e
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           let code = hex4 () in
           (* Surrogate pair: a high surrogate must be followed by a
              low one; combine them into one code point. *)
           if code >= 0xD800 && code <= 0xDBFF then begin
             expect '\\';
             expect 'u';
             let lo = hex4 () in
             if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
             utf8_of_code b
               (0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00))
           end
           else if code >= 0xDC00 && code <= 0xDFFF then
             (* A low surrogate with no preceding high one: reject it
                rather than emit WTF-8 no other reader accepts. *)
             fail "unpaired surrogate"
           else utf8_of_code b code
         | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "unescaped control character"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit
    in
    if is_float then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None ->
        (* Integer literal out of native range: keep it as a float. *)
        (match float_of_string_opt lit with
         | Some f -> Float f
         | None -> fail (Printf.sprintf "bad number %S" lit))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '{' ->
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        expect '}';
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> members ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        expect ']';
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> elements (v :: acc)
          | ']' -> List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let parse_file path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string contents

(* ---------- accessors ---------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let write_file path v =
  with_out_file path (fun oc ->
      output_string oc (to_string v);
      output_char oc '\n')
