type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type kind =
  | Complete of int
  | Instant
  | Counter of (string * float) list

type t = {
  sp_track : int;
  sp_seq : int;
  sp_name : string;
  sp_cat : string;
  sp_ts_us : int;
  sp_depth : int;
  sp_kind : kind;
  sp_attrs : (string * attr) list;
}

let order a b =
  match Int.compare a.sp_track b.sp_track with
  | 0 -> Int.compare a.sp_seq b.sp_seq
  | c -> c

let duration_us t =
  match t.sp_kind with
  | Complete d -> d
  | Instant | Counter _ -> 0
