(** Log2-bucketed histogram of non-negative integers. Bucket 0 holds
    the value 0; bucket [k >= 1] holds values in [2^(k-1), 2^k - 1].
    {!observe} is O(1) and allocation-free; quantiles are interpolated
    from the buckets and clamped to the exact observed [min]/[max].
    Negative observations are clamped to 0. *)

type t

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

val num_buckets : int

val create : unit -> t

val observe : t -> int -> unit

val count : t -> int

val sum : t -> int

val min_value : t -> int
(** 0 when empty. *)

val max_value : t -> int

val mean : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1] (clamped); 0 when empty. *)

val summarize : t -> summary

val buckets : t -> int array
(** Copy of the per-bucket counts, length {!num_buckets}. *)

val bucket_bounds : int -> int * int
(** Inclusive [(lo, hi)] value range of a bucket index. *)

val copy : t -> t
(** Independent point-in-time copy; further {!observe}s on the
    original never move the copy. The capture reads each field once,
    so exporters working from a copy see one consistent histogram
    even while another domain keeps observing. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit

val render : t -> string
(** Multi-line ASCII bar chart of the non-empty buckets. *)
