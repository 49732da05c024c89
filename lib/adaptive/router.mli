(** Hash-free range partitioner: splits the address universe into [shards]
    contiguous spans of [space / shards] units each, the last span extended
    to [max_int] so any well-formed {!Rlk.Range.t} routes somewhere.

    Two ranges overlap iff their covers share a shard whose clamped
    sub-ranges overlap (any common point lies in exactly one span), which
    is what lets the adaptive frontend's sharded regime ({!Adaptive_rw})
    detect every conflict on a per-shard basis. *)

type t

val create : shards:int -> space:int -> t
(** [space] must be a positive multiple of [shards]. Points at or beyond
    [space] route to the last shard. *)

val shards : t -> int

val width : t -> int
(** Units per shard span ([space / shards]). *)

val span : t -> int -> Rlk.Range.t
(** The half-open span owned by a shard; the last shard's span extends to
    [max_int]. *)

val shard_of_point : t -> int -> int

val first : t -> Rlk.Range.t -> int
(** Index of the first shard covering the range. With {!last}, the
    allocation-free form of {!cover} for the acquisition hot path. *)

val last : t -> Rlk.Range.t -> int
(** Index of the last shard covering the range. *)

val clamp : t -> int -> Rlk.Range.t -> Rlk.Range.t
(** Intersection of the range with a covering shard's span; raises
    [Invalid_argument] if the shard is not in the range's cover. *)

val cover : t -> Rlk.Range.t -> (int * Rlk.Range.t) list
(** Shards covering the range, in strictly ascending index order, each with
    the sub-range clamped to its span. The sub-ranges are non-empty,
    mutually adjacent, and their union is exactly the input range. *)
