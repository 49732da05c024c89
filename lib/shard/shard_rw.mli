(** Sharded reader-writer range lock: {!Rlk_adaptive.Adaptive_rw} pinned
    to its sharded regime, with the backends' empty-list fast path on and
    no reader bias (see doc/perf.md, "Sharded frontend").

    Acquisitions whose cover fits in at most [max 1 (shards / 4)] shards
    lock those shards in ascending order with the clamped sub-ranges;
    wider ones go through a global list and wait out conflicting holders
    in the covered shards. Try and timed acquisitions take the same
    routes and are all-or-nothing: a refusal or a timeout releases every
    node the acquisition took. *)

type t

type handle

val name : string
(** ["shard-rw"]. *)

val create :
  ?stats:Rlk_primitives.Lockstat.t -> ?shards:int -> ?space:int -> unit -> t
(** [shards] (default 8) lists over a universe of [space] (default
    [65536]) units; points past [space] route to the last shard, so the
    geometry only affects balance, never correctness. *)

val read_acquire : t -> Rlk.Range.t -> handle

val write_acquire : t -> Rlk.Range.t -> handle

val try_read_acquire : t -> Rlk.Range.t -> handle option

val try_write_acquire : t -> Rlk.Range.t -> handle option

val read_acquire_opt : t -> deadline_ns:int -> Rlk.Range.t -> handle option
(** [deadline_ns] is absolute on the {!Rlk_primitives.Clock.now_ns}
    timeline, [max_int] = forever. *)

val write_acquire_opt : t -> deadline_ns:int -> Rlk.Range.t -> handle option

val release : t -> handle -> unit

type snapshot = {
  acquisitions : int;
  single_shard : int;  (** narrow grants covering exactly one shard *)
  multi_shard : int;  (** narrow grants covering several shards *)
  wide_path : int;
      (** grants routed straight to the global list (wide ranges, of any
          kind: blocking, try or timed; a timed narrow grant counts as
          single or multi) *)
  slow_path : int;  (** narrow acquisitions diverted by a wide holder *)
  timeouts : int;
      (** timed acquisitions that hit their deadline, on any path; a
          refused try is not counted *)
  switches : int;  (** regime switches; 0 while the pin holds *)
  regime : Rlk_adaptive.Adaptive_rw.regime;
  shards : int;
}

val snapshot : t -> snapshot

val to_json : snapshot -> string

val impl : shards:int -> space:int -> unit -> Rlk.Intf.rw_impl
(** Package a fixed geometry against the common RW signature (benchmarks,
    conformance battery). *)
