(* The locks under test, each packaged with the counters its layer already
   exports. [make ~space] builds an instance whose routing geometry (for
   the sharded locks) covers [space] slots; [counters] reads the layer's
   own snapshot, summed since creation. *)

module type S = sig
  type t

  type handle

  val name : string

  val exclusive : bool
  (** [false] only for the null reference, which grants every request. *)

  val make : space:int -> t

  val read_acquire : t -> Rlk.Range.t -> handle

  val write_acquire : t -> Rlk.Range.t -> handle

  val try_write_acquire : t -> Rlk.Range.t -> handle option

  val release : t -> handle -> unit

  val counters : t -> (string * int) list
end

type t = (module S)

let metrics_counters (m : Rlk.Metrics.snapshot) =
  [ ("restarts", m.restarts); ("cas_failures", m.cas_failures);
    ("overlap_waits", m.overlap_waits);
    ("validation_failures", m.validation_failures); ("parks", m.parks);
    ("wakes", m.wakes) ]

module List_rw : S = struct
  include Rlk.List_rw

  let name = "list-rw"

  let exclusive = true

  let make ~space:_ = create ()

  let counters t = metrics_counters (metrics t)
end

module Skip_rw : S = struct
  include Rlk_index.Skip_rw

  let name = "skip-rw"

  let exclusive = true

  let make ~space:_ = create ()

  let counters t = metrics_counters (metrics t)
end

(* Eight shards over the workload's space: ArrBench's 256 slots give the
   registry geometry (one shard per 32 slots). Flat combining is off: with
   it, adaptive-rw hangs on the contended and vm-wrmem traffic within
   seconds (README.md, known defects). *)
module Adaptive_rw : S = struct
  include Rlk_adaptive.Adaptive_rw

  let name = "adaptive-rw"

  let exclusive = true

  let make ~space = create ~shards:8 ~space ~combine:false ()

  let counters t =
    let s = snapshot t in
    [ ("fast_reads", s.s_fast_reads); ("g", s.s_g); ("narrow", s.s_narrow + s.s_multi);
      ("diverted", s.s_diverted); ("switches", s.s_switches) ]
end

module Shard_rw : S = struct
  include Rlk_shard.Shard_rw

  let exclusive = true

  let make ~space = create ~shards:8 ~space ()

  let counters t =
    let s = snapshot t in
    [ ("acquisitions", s.acquisitions); ("single", s.single_shard);
      ("multi", s.multi_shard); ("wide", s.wide_path); ("slow", s.slow_path) ]
end

(* Host reference: the same calls and critical-section work with no
   exclusion at all, so its throughput moves only with the host and the
   harness. *)
module Null : S = struct
  type t = unit

  type handle = unit

  let name = "null"

  let exclusive = false

  let make ~space:_ = ()

  let read_acquire () _ = ()

  let write_acquire () _ = ()

  let try_write_acquire () _ = Some ()

  let release () () = ()

  let counters () = []
end

let main : t list =
  [ (module List_rw : S); (module Skip_rw : S); (module Adaptive_rw : S) ]

let all : t list = ((module Null : S) :: main) @ [ (module Shard_rw : S) ]

let name ((module L) : t) = L.name
