module A = Rlk_adaptive.Adaptive_rw

(* Sharded reader-writer range lock: the adaptive frontend pinned to its
   sharded regime (see adaptive_rw_core.ml for the protocol, doc/perf.md
   "Sharded frontend" for the design and its measurements). Narrow
   acquisitions lock their covered shard lists in ascending order, wide
   ones go through the global list and drain the covered shards; the
   narrow/wide handshake is adaptive-rw's, model-checked by its DPOR
   scenarios. The configuration turns on exactly what this lock always
   had:

   - [~sample_every:0]: no width sampling, so the regime never leaves
     [Sharded];
   - [~fast_path:true]: the backends' empty-list fast path. Measured
     against [~fast_path:false] on this lock's own traffic (doc/perf.md,
     "Measured results"): without it the disjoint ArrBench cells read
     4-13% lower and range-shard 5-7% lower;
   - [~rbias:false]: no biased reader slots. *)

type t = A.t

type handle = A.handle

let name = "shard-rw"

let create ?stats ?shards ?space () =
  A.create ?stats ?shards ?space ~sample_every:0 ~fast_path:true ~rbias:false
    ()

let read_acquire = A.read_acquire

let write_acquire = A.write_acquire

let try_read_acquire = A.try_read_acquire

let try_write_acquire = A.try_write_acquire

let read_acquire_opt = A.read_acquire_opt

let write_acquire_opt = A.write_acquire_opt

let release = A.release

type snapshot = {
  acquisitions : int;
  single_shard : int;
  multi_shard : int;
  wide_path : int;
  slow_path : int;
  timeouts : int;
  switches : int;
  regime : A.regime;
  shards : int;
}

(* A narrow op that loses the handshake counts once as diverted and once
   more as a grant through the global list; [wide_path] keeps only the
   grants that went there directly. *)
let snapshot t =
  let s = A.snapshot t in
  { acquisitions = s.s_narrow + s.s_multi + s.s_g;
    single_shard = s.s_narrow;
    multi_shard = s.s_multi;
    wide_path = s.s_g - s.s_diverted;
    slow_path = s.s_diverted;
    timeouts = s.s_timeouts;
    switches = s.s_switches;
    regime = s.s_regime;
    shards = Rlk_adaptive.Router.shards (A.router t) }

(* Nine values in one [sprintf]: this is the program's only 9-argument
   application, and with fewer the linker drops [caml_apply9] from the
   startup code, which moves repobench's think loop across a cache line
   (ROADMAP, benchmark item). *)
let to_json s =
  Printf.sprintf
    "{\"acquisitions\":%d,\"single_shard\":%d,\"multi_shard\":%d,\
     \"wide_path\":%d,\"slow_path\":%d,\"timeouts\":%d,\"switches\":%d,\
     \"regime\":%S,\"shards\":%d}"
    s.acquisitions s.single_shard s.multi_shard s.wide_path s.slow_path
    s.timeouts s.switches
    (match s.regime with A.Sharded -> "sharded" | A.List -> "list")
    s.shards

let impl ~shards ~space () : Rlk.Intf.rw_impl =
  (module struct
    type nonrec t = t

    type nonrec handle = handle

    let name = name

    let create ?stats () = create ?stats ~shards ~space ()

    let read_acquire = read_acquire

    let write_acquire = write_acquire

    let try_read_acquire = try_read_acquire

    let try_write_acquire = try_write_acquire

    let read_acquire_opt = read_acquire_opt

    let write_acquire_opt = write_acquire_opt

    let release = release
  end : Rlk.Intf.RW)
