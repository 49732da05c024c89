(* Production instance: the adaptive core over the pass-through runtime
   and [Rlk.List_rw] as the backend (see adaptive_rw_core.ml for the
   protocol, doc/perf.md "Adaptive regimes" for the design). *)

module Backend = struct
  include Rlk.List_rw

  let create ~fast_path () = Rlk.List_rw.create ~fast_path ()
end

include
  Adaptive_rw_core.Make (Rlk_primitives.Traced_atomic.Real) (Backend) ()

type regime = Adaptive_rw_core.regime = Sharded | List

type switch_event = Adaptive_rw_core.switch_event = {
  at_ns : int;
  epoch : int;
  to_list : bool;
  wide : int;
  narrow : int;
}

let trace_arm = Adaptive_rw_core.trace_arm

let trace_disarm = Adaptive_rw_core.trace_disarm

let trace_drain = Adaptive_rw_core.trace_drain

(* Registry entry ([Locks.arrbench_locks] and friends). The geometry
   defaults to the ArrBench one; the sampling knobs are exposed so the
   differential tests can force frequent regime flips. *)
let impl ?shards ?space ?narrow_max ?rbias ?rslot_count ?sample_every
    ?window ?hi_pct ?lo_pct () : Rlk.Intf.rw_impl =
  (module struct
    type nonrec t = t

    type nonrec handle = handle

    let name = name

    let create ?stats () =
      create ?stats ?shards ?space ?narrow_max ?rbias ?rslot_count
        ?sample_every ?window ?hi_pct ?lo_pct ()

    let read_acquire = read_acquire

    let write_acquire = write_acquire

    let try_read_acquire = try_read_acquire

    let try_write_acquire = try_write_acquire

    let read_acquire_opt = read_acquire_opt

    let write_acquire_opt = write_acquire_opt

    let release = release
  end)
