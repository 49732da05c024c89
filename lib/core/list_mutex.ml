(* The production instance: the writers-only list core applied to the
   pass-through runtime, the production Node and Fairgate (see
   list_rw_core.ml for the body, list_mutex.mli for semantics). Like
   {!List_rw}, it comes from [List_rw_core_real], the core generated
   against the real atomics (lib/core/dune). *)
include List_rw_core_real.Make_exclusive (Rlk_primitives.Traced_atomic.Real) (Node) (Fairgate)
