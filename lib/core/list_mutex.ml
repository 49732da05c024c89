(* The production instance: the writers-only list core applied to the
   pass-through runtime, the global Node pool, and the production Fairgate
   (see list_rw_core.ml for the body, list_mutex.mli for semantics). *)
include List_rw_core.Make_exclusive (Rlk_primitives.Traced_atomic.Real) (Node) (Fairgate)
