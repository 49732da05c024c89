(* The production instance: List_rw_core applied to the pass-through
   runtime, the production Node and Fairgate (see
   list_rw_core.ml for the body, list_rw.mli for semantics). *)
include List_rw_core.Make (Rlk_primitives.Traced_atomic.Real) (Node) (Fairgate)
