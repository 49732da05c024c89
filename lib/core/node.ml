(* The production instance (see node_core.ml for the body and node.mli
   for semantics). *)
include Node_core.Make (Rlk_primitives.Traced_atomic.Real)

let pool_stats () =
  { Rlk_ebr.Pool.fresh_allocations = 0; recycled = 0; barriers = 0;
    trimmed = 0 }
