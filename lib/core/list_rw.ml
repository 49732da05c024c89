(* The production instance: the list core applied to the pass-through
   runtime, the production Node and Fairgate (see list_rw_core.ml for the
   body, list_rw.mli for semantics). [List_rw_core_real] is a build
   output, list_rw_core.ml compiled with [Sim] bound to
   [Traced_atomic.Real] (lib/core/dune), so a walk hop is plain loads
   instead of indirect calls through a functor argument. *)
include List_rw_core_real.Make (Rlk_primitives.Traced_atomic.Real) (Node) (Fairgate)
