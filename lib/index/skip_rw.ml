open Rlk_primitives

(* Production instance: the skip-index range lock over the real atomics.
   [Skip_rw_core_real] is a build output: skip_rw_core.ml compiled with
   [Sim] bound to [Traced_atomic.Real] and over the list core generated
   the same way (lib/index/dune, lib/core/dune), so tower descents and
   list walks load their cells directly. Tower heights are the classic
   p = 1/2 coin flip from a per-domain PRNG (same scheme as
   lib/skiplist), which keeps expected descent cost at O(log n) with ~2
   pointers per node. *)

let max_level = 14

let rng_key =
  Domain.DLS.new_key (fun () ->
      Prng.create ~seed:(0x5eed1 + (Domain_id.get () * 2654435761)))

let random_height () =
  let rng = Domain.DLS.get rng_key in
  let rec go h =
    if h < max_level && Prng.bool rng ~p:0.5 then go (h + 1) else h
  in
  go 1

include Skip_rw_core_real.Make (Traced_atomic.Real)
    (struct
      let max_level = max_level

      let height = random_height
    end)
    ()
