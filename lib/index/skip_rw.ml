open Rlk_primitives

(* Production instance: the skip-index range lock over the real atomics.
   [Skip_rw_core_real] is a build output: skip_rw_core.ml compiled with
   [Sim] bound to [Traced_atomic.Real] and over the list core generated
   the same way (lib/index/dune, lib/core/dune), so tower descents and
   list walks load their cells directly. Tower heights are geometric with
   p = 1/4 from a per-domain PRNG, drawn when a node is allocated, and a
   node's tower has one cell per level above the bottom. Pugh's skip-list
   paper recommends p = 1/4: it keeps the expected descent cost at
   O(log n), about that of p = 1/2, with ~1.33 pointers per node instead
   of 2 (1/3 of a tower cell on average), and only a quarter of the
   grants and releases link or unlink tower levels. *)

let max_level = 14

let rng_key =
  Domain.DLS.new_key (fun () ->
      Prng.create ~seed:(0x5eed1 + (Domain_id.get () * 2654435761)))

let rec draw_height rng h =
  if h < max_level && Prng.bool rng ~p:0.25 then draw_height rng (h + 1)
  else h

let random_height () = draw_height (Domain.DLS.get rng_key) 1

include Skip_rw_core_real.Make (Traced_atomic.Real)
    (struct
      let max_level = max_level

      let height = random_height
    end)
    ()
