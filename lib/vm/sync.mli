(** Synchronized VM operations: the kernel variants compared in the paper's
    Figures 5-7.

    - [Stock]: a single reader-writer semaphore ([mmap_sem]).
    - [Tree_full] / [List_full]: [mmap_sem] replaced by a range lock
      (tree-based / list-based) always acquired for the full range, as in
      Bueso's patch.
    - [Tree_refined] / [List_refined]: full variants plus both refinements
      of Section 5 — page faults lock only their page (read mode) and
      mprotect runs the speculative protocol of Listing 4.
    - [List_pf] / [List_mprotect]: the Figure 6 breakdown — only one of the
      two refinements enabled.

    Locking rules (Section 5): structural [mm_rb] changes happen only under
    the full-range write lock, whose release bumps the [mm] sequence
    number; VMA metadata changes happen under a write lock covering the VMA
    plus a page on each side; page faults read VMA metadata under a read
    lock covering at least the faulting page. *)

type variant =
  | Stock
  | Tree_full
  | List_full
  | Tree_refined
  | List_refined
  | List_pf
  | List_mprotect
  | List_refined_maps
      (** [list-refined] plus the Section 5.2 future-work speculations:
          [mmap]'s free-region scan runs under a read acquisition, and
          {!brk} uses the same speculative protocol as mprotect. *)
  | Shard_refined
      (** [list-refined] over the sharded frontend ({!Rlk_shard.Shard_rw},
          adaptive-rw pinned to its sharded regime): refined page faults
          and mprotects hit a single shard; full-range structural
          operations go through its global list. *)

val variant_name : variant -> string

val variant_of_name : string -> variant option

val all_variants : variant list

val figure5_variants : variant list
(** [stock; tree-full; list-full; tree-refined; list-refined]. *)

val figure6_variants : variant list
(** [list-full; list-pf; list-mprotect; list-refined]. *)

type t

val create :
  ?stats:Rlk_primitives.Lockstat.t ->
  ?spin_stats:Rlk_primitives.Lockstat.t ->
  variant ->
  t
(** [stats] instruments the top-level lock (semaphore or range lock) for
    Figure 7; [spin_stats] instruments the tree variants' internal spin
    lock for Figure 8 (ignored by other variants). *)

val variant : t -> variant

val mm : t -> Mm.t
(** The underlying address space — only for tests and diagnostics on a
    quiesced instance. *)

val mmap :
  t -> ?addr:int -> len:int -> prot:Prot.t -> unit -> (int, Mm_ops.error) result

val munmap : t -> addr:int -> len:int -> (unit, Mm_ops.error) result

val mprotect :
  t -> addr:int -> len:int -> prot:Prot.t -> (unit, Mm_ops.error) result

val heap_base : int
(** Root of the program-break region used by {!brk}. *)

val current_break : t -> int

val brk : t -> new_break:int -> (unit, Mm_ops.error) result
(** Move the program break. Under speculating variants, grow/shrink runs
    under a write lock covering only the heap span plus a page; heap
    creation/destruction falls back to the full range. *)

val page_fault : t -> addr:int -> access:Prot.access -> (unit, [ `Segv ]) result

val read_range : t -> Rlk.Range.t -> (unit -> 'a) -> 'a
(** Run a read-side section covering the given address range — e.g. a
    migration thread copying a region while excluding structural changes
    and protection flips on it. Refining variants acquire exactly the
    range; the others acquire whatever their read side is (the full range
    or the semaphore). *)

type op_stats = {
  faults : int;
  mmaps : int;
  munmaps : int;
  mprotects : int;
  brks : int;
  spec_success : int;
      (** mprotect/brk calls completed on the speculative path *)
  spec_retries : int;  (** sequence-number / boundary validation failures *)
  structural_fallbacks : int;
      (** mprotect/brk calls that fell back to the full lock *)
  map_scan_hits : int;
      (** speculative mmaps whose pre-scanned address was still valid *)
  map_scan_misses : int; (** speculative mmaps that had to rescan *)
}

val op_stats : t -> op_stats

val reset_op_stats : t -> unit
