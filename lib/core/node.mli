(** List nodes shared by both list-based range locks.

    A node is the paper's [LNode]: the acquired range, the reader flag (used
    only by the reader-writer variant), and an atomic [next] link. The link
    packs the paper's pointer-LSB mark into an immutable record; CAS relies
    on physical equality of the last link value read, which is exactly
    pointer CAS on the boxed record.

    Nodes are recycled through one global epoch-based pool pair per domain
    (Section 4.4): every thread has two pools total, regardless of how many
    range locks it touches — as in the paper.

    This module is {!Node_core.Make} applied to the pass-through runtime
    ({!Rlk_primitives.Traced_atomic.Real}); the model checker instantiates
    the same functor over its recording runtime, one fresh instance per
    explored run. *)

type 'a aref = 'a Atomic.t
(** The production runtime's atomic cells ({!Node_core.S} keeps this
    abstract so the checker can substitute recording cells). *)

type t = {
  mutable lo : int;
  mutable hi : int;
  mutable reader : bool;
  mutable span : int;
      (** open {!History} span carried from acquisition to release; [-1]
          when the hold is not being recorded *)
  next : link aref;
  mutable self_link : link;
      (** cached [{marked = true; succ = Some self}], the value the
          empty-list fast path CASes into the head — allocated once per
          node rather than once per acquisition *)
  tower : t option aref array;
      (** index tower cells (the skip-index core's hint levels); the shared
          empty array for list nodes *)
}

and link = { marked : bool; succ : t option }

val nil : link
(** Canonical unmarked end-of-list link (shared; CAS always uses the value
    it last read, so sharing is safe). *)

val link : marked:bool -> t option -> link

val succ_is : link -> t -> bool
(** Physical test: does this link point at that node? *)

val range_of : t -> Range.t

val epoch : Rlk_ebr.Epoch.t
(** The global traversal epoch for all list-based range locks. *)

val epoch_enter : unit -> unit
(** [Epoch.enter] on the global epoch (the form the functorized list cores
    consume). *)

val epoch_leave : unit -> unit

val epoch_pin : (unit -> 'a) -> 'a

val alloc : reader:bool -> Range.t -> t
(** Take a node from the calling domain's pool and initialize it. Must be
    called outside an epoch traversal. *)

val retire : t -> unit
(** Hand an unlinked node to the calling domain's reclaimed pool. *)

val pool_stats : unit -> Rlk_ebr.Pool.stats
(** Allocation/recycling counters (ablation benchmarks). *)
