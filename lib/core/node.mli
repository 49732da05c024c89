(** List nodes shared by both list-based range locks.

    A node is the paper's [LNode]: the acquired range, the reader flag (used
    only by the reader-writer variant), and an atomic [next] link. The link
    packs the paper's pointer-LSB mark into an immutable record; CAS relies
    on physical equality of the last link value read, which is exactly
    pointer CAS on the boxed record. Links are canonical per (successor,
    mark) — {!nil}, its marked twin and each node's {!t.live_link} /
    {!t.self_link} are the only link values ever stored — so, as with the
    paper's pointer word, no CAS allocates, and a CAS may succeed on a
    cell that changed and changed back (ABA). Epoch-based reclamation
    excludes the harmful ABA: a node keeps its incarnation while any
    walker that may hold one of its links is pinned.

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
  mutable live_link : link;
      (** [{marked = false; succ = Some self}], built once per node: the
          one "unmarked pointer to this node" value, which inserts CAS into
          the predecessor and helpers CAS in when unlinking a node before
          this one *)
  mutable self_link : link;
      (** [{marked = true; succ = Some self}], sharing [live_link]'s
          [Some] box: the one "marked pointer to this node" value — what
          the empty-list fast path CASes into the head, and what marking
          a predecessor whose successor is this node installs *)
  tower : t option aref array;
      (** index tower cells (the skip-index core's hint levels); the shared
          empty array for list nodes *)
}

and link = { marked : bool; succ : t option; twin : link }
(** [twin] is the canonical link to the same successor with the other
    mark. *)

val nil : link
(** Canonical unmarked end-of-list link (shared; CAS always uses the value
    it last read, so sharing is safe). *)

val unmarked : link -> link
(** The canonical unmarked link to the same successor as a link that was
    read: [n.live_link] for [Some n], {!nil} for [None]. Reads only the
    link; allocates nothing. *)

val marked : link -> link
(** The canonical marked twin of a link that was read: [n.self_link] for
    [Some n], one shared marked end-of-list link for [None]. Reads only
    the link; allocates nothing. *)

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
