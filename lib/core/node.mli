(** List nodes shared by both list-based range locks.

    A node is the paper's [LNode]: the acquired range, the reader flag (used
    only by the reader-writer variant), and an atomic [next] link. The link
    packs the paper's pointer-LSB mark into a record; CAS relies on
    physical equality of the last link value read, which is exactly
    pointer CAS on the boxed record. Links are canonical per (successor,
    mark) — {!nil}, its marked twin and each node's {!t.live_link} /
    {!t.self_link} are the only link values ever stored — so, as with the
    paper's pointer word, no CAS allocates, and a CAS may succeed on a
    cell that changed and changed back (ABA). The ABA is harmless because
    a node is never reused: its range is immutable, and the GC frees it
    only once no walker can reach it.

    A link's successor is a node, never an option: the end of the list is
    the one shared {!nil_node}, so a hop is cell, link, node — the
    paper's one pointer word plus the record that carries its mark bit.

    Every acquisition allocates a fresh node and a release drops it
    (DESIGN.md, "no node recycling"): the paper's epoch-based reclamation
    and per-thread node pools (Section 4.4) exist to make manual freeing
    safe, which a tracing GC already guarantees.

    This module is {!Node_core.Make} applied to the pass-through runtime
    ({!Rlk_primitives.Traced_atomic.Real}); the model checker instantiates
    the same functor over its recording runtime. *)

type 'a aref = 'a Atomic.t
(** The production runtime's atomic cells ({!Node_core.S} keeps this
    abstract so the checker can substitute recording cells). *)

type t = {
  lo : int;
  hi : int;
  reader : bool;
  mutable span : int;
      (** open {!History} span carried from acquisition to release; [-1]
          when the hold is not being recorded *)
  next : link aref;
  mutable live_link : link;
      (** [{marked = false; succ = self}], set once by {!alloc}: the
          one "unmarked pointer to this node" value, which inserts CAS into
          the predecessor and helpers CAS in when unlinking a node before
          this one *)
  mutable self_link : link;
      (** [{marked = true; succ = self}]: the one "marked pointer to this
          node" value — what the empty-list fast path CASes into the
          head, and what marking a predecessor whose successor is this
          node installs *)
  tower : link aref array;
      (** index tower cells (the skip-index core's hint levels), each
          holding a link to the node's successor at that level (marked
          once the node leaves the level) or {!nil} while unlinked; the
          shared empty array for list nodes *)
}

and link = { marked : bool; succ : t; mutable twin : link }
(** [succ] is the successor node, {!nil_node} at the end of the list.
    [twin] is the canonical link to the same successor with the other
    mark, set once by {!alloc} before the link is published. *)

val nil_node : t
(** The end-of-list sentinel, shared by every list: [lo = hi = max_int]
    (so a walk bounded by [lo] stops on it), never marked, no tower. Its
    [live_link] is {!nil} and its [self_link] is {!nil}'s marked twin.
    Walks stop at it without loading its [next] cell, which holds a
    placeholder that is never read or written. *)

val nil : link
(** Canonical unmarked end-of-list link, [{marked = false; succ =
    nil_node}] (shared; CAS always uses the value it last read, so
    sharing is safe). *)

val unmarked : link -> link
(** The canonical unmarked link to the same successor as a link that was
    read: [n.live_link] for successor [n] ({!nil} for {!nil_node}). Reads
    only the link; allocates nothing. *)

val marked : link -> link
(** The canonical marked twin of a link that was read: [n.self_link] for
    successor [n] (the shared marked end-of-list link for {!nil_node}).
    Reads only the link; allocates nothing. *)

val range_of : t -> Range.t

val alloc : reader:bool -> Range.t -> t
(** A fresh node for one acquisition, with its two canonical links: 19
    words in all. *)

val pool_stats : unit -> Rlk_ebr.Pool.stats
(** All zeros: there is no node pool. Kept only because the repository
    benchmark still reads it; it goes with the benchmark's [pool.*]
    rows. *)
