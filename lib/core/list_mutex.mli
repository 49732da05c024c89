(** Exclusive list-based range lock — Listing 1 of the paper
    ([MutexRangeAcquire] / [MutexRangeRelease]).

    This is the writers-only instance of the reader-writer list body
    ({!List_rw}, [List_rw_core.Make_exclusive]): every acquisition is a
    write, and since a writer validates only against readers, the
    validation scan is skipped. Its chaos points are named [list_ex.*].

    Acquired ranges live in a linked list sorted by range start; inserting a
    node {e is} acquiring the range, so overlapping acquisitions compete on
    a single CAS. Release marks the node logically deleted; marked nodes are
    unlinked by later traversals and left to the GC (no node recycling,
    unlike the paper's Section 4.4). No internal lock is taken in the
    common case.

    Options reproduce the paper's refinements:
    - [fast_path] (Section 4.5): when the list is empty, acquisition is a
      single CAS installing a {e marked} head pointer, and release eagerly
      CASes the head back to empty;
    - [fairness] (Section 4.3): an impatient counter plus auxiliary
      reader-writer lock bound the number of failed attempts. *)

type t

type handle
(** An acquired range (the paper's [RangeLock] object). *)

val create :
  ?stats:Rlk_primitives.Lockstat.t ->
  ?fast_path:bool ->
  ?fairness:int ->
  ?park:bool ->
  unit ->
  t
(** [create ()] — plain lock as evaluated in the paper's Section 7
    (no fast path, no fairness). [~fairness:patience] enables the
    starvation-avoidance gate with the given failure budget.
    [~park:false] selects pure-spin waiting: blocked acquisitions poll
    the conflicting node instead of parking on the per-domain
    {!Rlk_primitives.Parker} after the spin budget (see doc/perf.md,
    "Waiting strategies"). *)

val acquire : t -> Range.t -> handle
(** Block until the range can be held exclusively; linearizes at the
    insertion CAS. *)

val try_acquire : t -> Range.t -> handle option
(** One bounded attempt: fails (returning [None]) instead of waiting on an
    overlapping holder. *)

val acquire_opt : t -> deadline_ns:int -> Range.t -> handle option
(** Deadline-bounded acquisition: behaves like {!acquire}, but waits on
    overlapping holders only until the absolute deadline (nanoseconds on
    the {!Rlk_primitives.Clock.now_ns} timeline; [max_int] = forever).
    Returns [None] on timeout, with the partially inserted node correctly
    unwound. Fairness escalation is not used on this path — the impatient
    mode's auxiliary lock cannot honour a deadline. *)

val release : t -> handle -> unit
(** Release an acquired range. With a native fetch-and-add this is
    wait-free in the paper; here it is a lock-free CAS loop (see
    DESIGN.md). *)

val with_range : t -> Range.t -> (unit -> 'a) -> 'a
(** Acquire, run, release — exception-safe. *)

val range_of_handle : handle -> Range.t

val metrics : t -> Metrics.snapshot

val reset_metrics : t -> unit

val holders : t -> Range.t list
(** Snapshot of currently held (unmarked) ranges in list order. Intended
    for tests and diagnostics on a quiesced lock; racy otherwise. *)

val name : string
(** ["list-ex"] — the label used in the paper's plots. *)

val generated : bool
(** As {!List_rw.generated}. *)
