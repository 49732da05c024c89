(** Skip-index reader-writer range lock.

    The {!Rlk.List_rw} protocol — the same core code, with the paper's
    default reader preference: overlapping writers exclude everything,
    overlapping readers share, reader validation waits out writers,
    writer validation retreats on any overlap — instantiated with a
    tower locator. The live ranges are additionally indexed by a
    multi-level tower (geometric heights, p = 1/4), and every walk
    starts at the tower-descended predecessor of the conflict window
    (bounded by the widest range ever granted) instead of the head.
    Locating the insertion point and conflict window is therefore
    O(log n) in the number of concurrently held ranges instead of a
    head-to-position list walk. The bottom level remains the authoritative structure;
    towers are hints, each level a lock-free list whose nodes are
    linked and unlinked with one CAS per level; no grant or release
    takes a lock. Conflict waits park on the shared waiter queue; released
    nodes are left to the GC.

    Unlike {!Rlk.List_rw} there is no empty-list fast path, no fairness
    gate and no writer preference. Blocked acquisitions park (see
    {!Rlk_primitives.Parker}); pass [~park:false] for the pure-spin
    ablation. *)

type t

type handle

val name : string
(** ["skip-rw"] — the label used in benchmarks and history records. *)

val create : ?stats:Rlk_primitives.Lockstat.t -> ?park:bool -> unit -> t

val read_acquire : t -> Rlk.Range.t -> handle

val write_acquire : t -> Rlk.Range.t -> handle

val try_read_acquire : t -> Rlk.Range.t -> handle option

val try_write_acquire : t -> Rlk.Range.t -> handle option

val read_acquire_opt : t -> deadline_ns:int -> Rlk.Range.t -> handle option

val write_acquire_opt : t -> deadline_ns:int -> Rlk.Range.t -> handle option

val release : t -> handle -> unit

val with_read : t -> Rlk.Range.t -> (unit -> 'a) -> 'a

val with_write : t -> Rlk.Range.t -> (unit -> 'a) -> 'a

val range_of_handle : handle -> Rlk.Range.t

val is_reader : handle -> bool

val metrics : t -> Rlk.Metrics.snapshot

val reset_metrics : t -> unit

val holders : t -> (Rlk.Range.t * [ `Reader | `Writer ]) list
(** Snapshot of the currently granted ranges. *)

(** {1 Test probes} *)

val generated : bool
(** [true] when the skip core runs over the list core generated against
    the real atomics (lib/index/dune), as {!Rlk.List_rw.generated}. *)

val check_structure : t -> (int, string) result
(** Quiescent-only structural audit: bottom list sorted, towers point at
    unmarked bottom-reachable nodes, every holder linked at exactly as
    many levels as its tower has cells. Returns the live range count. *)
