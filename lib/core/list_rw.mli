(** Reader-writer list-based range lock — Listings 2 and 3 of the paper.

    Extends the exclusive variant: overlapping {e reader} ranges coexist in
    the list (ordered by start), while any overlap involving a writer
    serializes. Because an overlapping reader and writer may insert after
    different predecessors, insertion alone cannot detect all conflicts;
    each successful insertion is followed by a validation scan:

    - a {e reader} scans forward from its own node until ranges start past
      its end, waiting out any overlapping writer it meets ([r_validate]);
    - a {e writer} rescans from the head until it finds itself; meeting an
      overlapping reader first, it deletes its own node and retries the
      whole acquisition ([w_validate]).

    Readers are therefore preferred by default, exactly as in the paper;
    Section 4.2 notes the scheme can be reversed, and [~prefer] does so:
    under {!Prefer_writers} an inserted writer waits out conflicting
    readers while readers self-abort and retry. The fast path and fairness
    options behave as in {!List_mutex}; starvation of the non-preferred
    side is the very case the fairness gate bounds. *)

type t

type handle

type preference = Prefer_readers | Prefer_writers

val create :
  ?stats:Rlk_primitives.Lockstat.t ->
  ?fast_path:bool ->
  ?fairness:int ->
  ?prefer:preference ->
  ?park:bool ->
  unit ->
  t
(** [~park:false] selects pure-spin waiting (no parking past the spin
    budget); see {!List_mutex.create}. *)

val read_acquire : t -> Range.t -> handle
(** Acquire in shared mode; may overlap other readers. *)

val write_acquire : t -> Range.t -> handle
(** Acquire in exclusive mode. *)

val acquire : t -> mode:Rlk_primitives.Lockstat.mode -> Range.t -> handle

val try_read_acquire : t -> Range.t -> handle option
(** One bounded attempt; never waits on a conflicting holder. May briefly
    insert and remove a node (benign to concurrent writers, which simply
    revalidate). *)

val try_write_acquire : t -> Range.t -> handle option

val acquire_opt :
  t -> mode:Rlk_primitives.Lockstat.mode -> deadline_ns:int -> Range.t ->
  handle option
(** Deadline-bounded acquisition ([deadline_ns] is absolute on the
    {!Rlk_primitives.Clock.now_ns} timeline; [max_int] = forever). On
    timeout the partially inserted node is unwound — marked deleted if the
    insertion CAS had succeeded (mark-and-retreat, the release mechanism),
    dropped otherwise — and [None] is returned. *)

val read_acquire_opt : t -> deadline_ns:int -> Range.t -> handle option

val write_acquire_opt : t -> deadline_ns:int -> Range.t -> handle option

val release : t -> handle -> unit

val with_read : t -> Range.t -> (unit -> 'a) -> 'a

val with_write : t -> Range.t -> (unit -> 'a) -> 'a

val range_of_handle : handle -> Range.t

val is_reader : handle -> bool

val metrics : t -> Metrics.snapshot

val reset_metrics : t -> unit

val drain_conflicts :
  t -> reader:bool -> blocking:bool -> deadline_ns:int -> Range.t -> bool
(** Wait (or, non-blocking, test) until no live node conflicts with [r] in
    the given mode, {e without} inserting a node. Building block for the
    sharded frontend's wide path ({!Rlk_shard}): only sound when the
    caller has first made itself visible to future acquirers of this list
    (otherwise a later insertion can race past a completed drain). Returns
    [false] if non-blocking or past [deadline_ns] while a conflicting
    holder is still live. *)

val holders : t -> (Range.t * [ `Reader | `Writer ]) list
(** Unmarked list contents in order — tests/diagnostics on a quiesced
    lock. *)

val name : string
(** ["list-rw"]. *)
