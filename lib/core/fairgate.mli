(** Starvation avoidance, Section 4.3 of the paper.

    The gate couples an {e impatient counter} with an auxiliary fair
    reader-writer lock. The common case touches neither: with the counter at
    zero an acquirer proceeds straight to the lock-free range acquisition.
    While the counter is non-zero, polite acquirers take the auxiliary lock
    for read around their acquisition attempt. A thread whose attempt keeps
    failing bumps the counter and takes the auxiliary lock for write —
    excluding all newly arriving acquirers until its own acquisition lands —
    then decrements the counter on releasing the write side.

    The races the paper notes are benign (a polite thread may read zero just
    as an impatient one bumps the counter): the gate affects only progress,
    never the range lock's correctness. *)

type t

type session

val create : ?patience:int -> unit -> t
(** [patience] is the number of acquisition failures (traversal restarts,
    failed CASes, validation restarts, pre-link conflict waits — each a
    window for later arrivals to bypass the acquirer) tolerated before
    escalating (default 64). *)

val start : t option -> session
(** Begin an acquisition. [None] yields a no-op session (fairness off). *)

val failures_exceeded : session -> failures:int -> bool
(** Should this acquisition escalate now? Always false once impatient. *)

val escalate : session -> unit
(** Switch to impatient mode: bump the counter, take the write side. *)

val finish : session -> unit
(** The acquisition succeeded: release whatever side is held and, if
    impatient, decrement the counter. *)
