(** Deterministic fault injection for the range-lock stack.

    Instrumented code registers named {e injection points}
    ([Fault.point "list_rw.insert_cas"]) and consults them on its hot
    paths. With no plan armed every query is a single load-and-branch on
    {!enabled} (plus an immediate return), so the uninstrumented
    benchmarks are unaffected; with a plan armed, each point draws from a
    PRNG seeded by [(plan seed, point name, domain slot)], making every
    injection decision a deterministic function of the seed — the torture
    harness prints the seed on failure and replays it with [--seed].

    Injection flavours:
    - {!hit} — stalls: [Domain.cpu_relax] storms and forced yields, to
      provoke adversarial interleavings around the marked-pointer and
      validation races;
    - {!cas_fails} — spurious CAS failure: the caller treats its CAS as
      failed (without attempting it) and takes the retry path;
    - {!delay} — a delayed hold (e.g. a release that dawdles before
      marking its node), stretching waiter queues;
    - {!skip} — {e deliberately unsound}: skip a correctness-critical
      step (fires only for points named in the plan's [unsound] list).
      Used to verify the torture harness actually catches bugs; see
      [doc/robustness.md]. *)

type point

val point : string -> point
(** Register (or look up — idempotent per name) an injection point.
    Call at module-initialization time, not on the hot path. *)

val name : point -> string

val enabled : bool Atomic.t
(** Armed flag; treat as read-only. Call sites guard with
    [if Atomic.get Fault.enabled then Fault.hit p] so the disarmed cost
    is one branch with no function call. The query functions re-check
    internally, so the guard is an optimisation, not a correctness
    requirement. *)

type plan = {
  seed : int;          (** master seed; every decision derives from it *)
  p : float;           (** injection probability per [hit]/[delay]/[skip] *)
  relax_spins : int;   (** [cpu_relax] storm length *)
  yield_every : int;   (** every Nth stall is a forced deschedule; 0 = never *)
  delay_ns : int;      (** delayed-hold length for [delay] points *)
  cas_fail_p : float;  (** spurious-CAS-failure probability *)
  unsound : string list; (** points allowed to [skip] correctness steps *)
  only : string list option; (** restrict to points with these prefixes *)
}

val plan :
  ?p:float ->
  ?relax_spins:int ->
  ?yield_every:int ->
  ?delay_ns:int ->
  ?cas_fail_p:float ->
  ?unsound:string list ->
  ?only:string list ->
  seed:int ->
  unit ->
  plan
(** Defaults: p = 0.05, relax_spins = 128, yield_every = 8,
    delay_ns = 50_000, cas_fail_p = 0.05, no unsound points, all points. *)

val arm : plan -> unit
(** Install the plan and enable injection. Re-arming re-seeds every
    point's per-slot PRNG (same plan twice = same schedule). Arm while
    the instrumented locks are quiesced. *)

val disarm : unit -> unit

val armed : unit -> plan option

val hit : point -> unit
(** Maybe inject a stall (relax storm or forced yield). *)

val cas_fails : point -> bool
(** [true] = the caller should treat its CAS as spuriously failed and
    retry. Never [true] while disarmed. *)

val delay : point -> unit
(** Maybe sleep for [delay_ns] — a delayed-release / delayed-advance hold. *)

val skip : point -> bool
(** [true] only when armed {e and} the point is listed in the plan's
    [unsound] set: the caller skips a correctness-critical step. *)

val fired : point -> int
(** Injections fired at this point since registration. *)

val counters : unit -> (string * int) list
(** All registered points with their fired counts, sorted by name. *)

val total_fired : unit -> int

val registered : unit -> string list
