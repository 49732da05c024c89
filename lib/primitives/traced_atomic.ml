(** The atomic-operation seam between production code and the model
    checker (lib/modelcheck).

    The interleaving-critical cores (list locks, fairness gate, list
    nodes) are functorized over {!SIM}: a minimal "simulatable runtime"
    capturing exactly the operations whose ordering matters for
    correctness — atomic loads/stores/CAS/fetch-and-add
    ({!TRACED_ATOMIC}), domain identity, and blocking waits. Two
    implementations exist:

    - {!Real} — the pass-through production runtime: ['a A.t] {e is}
      ['a Atomic.t], domain identity is {!Domain_id}, waits are bounded
      exponential backoff. Most production modules are the functors
      applied to [Real] once at link time; the pass-through allocates
      nothing. The list and skip-list cores, whose walks make an atomic
      load per hop, are instead compiled from their source with [Sim]
      bound to [Real] (see lib/core/dune), so their loads are plain
      loads.
    - [Rlk_model.Sched.Sim] — the recording runtime: every atomic
      operation announces itself to a deterministic scheduler (an effect
      yield), which explores interleavings exhaustively with DPOR-style
      pruning; waits suspend the simulated domain instead of spinning.

    Keep {!SIM} small: every member is either a scheduling point or a
    source of per-domain identity the checker must virtualize. Anything
    else (metrics, chaos fault points, history recording) stays concrete
    inside the functor bodies — those facilities are already race-free or
    observation-only. *)

(** Atomic cells whose every access is a potential scheduling point. *)
module type TRACED_ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  (** Creation is not a scheduling point: the cell is unshared until the
      creating code publishes it through another atomic. *)

  val make_contended : 'a -> 'a t
  (** Like {!make} but padded onto its own cache line (hot lock words). *)

  val get : 'a t -> 'a

  val set : 'a t -> 'a -> unit

  val exchange : 'a t -> 'a -> 'a

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** Physical-equality CAS, exactly {!Stdlib.Atomic.compare_and_set}. *)

  val fetch_and_add : int t -> int -> int
end

(** The full simulatable-runtime signature the cores are functorized
    over. *)
module type SIM = sig
  module A : TRACED_ATOMIC

  val capacity : int
  (** Exclusive upper bound on {!domain_id} (slot-array sizing). *)

  val domain_id : unit -> int
  (** Stable small id of the calling (real or simulated) domain. *)

  val wait_until : (unit -> bool) -> unit
  (** Block until the predicate holds. Production: poll under bounded
      exponential backoff. Model: suspend the simulated domain; the
      scheduler re-evaluates the predicate after other domains write.
      The predicate may read {!A} cells and may carry benign side
      effects (e.g. a CAS retry); it must not recurse into
      [wait_until]. *)

  val park : (unit -> bool) -> bool
  (** Block until [ready ()] holds, relying on a cooperating waker
      instead of polling: the caller must have published itself (e.g. on
      a {!Waitq_core} slot) such that whoever makes [ready] true
      afterwards calls {!unpark} with this domain's id. Production: a
      bounded local spin on [ready] (the waiter's own flag — one cached
      line), then block on the domain's {!Parker}. Model: suspend the
      fiber, like {!wait_until}. Returns [true] when the wait outlasted
      the spin budget and actually blocked (parking statistics). *)

  val unpark : int -> unit
  (** Wake domain slot [i] out of {!park}, after making its [ready]
      condition true. Production: broadcast on that slot's {!Parker}.
      Model: no-op — the atomic write that made [ready] true already
      re-enables the suspended fiber. *)
end

(** Pass-through production runtime, no allocation on any path.

    Called directly, [Real.A.get] compiles to one load and
    [Real.A.compare_and_set] to a direct [caml_atomic_cas] call. Through
    a functor parameter, and without flambda, every operation is an
    indirect call instead: load the parameter's block, then [A], then
    the closure, then its code pointer, and call. That costs little per
    operation but adds up in a list walk, one or two per hop. The list
    and skip-list cores escape it by being generated from their source
    with [Sim] bound to this module (lib/core/dune, lib/index/dune); the
    other cores run a few atomic operations per acquisition and stay
    plain functor applications. *)
module Real : SIM with type 'a A.t = 'a Atomic.t = struct
  module A = struct
    type 'a t = 'a Atomic.t

    let make = Atomic.make

    let make_contended = Padded_counters.atomic

    let get = Atomic.get

    let set = Atomic.set

    let exchange = Atomic.exchange

    let compare_and_set = Atomic.compare_and_set

    let fetch_and_add = Atomic.fetch_and_add
  end

  let capacity = Domain_id.capacity

  let domain_id = Domain_id.get

  let wait_until pred =
    if not (pred ()) then begin
      let b = Backoff.create () in
      while not (pred ()) do
        Backoff.once b
      done
    end

  (* Spin budget before blocking: long enough to catch a holder releasing
     on another core within a few hundred ns, short enough that an
     oversubscribed waiter yields its CPU to the holder quickly. *)
  let park_spin_budget = 256

  let park ready =
    let rec spin n =
      ready ()
      || n > 0
         && begin
              Domain.cpu_relax ();
              spin (n - 1)
            end
    in
    if spin park_spin_budget then false
    else begin
      Parker.block (Parker.mine ()) ready;
      true
    end

  let unpark = Parker.wake
end
