open Rlk_primitives
module Fault = Rlk_chaos.Fault
module Range = Rlk.Range

(* Adaptive frontend over the list-based range-lock cores (see
   doc/perf.md, "Adaptive regimes").

   BENCH_pr5 made the trade-off concrete: the sharded frontend wins when
   ranges are narrow (disjoint slices, 1.75x list-rw) and loses when they
   are wide (full-range 0.84x, random 0.65x) because every wide
   acquisition pays the multi-shard protocol. This frontend keeps both
   operating points inside one lock and picks between them online, the
   way Dragon's dual-mode lock switches representations under observed
   contention:

   - sharded regime: acquisitions whose shard cover is narrow go to
     per-shard lists; wide ones go to a global list [g].
   - list regime: every acquisition goes to [g], so the structure
     degenerates to a plain [List_rw] and wide-heavy workloads stop
     paying the per-shard machinery.

   The regime word is a *routing hint*, not a lock: correctness never
   depends on which regime an acquisition observed, so switching is one
   CAS (an epoch flip) with no drain or stop-the-world handoff. Safety
   across regimes is carried by a per-operation handshake, the same
   store-buffer pattern the sharded frontend uses for its wide path, all
   seq-cst:

     narrow op:  narrow_live++
                 insert into covered shards (ascending)      (publish)
                 check [g] for conflicts (non-inserting, non-blocking)
                   conflict -> retreat (release shards, narrow_live--)
                               and re-enter through [g]
     g op:       insert into [g]                             (publish)
                 if narrow_live > 0, for every covered shard:
                   drain pre-existing conflicting narrow holders

   The shard-list insertion is the narrow op's publication: its node is
   linked by a seq-cst CAS, and the g op's drain walks the same list. If
   the narrow op's [g]-check misses a conflicting g holder, its linking
   CAS precedes the g op's [narrow_live] load and every load of the
   drain's walk in the seq-cst order, so the drain finds the narrow node
   and waits. If the g holder was already granted, the narrow op's
   [g]-check sees its node and retreats. Either way one side observes the
   other; the chaos point [adaptive.switch.skip] disables the g-check to
   prove (under the model checker) that the handshake is what carries
   exclusion across a regime switch. [narrow_live] only lets a g op skip
   the drain when no narrow op is in flight anywhere; a drain over an
   idle shard costs the backend's one empty-list load.

   Wait-for order is acyclic: g < shard 0 < shard 1 < ... A narrow op
   never blocks on [g] (its check is non-blocking; on conflict it
   retreats first, then re-enters as a g op), a g op drains shards in
   ascending order, and multi-shard narrow acquisition is ascending.

   Read acquisitions get a BRAVO-style biased fast path (Dice & Kogan's
   reader-bias technique, from the same authors as the source paper): a
   reader publishes its range in a per-domain slot and is granted with
   no list insertion at all when no write operation is in flight
   anywhere ([w_live] = 0). The writer side carries soundness: every
   write, before it inserts anywhere, raises [w_live] and then sweeps
   the published slots, waiting out (blocking), failing against (try)
   or polling until its deadline (timed) against any overlapping
   published reader. Seq-cst gives
   the Dekker guarantee: the reader's slot publication precedes its
   [w_live] load and the writer's increment precedes its sweep, so
   whichever loads second observes the other side — a fast reader is
   either visible to every granted writer's sweep or saw the writer and
   fell back to the list path. Fast readers never block, so adding them
   to the wait-for order cannot create a cycle. The chaos point
   [adaptive.rbias.skip] disables exactly the writer's sweep (the
   model-checked mutation for this handshake).

   Blocking acquisitions on one list (a single shard, or [g]) call the
   backend's blocking acquire, which waits on the node it conflicts
   with, as in the paper's list lock: only the release of an overlapping
   range can wake it, and that release always does.

   Try and timed acquisitions run the blocking one's body and take the
   same route: a timed narrow op is a shard grant, not a g grant. They
   unwind all-or-nothing. A narrow op refused (or timed out) on a later
   shard releases the earlier shards' nodes before it drops
   [narrow_live]; a g op whose drain fails releases its g node; a writer
   that fails anywhere drops [w_live]. *)

(* Chaos injection points. [adaptive.switch.skip] and
   [adaptive.rbias.skip] are deliberately unsound ([switch.skip] drops
   the narrow path's g-conflict check, [rbias.skip] drops the writer's
   reader-slot sweep — each breaks exclusion across its handshake
   detectably); [adaptive.gcheck] is a stall point. *)
let fp_switch_skip = Fault.point "adaptive.switch.skip"
let fp_rbias_skip = Fault.point "adaptive.rbias.skip"
let fp_gcheck = Fault.point "adaptive.gcheck"

(* ---- regime-switch trace (the --regime-trace bench mode) ----

   Process-global and armable like History: bench code cannot reach into
   the lock instances the harness creates, so switch events append to a
   global log while armed. Disarmed (the default, and always under the
   model checker) the only cost is one atomic load per switch — and no
   wall-clock read, keeping explored paths deterministic. *)

type switch_event = {
  at_ns : int;  (** wall clock at the flip (0 when the clock is off) *)
  epoch : int;  (** switch ordinal within the lock instance *)
  to_list : bool;  (** true: sharded->list; false: list->sharded *)
  wide : int;  (** wide samples in the window that triggered the flip *)
  narrow : int;  (** narrow samples in that window *)
}

let trace_enabled = Atomic.make false

let trace_log : switch_event list Atomic.t = Atomic.make []

let trace_arm () =
  Atomic.set trace_log [];
  Atomic.set trace_enabled true

let trace_disarm () = Atomic.set trace_enabled false

(* Events in chronological order; does not disarm. *)
let trace_drain () =
  let rec take () =
    let l = Atomic.get trace_log in
    if Atomic.compare_and_set trace_log l [] then List.rev l else take ()
  in
  take ()

let rec trace_push ev =
  let l = Atomic.get trace_log in
  if not (Atomic.compare_and_set trace_log l (ev :: l)) then trace_push ev

(* Minimal view of a list-lock core the frontend composes over; both
   [Rlk.List_rw] and the model checker's core instance satisfy it via a
   two-line adapter (optional-argument creates don't match signatures by
   subset, hence the concrete [create]). *)
module type BACKEND = sig
  type t

  type handle

  val create : fast_path:bool -> unit -> t

  val acquire : t -> mode:Lockstat.mode -> Range.t -> handle

  val acquire_opt :
    t -> mode:Lockstat.mode -> deadline_ns:int -> Range.t -> handle option

  val release : t -> handle -> unit

  val try_read_acquire : t -> Range.t -> handle option

  val try_write_acquire : t -> Range.t -> handle option

  val drain_conflicts :
    t -> reader:bool -> blocking:bool -> deadline_ns:int -> Range.t -> bool

  val holders : t -> (Range.t * [ `Reader | `Writer ]) list
end

type regime = Sharded | List

let rw_mode reader = if reader then Lockstat.Read else Lockstat.Write

module Make (Sim : Traced_atomic.SIM) (B : BACKEND) () = struct
  module W = Waitq_core.Make (Sim)

  (* Biased-reader slot. [rseq]'s low two bits are the slot state — 0
     free, 1 claimed (fields being written), 2 published — and every
     claim advances the upper bits (a generation), so a sweeping
     writer's re-read detects any transition. Slots are a fixed pool
     indexed by [domain_id mod pool-size], so two live domains can alias
     one slot: the claim is therefore a CAS (free -> claimed, the
     {!Waitq_core.slot.active} protocol) and the loser falls back to the
     list path instead of publishing over the winner's range. Between
     claim and publish only the claimant writes [b_lo]/[b_hi], and only
     it moves the slot back to free (retract or release, always
     advancing the generation); a nested read from the owning domain
     finds its own slot non-free and takes the list path. A sweeping
     writer trusts the range only under a published [rseq] that is
     unchanged across the reads. *)
  type rslot = {
    rseq : int Sim.A.t;
    mutable b_lo : int;
    mutable b_hi : int;
  }

  type grant =
    | Free
    | Single of int  (** shard index; sub-handle in the [sh] field *)
    | Narrow of (int * B.handle) list
    | Wide of B.handle  (** granted through [g] *)
    | Fast of int  (** biased fast-path reader; slot index *)

  (* [sh] is only meaningful when [grant = Single], so the common
     single-shard grant allocates no list cell. Handles are plain young
     allocations: a recycled handle lives in the major heap, and storing a
     fresh grant and node into it every operation goes through the write
     barrier. Release resets [grant] to [Free], so a double release is
     still refused. *)
  let no_sub : B.handle = Obj.magic 0

  type handle = {
    reader : bool;
    mutable grant : grant;
    mutable sh : B.handle;
  }

  let mk ~reader grant sh = { reader; grant; sh }

  (* The failed acquisition's result, compared with [==]; never handed
     out. *)
  let failed = mk ~reader:false Free no_sub

  (* Per-domain scratch: the sampling tick and the observation counters,
     one cache-line-isolated record per domain-id slot. The counters live
     here rather than in shared atomics so the hot paths never RMW a
     shared cache line just to be observable; [snapshot] sums the slots
     (racy reads fine). *)
  type dstate = {
    mutable tick : int;
    mutable c_narrow : int;
    mutable c_multi : int;
    mutable c_g : int;
    mutable c_diverted : int;
    mutable c_timeouts : int;
    mutable c_fastr : int;
    mutable r_cool : int;
        (** reads left before this domain retries the biased fast path *)
    mutable r_back : int;  (** next cooldown length (exponential backoff) *)
  }

  (* Reader-bias revocation (BRAVO's inhibition, counted in ops instead
     of wall time): a retract means a writer was live, and under a
     steady write mix the next attempt will retract too. The domain then
     sits out the fast path for [r_cool] reads — backoff doubles from
     [rcool_base] up to [rcool_cap] on consecutive retracts and resets on
     a fast grant — so a write-heavy phase degrades to the plain list
     path at ~zero bias tax instead of paying publish+retract per read. *)
  let rcool_base = 16

  (* Cap the backoff low enough that a domain re-probes within a few
     milliseconds of op flow: a write-heavy phase costs one
     publish+retract per [rcool_cap] reads (~0.2%), while a phase change
     back to read-mostly re-engages the fast path quickly instead of
     leaving whole runs with the bias dormant. *)
  let rcool_cap = 512

  (* Default size of the biased reader slot pool (and so the writer
     sweep); [create ?rslot_count] overrides it — tests force 1 so every
     domain aliases one slot and the claim protocol is exercised. *)
  let rslot_default = min Sim.capacity 16

  type t = {
    router : Router.t;
    shards : B.t array;
    g : B.t;
    narrow_live : int Sim.A.t;
        (** live/in-flight narrow operations; a single load lets the g path
            skip the shard drain entirely in the common list-regime steady
            state (no narrow op anywhere). Incremented before any shard
            insertion, decremented only after every inserted node is
            marked, so a g op loading 0 after its own insertion knows that
            any later narrow op will find its node in the [g]-check. *)
    mode : int Sim.A.t;
        (** low bit: 0 sharded / 1 list; upper bits: switch epoch *)
    w_live : int Sim.A.t;
        (** in-flight/live write operations anywhere; the biased reader's
            single-load check. Raised before the writer's slot sweep,
            dropped only after the writer's nodes are marked. *)
    rslots : rslot array;
        (** indexed by [Sim.domain_id mod Array.length rslots]. Domain
            ids are global monotonically-allocated names (mod capacity),
            so a long-lived process that keeps spawning domains would
            push a raw-id watermark — and with it the writer sweep —
            toward [capacity] cache lines per write acquire. Hashing
            into a small fixed pool bounds the sweep; aliased domains
            race the claim CAS and the loser falls back to the list
            path (see {!rslot}). *)
    rhiwat : int Sim.A.t;
        (** exclusive watermark over reader slots ever published — bounds
            the writer sweep to slots that actually ran *)
    rwait : W.t;  (** writers parked on overlapping fast readers *)
    rbias : bool;
    narrow_max : int;
    sample_every : int;
    window : int;
    hi_pct : int;
    lo_pct : int;
    stats : Lockstat.t option;
    samp_narrow : Padded_counters.t;
    samp_wide : Padded_counters.t;
    dstates : dstate array;
    switches : int Atomic.t;  (** rare; stays shared for the trace epoch *)
  }

  let samp_slots = 8

  (* [combine] must be false: flat combining was removed, and the
     parameter stays only so callers that still pass [~combine:false]
     build. [true] raises [Invalid_argument]. [fast_path] is the
     backends' empty-list fast path; off by default, since on one shard
     it slows the list lock down (doc/perf.md). *)
  let create ?stats ?(shards = 8) ?(space = 1 lsl 16) ?narrow_max
      ?(fast_path = false) ?(combine = false) ?(rbias = true)
      ?(rslot_count = rslot_default) ?(sample_every = 32) ?(window = 64)
      ?(hi_pct = 30) ?(lo_pct = 10) () =
    if combine then invalid_arg "Adaptive_rw.create: ~combine must be false";
    let router = Router.create ~shards ~space in
    let rslot_count = max 1 rslot_count in
    let narrow_max =
      match narrow_max with Some n -> max 1 n | None -> max 1 (shards / 4)
    in
    { router;
      shards =
        Array.init shards (fun _ ->
            Padded_counters.isolate (B.create ~fast_path ()));
      g = Padded_counters.isolate (B.create ~fast_path ());
      narrow_live = Sim.A.make_contended 0;
      mode = Sim.A.make_contended 0;
      w_live = Sim.A.make_contended 0;
      rslots =
        Array.init rslot_count (fun _ ->
            Padded_counters.isolate
              { rseq = Sim.A.make 0; b_lo = 0; b_hi = 0 });
      rhiwat = Sim.A.make 0;
      rwait = W.create ();
      rbias;
      narrow_max;
      sample_every;
      window = max 1 window;
      hi_pct;
      lo_pct;
      stats;
      samp_narrow = Padded_counters.create ~slots:samp_slots;
      samp_wide = Padded_counters.create ~slots:samp_slots;
      dstates =
        Array.init Sim.capacity (fun _ ->
            Padded_counters.isolate
              { tick = 0;
                c_narrow = 0;
                c_multi = 0;
                c_g = 0;
                c_diverted = 0;
                c_timeouts = 0;
                c_fastr = 0;
                r_cool = 0;
                r_back = rcool_base });
      switches = Atomic.make 0 }

  let name = "adaptive-rw"

  let router t = t.router

  (* ---- regime word ---- *)

  let regime_bit m = m land 1

  let epoch_of m = m asr 1

  let regime t = if regime_bit (Sim.A.get t.mode) = 0 then Sharded else List

  let switch_count t = Atomic.get t.switches

  let record_switch t ~to_list ~wide ~narrow =
    (* The logged epoch is the fetch_and_add return, not a separate
       re-read: two concurrent flips must log distinct ordinals. *)
    let epoch = 1 + Atomic.fetch_and_add t.switches 1 in
    if Atomic.get trace_enabled then
      trace_push { at_ns = Clock.now_ns (); epoch; to_list; wide; narrow }

  (* Flip the routing hint to [r] (testing/forcing knob — safe at any
     point, since routing never carries exclusion). *)
  let rec force_regime t r =
    let m = Sim.A.get t.mode in
    let bit = match r with Sharded -> 0 | List -> 1 in
    if regime_bit m <> bit then
      if Sim.A.compare_and_set t.mode m (((epoch_of m + 1) lsl 1) lor bit)
      then record_switch t ~to_list:(bit = 1) ~wide:0 ~narrow:0
      else force_regime t r

  (* ---- width sampling and the switch decision ----

     Every [sample_every]-th operation (per-domain tick, no shared state)
     records its narrow/wide classification into a small padded counter
     array; once a window's worth of samples accumulates, the sampler
     compares the wide fraction against the hysteresis band and flips the
     regime. Counters are plain stores (lost updates only lose samples)
     and reset after every decision so the window tracks the recent
     mix. *)

  let decide t ~wide_op =
    let slot = Sim.domain_id () land (samp_slots - 1) in
    Padded_counters.incr (if wide_op then t.samp_wide else t.samp_narrow) slot;
    let w = Padded_counters.sum t.samp_wide
    and n = Padded_counters.sum t.samp_narrow in
    if w + n >= t.window then begin
      let pct = 100 * w / (w + n) in
      let m = Sim.A.get t.mode in
      if regime_bit m = 0 && pct >= t.hi_pct then begin
        if Sim.A.compare_and_set t.mode m ((epoch_of m + 1) lsl 1 lor 1) then
          record_switch t ~to_list:true ~wide:w ~narrow:n;
        Padded_counters.reset t.samp_wide;
        Padded_counters.reset t.samp_narrow
      end
      else if regime_bit m = 1 && pct <= t.lo_pct then begin
        if Sim.A.compare_and_set t.mode m ((epoch_of m + 1) lsl 1) then
          record_switch t ~to_list:false ~wide:w ~narrow:n;
        Padded_counters.reset t.samp_wide;
        Padded_counters.reset t.samp_narrow
      end
      else if w + n >= 4 * t.window then begin
        (* Stale window deep inside a regime: restart it so a later phase
           change is judged on recent samples, not the whole history. *)
        Padded_counters.reset t.samp_wide;
        Padded_counters.reset t.samp_narrow
      end
    end

  (* Count-down rather than [mod]: the tick sits on every acquisition and
     integer division is the most expensive ALU op on the path. *)
  let sampled t =
    t.sample_every > 0
    &&
    let d = t.dstates.(Sim.domain_id ()) in
    d.tick <- d.tick - 1;
    if d.tick < 0 then begin
      d.tick <- t.sample_every - 1;
      true
    end
    else false

  let dst t = t.dstates.(Sim.domain_id ())

  (* ---- the cross-regime handshake ---- *)

  (* Raised before a narrow op inserts into any shard. *)
  let narrow_up t = ignore (Sim.A.fetch_and_add t.narrow_live 1)

  (* The operation-level retraction, owed exactly once by whoever ends the
     narrow op: every inserted node is marked (or was never inserted) by
     the time this runs. *)
  let narrow_done t = ignore (Sim.A.fetch_and_add t.narrow_live (-1))

  (* ---- reader bias ---- *)

  (* Raised immediately before a granted writer's slot sweep; dropped only
     after the writer's nodes are marked on release (or the attempt is
     fully unwound), so a reader loading 0 has proof no writer is between
     its sweep and its retraction. *)
  let w_up t = ignore (Sim.A.fetch_and_add t.w_live 1)

  let w_down t = ignore (Sim.A.fetch_and_add t.w_live (-1))

  (* Raise the slot high-water mark past slot [me]. *)
  let rec rbias_hiwat t me =
    let h = Sim.A.get t.rhiwat in
    if me >= h && not (Sim.A.compare_and_set t.rhiwat h (me + 1)) then
      rbias_hiwat t me

  (* The reader's half of the Dekker pair: publish the slot, then test
     [w_live]. On 0 the read is granted outright — any writer that could
     conflict will raise [w_live] before sweeping and therefore find the
     slot. Otherwise retract and let the caller take the list path. *)
  let rbias_try t r =
    let d = dst t in
    if d.r_cool > 0 then begin
      (* Revoked: a recent retract showed writers live. Count down on the
         (domain-local) cold side; no shared state is touched. *)
      d.r_cool <- d.r_cool - 1;
      failed
    end
    else
    let me = Sim.domain_id () mod Array.length t.rslots in
    let s = t.rslots.(me) in
    let v = Sim.A.get s.rseq in
    if v land 3 <> 0 then
      (* Slot held: a nested read from this domain, or an aliased
         domain's live publication. List path. *)
      failed
    else if not (Sim.A.compare_and_set s.rseq v (v + 1)) then
      (* Lost the claim race to an aliased domain — publishing anyway
         would overwrite its range (and double-free the slot on
         release). List path. *)
      failed
    else begin
      s.b_lo <- Range.lo r;
      s.b_hi <- Range.hi r;
      Sim.A.set s.rseq (v + 2);
      rbias_hiwat t me;
      if Sim.A.get t.w_live = 0 then begin
        d.c_fastr <- d.c_fastr + 1;
        d.r_back <- rcool_base;
        mk ~reader:true (Fast me) no_sub
      end
      else begin
        (* Retract — free the slot (next generation) and wake, exactly
           like a release: a sweeping writer may already have parked on
           this slot's just-published range, and nobody else will
           re-enable it. *)
        Sim.A.set s.rseq (v + 4);
        ignore (W.wake_overlap t.rwait ~lo:(Range.lo r) ~hi:(Range.hi r));
        d.r_cool <- d.r_back;
        d.r_back <- min (d.r_back * 2) rcool_cap;
        failed
      end
    end

  (* The writer's half: scan the published slots for an overlap. Per-slot
     seqlock read: the range is only trusted under a published [rseq]
     that is unchanged across the reads; a slot that moves mid-read is
     re-read. A slot read free or claimed can be skipped outright — its
     next (or in-flight) publication must load [w_live] after our
     increment (seq-cst: the publish store precedes that load, and we
     read the slot before the publish) and retract. The
     [adaptive.rbias.skip] chaos point disables exactly this sweep (the
     model checker's mutation self-test for the bias handshake). *)
  let rec slot_clear s ~lo ~hi =
    let v = Sim.A.get s.rseq in
    v land 3 <> 2
    ||
    let slo = s.b_lo and shi = s.b_hi in
    if Sim.A.get s.rseq <> v then slot_clear s ~lo ~hi
    else slo >= hi || lo >= shi

  let rbias_clear t ~lo ~hi =
    (if Atomic.get Fault.enabled then Fault.skip fp_rbias_skip else false)
    ||
    let n = Sim.A.get t.rhiwat in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      if not (slot_clear t.rslots.(!i) ~lo ~hi) then ok := false;
      incr i
    done;
    !ok

  (* The writer's slot gate, run after [w_up]: pass once no published
     fast reader overlaps [lo, hi). A blocking op parks on [rwait] (every
     fast-read release wakes by overlap), a try makes one sweep, and a
     timed op polls until its deadline. Fast readers never block, so this
     edge cannot close a wait-for cycle. *)
  let rbias_gate t ~blocking ~deadline_ns r =
    let lo = Range.lo r and hi = Range.hi r in
    rbias_clear t ~lo ~hi
    || blocking
       &&
       if deadline_ns = max_int then begin
         ignore (W.wait t.rwait ~lo ~hi (fun () -> rbias_clear t ~lo ~hi));
         true
       end
       else begin
         Sim.wait_until (fun () ->
             rbias_clear t ~lo ~hi || Clock.now_ns () >= deadline_ns);
         rbias_clear t ~lo ~hi
       end

  (* The narrow path's half: after inserting into its shards, a narrow op
     must prove no granted g holder conflicts. Non-blocking — on conflict
     it retreats rather than waits, preserving the g < shards wait-for
     order. The [adaptive.switch.skip] chaos point disables exactly this
     check (the model checker's mutation self-test). *)
  let gcheck_ok t ~reader r =
    if Atomic.get Fault.enabled then begin
      Fault.delay fp_gcheck;
      if Fault.skip fp_switch_skip then true
      else
        B.drain_conflicts t.g ~reader ~blocking:false ~deadline_ns:max_int r
    end
    else B.drain_conflicts t.g ~reader ~blocking:false ~deadline_ns:max_int r

  (* The g path's half: wait out (or, non-blocking/timed, test for)
     pre-existing narrow holders in every covered shard. The backend's
     drain skips an empty shard list with one atomic load — the fee wide
     ops pay for narrow ops' right to exist at all. *)
  let drain_shards t ~reader ~blocking ~deadline_ns ~first ~last r =
    let ok = ref true in
    let i = ref first in
    while !ok && !i <= last do
      if
        not
          (B.drain_conflicts t.shards.(!i) ~reader ~blocking ~deadline_ns
             (Router.clamp t.router !i r))
      then ok := false;
      incr i
    done;
    !ok

  (* Lazy coverage: the common list-regime op reads one atomic and is
     done — shard classification only happens once a live narrow op
     forces the per-shard drain. The [narrow_live] load must come after
     the caller's g insertion (see the field's invariant). *)
  let drain_narrow t ~reader ~blocking ~deadline_ns r =
    Sim.A.get t.narrow_live = 0
    ||
    drain_shards t ~reader ~blocking ~deadline_ns
      ~first:(Router.first t.router r) ~last:(Router.last t.router r) r

  (* ---- releases ---- *)

  let release_sub t (i, sub) = B.release t.shards.(i) sub

  let release t h =
    (match h.grant with
     | Single i ->
       B.release t.shards.(i) h.sh;
       narrow_done t
     | Narrow subs ->
       List.iter (release_sub t) subs;
       narrow_done t
     | Wide gh -> B.release t.g gh
     | Fast i ->
       (* Free the slot (published -> free, next generation), then wake
          writers parked on the released range. Only the granted owner
          may write [rseq] while the slot is published — an aliased
          claim needs it free — so a plain bump is race-free. *)
       let s = t.rslots.(i) in
       let lo = s.b_lo and hi = s.b_hi in
       Sim.A.set s.rseq (Sim.A.get s.rseq + 2);
       ignore (W.wake_overlap t.rwait ~lo ~hi)
     | Free -> invalid_arg "Adaptive_rw.release: handle already released");
    if (not h.reader) && t.rbias then w_down t;
    h.grant <- Free;
    h.sh <- no_sub

  (* ---- acquisition ----

     One body serves the blocking, try and timed acquisitions, as the list
     core's [traverse] does: [~blocking:false] makes one bounded attempt
     at every step, [~blocking:true] waits, bounded by [deadline_ns]
     ([max_int] = forever; such an op never fails). A failed backend
     insert is [no_sub] and a failed op [failed], both compared with
     [==], so the blocking path builds no option; only the try and timed
     wrappers do. *)

  (* Narrow or wide by shard cover. The callers take [first] and [last]
     as two ints rather than a tuple, so classifying allocates nothing. *)
  let is_wide t ~first ~last = last - first > t.narrow_max - 1

  let wide_of t r =
    is_wide t ~first:(Router.first t.router r) ~last:(Router.last t.router r)

  (* One backend insert on list [l]; [no_sub] when it fails. *)
  let sub_acquire l ~reader ~blocking ~deadline_ns r =
    if blocking && deadline_ns = max_int then
      B.acquire l ~mode:(rw_mode reader) r
    else
      match
        if blocking then B.acquire_opt l ~mode:(rw_mode reader) ~deadline_ns r
        else if reader then B.try_read_acquire l r
        else B.try_write_acquire l r
      with
      | Some h -> h
      | None -> no_sub

  (* Through [g]: wide ops, every op in the list regime, and narrow ops
     that lost the handshake. Insert, then drain the covered shards; a
     failed drain releases the g node, the op's only publication. *)
  let acquire_g t ~reader ~blocking ~deadline_ns r =
    let gh = sub_acquire t.g ~reader ~blocking ~deadline_ns r in
    if gh == no_sub then failed
    else if drain_narrow t ~reader ~blocking ~deadline_ns r then begin
      let d = dst t in
      d.c_g <- d.c_g + 1;
      mk ~reader (Wide gh) no_sub
    end
    else begin
      B.release t.g gh;
      failed
    end

  (* Shards [i .. last] in ascending order (the wait-for order), each with
     its clamped sub-range; [acc] holds the shards taken so far, newest
     first. All-or-nothing: a failed insert releases [acc] and returns
     [[]]. *)
  let rec narrow_take t ~reader ~blocking ~deadline_ns r i acc =
    if i > Router.last t.router r then List.rev acc
    else
      let sh =
        sub_acquire t.shards.(i) ~reader ~blocking ~deadline_ns
          (Router.clamp t.router i r)
      in
      if sh == no_sub then begin
        List.iter (release_sub t) acc;
        []
      end
      else
        narrow_take t ~reader ~blocking ~deadline_ns r (i + 1)
          ((i, sh) :: acc)

  (* Raise [narrow_live], insert ascending, check [g]. A failed insert has
     released every shard node the op took, and ends it. A conflicting
     granted g holder makes the op retreat fully (release the shard
     nodes, then drop [narrow_live]) and re-enter through [g] with the
     same patience. *)
  let acquire_narrow t ~reader ~blocking ~deadline_ns r ~first ~last =
    narrow_up t;
    let sh, subs =
      if first = last then
        (* The whole range lies in that shard's span: no clamp. *)
        (sub_acquire t.shards.(first) ~reader ~blocking ~deadline_ns r, [])
      else (no_sub, narrow_take t ~reader ~blocking ~deadline_ns r first [])
    in
    if sh == no_sub && subs == [] then begin
      narrow_done t;
      failed
    end
    else if gcheck_ok t ~reader r then begin
      let d = dst t in
      if sh != no_sub then begin
        d.c_narrow <- d.c_narrow + 1;
        mk ~reader (Single first) sh
      end
      else begin
        d.c_multi <- d.c_multi + 1;
        mk ~reader (Narrow subs) no_sub
      end
    end
    else begin
      if sh != no_sub then B.release t.shards.(first) sh
      else List.iter (release_sub t) subs;
      narrow_done t;
      let d = dst t in
      d.c_diverted <- d.c_diverted + 1;
      acquire_g t ~reader ~blocking ~deadline_ns r
    end

  (* Readers first try the biased fast path. Writers raise [w_live] and
     pass the slot gate before inserting anywhere. The Dekker argument
     only needs [w_up] to precede the sweep; sweeping first means the
     writer waits out live fast readers while holding no node, so
     slow-path readers keep flowing past it and share with the fast
     reader exactly as they would on the plain list. Holding [w_live]
     through the grant and the critical section keeps new fast readers
     out; release drops it after the nodes are marked, and a failed op
     drops it here.

     Then regime, sampling and width are decided once. In the list
     regime's steady state nothing is classified unless a sample fires
     (the switch decision needs the narrow/wide tag); the g path
     re-derives shard coverage lazily, and only while narrow holders are
     live. *)
  let acquire_body t ~reader ~blocking ~deadline_ns r =
    let t0 =
      match t.stats with Some _ when blocking -> Clock.now_ns () | _ -> 0
    in
    let wbias = (not reader) && t.rbias in
    if wbias then w_up t;
    let fast = if reader && t.rbias then rbias_try t r else failed in
    let h =
      if fast != failed then fast
      else if wbias && not (rbias_gate t ~blocking ~deadline_ns r) then failed
      else if regime_bit (Sim.A.get t.mode) = 1 then begin
        if sampled t then decide t ~wide_op:(wide_of t r);
        acquire_g t ~reader ~blocking ~deadline_ns r
      end
      else begin
        let first = Router.first t.router r
        and last = Router.last t.router r in
        let wide_op = is_wide t ~first ~last in
        if sampled t then decide t ~wide_op;
        if wide_op then acquire_g t ~reader ~blocking ~deadline_ns r
        else acquire_narrow t ~reader ~blocking ~deadline_ns r ~first ~last
      end
    in
    if h == failed then begin
      if wbias then w_down t;
      (* A try that fails is no timeout. *)
      if blocking then (dst t).c_timeouts <- (dst t).c_timeouts + 1
    end
    else begin
      match t.stats with
      | Some s when blocking ->
        Lockstat.add s (rw_mode reader) (Clock.now_ns () - t0)
      | _ -> ()
    end;
    h

  let opt h = if h == failed then None else Some h

  let acquire t ~reader r =
    acquire_body t ~reader ~blocking:true ~deadline_ns:max_int r

  let try_acquire t ~reader r =
    opt (acquire_body t ~reader ~blocking:false ~deadline_ns:max_int r)

  let acquire_opt t ~reader ~deadline_ns r =
    opt (acquire_body t ~reader ~blocking:true ~deadline_ns r)

  let read_acquire t r = acquire t ~reader:true r

  let write_acquire t r = acquire t ~reader:false r

  let try_read_acquire t r = try_acquire t ~reader:true r

  let try_write_acquire t r = try_acquire t ~reader:false r

  let read_acquire_opt t ~deadline_ns r =
    acquire_opt t ~reader:true ~deadline_ns r

  let write_acquire_opt t ~deadline_ns r =
    acquire_opt t ~reader:false ~deadline_ns r

  (* ---- introspection ---- *)

  let holders t =
    let acc = ref (B.holders t.g) in
    Array.iter (fun s -> acc := B.holders s @ !acc) t.shards;
    (* Biased fast-path readers hold no list node; their slots are the
       record of the grant. *)
    let n = Sim.A.get t.rhiwat in
    for i = 0 to n - 1 do
      let s = t.rslots.(i) in
      if Sim.A.get s.rseq land 3 = 2 then
        acc := (Range.v ~lo:s.b_lo ~hi:s.b_hi, `Reader) :: !acc
    done;
    !acc

  type snapshot = {
    s_regime : regime;
    s_switches : int;
    s_narrow : int;  (** single-shard grants *)
    s_multi : int;  (** multi-shard narrow grants *)
    s_g : int;  (** grants through the global list *)
    s_diverted : int;  (** narrow attempts retreated to the g path *)
    s_timeouts : int;
    s_fast_reads : int;  (** biased fast-path reader grants *)
  }

  let snapshot t =
    let sum f = Array.fold_left (fun a d -> a + f d) 0 t.dstates in
    { s_regime = regime t;
      s_switches = Atomic.get t.switches;
      s_narrow = sum (fun d -> d.c_narrow);
      s_multi = sum (fun d -> d.c_multi);
      s_g = sum (fun d -> d.c_g);
      s_diverted = sum (fun d -> d.c_diverted);
      s_timeouts = sum (fun d -> d.c_timeouts);
      s_fast_reads = sum (fun d -> d.c_fastr) }
end
