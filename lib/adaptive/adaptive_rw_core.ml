open Rlk_primitives
module Fault = Rlk_chaos.Fault
module Range = Rlk.Range
module Router = Rlk_shard.Router

(* Adaptive frontend over the list-based range-lock cores (PR 9; see
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
     degenerates to a plain [List_rw] (with its empty-list fast path) and
     wide-heavy workloads stop paying the per-shard machinery.

   The regime word is a *routing hint*, not a lock: correctness never
   depends on which regime an acquisition observed, so switching is one
   CAS (an epoch flip) with no drain or stop-the-world handoff. Safety
   across regimes is carried by a per-operation handshake, the same
   store-buffer pattern the sharded frontend uses for its wide path, all
   seq-cst:

     narrow op:  res[i]++ for every covered shard   (publish)
                 insert into covered shards (ascending)
                 check [g] for conflicts (non-inserting, non-blocking)
                   conflict -> retreat (release shards, res[i]--) and
                               re-enter through [g]
     g op:       insert into [g]                    (publish)
                 for every covered shard with res[i] > 0:
                   drain pre-existing conflicting narrow holders

   If the narrow op's [g]-check misses a conflicting g holder, the whole
   narrow publication precedes the g op's [res] load in the seq-cst
   order, so the g op sees res > 0 and its drain finds the narrow node
   and waits. If the g holder was already granted, the narrow op's
   [g]-check sees its node and retreats. Either way one side observes the
   other; the chaos point [adaptive.switch.skip] disables the g-check to
   prove (under the model checker) that the handshake is what carries
   exclusion across a regime switch.

   Wait-for order is acyclic: g < shard 0 < shard 1 < ... A narrow op
   never blocks on [g] (its check is non-blocking; on conflict it
   retreats first, then re-enters as a g op), a g op drains shards in
   ascending order, and multi-shard narrow acquisition is ascending.

   Read acquisitions get a BRAVO-style biased fast path (Dice & Kogan's
   reader-bias technique, from the same authors as the source paper): a
   reader publishes its range in a per-domain slot and is granted with
   no list insertion at all when no write operation is in flight
   anywhere ([w_live] = 0). The writer side carries soundness: every
   write path, after its normal grant steps, raises [w_live] and then
   sweeps the published slots, waiting out (blocking) or failing
   against (try/timed) any overlapping published reader. Seq-cst gives
   the Dekker guarantee: the reader's slot publication precedes its
   [w_live] load and the writer's increment precedes its sweep, so
   whichever loads second observes the other side — a fast reader is
   either visible to every granted writer's sweep or saw the writer and
   fell back to the list path. Fast readers never block, so adding them
   to the wait-for order cannot create a cycle. The chaos point
   [adaptive.rbias.skip] disables exactly the writer's sweep (the
   model-checked mutation for this handshake).

   Under same-shard contention, blocking single-shard acquisitions batch
   flat-combining style: a waiter that fails the non-blocking try
   publishes its request in a per-shard slot array and parks on the
   shard's {!Waitq_core}; whichever waiter (or any waiter woken by a
   release) wins the combiner CAS serves the whole published batch with
   non-blocking tries on their behalf and wakes each grantee through the
   parking layer ({!Waitq_core.notify} — targeted, no herd). The
   combiner never blocks on behalf of others; requests it cannot grant
   stay parked until the next release-side wake. *)

(* Chaos injection points. [adaptive.switch.skip] and
   [adaptive.rbias.skip] are deliberately unsound ([switch.skip] drops
   the narrow path's g-conflict check, [rbias.skip] drops the writer's
   reader-slot sweep — each breaks exclusion across its handshake
   detectably); the others are stall points. *)
let fp_switch_skip = Fault.point "adaptive.switch.skip"
let fp_rbias_skip = Fault.point "adaptive.rbias.skip"
let fp_gcheck = Fault.point "adaptive.gcheck"
let fp_combine = Fault.point "adaptive.combine"

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

  val range_of_handle : handle -> Range.t

  val holders : t -> (Range.t * [ `Reader | `Writer ]) list
end

type regime = Sharded | List

let rw_mode reader = if reader then Lockstat.Read else Lockstat.Write

module Make (Sim : Traced_atomic.SIM) (B : BACKEND) () = struct
  module W = Waitq_core.Make (Sim)

  (* Flat-combining request slot states. Fields are only written by the
     owning domain while EMPTY->CLAIMED, and only read by a combiner
     after it loads PENDING; the GRANTED store publishes the deposited
     handle back (all ordered through the seq-cst [state] cell). *)
  let empty = 0
  let claimed = 1
  let pending = 2
  let granted = 3

  type req = {
    state : int Sim.A.t;
    mutable r_reader : bool;
    mutable r_lo : int;
    mutable r_hi : int;
    mutable r_handle : B.handle option;
  }

  type comb = {
    lock : int Sim.A.t;  (** 0 free / 1 combining; at most one combiner *)
    reqs : req array;  (** indexed by [Sim.domain_id], like waitq slots *)
    rhigh : int Sim.A.t;  (** exclusive watermark over published slots *)
    npending : int Sim.A.t;
    rel_epoch : int Sim.A.t;
        (** bumped by every release touching this shard; lets a combiner
            that granted nothing tell "nothing changed" (exit silently)
            from "a release raced my pass" (re-wake the batch) *)
    cwait : W.t;
  }

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

  (* As in Shard_rw: [sh] is only meaningful when [grant = Single], so the
     common single-shard grant stays one (recycled) allocation. *)
  let no_sub : B.handle = Obj.magic 0

  type handle = {
    mutable reader : bool;
    mutable grant : grant;
    mutable sh : B.handle;
  }

  (* Per-domain scratch: the sampling tick, the recycled-handle stack and
     the observation counters, one cache-line-isolated record per
     domain-id slot. The counters live here rather than in shared atomics
     so the hot paths never RMW a shared cache line just to be
     observable; [snapshot] sums the slots (racy reads fine). *)
  type dstate = {
    mutable tick : int;
    mutable harr : handle array;
    mutable hlen : int;
    mutable c_narrow : int;
    mutable c_multi : int;
    mutable c_g : int;
    mutable c_diverted : int;
    mutable c_comb_entries : int;
    mutable c_comb_passes : int;
    mutable c_combined : int;
    mutable c_timeouts : int;
    mutable c_fastr : int;
    mutable r_cool : int;
        (** reads left before this domain retries the biased fast path *)
    mutable r_back : int;  (** next cooldown length (exponential backoff) *)
  }

  let hstack_cap = 64

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
    res : int Sim.A.t array;
        (** per-shard live/in-flight narrow count — the publish side of
            the cross-regime handshake *)
    narrow_live : int Sim.A.t;
        (** total live/in-flight narrow operations; a single load lets the
            g path skip the per-shard [res] sweep entirely in the common
            list-regime steady state (no narrow op anywhere). Incremented
            before any shard publication, decremented only after every
            published node is marked — the same store-buffer argument as
            [res], one level up. *)
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
    combine : bool;
    sample_every : int;
    window : int;
    hi_pct : int;
    lo_pct : int;
    stats : Lockstat.t option;
    samp_narrow : Padded_counters.t;
    samp_wide : Padded_counters.t;
    heat : Padded_counters.t;
        (** combining entries, slot per shard plus one for [g] *)
    comb : comb array;
    gcomb : comb;
        (** combining point for the global list — the list regime's whole
            load lands on [g], so that is where an oversubscribed host
            convoys; a combiner batch-grants parked g ops in one quantum *)
    dstates : dstate array;
    switches : int Atomic.t;  (** rare; stays shared for the trace epoch *)
  }

  let samp_slots = 8

  let create ?stats ?(shards = 8) ?(space = 1 lsl 16) ?narrow_max
      ?(fast_path = true) ?(combine = true) ?(rbias = true)
      ?(rslot_count = rslot_default) ?(sample_every = 32) ?(window = 64)
      ?(hi_pct = 30) ?(lo_pct = 10) () =
    let router = Router.create ~shards ~space in
    let rslot_count = max 1 rslot_count in
    let narrow_max =
      match narrow_max with Some n -> max 1 n | None -> max 1 (shards / 4)
    in
    let mk_comb () =
      Padded_counters.isolate
        { lock = Sim.A.make_contended 0;
          reqs =
            Array.init Sim.capacity (fun _ ->
                Padded_counters.isolate
                  { state = Sim.A.make empty;
                    r_reader = false;
                    r_lo = 0;
                    r_hi = 0;
                    r_handle = None });
          rhigh = Sim.A.make 0;
          npending = Sim.A.make_contended 0;
          rel_epoch = Sim.A.make_contended 0;
          cwait = W.create () }
    in
    { router;
      shards =
        Array.init shards (fun _ ->
            Padded_counters.isolate (B.create ~fast_path ()));
      g = Padded_counters.isolate (B.create ~fast_path ());
      res = Array.init shards (fun _ -> Sim.A.make_contended 0);
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
      combine;
      sample_every;
      window = max 1 window;
      hi_pct;
      lo_pct;
      stats;
      samp_narrow = Padded_counters.create ~slots:samp_slots;
      samp_wide = Padded_counters.create ~slots:samp_slots;
      heat = Padded_counters.create ~slots:(shards + 1);
      comb = Array.init shards (fun _ -> mk_comb ());
      gcomb = mk_comb ();
      dstates =
        Array.init Sim.capacity (fun _ ->
            Padded_counters.isolate
              { tick = 0;
                harr = [||];
                hlen = 0;
                c_narrow = 0;
                c_multi = 0;
                c_g = 0;
                c_diverted = 0;
                c_comb_entries = 0;
                c_comb_passes = 0;
                c_combined = 0;
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

  (* ---- handle recycling (Shard_rw's hpool pattern) ---- *)

  let dst t = t.dstates.(Sim.domain_id ())

  let get_handle t =
    let p = t.dstates.(Sim.domain_id ()) in
    if p.hlen > 0 then begin
      let h = p.harr.(p.hlen - 1) in
      p.hlen <- p.hlen - 1;
      h
    end
    else { reader = false; grant = Free; sh = no_sub }

  let put_handle t h =
    h.grant <- Free;
    h.sh <- no_sub;
    let p = t.dstates.(Sim.domain_id ()) in
    if p.hlen < hstack_cap then begin
      if Array.length p.harr = 0 then p.harr <- Array.make hstack_cap h;
      p.harr.(p.hlen) <- h;
      p.hlen <- p.hlen + 1
    end

  let mk t ~reader grant sh =
    let h = get_handle t in
    h.reader <- reader;
    h.grant <- grant;
    h.sh <- sh;
    h

  (* ---- the cross-regime handshake ---- *)

  let res_up t ~first ~last =
    ignore (Sim.A.fetch_and_add t.narrow_live 1);
    for i = first to last do
      ignore (Sim.A.fetch_and_add t.res.(i) 1)
    done

  (* Retract the per-shard publications of shards [first..last] (the
     never-inserted tail of a failed all-or-nothing try). Does NOT drop
     [narrow_live] — that is per-operation, owed exactly once by whoever
     ends the operation ([narrow_done]). *)
  let res_down t ~first ~last =
    for i = last downto first do
      ignore (Sim.A.fetch_and_add t.res.(i) (-1))
    done

  (* The operation-level retraction: every published node is marked (or
     was never inserted) by the time this runs. *)
  let narrow_done t = ignore (Sim.A.fetch_and_add t.narrow_live (-1))

  (* ---- reader bias ---- *)

  (* Raised immediately before a granted writer's slot sweep; dropped only
     after the writer's nodes are marked on release (or the attempt is
     fully unwound), so a reader loading 0 has proof no writer is between
     its sweep and its retraction. *)
  let w_up t = ignore (Sim.A.fetch_and_add t.w_live 1)

  let w_down t = ignore (Sim.A.fetch_and_add t.w_live (-1))

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
      None
    end
    else
    let me = Sim.domain_id () mod Array.length t.rslots in
    let s = t.rslots.(me) in
    let v = Sim.A.get s.rseq in
    if v land 3 <> 0 then
      (* Slot held: a nested read from this domain, or an aliased
         domain's live publication. List path. *)
      None
    else if not (Sim.A.compare_and_set s.rseq v (v + 1)) then
      (* Lost the claim race to an aliased domain — publishing anyway
         would overwrite its range (and double-free the slot on
         release). List path. *)
      None
    else begin
      s.b_lo <- Range.lo r;
      s.b_hi <- Range.hi r;
      Sim.A.set s.rseq (v + 2);
      let rec hiwat () =
        let h = Sim.A.get t.rhiwat in
        if me >= h && not (Sim.A.compare_and_set t.rhiwat h (me + 1)) then
          hiwat ()
      in
      hiwat ();
      if Sim.A.get t.w_live = 0 then begin
        d.c_fastr <- d.c_fastr + 1;
        d.r_back <- rcool_base;
        Some (mk t ~reader:true (Fast me) no_sub)
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
        None
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
  let rbias_clear t ~lo ~hi =
    (if Atomic.get Fault.enabled then Fault.skip fp_rbias_skip else false)
    ||
    let n = Sim.A.get t.rhiwat in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      let s = t.rslots.(!i) in
      let rec slot_clear () =
        let v = Sim.A.get s.rseq in
        v land 3 <> 2
        ||
        let slo = s.b_lo and shi = s.b_hi in
        if Sim.A.get s.rseq <> v then slot_clear ()
        else slo >= hi || lo >= shi
      in
      if not (slot_clear ()) then ok := false;
      incr i
    done;
    !ok

  (* Blocking wait for overlapping fast readers to drain (parked on
     [rwait]; every fast-read release wakes by overlap). Fast readers
     never block, so this edge cannot close a wait-for cycle. *)
  let rbias_wait t ~lo ~hi =
    if not (rbias_clear t ~lo ~hi) then
      ignore (W.wait t.rwait ~lo ~hi (fun () -> rbias_clear t ~lo ~hi))

  (* Deadline-bounded variant for the timed path. *)
  let rbias_wait_opt t ~deadline_ns ~lo ~hi =
    rbias_clear t ~lo ~hi
    || begin
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
     pre-existing narrow holders in every covered shard that has any.
     [res] = 0 skips a shard with one atomic load — the fee wide ops pay
     in the list regime for narrow ops' right to exist at all. *)
  let drain_res_slow t ~reader ~blocking ~deadline_ns ~first ~last r =
    let ok = ref true in
    let i = ref first in
    while !ok && !i <= last do
      if Sim.A.get t.res.(!i) > 0 then
        if
          not
            (B.drain_conflicts t.shards.(!i) ~reader ~blocking ~deadline_ns
               (Router.clamp t.router !i r))
        then ok := false;
      incr i
    done;
    !ok

  (* Lazy coverage: the common list-regime op reads one atomic and is
     done — shard classification only happens once a live narrow
     publication forces the per-shard sweep. The [narrow_live] load must
     come after the caller's g insertion (see the field's invariant). *)
  let drain_res t ~reader ~blocking ~deadline_ns r =
    Sim.A.get t.narrow_live = 0
    ||
    let first, last = Router.first_last t.router r in
    drain_res_slow t ~reader ~blocking ~deadline_ns ~first ~last r

  (* ---- flat combining (blocking acquisitions on one list) ---- *)

  (* One combiner pass over combining point [c] fronting list [b] (a
     shard, or [g] itself): serve every published request with a
     non-blocking try on its behalf, deposit the sub-handle, and hand off
     through the parking layer. Never blocks — ungrantable requests stay
     parked for the next release-side wake. Runs with [c.lock] held. *)
  let combine_pass t c b =
    let d = dst t in
    d.c_comb_passes <- d.c_comb_passes + 1;
    let me = Sim.domain_id () in
    let granted_any = ref false in
    let stop = min (Sim.A.get c.rhigh) (Array.length c.reqs) in
    let serve ~readers =
      for j = 0 to stop - 1 do
        let q = c.reqs.(j) in
        if Sim.A.get q.state = pending && q.r_reader = readers then begin
          let sub = Range.v ~lo:q.r_lo ~hi:q.r_hi in
          match
            (if q.r_reader then B.try_read_acquire else B.try_write_acquire)
              b sub
          with
          | Some h ->
            q.r_handle <- Some h;
            if Atomic.get Fault.enabled then Fault.delay fp_combine;
            ignore (Sim.A.fetch_and_add c.npending (-1));
            Sim.A.set q.state granted;
            granted_any := true;
            if j <> me then begin
              d.c_combined <- d.c_combined + 1;
              W.notify c.cwait j
            end
          | None -> ()
        end
      done
    in
    (* Writes first: granting reads ahead of a batched write would let
       the read stream overtake it within the pass. This ordering is the
       half of writer preference that measured well; the reader-side
       try-gate did not and was dropped (doc/perf.md, "measured and
       rejected"). *)
    serve ~readers:false;
    serve ~readers:true;
    !granted_any

  (* Release-side hand-off to combining waiters. The epoch moves before
     the wake — a combiner pass racing this release either sees the epoch
     move and re-wakes its batch, or ran late enough for its tries to see
     the node marked. Skipped outright while [npending] = 0: a requester
     increments [npending] before parking, so a 0 read here (seq-cst,
     after the mark) means any requester that shows up later orders its
     own combiner pass after the mark — its try observes the release
     directly.

     Deliberately wake-only: an earlier variant ran a combiner pass right
     here, granting the freed range to parked requesters at release time.
     The model checker needed an extra wake to make it sound (a requester
     can raise [npending] and be passed over while its slot still reads
     [claimed]), and on an oversubscribed host it measured ~0.7x of this
     version on mixed random ranges: granting to a parked domain that
     will not be scheduled for milliseconds starves the running domains
     that would have barged in and kept the lock utilized. *)
  let combine_handoff c ~lo ~hi =
    if Sim.A.get c.npending > 0 then begin
      ignore (Sim.A.fetch_and_add c.rel_epoch 1);
      ignore (W.wake_overlap c.cwait ~lo ~hi)
    end

  (* ---- releases ---- *)

  (* Sub-release of one shard node: mark it, retract the handshake
     publication, and hand off to combining waiters blocked on the
     released range. Ordering matters twice over: [res] must not drop
     before the node is marked (a g op skipping the shard on res = 0 must
     imply no live narrow), and the combiner-side epoch must move before
     the wake (a combiner pass racing this release either sees the epoch
     move and re-wakes its batch, or ran late enough for its tries to see
     the node marked). *)
  let release_sub t i sub =
    let r = B.range_of_handle sub in
    B.release t.shards.(i) sub;
    ignore (Sim.A.fetch_and_add t.res.(i) (-1));
    combine_handoff t.comb.(i) ~lo:(Range.lo r) ~hi:(Range.hi r)

  let release t h =
    (match h.grant with
     | Single i ->
       release_sub t i h.sh;
       narrow_done t
     | Narrow subs ->
       List.iter (fun (i, sub) -> release_sub t i sub) subs;
       narrow_done t
     | Wide gh ->
       let r = B.range_of_handle gh in
       B.release t.g gh;
       combine_handoff t.gcomb ~lo:(Range.lo r) ~hi:(Range.hi r)
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
    put_handle t h

  (* Publish-and-park with opportunistic combining: the wait predicate is
     deliberately effectful — each evaluation first tries to take the
     combiner role and serve the whole batch (including our own request).
     [W.wait] re-arms the parker flag before every evaluation, so a
     release-side wake or a combiner's targeted notify is never lost
     between attempts.

     The lost-wake corner is a combiner pass racing a release: waiter B's
     wake can be consumed by a pass whose tries ran before the releaser
     marked its node, granting nothing. The pass therefore snapshots
     [rel_epoch] before its tries and, when it granted nothing but the
     epoch moved, re-notifies the still-pending batch on exit — the
     consumed wake is re-issued. When the epoch did not move nothing was
     released, so exiting silently cannot strand anyone (and does not
     ping-pong wakes between contending waiters while the holder lives). *)
  let combine_acquire t ~reader c b ~hslot sub =
    (dst t).c_comb_entries <- (dst t).c_comb_entries + 1;
    Padded_counters.incr t.heat hslot;
    let me = Sim.domain_id () in
    let q = c.reqs.(me) in
    if not (Sim.A.compare_and_set q.state empty claimed) then
      (* Slot aliased by another live domain (> capacity domains): fall
         back to the plain blocking path — always sound. *)
      B.acquire b ~mode:(rw_mode reader) sub
    else begin
      q.r_reader <- reader;
      q.r_lo <- Range.lo sub;
      q.r_hi <- Range.hi sub;
      q.r_handle <- None;
      let rec bump_high () =
        let h = Sim.A.get c.rhigh in
        if me >= h && not (Sim.A.compare_and_set c.rhigh h (me + 1)) then
          bump_high ()
      in
      bump_high ();
      ignore (Sim.A.fetch_and_add c.npending 1);
      Sim.A.set q.state pending;
      let pred () =
        if Sim.A.get q.state = granted then true
        else if Sim.A.compare_and_set c.lock 0 1 then begin
          let e0 = Sim.A.get c.rel_epoch in
          let _progressed = combine_pass t c b in
          Sim.A.set c.lock 0;
          if Sim.A.get c.npending > 0 && Sim.A.get c.rel_epoch <> e0
          then begin
            (* A release raced the pass: its wake may have been consumed
               by tries that ran too early. Re-issue it. *)
            let stop = min (Sim.A.get c.rhigh) (Array.length c.reqs) in
            for j = 0 to stop - 1 do
              if j <> me && Sim.A.get c.reqs.(j).state = pending then
                W.notify c.cwait j
            done
          end;
          Sim.A.get q.state = granted
        end
        else Sim.A.get q.state = granted
      in
      ignore (W.wait c.cwait ~lo:q.r_lo ~hi:q.r_hi pred);
      let h = match q.r_handle with Some h -> h | None -> assert false in
      q.r_handle <- None;
      Sim.A.set q.state empty;
      h
    end

  (* ---- acquisition paths ---- *)

  let classify t r =
    let first, last = Router.first_last t.router r in
    (first, last, last - first > t.narrow_max - 1)

  let wide_of t r =
    let first, last = Router.first_last t.router r in
    last - first > t.narrow_max - 1

  (* Blocking acquisition through [g] (wide ops; every op in the list
     regime; narrow ops that lost the handshake). Try-first with a
     combining fallback, like the single-shard path: in the list regime
     every op convoys on this one list, so contended grants batch through
     one combiner pass instead of costing a scheduling round-trip per
     waiter on an oversubscribed host. *)
  let acquire_g t ~reader r =
    let gh =
      match
        (if reader then B.try_read_acquire else B.try_write_acquire) t.g r
      with
      | Some h -> h
      | None ->
        if t.combine then
          combine_acquire t ~reader t.gcomb t.g
            ~hslot:(Router.shards t.router) r
        else B.acquire t.g ~mode:(rw_mode reader) r
    in
    ignore (drain_res t ~reader ~blocking:true ~deadline_ns:max_int r);
    let d = dst t in
    d.c_g <- d.c_g + 1;
    mk t ~reader (Wide gh) no_sub

  (* Blocking narrow acquisition: publish, insert ascending, check [g].
     Single-shard inserts go try-first so contended ones batch through
     the combiner instead of convoying on the shard list. *)
  let acquire_narrow t ~reader r ~first ~last =
    res_up t ~first ~last;
    let grant, sh =
      if first = last then begin
        let sub = r in
        let h =
          match
            (if reader then B.try_read_acquire else B.try_write_acquire)
              t.shards.(first) sub
          with
          | Some h -> h
          | None ->
            if t.combine then
              combine_acquire t ~reader t.comb.(first) t.shards.(first)
                ~hslot:first sub
            else B.acquire t.shards.(first) ~mode:(rw_mode reader) sub
        in
        (Single first, h)
      end
      else begin
        let subs = ref [] in
        for i = first to last do
          let sub = Router.clamp t.router i r in
          subs :=
            (i, B.acquire t.shards.(i) ~mode:(rw_mode reader) sub) :: !subs
        done;
        (Narrow (List.rev !subs), no_sub)
      end
    in
    if gcheck_ok t ~reader r then begin
      let d = dst t in
      (match grant with
       | Single _ -> d.c_narrow <- d.c_narrow + 1
       | _ -> d.c_multi <- d.c_multi + 1);
      mk t ~reader grant sh
    end
    else begin
      (* A granted g holder conflicts: retreat fully (release shard
         nodes and the publication) and re-enter as a g op. *)
      (match grant with
       | Single i -> release_sub t i sh
       | Narrow subs -> List.iter (fun (i, sub) -> release_sub t i sub) subs
       | _ -> assert false);
      narrow_done t;
      let d = dst t in
      d.c_diverted <- d.c_diverted + 1;
      acquire_g t ~reader r
    end

  let acquire t ~reader r =
    let t0 = match t.stats with None -> 0 | Some _ -> Clock.now_ns () in
    let h =
      match if reader && t.rbias then rbias_try t r else None with
      | Some h -> h
      | None ->
      (* Writer prologue: raise [w_live] and sweep the reader slots
         before inserting anywhere. The Dekker argument only needs
         [w_up] to precede the sweep; sweeping first means the writer
         waits out live fast readers while holding no node, so slow-path
         readers keep flowing past it and share with the fast reader
         exactly as they would on the plain list. Holding [w_live]
         through the grant and the critical section keeps new fast
         readers out; release drops it after the nodes are marked. *)
      if (not reader) && t.rbias then begin
        w_up t;
        rbias_wait t ~lo:(Range.lo r) ~hi:(Range.hi r)
      end;
      if regime_bit (Sim.A.get t.mode) = 1 then begin
        (* List regime steady state: no classification unless a sample
           fires (the switch decision needs the narrow/wide tag); the g
           path re-derives shard coverage lazily, and only while narrow
           holders are live. *)
        if sampled t then decide t ~wide_op:(wide_of t r);
        acquire_g t ~reader r
      end
      else begin
        let first, last, wide_op = classify t r in
        if sampled t then decide t ~wide_op;
        if wide_op then acquire_g t ~reader r
        else acquire_narrow t ~reader r ~first ~last
      end
    in
    (match t.stats with
     | None -> ()
     | Some s ->
       Lockstat.add s (rw_mode reader) (Clock.now_ns () - t0));
    h

  let read_acquire t r = acquire t ~reader:true r

  let write_acquire t r = acquire t ~reader:false r

  (* Non-blocking: one bounded attempt down whichever path routing picks.
     All-or-nothing on the narrow path; the g path pairs a try-insert
     with a non-blocking drain. *)
  let try_acquire t ~reader r =
    let try_g () =
      match
        (if reader then B.try_read_acquire else B.try_write_acquire) t.g r
      with
      | None -> None
      | Some gh ->
        if drain_res t ~reader ~blocking:false ~deadline_ns:max_int r
        then begin
          let d = dst t in
          d.c_g <- d.c_g + 1;
          Some (mk t ~reader (Wide gh) no_sub)
        end
        else begin
          B.release t.g gh;
          None
        end
    in
    match if reader && t.rbias then rbias_try t r else None with
    | Some h -> Some h
    | None ->
    (* Writer prologue mirrors [acquire]: raise [w_live] and sweep the
       slots before inserting anywhere. A still-live fast reader fails
       the try — retrying the sweep would turn try into a wait. The
       epilogue below drops [w_live] on every [None] path; on success
       release drops it after the nodes are marked. *)
    let wbias = (not reader) && t.rbias in
    if wbias then w_up t;
    let res =
      if wbias && not (rbias_clear t ~lo:(Range.lo r) ~hi:(Range.hi r)) then
        None
      else
    if regime_bit (Sim.A.get t.mode) = 1 then begin
      if sampled t then decide t ~wide_op:(wide_of t r);
      try_g ()
    end
    else begin
      let first, last, wide_op = classify t r in
      if sampled t then decide t ~wide_op;
      if wide_op then try_g ()
      else begin
        res_up t ~first ~last;
      let try_shard i sub =
        (if reader then B.try_read_acquire else B.try_write_acquire)
          t.shards.(i) sub
      in
      let rec go i acc =
        if i > last then Some (List.rev acc)
        else
          match try_shard i (Router.clamp t.router i r) with
          | Some h -> go (i + 1) ((i, h) :: acc)
          | None ->
            (* All-or-nothing: retreat from everything claimed. [res] for
               the claimed shards drops inside release_sub; the never-
               claimed tail drops below. *)
            List.iter (fun (j, sub) -> release_sub t j sub) acc;
            res_down t ~first:i ~last;
            narrow_done t;
            None
      in
      match
        if first = last then (
          (* [first = last] implies the whole range lies in that shard's
             span, so no clamp is needed. *)
          match try_shard first r with
          | Some h -> Some [ (first, h) ]
          | None ->
            res_down t ~first ~last;
            narrow_done t;
            None)
        else go first []
      with
      | None -> None
      | Some subs ->
        if gcheck_ok t ~reader r then begin
          let d = dst t in
          match subs with
          | [ (i, h) ] ->
            d.c_narrow <- d.c_narrow + 1;
            Some (mk t ~reader (Single i) h)
          | _ ->
            d.c_multi <- d.c_multi + 1;
            Some (mk t ~reader (Narrow subs) no_sub)
        end
        else begin
          List.iter (fun (i, sub) -> release_sub t i sub) subs;
          narrow_done t;
          None
        end
      end
    end
    in
    (match res with None when wbias -> w_down t | _ -> ());
    res

  let try_read_acquire t r = try_acquire t ~reader:true r

  let try_write_acquire t r = try_acquire t ~reader:false r

  (* Deadline-bounded acquisition funnels through [g] regardless of
     regime: the timed contract ([None] leaves no residual state) composes
     cleanly with exactly one insertion point, and a timed op racing a
     regime switch then cancels by releasing its single g node — no
     partial multi-shard unwind. The price is that a timed op in the
     sharded regime conflicts like a wide one, which the conformance
     battery's timed scenario accepts. *)
  let acquire_opt t ~reader ~deadline_ns r =
    let t0 = match t.stats with None -> 0 | Some _ -> Clock.now_ns () in
    let result =
      match if reader && t.rbias then rbias_try t r else None with
      | Some h -> Some h
      | None ->
        (* Writer prologue mirrors [acquire], deadline-bounded: raise
           [w_live] and wait out live fast readers while holding no
           node. The epilogue below drops [w_live] on every [None]
           path; on success release drops it after the node is
           marked. *)
        let wbias = (not reader) && t.rbias in
        if wbias then w_up t;
        if
          wbias
          && not
               (rbias_wait_opt t ~deadline_ns ~lo:(Range.lo r)
                  ~hi:(Range.hi r))
        then None
        else begin
          if sampled t then decide t ~wide_op:(wide_of t r);
          match B.acquire_opt t.g ~mode:(rw_mode reader) ~deadline_ns r with
          | None -> None
          | Some gh ->
            if drain_res t ~reader ~blocking:true ~deadline_ns r then begin
              let d = dst t in
              d.c_g <- d.c_g + 1;
              Some (mk t ~reader (Wide gh) no_sub)
            end
            else begin
              (* Deadline expired while narrow holders lived: unwind
                 the g node; nothing else was published. *)
              B.release t.g gh;
              None
            end
        end
    in
    (match result with
     | None when (not reader) && t.rbias -> w_down t
     | _ -> ());
    (match result with
     | Some _ -> (
       match t.stats with
       | None -> ()
       | Some s ->
         Lockstat.add s (rw_mode reader) (Clock.now_ns () - t0))
     | None -> (dst t).c_timeouts <- (dst t).c_timeouts + 1);
    result

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
    s_comb_entries : int;
    s_comb_passes : int;
    s_combined : int;  (** grants deposited by a combiner for another domain *)
    s_timeouts : int;
    s_fast_reads : int;  (** biased fast-path reader grants *)
    s_heat : int array;  (** per-shard combining entries *)
  }

  let snapshot t =
    let sum f = Array.fold_left (fun a d -> a + f d) 0 t.dstates in
    { s_regime = regime t;
      s_switches = Atomic.get t.switches;
      s_narrow = sum (fun d -> d.c_narrow);
      s_multi = sum (fun d -> d.c_multi);
      s_g = sum (fun d -> d.c_g);
      s_diverted = sum (fun d -> d.c_diverted);
      s_comb_entries = sum (fun d -> d.c_comb_entries);
      s_comb_passes = sum (fun d -> d.c_comb_passes);
      s_combined = sum (fun d -> d.c_combined);
      s_timeouts = sum (fun d -> d.c_timeouts);
      s_fast_reads = sum (fun d -> d.c_fastr);
      s_heat =
        Array.init (Router.shards t.router) (fun i ->
            Padded_counters.get t.heat i) }
end
