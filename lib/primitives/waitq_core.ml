(* Functorized per-conflict waiter registry: the publication protocol of
   the parking layer, grown out of the observation-only
   Rlk_chaos.Waitboard into a correctness-carrying structure.

   Each waiting domain owns one slot (indexed by [Sim.domain_id], sized
   [Sim.capacity]) holding the range it is waiting on plus a parker flag.
   A releaser walks the published slots and unparks exactly the waiters
   whose range overlaps the released one — targeted hand-off, no
   thundering herd — paying a single atomic load ([nwaiting]) when nobody
   waits, which is what keeps the uncontended release path flat.

   Lost-wakeup safety is a Dekker-style publication race, all seq-cst:

     waiter:   publish slot; arm flag (WAITING); re-check predicate; park
     releaser: mutate state (mark the node); load nwaiting; scan slots;
               flag := NOTIFIED; unpark

   If the waiter's re-check missed the releaser's mutation, the whole
   publication precedes it in the seq-cst order, so the releaser's scan
   must observe the slot and leave a notification. Conversely a stale
   notification (from a range released while we were re-arming, or a slot
   shared by id-aliased domains) merely wakes the waiter spuriously: the
   wait loop re-arms, re-checks, re-parks.

   Everything goes through [Sim] so the model checker explores
   publish/arm/check/park against mark/scan/notify as scheduling points —
   the lost-wakeup interleavings become checkable (and the chaos point
   [parker.wake.skip], injected by the callers around [wake_overlap],
   makes the checker and the watchdog prove they would catch one). *)

module Make (Sim : Traced_atomic.SIM) = struct
  (* Parker-flag states. No "empty": a slot's flag is only meaningful
     while its [active] bit is set, and the wait loop re-arms it on every
     iteration, so stale values are absorbed as spurious wake-ups. *)
  let waiting = 0
  let notified = 1

  type slot = {
    state : int Sim.A.t;  (* the per-domain parker flag *)
    active : int Sim.A.t;
        (* 0 = free, 1 = claimed (fields being written), 2 = published.
           Claimed-vs-published keeps a scanner from matching a slot
           whose [lo,hi) is still being written; free-vs-claimed guards
           slot aliasing (domain ids wrap at [Sim.capacity], so two live
           domains can share a slot — the loser of the claim CAS falls
           back to polling). *)
    mutable lo : int;
    mutable hi : int;
  }

  type t = {
    slots : slot array;
    nwaiting : int Sim.A.t;
        (* published-slot count: the one load a release pays when idle *)
    high : int Sim.A.t;
        (* exclusive watermark over slot indices ever published, bounding
           the scan to the domains actually seen (capacity is 256 in
           production; typical processes use a handful of slots) *)
  }

  let create () =
    { slots =
        Array.init Sim.capacity (fun _ ->
            Padded_counters.isolate
              { state = Sim.A.make waiting;
                active = Sim.A.make 0;
                lo = 0;
                hi = 0 });
      nwaiting = Sim.A.make_contended 0;
      high = Sim.A.make 0 }

  let rec bump_high t i =
    let h = Sim.A.get t.high in
    if i >= h && not (Sim.A.compare_and_set t.high h (i + 1)) then
      bump_high t i

  (* Wait until [pred] holds, published under [lo,hi): any concurrent
     [wake_overlap] whose range overlaps will unpark us. The caller picks
     the range of the *awaited* resource (the conflicting node), not its
     own request — list-order races mean the two need not overlap, and
     the release-side wake carries the released node's range. Returns
     [true] when the wait blocked past the spin budget at least once. *)
  let wait t ~lo ~hi pred =
    let me = Sim.domain_id () in
    let s = t.slots.(me) in
    if not (Sim.A.compare_and_set s.active 0 1) then begin
      (* Slot aliased by another live waiting domain: fall back to
         polling for this wait — always sound, and vanishingly rare
         (needs > capacity domains with two aliases waiting on the same
         lock at once). *)
      Sim.wait_until pred;
      false
    end
    else begin
      s.lo <- lo;
      s.hi <- hi;
      ignore (Sim.A.fetch_and_add t.nwaiting 1);
      bump_high t me;
      Sim.A.set s.active 2;
      let parked = ref false in
      let rec loop () =
        (* Arm-then-check: the releaser either sees the armed slot (and
           notifies) or its release strictly precedes this re-check (and
           the predicate holds). *)
        Sim.A.set s.state waiting;
        if not (pred ()) then begin
          if Sim.park (fun () -> Sim.A.get s.state = notified) then
            parked := true;
          loop ()
        end
      in
      loop ();
      Sim.A.set s.active 0;
      ignore (Sim.A.fetch_and_add t.nwaiting (-1));
      !parked
    end

  (* Unpark every published waiter whose range overlaps [lo,hi); returns
     the number of fresh notifications (stale duplicates not counted).
     One atomic load when nobody waits. *)
  let wake_overlap t ~lo ~hi =
    if Sim.A.get t.nwaiting = 0 then 0
    else begin
      let n = ref 0 in
      let stop = min (Sim.A.get t.high) (Array.length t.slots) in
      for i = 0 to stop - 1 do
        let s = t.slots.(i) in
        if Sim.A.get s.active = 2 && s.lo < hi && lo < s.hi then begin
          if Sim.A.exchange s.state notified = waiting then incr n;
          (* Unpark unconditionally: on an id-aliased slot a blocked
             waiter can sit behind an already-notified flag. *)
          Sim.unpark i
        end
      done;
      !n
    end

  let waiting_now t = Sim.A.get t.nwaiting
end
