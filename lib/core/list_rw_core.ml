open Rlk_primitives
module Fault = Rlk_chaos.Fault
module Waitboard = Rlk_chaos.Waitboard

(* Functorized body of {!List_rw} (the paper's reader-writer list-based
   range lock, Section 4.2, incl. the Section 4.5 fast path); see
   list_rw.mli for semantics. The model checker applies it to its
   recording runtime, which is how the insert/validate races the paper
   reasons about informally get explored exhaustively. Production runs
   [List_rw_core_real], this same text compiled with [Sim] bound to
   {!Traced_atomic.Real} (lib/core/dune): the functors there ignore their
   runtime argument, so a walk's [Sim.A.get] is a plain load rather than
   an indirect call through the argument. [List_rw] applies it to the
   production {!Node} and {!Fairgate}.

   The protocol (insert, validate, mark, help-unlink) is written once, in
   [Make_located], over a {e locator}: the component that decides where a
   walk starts. [Make] uses the plain one (every walk starts at the head);
   [Make_exclusive], the paper's exclusive lock ({!List_mutex}), is the
   plain one with no readers and so no validation; the skip-index core
   (lib/index) supplies a tower locator whose walks start at the last
   node below the conflict window, and so is this same body plus an
   index.

   Atomic accesses on the head and node links go through [Sim.A] (the
   scheduling points); waits go through [Sim.wait_until]. Metrics, chaos
   fault points, history recording and the waitboard stay concrete —
   observation-only facilities the checker need not interleave. *)

(* Unsound skip, shared by every instance: drop the release-side wake of
   parked waiters — the lost-wakeup bug class. See the chaos self-test in
   test_chaos and the park-unpark model scenario. *)
let fp_wake_skip = Fault.point "parker.wake.skip"

(* [true] only in [List_rw_core_real]: its build rule (lib/core/dune)
   rewrites this line. Every instance re-exports it as [generated], so a
   test can check that production runs the generated core, not this text
   applied as a functor. *)
let generated_core = false

type preference = Prefer_readers | Prefer_writers

(* Where walks start, and the index maintenance around a grant. [cell] is
   a node's (or the head's) link cell. The hooks run at fixed points of
   the protocol:
   - [before_insert] before the acquirer's node can link;
   - [start] gives the cell the insert walk, its restarts and the writer
     validation scan begin at. Every node that could conflict with [node]
     and was linked before the call must lie past that cell;
   - [granted] after a grant;
   - [releasing] at release, before the node is marked. *)
module type LOCATOR = sig
  type node

  type cell

  type t

  val name : string
  (** Lock name (history, waitboard); with '-' read as '_', also the
      prefix of the lock's chaos points. *)

  val writers_only : bool
  (** The instance never links a reader node. A writer validates only
      against readers, so its validation scan cannot fail and is skipped:
      the insert CAS alone grants, as in the paper's exclusive lock
      (Listing 1). *)

  val create : unit -> t

  val head : t -> cell

  val before_insert : t -> Range.t -> unit

  val start : t -> node -> cell

  val granted : t -> node -> unit

  val releasing : t -> node -> unit
end

module Make_located
    (Sim : Traced_atomic.SIM)
    (N : Node_core.S with type 'a aref = 'a Sim.A.t)
    (G : Fairgate_core.S)
    (L : LOCATOR with type node := N.t and type cell := N.link Sim.A.t) =
struct
  type nonrec preference = preference = Prefer_readers | Prefer_writers

  module W = Waitq_core.Make (Sim)

  let name = L.name

  let generated = generated_core

  (* Chaos injection points (see doc/robustness.md). The [.skip] points
     are deliberately unsound — they disable a validation scan, breaking
     reader/writer exclusion detectably — and fire only when a chaos plan
     lists them as unsound (the torture harness's and the model checker's
     catch-a-real-bug self tests). [Fault.point] dedupes by name, so every
     instantiation of one locator shares the same registered points. *)
  let fp point =
    Fault.point (String.map (function '-' -> '_' | c -> c) name ^ "." ^ point)

  let fp_insert_cas = fp "insert_cas"
  let fp_overlap_wait = fp "overlap_wait"
  let fp_release = fp "release"
  let fp_r_validate_skip = fp "r_validate.skip"
  let fp_w_validate_skip = fp "w_validate.skip"
  let fp_conflict_wait_skip = fp "conflict_wait.skip"

  type t = {
    head : N.link Sim.A.t;
    index : L.t;
    fast_path : bool;
    prefer : preference;
    park : bool;  (* park blocking waiters (default) or pure-spin *)
    gate : G.t option;
    stats : Lockstat.t option;
    metrics : Metrics.t;
    board : Waitboard.t;
    waitq : W.t;
  }

  type handle = N.t

  let create ?stats ?(fast_path = false) ?fairness ?(prefer = Prefer_readers)
      ?(park = true) () =
    let board = Waitboard.create ~name in
    if Rlk_chaos.Watchdog.auto_watch () then Rlk_chaos.Watchdog.watch board;
    let index = L.create () in
    { head = L.head index;
      index;
      fast_path;
      prefer;
      park;
      gate = Option.map (fun patience -> G.create ~patience ()) fairness;
      stats;
      metrics = Metrics.create ();
      board;
      waitq = W.create () }

  exception Out_of_budget
  exception Would_block
  exception Validation_failed
  exception Timed_out  (* before our node linked: drop it *)
  exception Timed_out_linked  (* after: unwind by mark-and-retreat *)

  (* History hooks for the verification oracle (lib/check): live only when
     the lock carries the [?stats] observability hook AND recording is
     armed, so the default configuration pays one load-and-branch. Acquired
     is recorded strictly after the grant and Released strictly before the
     node is marked, keeping every recorded span inside the real hold. *)
  let hist_acquired t (node : N.t) =
    if Atomic.get History.enabled && Option.is_some t.stats then
      node.N.span <-
        History.acquired ~lock:name
          ~mode:(if node.N.reader then Lockstat.Read else Lockstat.Write)
          ~lo:node.N.lo ~hi:node.N.hi

  let hist_failed t ~mode r =
    if Atomic.get History.enabled && Option.is_some t.stats then
      History.failed ~lock:name ~mode ~lo:(Range.lo r) ~hi:(Range.hi r)

  let hist_released (node : N.t) =
    if node.N.span >= 0 then begin
      if Atomic.get History.enabled then
        History.released ~lock:name ~span:node.N.span
          ~mode:(if node.N.reader then Lockstat.Read else Lockstat.Write)
          ~lo:node.N.lo ~hi:node.N.hi;
      node.N.span <- -1
    end

  (* The paper's reader-writer [compare] (Listing 2): position of [node]
     relative to [cur]. Overlapping readers order by start. *)
  type position = Cur_precedes | Node_precedes | Conflict

  let[@inline] compare_nodes ~cur ~node =
    let both_readers = cur.N.reader && node.N.reader in
    if node.N.lo >= cur.N.hi then Cur_precedes
    else if both_readers && node.N.lo >= cur.N.lo then Cur_precedes
    else if cur.N.lo >= node.N.hi then Node_precedes
    else if both_readers && cur.N.lo >= node.N.lo then Node_precedes
    else Conflict

  let rec mark_deleted node =
    let l = Sim.A.get node.N.next in
    assert (not l.N.marked);
    if not (Sim.A.compare_and_set node.N.next l (N.marked l)) then
      mark_deleted node

  (* Unlink the marked node [c] (whose link [cl] was read), reachable
     through the cell [prev]: the paper's raw-pointer CAS, which silently
     fails when [prev] no longer holds the unmarked pointer to [c]. *)
  let try_unlink prev c cl =
    if Sim.A.get prev == c.N.live_link then
      ignore (Sim.A.compare_and_set prev c.N.live_link (N.unmarked cl))

  (* Poll [pred] with deadline-clamped backoff naps until it holds or the
     deadline passes. *)
  let rec poll pred ~deadline_ns b =
    pred ()
    || Clock.now_ns () <= deadline_ns
       && begin
            Backoff.once ~deadline_ns b;
            poll pred ~deadline_ns b
          end

  (* Blocking-wait back-end shared by every conflict wait below. Three
     strategies:
     - a finite deadline polls with deadline-clamped {!Backoff} naps
       (OCaml's [Condition] has no timed wait, so a timed wait cannot
       park);
     - otherwise, with parking enabled (the default), the waiter publishes
       [\[wlo,whi)] on the wait queue, spins briefly on its own flag and
       then blocks on the per-domain {!Rlk_primitives.Parker};
     - [~park:false] locks spin via [Sim.wait_until] (the pre-parking
       behaviour, kept selectable for the spin-vs-park ablation).

     [\[wlo,whi)] is the *awaited* resource's range — what release-side
     wake scans are matched against — not the waiter's requested range:
     insert-position races mean a waiter can block on a node that does not
     overlap its own request, and the wake issued when that node is marked
     carries exactly the node's range. Returns [false] on deadline
     expiry. *)
  let wait_pred t ~wlo ~whi ~deadline_ns pred =
    let t0 = Clock.now_ns () in
    let ok =
      if deadline_ns <> max_int then poll pred ~deadline_ns (Backoff.create ())
      else begin
        if t.park then begin
          if W.wait t.waitq ~lo:wlo ~hi:whi pred then Metrics.park t.metrics
        end
        else Sim.wait_until pred;
        true
      end
    in
    Metrics.waited t.metrics (Clock.now_ns () - t0);
    ok

  (* Every transition of a node to marked (and every head unlink a drain
     waiter may be parked on) must be followed by one of these, or a
     parked waiter sleeps forever — the lost-wakeup hazard
     [parker.wake.skip] injects on purpose. One atomic load when nobody
     waits. *)
  let wake_released t (node : N.t) =
    if Atomic.get Fault.enabled && Fault.skip fp_wake_skip then ()
    else begin
      let n = W.wake_overlap t.waitq ~lo:node.N.lo ~hi:node.N.hi in
      if n > 0 then Metrics.wake t.metrics n
    end

  let wait_until_marked t ~(node : N.t) c ~blocking ~deadline_ns =
    Metrics.overlap_wait t.metrics;
    if not blocking then raise Would_block;
    if Atomic.get Fault.enabled then Fault.hit fp_overlap_wait;
    Waitboard.wait_begin t.board ~lo:node.N.lo ~hi:node.N.hi
      ~write:(not node.N.reader);
    let ok =
      wait_pred t ~wlo:c.N.lo ~whi:c.N.hi ~deadline_ns (fun () ->
          (Sim.A.get c.N.next).N.marked)
    in
    Waitboard.wait_end t.board;
    if not ok then raise Timed_out

  (* Reader validation (Listing 3, [r_validate]): scan forward from our
     node until ranges start at or past our end. With the paper's default
     reader preference we wait out overlapping writers; with the reversed
     scheme (Section 4.2's last remark) the reader defers — it deletes
     itself and fails validation, and the writer waits instead. The scans
     and the insert walk below are top-level recursions over explicit
     arguments, not local closures, so an acquisition allocates nothing
     beyond its node and failure counter. *)
  let rec r_scan t node ~blocking ~deadline_ns prev c =
    (* [N.nil_node] starts at [max_int], so the [lo] bound ends the scan at
       the end of the list too. *)
    if c.N.lo >= node.N.hi then ()
    else
      let cl = Sim.A.get c.N.next in
      if cl.N.marked then begin
        try_unlink prev c cl;
        r_scan t node ~blocking ~deadline_ns prev cl.N.succ
      end
      else if c.N.reader then
        r_scan t node ~blocking ~deadline_ns c.N.next cl.N.succ
      else if blocking && t.prefer = Prefer_readers then begin
        (* Overlapping writer: it entered before us, defer to it. *)
        wait_until_marked t ~node c ~blocking ~deadline_ns;
        r_scan t node ~blocking ~deadline_ns prev c
      end
      else begin
        (* Writer-preferred or non-blocking: leave the list and retry. *)
        if t.prefer = Prefer_writers then
          Metrics.validation_failure t.metrics;
        mark_deleted node;
        wake_released t node;
        raise Validation_failed
      end

  let r_validate t node ~blocking ~deadline_ns =
    if Atomic.get Fault.enabled && Fault.skip fp_r_validate_skip then ()
    else
      let l = Sim.A.get node.N.next in
      r_scan t node ~blocking ~deadline_ns node.N.next l.N.succ

  (* Writer validation (Listing 3, [w_validate]): rescan from the
     locator's start cell (the head, for the plain list) until we meet our
     own node. Under reader preference, meeting an overlapping
     (necessarily reader) node first means we delete ourselves and fail;
     under writer preference, we wait for that reader to leave instead. *)
  let rec w_scan t node ~blocking ~deadline_ns prev c =
    if c == node then ()
    else if c == N.nil_node then
      (* Our node is marked only by us; it must be reachable. *)
      assert false
    else
      let cl = Sim.A.get c.N.next in
      if cl.N.marked then begin
        try_unlink prev c cl;
        w_scan t node ~blocking ~deadline_ns prev cl.N.succ
      end
      else if c.N.hi <= node.N.lo then
        w_scan t node ~blocking ~deadline_ns c.N.next cl.N.succ
      else if blocking && t.prefer = Prefer_writers then begin
        (* Overlapping reader: under writer preference the reader will
           self-abort (or finish); wait until its node is marked. *)
        wait_until_marked t ~node c ~blocking ~deadline_ns;
        w_scan t node ~blocking ~deadline_ns prev c
      end
      else begin
        Metrics.validation_failure t.metrics;
        mark_deleted node;
        wake_released t node;
        raise Validation_failed
      end

  let w_validate t node ~blocking ~deadline_ns =
    if Atomic.get Fault.enabled && Fault.skip fp_w_validate_skip then ()
    else
      let start = L.start t.index node in
      w_scan t node ~blocking ~deadline_ns start (Sim.A.get start).N.succ

  (* One failed step of an insert attempt, counted against the fairness
     budget. *)
  let fail_event session failures ~blocking =
    incr failures;
    if G.failures_exceeded session ~failures:!failures then
      raise Out_of_budget;
    if not blocking then raise Would_block

  (* Link [node] into the cell [prev], whose link [expected] (already the
     canonical link to our successor) was read, then validate. [false]
     when the insert CAS failed and the walk must retry from [prev]. *)
  let insert_here t node ~blocking ~deadline_ns prev expected =
    (* A stall here widens the window between choosing the insertion
       point and publishing the node — the exact race the validation
       scans exist to repair. *)
    if Atomic.get Fault.enabled then Fault.hit fp_insert_cas;
    Sim.A.set node.N.next expected;
    if (not (Atomic.get Fault.enabled && Fault.cas_fails fp_insert_cas))
       && Sim.A.compare_and_set prev expected node.N.live_link
    then begin
      (match
         if node.N.reader then r_validate t node ~blocking ~deadline_ns
         else if L.writers_only then ()
         else w_validate t node ~blocking ~deadline_ns
       with
       | () -> ()
       | exception Timed_out -> raise Timed_out_linked);
      true
    end
    else begin
      Metrics.cas_failure t.metrics;
      false
    end

  (* The insert walk from the cell [prev]; a failed insert CAS retries
     from the same cell. A deadline expiring after the insertion CAS
     surfaces as [Timed_out_linked], so a timed-out caller knows whether to
     mark-and-retreat (linked) or just drop its node (not). *)
  let rec traverse t session node failures ~blocking ~deadline_ns prev =
    let l = Sim.A.get prev in
    if l.N.marked then
      if prev == t.head then begin
        ignore (Sim.A.compare_and_set t.head l (N.unmarked l));
        traverse t session node failures ~blocking ~deadline_ns prev
      end
      else begin
        Metrics.restart t.metrics;
        fail_event session failures ~blocking;
        traverse t session node failures ~blocking ~deadline_ns
          (L.start t.index node)
      end
    else
      let cur = l.N.succ in
      if cur == N.nil_node then begin
        if not (insert_here t node ~blocking ~deadline_ns prev l) then begin
          fail_event session failures ~blocking;
          traverse t session node failures ~blocking ~deadline_ns prev
        end
      end
      else
        let curl = Sim.A.get cur.N.next in
        if curl.N.marked then begin
          ignore (Sim.A.compare_and_set prev l (N.unmarked curl));
          traverse t session node failures ~blocking ~deadline_ns prev
        end
        else
          (* An if-chain, not a [match]: the hop to [cur] is a tail call
             that needs no spill, and a [match] would hoist the slow
             arms' spills of every argument onto it. *)
          let pos = compare_nodes ~cur ~node in
          if pos == Cur_precedes then
            traverse t session node failures ~blocking ~deadline_ns cur.N.next
          else if pos == Node_precedes then begin
            if not (insert_here t node ~blocking ~deadline_ns prev l) then
            begin
              fail_event session failures ~blocking;
              traverse t session node failures ~blocking ~deadline_ns prev
            end
          end
          (* Conflict. Unsound skip: walk past the conflicting holder as
             if compatible. The validation scan would normally repair
             this, so a detectable violation needs the matching
             validation skip armed too — except in a writers-only lock,
             which has no scan. *)
          else if Atomic.get Fault.enabled && Fault.skip fp_conflict_wait_skip
          then
            traverse t session node failures ~blocking ~deadline_ns cur.N.next
          else begin
            (* Each conflict wait counts against the fairness budget: our
               node is not yet linked, so every wait is a window for later
               arrivals to slip past us. Without this a continuous reader
               stream bypasses a waiting writer indefinitely and the
               impatient counter never fires (bounded-bypass property in
               test_core). *)
            if blocking then fail_event session failures ~blocking;
            wait_until_marked t ~node cur ~blocking ~deadline_ns;
            traverse t session node failures ~blocking ~deadline_ns prev
          end

  (* One insertion-plus-validation attempt. *)
  let try_insert t session node failures ~blocking ~deadline_ns =
    traverse t session node failures ~blocking ~deadline_ns
      (L.start t.index node)

  let fast_path_acquire t node =
    t.fast_path
    &&
    let l = Sim.A.get t.head in
    (not l.N.marked)
    && l.N.succ == N.nil_node
    && Sim.A.compare_and_set t.head l node.N.self_link

  (* Blocking acquisition: loops on validation failures (fresh node each
     retry, as in Listing 2's do-while) and escalates through the fairness
     gate when the failure budget runs out. *)
  let rec acquire_blocking t session failures r node =
    if fast_path_acquire t node then begin
      Metrics.fast_path_hit t.metrics;
      node
    end
    else
      match
        try_insert t session node failures ~blocking:true ~deadline_ns:max_int
      with
      | () -> node
      | exception Validation_failed ->
        incr failures;
        if G.failures_exceeded session ~failures:!failures then begin
          Metrics.escalation t.metrics;
          G.escalate session
        end;
        (* The abandoned node is still linked (marked); others unlink it.
           Start over with a fresh one. *)
        acquire_blocking t session failures r (N.alloc ~reader:node.N.reader r)
      | exception Out_of_budget ->
        Metrics.escalation t.metrics;
        G.escalate session;
        acquire_blocking t session failures r node

  (* Grant epilogue shared by every acquisition path: the locator's
     post-grant hook, then the history record. *)
  let granted t node =
    L.granted t.index node;
    hist_acquired t node

  let add_wait t mode t0 =
    match t.stats with
    | None -> ()
    | Some s -> Lockstat.add s mode (Clock.now_ns () - t0)

  let acquire t ~mode r =
    let reader =
      match mode with Lockstat.Read -> true | Lockstat.Write -> false
    in
    let t0 = match t.stats with None -> 0 | Some _ -> Clock.now_ns () in
    L.before_insert t.index r;
    (* Try the empty-list fast path before opening a fairness session: the
       session (and the retry machinery behind it) only matters once we
       have to insert into a non-empty list, and skipping it keeps the fast
       path allocation-light. *)
    let node = N.alloc ~reader r in
    let node =
      if fast_path_acquire t node then begin
        Metrics.fast_acquisition t.metrics;
        node
      end
      else begin
        let session = G.start t.gate in
        let node = acquire_blocking t session (ref 0) r node in
        G.finish session;
        Metrics.acquisition t.metrics;
        node
      end
    in
    granted t node;
    add_wait t mode t0;
    node

  let read_acquire t r = acquire t ~mode:Lockstat.Read r

  let write_acquire t r = acquire t ~mode:Lockstat.Write r

  let try_acquire_nb t ~reader r =
    let mode = if reader then Lockstat.Read else Lockstat.Write in
    L.before_insert t.index r;
    let node = N.alloc ~reader r in
    if fast_path_acquire t node then begin
      Metrics.fast_acquisition t.metrics;
      granted t node;
      Some node
    end
    else
      match
        try_insert t (G.start None) node (ref 0) ~blocking:false
          ~deadline_ns:max_int
      with
      | () ->
        Metrics.acquisition t.metrics;
        granted t node;
        Some node
      | exception (Would_block | Validation_failed) ->
        (* Never linked, or linked then self-deleted (others will unlink
           it). *)
        hist_failed t ~mode r;
        None

  let try_read_acquire t r = try_acquire_nb t ~reader:true r

  let try_write_acquire t r = try_acquire_nb t ~reader:false r

  (* Deadline-bounded acquisition. Validation failures retry with a fresh
     node (as in the blocking path) while the deadline allows; a timeout
     unwinds by mark-and-retreat when the node is linked
     ([Timed_out_linked]) — exactly the release mechanism — and simply
     drops the node when it never was ([Timed_out]). No fairness
     escalation: the impatient mode's auxiliary lock cannot honour a
     deadline. *)
  let rec attempt_opt t session ~reader ~deadline_ns r node =
    if fast_path_acquire t node then begin
      Metrics.fast_path_hit t.metrics;
      Some node
    end
    else
      match try_insert t session node (ref 0) ~blocking:true ~deadline_ns with
      | () -> Some node
      | exception Validation_failed ->
        (* Our node is already marked; retry with a fresh one unless the
           deadline has passed. *)
        if deadline_ns <> max_int && Clock.now_ns () > deadline_ns then None
        else attempt_opt t session ~reader ~deadline_ns r (N.alloc ~reader r)
      | exception Timed_out -> None
      | exception Timed_out_linked ->
        mark_deleted node;
        wake_released t node;
        None

  let acquire_opt t ~mode ~deadline_ns r =
    let reader =
      match mode with Lockstat.Read -> true | Lockstat.Write -> false
    in
    let t0 = match t.stats with None -> 0 | Some _ -> Clock.now_ns () in
    L.before_insert t.index r;
    let result =
      attempt_opt t (G.start None) ~reader ~deadline_ns r (N.alloc ~reader r)
    in
    (match result with
     | Some node ->
       Metrics.acquisition t.metrics;
       granted t node;
       add_wait t mode t0
     | None ->
       Metrics.timeout t.metrics;
       hist_failed t ~mode r);
    result

  let read_acquire_opt t ~deadline_ns r =
    acquire_opt t ~mode:Lockstat.Read ~deadline_ns r

  let write_acquire_opt t ~deadline_ns r =
    acquire_opt t ~mode:Lockstat.Write ~deadline_ns r

  let release t node =
    hist_released node;
    if Atomic.get Fault.enabled then Fault.delay fp_release;
    L.releasing t.index node;
    let l = if t.fast_path then Sim.A.get t.head else N.nil in
    if l == node.N.self_link && Sim.A.compare_and_set t.head l N.nil
    then
      (* Eagerly removed from the head, but a wide (drain) waiter may be
         parked on the head link changing. *)
      wake_released t node
    else begin
      mark_deleted node;
      wake_released t node
    end

  let with_read t r f =
    let h = read_acquire t r in
    match f () with
    | v -> release t h; v
    | exception e -> release t h; raise e

  let with_write t r f =
    let h = write_acquire t r in
    match f () with
    | v -> release t h; v
    | exception e -> release t h; raise e

  let range_of_handle = N.range_of

  let is_reader (n : handle) = n.N.reader

  let metrics t = Metrics.snapshot t.metrics

  let reset_metrics t = Metrics.reset t.metrics

  (* Non-inserting conflict drain, the primitive behind the adaptive
     frontend's global-list path (lib/adaptive): wait until no live node in
     this list conflicts with [r] in the given mode, without ever linking a
     node of our own. The caller has already made itself visible to future
     acquirers (its node in the global list, which every narrow acquirer
     checks after linking), so a clean pass here means every conflicting
     holder that could precede us has released. Waits terminate: an
     unmarked conflicting node either completes and is marked by release,
     or finds the caller's node in its check and retreats. Returns [false]
     when non-blocking (or past the deadline) with a conflict still live. *)
  let[@inline] conflicts ~reader lo hi (c : N.t) =
    c.N.lo < hi && lo < c.N.hi && not (reader && c.N.reader)

  (* As in [wait_until_marked], minus the node-specific bookkeeping. *)
  let drain_wait_marked t ~reader ~deadline_ns lo hi (c : N.t) =
    Metrics.overlap_wait t.metrics;
    if Atomic.get Fault.enabled then Fault.hit fp_overlap_wait;
    Waitboard.wait_begin t.board ~lo ~hi ~write:(not reader);
    let ok =
      wait_pred t ~wlo:c.N.lo ~whi:c.N.hi ~deadline_ns (fun () ->
          (Sim.A.get c.N.next).N.marked)
    in
    Waitboard.wait_end t.board;
    ok

  (* List sorted by lo: nothing past [hi] conflicts, and [N.nil_node]
     starts at [max_int]. *)
  let rec drain_walk t ~reader ~blocking ~deadline_ns lo hi c =
    if c.N.lo >= hi then true
    else
      let cl = Sim.A.get c.N.next in
      if cl.N.marked then
        drain_walk t ~reader ~blocking ~deadline_ns lo hi cl.N.succ
      else if not (conflicts ~reader lo hi c) then
        drain_walk t ~reader ~blocking ~deadline_ns lo hi cl.N.succ
      else if not blocking then false
      else if drain_wait_marked t ~reader ~deadline_ns lo hi c then
        drain_walk t ~reader ~blocking ~deadline_ns lo hi
          (Sim.A.get c.N.next).N.succ
      else false

  let rec drain_from_head t ~reader ~blocking ~deadline_ns lo hi =
    let l = Sim.A.get t.head in
    let n = l.N.succ in
    if n == N.nil_node then true
    else if l.N.marked then begin
      (* Fast-path holder: an exclusive single-node claim of the whole
         list. Its release (or demotion by an inserter) replaces the head
         link, so wait for the head to change. *)
      if not (conflicts ~reader lo hi n) then true
      else if not blocking then false
      else begin
        Metrics.overlap_wait t.metrics;
        Waitboard.wait_begin t.board ~lo ~hi ~write:(not reader);
        (* Park on the holder's range: the head changes either at its
           release (whose wake carries exactly that range) or at a
           demotion by an inserter — and an inserter only strips the head
           mark on its way to waiting out the same conflict, so the
           deferred wake at the real release still unblocks us. *)
        let ok =
          wait_pred t ~wlo:n.N.lo ~whi:n.N.hi ~deadline_ns (fun () ->
              Sim.A.get t.head != l)
        in
        Waitboard.wait_end t.board;
        ok && drain_from_head t ~reader ~blocking ~deadline_ns lo hi
      end
    end
    else drain_walk t ~reader ~blocking ~deadline_ns lo hi n

  let drain_conflicts t ~reader ~blocking ~deadline_ns r =
    let l0 = Sim.A.get t.head in
    if (not l0.N.marked) && l0.N.succ == N.nil_node then
      (* Empty list: no holder to wait for, and the seq-cst head load
         orders after the caller's global-list insert, so any narrow
         acquirer that links a node later must find that node in its
         check and retreat. Skipping the walk here keeps wide acquisitions
         over idle shards at one atomic load per shard. *)
      true
    else
      drain_from_head t ~reader ~blocking ~deadline_ns (Range.lo r)
        (Range.hi r)

  let holders t =
    let rec walk l acc =
      let n = l.N.succ in
      if n == N.nil_node then List.rev acc
      else
        let nl = Sim.A.get n.N.next in
        let acc =
          if nl.N.marked then acc
          else (N.range_of n, if n.N.reader then `Reader else `Writer) :: acc
        in
        walk nl acc
    in
    walk (Sim.A.get t.head) []
end

(* The plain list: the locator's state is the head cell itself, and every
   walk starts there. *)
module Head
    (Sim : Traced_atomic.SIM)
    (N : Node_core.S with type 'a aref = 'a Sim.A.t)
    (K : sig
       val name : string

       val writers_only : bool
     end) =
struct
  include K

  type t = N.link Sim.A.t

  (* The head is the hottest word of the lock: isolate it so concurrent
     acquisitions on *other* locks (e.g. neighbouring shards of
     Rlk_adaptive) never invalidate its cache line. *)
  let create () = Sim.A.make_contended N.nil

  let head t = t

  let before_insert _ _ = ()

  let start t _ = t

  let granted _ _ = ()

  let releasing _ _ = ()
end

module Make
    (Sim : Traced_atomic.SIM)
    (N : Node_core.S with type 'a aref = 'a Sim.A.t)
    (G : Fairgate_core.S) =
  Make_located (Sim) (N) (G)
    (Head (Sim) (N)
       (struct
         let name = "list-rw"

         let writers_only = false
       end))

(* The paper's exclusive lock (Listing 1) is this body with no readers:
   every acquisition is a write, and validation is skipped. The result
   has {!List_mutex}'s signature. *)
module Make_exclusive
    (Sim : Traced_atomic.SIM)
    (N : Node_core.S with type 'a aref = 'a Sim.A.t)
    (G : Fairgate_core.S) =
struct
  module Core =
    Make_located (Sim) (N) (G)
      (Head (Sim) (N)
         (struct
           let name = "list-ex"

           let writers_only = true
         end))

  type t = Core.t

  type handle = Core.handle

  let name = Core.name

  let generated = Core.generated

  let create ?stats ?fast_path ?fairness ?park () =
    Core.create ?stats ?fast_path ?fairness ?park ()

  let acquire = Core.write_acquire

  let try_acquire = Core.try_write_acquire

  let acquire_opt = Core.write_acquire_opt

  let release = Core.release

  let with_range = Core.with_write

  let range_of_handle = Core.range_of_handle

  let metrics = Core.metrics

  let reset_metrics = Core.reset_metrics

  let holders t = List.map fst (Core.holders t)
end
