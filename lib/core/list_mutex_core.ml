open Rlk_primitives
module Fault = Rlk_chaos.Fault
module Waitboard = Rlk_chaos.Waitboard

(* Functorized body of {!List_mutex} (the paper's exclusive list-based
   range lock); see list_mutex.mli for semantics. [List_mutex] is this
   functor applied to {!Traced_atomic.Real}, the production {!Node} and
   {!Fairgate}; the model checker applies it to its recording runtime and
   a fresh node instance per explored run.

   Atomic accesses on the head and the node links go through [Sim.A] (they
   are the scheduling points); waits go through [Sim.wait_until] so the
   checker can suspend a simulated domain instead of spinning. Everything
   observation-only — metrics, chaos fault points, history recording, the
   waitboard — stays concrete. *)

(* Chaos injection points (see doc/robustness.md for the naming scheme).
   Top-level so every instantiation (production and each model run) shares
   the same registered points. *)
let fp_insert_cas = Fault.point "list_mutex.insert_cas"
let fp_overlap_wait = Fault.point "list_mutex.overlap_wait"
let fp_release = Fault.point "list_mutex.release"

(* Unsound skip shared with list_rw_core: drop the release-side wake of
   parked waiters, injecting the lost-wakeup bug class the parking layer
   must rule out. Armed only via a plan's [unsound] list — the chaos
   self-test (test_chaos) proves the watchdog sees the resulting hang and
   the model checker's park scenario reports it as a deadlock. *)
let fp_wake_skip = Fault.point "parker.wake.skip"

module Make
    (Sim : Traced_atomic.SIM)
    (N : Node_core.S with type 'a aref = 'a Sim.A.t)
    (G : Fairgate_core.S) =
struct
  module W = Waitq_core.Make (Sim)

  type t = {
    head : N.link Sim.A.t;
    fast_path : bool;
    park : bool;  (* park blocking waiters (default) or pure-spin *)
    gate : G.t option;
    stats : Lockstat.t option;
    metrics : Metrics.t;
    board : Waitboard.t;
    waitq : W.t;
  }

  type handle = N.t

  let name = "list-ex"

  let create ?stats ?(fast_path = false) ?fairness ?(park = true) () =
    let board = Waitboard.create ~name in
    if Rlk_chaos.Watchdog.auto_watch () then Rlk_chaos.Watchdog.watch board;
    { head = Sim.A.make_contended N.nil;
      fast_path;
      park;
      gate = Option.map (fun patience -> G.create ~patience ()) fairness;
      stats;
      metrics = Metrics.create ();
      board;
      waitq = W.create () }

  exception Out_of_budget
  exception Would_block
  exception Timed_out

  (* History hooks for the verification oracle (lib/check): live only when
     the lock carries the [?stats] observability hook AND recording is
     armed; see the twin comment in list_rw_core.ml. The exclusive lock
     always records Write mode. *)
  let hist_acquired t (node : N.t) =
    if Atomic.get History.enabled && Option.is_some t.stats then
      node.N.span <-
        History.acquired ~lock:name ~mode:Lockstat.Write ~lo:node.N.lo
          ~hi:node.N.hi

  let hist_failed t r =
    if Atomic.get History.enabled && Option.is_some t.stats then
      History.failed ~lock:name ~mode:Lockstat.Write ~lo:(Range.lo r)
        ~hi:(Range.hi r)

  let hist_released (node : N.t) =
    if node.N.span >= 0 then begin
      if Atomic.get History.enabled then
        History.released ~lock:name ~span:node.N.span ~mode:Lockstat.Write
          ~lo:node.N.lo ~hi:node.N.hi;
      node.N.span <- -1
    end

  (* Wait until [c] is marked deleted; raises [Timed_out] past an absolute
     deadline ([max_int] = wait forever). The waitboard publication (what
     the watchdog reports) carries [node]'s requested range; the wait-queue
     publication (what release-side wake-ups are matched against) carries
     [c]'s range — the insert-position races mean the two need not overlap,
     and the wake after [c] is marked carries exactly [c]'s range. *)
  let wait_marked t (node : N.t) (c : N.t) ~deadline_ns =
    Waitboard.wait_begin t.board ~lo:node.N.lo ~hi:node.N.hi ~write:true;
    let t0 = Clock.now_ns () in
    let pred () = (Sim.A.get c.N.next).N.marked in
    let ok =
      if deadline_ns <> max_int then begin
        (* A deadline cannot park — OCaml's [Condition] has no timed
           wait — so timed waits poll, with saturated naps clamped to the
           remaining budget. *)
        let b = Backoff.create () in
        let rec poll () =
          pred ()
          || Clock.now_ns () <= deadline_ns
             && begin
                  Backoff.once ~deadline_ns b;
                  poll ()
                end
        in
        poll ()
      end
      else begin
        if t.park then begin
          if W.wait t.waitq ~lo:c.N.lo ~hi:c.N.hi pred then
            Metrics.park t.metrics
        end
        else Sim.wait_until pred;
        true
      end
    in
    Waitboard.wait_end t.board;
    Metrics.waited t.metrics (Clock.now_ns () - t0);
    if not ok then raise Timed_out

  (* Every transition of a node to marked (the release of its range) must
     be followed by one of these, or a parked waiter sleeps forever — the
     lost-wakeup hazard [parker.wake.skip] injects on purpose. *)
  let wake_released t (node : N.t) =
    if Atomic.get Fault.enabled && Fault.skip fp_wake_skip then ()
    else begin
      let n = W.wake_overlap t.waitq ~lo:node.N.lo ~hi:node.N.hi in
      if n > 0 then Metrics.wake t.metrics n
    end

  (* One insertion attempt (the paper's InsertNode). Runs inside the epoch.
     Raises [Out_of_budget] when the fairness budget is exhausted (the node
     is guaranteed not to be linked at that point) and [Would_block] in
     non-blocking mode instead of waiting on an overlapping holder. *)
  let try_insert t session node failures ~blocking ~deadline_ns =
    let fail_event () =
      incr failures;
      if G.failures_exceeded session ~failures:!failures then
        raise Out_of_budget;
      if not blocking then raise Would_block
    in
    let rec from_head () = traverse t.head
    and traverse prev =
      let l = Sim.A.get prev in
      if l.N.marked then
        if prev == t.head then begin
          (* The mark on the head means a fast-path acquisition: strip it
             and treat the node as a regular list head (Section 4.5). *)
          ignore
            (Sim.A.compare_and_set t.head l (N.unmarked l));
          traverse prev
        end
        else begin
          (* The node owning [prev] was deleted: the pointer into the list
             is lost, restart from the head. *)
          Metrics.restart t.metrics;
          fail_event ();
          from_head ()
        end
      else
        match l.N.succ with
        | None -> insert_here prev l
        | Some cur ->
          let curl = Sim.A.get cur.N.next in
          if curl.N.marked then begin
            (* cur is logically deleted: unlink it (and recycle on
               success), then keep traversing from the same spot. *)
            if Sim.A.compare_and_set prev l (N.unmarked curl) then
              N.retire cur;
            traverse prev
          end
          else if cur.N.lo >= node.N.hi then insert_here prev l
          else if node.N.lo >= cur.N.hi then traverse cur.N.next
          else begin
            (* Overlap: wait until cur's owner marks it deleted. The wait
               counts against the fairness budget — our node is not yet
               linked, so overlapping later arrivals can still slip past
               us; patience must eventually escalate. *)
            Metrics.overlap_wait t.metrics;
            if not blocking then raise Would_block;
            fail_event ();
            if Atomic.get Fault.enabled then Fault.hit fp_overlap_wait;
            wait_marked t node cur ~deadline_ns;
            traverse prev
          end
    and insert_here prev expected =
      if Atomic.get Fault.enabled then Fault.hit fp_insert_cas;
      (* [expected] is already the canonical link to our successor. *)
      Sim.A.set node.N.next expected;
      if (not (Atomic.get Fault.enabled && Fault.cas_fails fp_insert_cas))
         && Sim.A.compare_and_set prev expected node.N.live_link
      then ()
      else begin
        Metrics.cas_failure t.metrics;
        fail_event ();
        traverse prev
      end
    in
    from_head ()

  let insert t session node ~blocking ~deadline_ns =
    let failures = ref 0 in
    let rec attempt () =
      N.epoch_enter ();
      match try_insert t session node failures ~blocking ~deadline_ns with
      | () -> N.epoch_leave (); true
      | exception Out_of_budget ->
        N.epoch_leave ();
        Metrics.escalation t.metrics;
        G.escalate session;
        attempt ()
      | exception Would_block -> N.epoch_leave (); false
      | exception e -> N.epoch_leave (); raise e
    in
    attempt ()

  let fast_path_acquire t node =
    t.fast_path
    &&
    let l = Sim.A.get t.head in
    (not l.N.marked)
    && l.N.succ = None
    && Sim.A.compare_and_set t.head l node.N.self_link

  let acquire t r =
    let t0 = match t.stats with None -> 0 | Some _ -> Clock.now_ns () in
    let session = G.start t.gate in
    let node = N.alloc ~reader:false r in
    if fast_path_acquire t node then Metrics.fast_path_hit t.metrics
    else ignore (insert t session node ~blocking:true ~deadline_ns:max_int);
    G.finish session;
    Metrics.acquisition t.metrics;
    hist_acquired t node;
    (match t.stats with
     | None -> ()
     | Some s -> Lockstat.add s Lockstat.Write (Clock.now_ns () - t0));
    node

  let try_acquire t r =
    let session = G.start None in
    let node = N.alloc ~reader:false r in
    if fast_path_acquire t node then begin
      Metrics.fast_path_hit t.metrics;
      Metrics.acquisition t.metrics;
      hist_acquired t node;
      Some node
    end
    else if insert t session node ~blocking:false ~deadline_ns:max_int
    then begin
      Metrics.acquisition t.metrics;
      hist_acquired t node;
      Some node
    end
    else begin
      (* The node never made it into the list; recycle it directly. *)
      N.retire node;
      hist_failed t r;
      None
    end

  let acquire_opt t ~deadline_ns r =
    let t0 = match t.stats with None -> 0 | Some _ -> Clock.now_ns () in
    (* No fairness escalation: the impatient path takes the aux lock for an
       unbounded time, which a deadline cannot honour. *)
    let session = G.start None in
    let node = N.alloc ~reader:false r in
    let acquired =
      if fast_path_acquire t node then begin
        Metrics.fast_path_hit t.metrics;
        true
      end
      else
        match insert t session node ~blocking:true ~deadline_ns with
        | ok -> ok
        | exception Timed_out ->
          (* [Timed_out] is only raised while waiting on an overlapping
             holder, before our node is linked: recycle it directly. *)
          N.retire node;
          false
    in
    G.finish session;
    if acquired then begin
      Metrics.acquisition t.metrics;
      hist_acquired t node;
      (match t.stats with
       | None -> ()
       | Some s -> Lockstat.add s Lockstat.Write (Clock.now_ns () - t0));
      Some node
    end
    else begin
      Metrics.timeout t.metrics;
      hist_failed t r;
      None
    end

  let rec mark_deleted node =
    let l = Sim.A.get node.N.next in
    assert (not l.N.marked);
    if not (Sim.A.compare_and_set node.N.next l (N.marked l)) then
      mark_deleted node

  let release t node =
    hist_released node;
    if Atomic.get Fault.enabled then Fault.delay fp_release;
    if t.fast_path then begin
      let l = Sim.A.get t.head in
      if l == node.N.self_link && Sim.A.compare_and_set t.head l N.nil then
        (* Eager removal: the node is already unlinked, and it was never
           reachable by a traversal (any strip of the head mark would have
           made this CAS fail), so no waiter can be parked on it. *)
        N.retire node
      else begin
        mark_deleted node;
        wake_released t node
      end
    end
    else begin
      mark_deleted node;
      wake_released t node
    end

  let with_range t r f =
    let h = acquire t r in
    match f () with
    | v -> release t h; v
    | exception e -> release t h; raise e

  let range_of_handle = N.range_of

  let metrics t = Metrics.snapshot t.metrics

  let reset_metrics t = Metrics.reset t.metrics

  let holders t =
    N.epoch_pin (fun () ->
        let rec walk l acc =
          match l.N.succ with
          | None -> List.rev acc
          | Some n ->
            let nl = Sim.A.get n.N.next in
            let acc = if nl.N.marked then acc else N.range_of n :: acc in
            walk nl acc
        in
        walk (Sim.A.get t.head) [])
end
