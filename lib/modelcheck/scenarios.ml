(* Small, fixed configurations of the range-lock stack explored
   exhaustively by {!Explore}.

   Each scenario's [build] runs once per explored schedule: it
   instantiates a *fresh* copy of the whole interleaving-critical stack —
   node, rwlock, fairness gate, list locks — over the recording runtime
   ({!Sched.Sim}), so no state leaks between executions and cell ids are
   assigned identically on every run.

   Fibers record Acquired/Released/Failed events through a local
   recorder (manual {!Rlk.History.event} values — the global [History]
   armable log stays off) and the per-schedule invariant check feeds them
   to the existing conformance oracle ({!Rlk_check.Oracle}): any overlap
   between recorded holds, leaked span, or unmatched release fails the
   schedule. Deadlock, livelock and fiber crashes are detected by the
   scheduler itself.

   Determinism rules for code reached inside a fiber: no wall clock
   (every deadline is [max_int], so [Clock] is never consulted on an
   explored path), no ambient randomness, no real domains. *)

module H = Rlk.History
module Oracle = Rlk_check.Oracle
module Lockstat = Rlk_primitives.Lockstat

let range lo hi = Rlk.Range.v ~lo ~hi

(* The full functorized stack over the recording runtime. Generative: one
   application = one isolated instance. *)
module Stack () = struct
  module N = Rlk.Node_core.Make (Sched.Sim)
  module RW = Rlk_primitives.Rwlock_core.Make (Sched.Sim)
  module G = Rlk.Fairgate_core.Make (Sched.Sim) (RW)
  module LM = Rlk.List_rw_core.Make_exclusive (Sched.Sim) (N) (G)
  module LRW = Rlk.List_rw_core.Make (Sched.Sim) (N) (G)
end

(* ---- event recording ------------------------------------------------- *)

type recorder = {
  mutable seq : int;
  mutable next_span : int;
  mutable events : H.event list;  (* newest first *)
  cell : int Sched.Sim.A.t;
      (* Every push writes this shared cell *before* appending, making all
         recording events mutually dependent steps. Without it the oracle's
         verdict would hinge on the order of plain (unannounced) list
         mutations, which sleep-set pruning is free to reorder — the
         violating representative of an equivalence class could be pruned
         in favour of a benign one. Announcing first pins each append to
         the execution of its own dependent step, so the event order is
         invariant across trace-equivalent schedules. *)
}

let recorder () =
  { seq = 0; next_span = 0; events = []; cell = Sched.Sim.A.make 0 }

let push r kind ~span ~lock ~mode ~lo ~hi =
  Sched.Sim.A.set r.cell (r.seq + 1);
  r.seq <- r.seq + 1;
  r.events <-
    { H.seq = r.seq; kind; span; lock; domain = Sched.current_fiber (); mode;
      lo; hi; t_ns = 0 }
    :: r.events

let acquired r ~lock ~mode ~lo ~hi =
  let span = r.next_span in
  r.next_span <- span + 1;
  push r H.Acquired ~span ~lock ~mode ~lo ~hi;
  span

let released r ~lock ~mode ~span ~lo ~hi =
  push r H.Released ~span ~lock ~mode ~lo ~hi

let failed r ~lock ~mode ~lo ~hi =
  push r H.Failed ~span:(-1) ~lock ~mode ~lo ~hi

let oracle_check r () =
  let report = Oracle.check (List.rev r.events) in
  if Oracle.ok report then None
  else Some (Format.asprintf "%a" Oracle.pp_report report)

(* ---- scenario table -------------------------------------------------- *)

type t = {
  scen : Explore.scenario;
  bound : int;  (* preemption bound *)
  max_steps : int;
  full_only : bool;  (* run only under RLK_MODEL_FULL=1 (the @model alias) *)
}

let scenario ?(bound = 2) ?(max_steps = 20_000) ?(full_only = false) name
    build =
  { scen = { Explore.name; build }; bound; max_steps; full_only }

(* Two overlapping exclusive writers: the core marked-pointer insert
   protocol with no fast path. *)
let mutex_overlap =
  scenario "mutex-overlap" ~bound:3 (fun () ->
      let module S = Stack () in
      let lock = S.LM.create () in
      let r = recorder () in
      let body lo hi () =
        let h = S.LM.acquire lock (range lo hi) in
        let span = acquired r ~lock:"m" ~mode:Lockstat.Write ~lo ~hi in
        Sched.note (Printf.sprintf "f holds [%d,%d)" lo hi);
        Sched.pause ();
        released r ~lock:"m" ~mode:Lockstat.Write ~span ~lo ~hi;
        S.LM.release lock h
      in
      { Explore.fibers = [| body 0 2; body 1 3 |]; check = oracle_check r })

(* Section 4.5: the single-CAS fast path racing a regular insertion that
   must demote it (strip the head mark) before linking. *)
let mutex_fastpath =
  scenario "mutex-fastpath" ~bound:3 (fun () ->
      let module S = Stack () in
      let lock = S.LM.create ~fast_path:true () in
      let r = recorder () in
      let body lo hi () =
        let h = S.LM.acquire lock (range lo hi) in
        let span = acquired r ~lock:"m" ~mode:Lockstat.Write ~lo ~hi in
        Sched.pause ();
        released r ~lock:"m" ~mode:Lockstat.Write ~span ~lo ~hi;
        S.LM.release lock h
      in
      { Explore.fibers = [| body 0 2; body 1 3 |]; check = oracle_check r })

(* Non-blocking try_acquire racing a holder: either outcome is legal, but
   a [Some] grant must never overlap and a [None] must record Failed. *)
let mutex_try =
  scenario "mutex-try" ~bound:3 (fun () ->
      let module S = Stack () in
      let lock = S.LM.create () in
      let r = recorder () in
      let holder () =
        let h = S.LM.acquire lock (range 0 2) in
        let span = acquired r ~lock:"m" ~mode:Lockstat.Write ~lo:0 ~hi:2 in
        Sched.pause ();
        released r ~lock:"m" ~mode:Lockstat.Write ~span ~lo:0 ~hi:2;
        S.LM.release lock h
      in
      let trier () =
        match S.LM.try_acquire lock (range 1 3) with
        | Some h ->
          let span = acquired r ~lock:"m" ~mode:Lockstat.Write ~lo:1 ~hi:3 in
          released r ~lock:"m" ~mode:Lockstat.Write ~span ~lo:1 ~hi:3;
          S.LM.release lock h
        | None -> failed r ~lock:"m" ~mode:Lockstat.Write ~lo:1 ~hi:3
      in
      { Explore.fibers = [| holder; trier |]; check = oracle_check r })

(* Three overlapping writers: transitive blocking through two list nodes
   (full mode: ~8x the state space of the 2-fiber variants). *)
let mutex_3dom =
  scenario "mutex-3dom" ~bound:2 ~full_only:true (fun () ->
      let module S = Stack () in
      let lock = S.LM.create () in
      let r = recorder () in
      let body lo hi () =
        let h = S.LM.acquire lock (range lo hi) in
        let span = acquired r ~lock:"m" ~mode:Lockstat.Write ~lo ~hi in
        Sched.pause ();
        released r ~lock:"m" ~mode:Lockstat.Write ~span ~lo ~hi;
        S.LM.release lock h
      in
      { Explore.fibers = [| body 0 2; body 1 3; body 2 4 |];
        check = oracle_check r })

(* The insert/validate race at the heart of Section 4.2: a pre-linked
   reader H = [1,2) forces both fibers into real list traversals. The
   interesting interleaving: the writer picks its insertion point after
   H, the reader then links at the head (before H) and grants itself via
   r_validate without seeing the writer; only the writer's w_validate
   rescan from the head repairs the race. Skipping w_validate (the
   mutation self-test arms [list_rw.w_validate.skip]) makes this scenario
   produce an overlap counterexample. *)
let rw_validate_race_build () =
  let module S = Stack () in
  let lock = S.LRW.create () in
  (* Structural holder: linked before the fibers start, released by
     neither; shapes the list so both fibers traverse. Not recorded. *)
  let _pre = S.LRW.read_acquire lock (range 1 2) in
  let r = recorder () in
  let reader () =
    let h = S.LRW.read_acquire lock (range 0 4) in
    let span = acquired r ~lock:"rw" ~mode:Lockstat.Read ~lo:0 ~hi:4 in
    Sched.note "reader holds [0,4)";
    Sched.pause ();
    released r ~lock:"rw" ~mode:Lockstat.Read ~span ~lo:0 ~hi:4;
    S.LRW.release lock h
  in
  let writer () =
    let h = S.LRW.write_acquire lock (range 3 5) in
    let span = acquired r ~lock:"rw" ~mode:Lockstat.Write ~lo:3 ~hi:5 in
    Sched.note "writer holds [3,5)";
    Sched.pause ();
    released r ~lock:"rw" ~mode:Lockstat.Write ~span ~lo:3 ~hi:5;
    S.LRW.release lock h
  in
  { Explore.fibers = [| reader; writer |]; check = oracle_check r }

let rw_validate_race =
  scenario "rw-validate-race" ~bound:3 (fun () -> rw_validate_race_build ())

(* Reversed preference (Section 4.2's last remark): the reader defers to
   overlapping writers by self-aborting its validation. A *blocking*
   reader under writer preference can starve — it reinserts at the head
   and re-fails validation for as long as the writer holds, which the
   explorer would (correctly) flag as a livelock under an unfair
   schedule — so the reader here is a non-blocking trier: both outcomes
   are legal and every schedule terminates. *)
let rw_writer_pref =
  scenario "rw-writer-pref" ~bound:3 ~full_only:true (fun () ->
      let module S = Stack () in
      let lock =
        S.LRW.create ~prefer:Rlk.List_rw_core.Prefer_writers ()
      in
      let _pre = S.LRW.read_acquire lock (range 1 2) in
      let r = recorder () in
      let reader () =
        match S.LRW.try_read_acquire lock (range 0 4) with
        | Some h ->
          let span = acquired r ~lock:"rw" ~mode:Lockstat.Read ~lo:0 ~hi:4 in
          Sched.pause ();
          released r ~lock:"rw" ~mode:Lockstat.Read ~span ~lo:0 ~hi:4;
          S.LRW.release lock h
        | None -> failed r ~lock:"rw" ~mode:Lockstat.Read ~lo:0 ~hi:4
      in
      let writer () =
        let h = S.LRW.write_acquire lock (range 3 5) in
        let span = acquired r ~lock:"rw" ~mode:Lockstat.Write ~lo:3 ~hi:5 in
        Sched.pause ();
        released r ~lock:"rw" ~mode:Lockstat.Write ~span ~lo:3 ~hi:5;
        S.LRW.release lock h
      in
      { Explore.fibers = [| reader; writer |]; check = oracle_check r })

(* Reader-writer fast path: a reader's single-CAS claim demoted by a
   conflicting writer insertion. *)
let rw_fastpath =
  scenario "rw-fastpath" ~bound:3 (fun () ->
      let module S = Stack () in
      let lock = S.LRW.create ~fast_path:true () in
      let r = recorder () in
      let reader () =
        let h = S.LRW.read_acquire lock (range 0 2) in
        let span = acquired r ~lock:"rw" ~mode:Lockstat.Read ~lo:0 ~hi:2 in
        Sched.pause ();
        released r ~lock:"rw" ~mode:Lockstat.Read ~span ~lo:0 ~hi:2;
        S.LRW.release lock h
      in
      let writer () =
        let h = S.LRW.write_acquire lock (range 1 3) in
        let span = acquired r ~lock:"rw" ~mode:Lockstat.Write ~lo:1 ~hi:3 in
        Sched.pause ();
        released r ~lock:"rw" ~mode:Lockstat.Write ~span ~lo:1 ~hi:3;
        S.LRW.release lock h
      in
      { Explore.fibers = [| reader; writer |]; check = oracle_check r })

(* Canonical links bring back the raw-pointer ABA of the paper's CAS.
   Two structural readers P = [0,1) and C = [10,11) are held throughout.
   The writer A = [5,6) reads P's link to C and will CAS its node in
   there. Meanwhile B links X = [3,4) between P and C, releases it, and
   its next acquisition ([12,13), past C) helps unlink X, so P's cell
   again holds the physically same [C.live_link] and A's stale CAS
   succeeds where a fresh link per CAS made it fail. That is safe because
   the CAS compares against C itself, and C cannot be reused: nodes are
   never recycled, so C still holds [10,11) and is still P's successor.
   On every schedule the holds must not overlap and, once both fibers
   are done, the list must hold exactly P and C, in order. *)
let rw_relink =
  scenario "rw-relink" ~bound:3 ~max_steps:40_000 (fun () ->
      let module S = Stack () in
      let lock = S.LRW.create () in
      let _p = S.LRW.read_acquire lock (range 0 1) in
      let _c = S.LRW.read_acquire lock (range 10 11) in
      let r = recorder () in
      let write lo hi =
        let h = S.LRW.write_acquire lock (range lo hi) in
        let span = acquired r ~lock:"rw" ~mode:Lockstat.Write ~lo ~hi in
        released r ~lock:"rw" ~mode:Lockstat.Write ~span ~lo ~hi;
        S.LRW.release lock h
      in
      let a () = write 5 6 in
      let b () = write 3 4; write 12 13 in
      let check () =
        match oracle_check r () with
        | Some _ as v -> v
        | None -> (
          match S.LRW.holders lock with
          | [ (p, `Reader); (c, `Reader) ]
            when Rlk.Range.lo p = 0 && Rlk.Range.lo c = 10 -> None
          | hs ->
            Some
              (Printf.sprintf "list holds %s after both fibers finished"
                 (String.concat ", "
                    (List.map (fun (r, _) -> Rlk.Range.to_string r) hs))))
      in
      { Explore.fibers = [| a; b |]; check })

(* Fairness escalation with patience 1: the writer's first validation
   failure sends it through Fairgate.escalate (impatient counter + aux
   rwlock write side) while the reader holds. *)
let fairgate_escalate =
  scenario "fairgate-escalate" ~bound:2 (fun () ->
      let module S = Stack () in
      let lock = S.LRW.create ~fairness:1 () in
      let _pre = S.LRW.read_acquire lock (range 1 2) in
      let r = recorder () in
      let reader () =
        let h = S.LRW.read_acquire lock (range 0 4) in
        let span = acquired r ~lock:"rw" ~mode:Lockstat.Read ~lo:0 ~hi:4 in
        Sched.pause ();
        released r ~lock:"rw" ~mode:Lockstat.Read ~span ~lo:0 ~hi:4;
        S.LRW.release lock h
      in
      let writer () =
        let h = S.LRW.write_acquire lock (range 3 5) in
        let span = acquired r ~lock:"rw" ~mode:Lockstat.Write ~lo:3 ~hi:5 in
        Sched.pause ();
        released r ~lock:"rw" ~mode:Lockstat.Write ~span ~lo:3 ~hi:5;
        S.LRW.release lock h
      in
      { Explore.fibers = [| reader; writer |]; check = oracle_check r })

(* The bare auxiliary rwlock (writer preference): 2 readers + 1 writer on
   a unit range — cheap, and the deepest wait_until user in the stack. *)
let rwlock_basic =
  scenario "rwlock-basic" ~bound:2 (fun () ->
      let module RW = Rlk_primitives.Rwlock_core.Make (Sched.Sim) in
      let rw = RW.create () in
      let r = recorder () in
      let reader () =
        RW.read_acquire rw;
        let span = acquired r ~lock:"rwl" ~mode:Lockstat.Read ~lo:0 ~hi:1 in
        Sched.pause ();
        released r ~lock:"rwl" ~mode:Lockstat.Read ~span ~lo:0 ~hi:1;
        RW.read_release rw
      in
      let writer () =
        RW.write_acquire rw;
        let span = acquired r ~lock:"rwl" ~mode:Lockstat.Write ~lo:0 ~hi:1 in
        Sched.pause ();
        released r ~lock:"rwl" ~mode:Lockstat.Write ~span ~lo:0 ~hi:1;
        RW.write_release rw
      in
      { Explore.fibers = [| reader; writer; reader |];
        check = oracle_check r })

(* The parking hand-off (PR 5): a writer parks on the holder's node while
   the holder's release runs the mark + wake-overlap scan. The waiter's
   Dekker protocol (publish slot -> arm flag -> re-check predicate ->
   park) must interleave safely with the releaser's (mark node -> load
   nwaiting -> scan slots -> notify): any hole loses the wake and the
   waiter's fiber is never re-enabled, which the scheduler reports as a
   deadlock. That is exactly what arming [parker.wake.skip] produces (the
   parker mutation self-test in test_model); unmutated code must be
   violation-free. Both fibers run the parking path because every blocking
   wait with no deadline parks by default. *)
let park_unpark =
  scenario "park-unpark" ~bound:3 (fun () ->
      let module S = Stack () in
      let lock = S.LRW.create () in
      let r = recorder () in
      let body lo hi () =
        let h = S.LRW.write_acquire lock (range lo hi) in
        let span = acquired r ~lock:"rw" ~mode:Lockstat.Write ~lo ~hi in
        Sched.note (Printf.sprintf "writer holds [%d,%d)" lo hi);
        Sched.pause ();
        released r ~lock:"rw" ~mode:Lockstat.Write ~span ~lo ~hi;
        S.LRW.release lock h
      in
      { Explore.fibers = [| body 0 2; body 1 3 |]; check = oracle_check r })

(* ---- skip-index core (PR 7) ------------------------------------------ *)

(* The skip-index stack over the recording runtime: two levels with a
   constant height of 2, so *every* grant links a tower entry and every
   release unlinks one — the lock-free tower link, freeze and unlink
   CASes interleave with the bottom insert/validate protocol on every
   schedule, not just on lucky coin flips. *)
module Skip_stack () = struct
  module SK =
    Rlk_index.Skip_rw_core.Make (Sched.Sim)
      (struct
        let max_level = 2

        let height () = 2
      end)
      ()
end

(* The same insert/validate race as [rw-validate-race], through the
   skip-index core: the writer's window-bounded w_validate rescan is the
   only thing repairing a reader that linked behind its back, so arming
   [skip_rw.w_validate.skip] must produce an overlap counterexample here
   (the skip mutation self-test), and pristine code must explore clean. *)
let skip_validate_race_build () =
  let module S = Skip_stack () in
  let lock = S.SK.create () in
  (* Structural holder, as in rw-validate-race: forces real traversals
     and a populated tower. Not recorded. *)
  let _pre = S.SK.read_acquire lock (range 1 2) in
  let r = recorder () in
  let reader () =
    let h = S.SK.read_acquire lock (range 0 4) in
    let span = acquired r ~lock:"sk" ~mode:Lockstat.Read ~lo:0 ~hi:4 in
    Sched.note "reader holds [0,4)";
    Sched.pause ();
    released r ~lock:"sk" ~mode:Lockstat.Read ~span ~lo:0 ~hi:4;
    S.SK.release lock h
  in
  let writer () =
    let h = S.SK.write_acquire lock (range 3 5) in
    let span = acquired r ~lock:"sk" ~mode:Lockstat.Write ~lo:3 ~hi:5 in
    Sched.note "writer holds [3,5)";
    Sched.pause ();
    released r ~lock:"sk" ~mode:Lockstat.Write ~span ~lo:3 ~hi:5;
    S.SK.release lock h
  in
  { Explore.fibers = [| reader; writer |]; check = oracle_check r }

let skip_validate_race =
  scenario "skip-validate-race" ~bound:2 ~max_steps:40_000 (fun () ->
      skip_validate_race_build ())

(* Parking hand-off through the skip core: two overlapping writers, so
   the loser parks on the winner's node and the winner's release runs
   tower unlink -> mark -> wake-overlap. A lost wake (the
   [parker.wake.skip] mutation) shows up as a deadlock. *)
let skip_park =
  scenario "skip-park" ~bound:2 ~max_steps:40_000 (fun () ->
      let module S = Skip_stack () in
      let lock = S.SK.create () in
      let r = recorder () in
      let body lo hi () =
        let h = S.SK.write_acquire lock (range lo hi) in
        let span = acquired r ~lock:"sk" ~mode:Lockstat.Write ~lo ~hi in
        Sched.note (Printf.sprintf "writer holds [%d,%d)" lo hi);
        Sched.pause ();
        released r ~lock:"sk" ~mode:Lockstat.Write ~span ~lo ~hi;
        S.SK.release lock h
      in
      { Explore.fibers = [| body 0 2; body 1 3 |]; check = oracle_check r })

(* Towers of different sizes in one explored run: three levels, and the
   height comes from the fiber id, not from shared state, so the draw
   hides no dependency from DPOR. Fiber 0's writer is untowered (its
   tower is the shared empty array, so its release has no tower work);
   fiber 1's reader has two cells, and its grant links them, bottom-up,
   while the writer descends, validates, retreats or releases, so
   the writer's descents meet towers that are being linked and unlinked
   at both levels. The ranges overlap, so the oracle also checks
   exclusion across those races. Once both have released, the structural
   audit must find the towers empty again. *)
let skip_mixed_height =
  scenario "skip-mixed-height" ~bound:2 ~max_steps:40_000 (fun () ->
      let module SK =
        Rlk_index.Skip_rw_core.Make (Sched.Sim)
          (struct
            let max_level = 3

            let height () = if Sched.Sim.domain_id () = 1 then 3 else 1
          end)
          ()
      in
      let lock = SK.create () in
      let r = recorder () in
      let body ~reader lo hi () =
        let mode = if reader then Lockstat.Read else Lockstat.Write in
        let h =
          if reader then SK.read_acquire lock (range lo hi)
          else SK.write_acquire lock (range lo hi)
        in
        let span = acquired r ~lock:"sk" ~mode ~lo ~hi in
        Sched.note (Printf.sprintf "holds [%d,%d)" lo hi);
        Sched.pause ();
        released r ~lock:"sk" ~mode ~span ~lo ~hi;
        SK.release lock h
      in
      let check () =
        match oracle_check r () with
        | Some _ as bad -> bad
        | None -> (
          match SK.check_structure lock with
          | Ok 0 -> None
          | Ok live -> Some (Printf.sprintf "%d ranges left" live)
          | Error msg -> Some msg)
      in
      { Explore.fibers = [| body ~reader:false 0 2; body ~reader:true 1 3 |];
        check })

(* A towered release racing a towered grant whose predecessor at both
   tower levels is the releasing node: three levels at a constant height
   of 3. The holder of [0,1) is granted before the fibers start; fiber 0
   releases it (freeze both cells, unlink both levels, reset) while
   fiber 1 grants [2,3) and keeps it, so fiber 1's searches meet frozen
   cells they must help out, and its link CASes target the cells being
   frozen. The ranges are disjoint, so there is no history to check: the
   check is the structural audit, which must find exactly fiber 1's
   range live, linked at both levels, with no frozen cell left.
   Unlinking without freezing first (arming [skip_rw.tower_freeze.skip])
   lets fiber 1 link behind the released node after its release read
   that node's successor, so the unlink drops fiber 1 from the level:
   the audit must report it missing. *)
let skip_tower_race =
  scenario "skip-tower-race" ~bound:2 ~max_steps:40_000 (fun () ->
      let module SK =
        Rlk_index.Skip_rw_core.Make (Sched.Sim)
          (struct
            let max_level = 3

            let height () = 3
          end)
          ()
      in
      let lock = SK.create () in
      let pre = SK.read_acquire lock (range 0 1) in
      let releaser () = SK.release lock pre in
      let granter () =
        ignore (SK.write_acquire lock (range 2 3));
        Sched.note "writer holds [2,3)"
      in
      let check () =
        match SK.check_structure lock with
        | Ok 1 -> None
        | Ok live -> Some (Printf.sprintf "%d ranges live, expected 1" live)
        | Error msg -> Some msg
      in
      { Explore.fibers = [| releaser; granter |]; check })

(* ---- adaptive frontend ----------------------------------------------- *)

(* The adaptive core over the recording runtime, composing the same
   List_rw core instance the other scenarios exercise: shard lists and
   the global list are full model-checked list locks, and the frontend's
   narrow_live/mode/gcheck handshake interleaves with their insert/validate
   protocol on every schedule. *)
module Adaptive_stack () = struct
  module S = Stack ()

  module B = struct
    include S.LRW

    let create ~fast_path () = S.LRW.create ~fast_path ()
  end

  module AD = Rlk_adaptive.Adaptive_rw_core.Make (Sched.Sim) (B) ()
end

(* A narrow acquisition racing a sharded->list migration: geometry 2
   shards x 2 units, a one-shard writer against a two-shard (wide, hence
   g-routed) writer, with the width sampler tuned to flip the regime on
   the first wide sample. The overlap [0,2) x [1,4) crosses the narrow/g
   boundary, so exclusion rests entirely on the publish-then-check
   handshake — which runs on both sides of the racing regime flip.
   Arming [adaptive.switch.skip] disables the narrow side's g-check and
   must yield an overlap counterexample on the schedules where the wide
   writer is granted first (the adaptive mutation self-test). *)
let adaptive_switch_race_build () =
  let module S = Adaptive_stack () in
  let lock =
    S.AD.create ~shards:2 ~space:4 ~narrow_max:1 ~sample_every:1 ~window:2
      ~hi_pct:50 ~lo_pct:0 ()
  in
  let r = recorder () in
  let narrow () =
    let h = S.AD.write_acquire lock (range 0 2) in
    let span = acquired r ~lock:"ad" ~mode:Lockstat.Write ~lo:0 ~hi:2 in
    Sched.note "narrow writer holds [0,2)";
    Sched.pause ();
    released r ~lock:"ad" ~mode:Lockstat.Write ~span ~lo:0 ~hi:2;
    S.AD.release lock h
  in
  let wide () =
    let h = S.AD.write_acquire lock (range 1 4) in
    let span = acquired r ~lock:"ad" ~mode:Lockstat.Write ~lo:1 ~hi:4 in
    Sched.note "wide writer holds [1,4)";
    Sched.pause ();
    released r ~lock:"ad" ~mode:Lockstat.Write ~span ~lo:1 ~hi:4;
    S.AD.release lock h
  in
  { Explore.fibers = [| narrow; wide |]; check = oracle_check r }

let adaptive_switch_race =
  scenario "adaptive-switch-race" ~bound:3 ~max_steps:120_000 (fun () ->
      adaptive_switch_race_build ())

(* The g path's shard drain against a multi-shard narrow writer: 3
   shards x 2 units, [~narrow_max:2], bias and sampling off. The writer
   [1,4) inserts into shards 0 and 1 and then checks [g]; the reader
   [0,6) covers all three shards, so it is routed to [g], and once it is
   linked there it drains every covered shard (shard 2 stays idle: the
   drain's empty-list load). No per-shard counter says which shards hold
   narrow nodes, so exclusion over [1,4) rests on the shard insertions
   themselves: either the writer's [g]-check finds the reader's node and
   the writer retreats to [g], or the reader's drain walks into the
   writer's shard nodes and waits them out. The [+fast] instance turns on
   the backends' empty-list fast path (shard-rw's configuration), whose
   eager head removal wakes the drainers parked on the released node. *)
let adaptive_narrow_drain_on ~fast_path name =
  scenario name ~bound:3 ~max_steps:120_000 (fun () ->
      let module S = Adaptive_stack () in
      let lock =
        S.AD.create ~shards:3 ~space:6 ~narrow_max:2 ~sample_every:0
          ~rbias:false ~fast_path ()
      in
      let r = recorder () in
      let writer () =
        let h = S.AD.write_acquire lock (range 1 4) in
        let span = acquired r ~lock:"ad" ~mode:Lockstat.Write ~lo:1 ~hi:4 in
        Sched.note "two-shard writer holds [1,4)";
        Sched.pause ();
        released r ~lock:"ad" ~mode:Lockstat.Write ~span ~lo:1 ~hi:4;
        S.AD.release lock h
      in
      let reader () =
        let h = S.AD.read_acquire lock (range 0 6) in
        let span = acquired r ~lock:"ad" ~mode:Lockstat.Read ~lo:0 ~hi:6 in
        Sched.note "g reader holds [0,6)";
        Sched.pause ();
        released r ~lock:"ad" ~mode:Lockstat.Read ~span ~lo:0 ~hi:6;
        S.AD.release lock h
      in
      { Explore.fibers = [| writer; reader |]; check = oracle_check r })

let adaptive_narrow_drain =
  adaptive_narrow_drain_on ~fast_path:false "adaptive-narrow-drain"

let adaptive_narrow_drain_fast =
  adaptive_narrow_drain_on ~fast_path:true "adaptive-narrow-drain+fast"

(* The narrow-drain geometry with a try-writer: the two-shard narrow
   writer [1,4) makes one bounded attempt. Whichever step refuses it (a
   shard insert, or the [g]-check against the g reader [0,6), after
   which its diversion makes one try on [g] too), the writer must unwind
   every shard node it took before giving up, or the reader's drain
   waits on a node nobody releases (a deadlock the explorer reports).
   Once both fibers are done, [holders] must be empty: no node left
   behind by a failed try. Every deadline here is [max_int]; deadline
   expiry is tested in test_adaptive's [timed] cases. *)
let adaptive_narrow_try =
  scenario "adaptive-narrow-try" ~bound:3 ~max_steps:120_000 (fun () ->
      let module S = Adaptive_stack () in
      let lock =
        S.AD.create ~shards:3 ~space:6 ~narrow_max:2 ~sample_every:0
          ~rbias:false ()
      in
      let r = recorder () in
      let writer () =
        match S.AD.try_write_acquire lock (range 1 4) with
        | Some h ->
          let span = acquired r ~lock:"ad" ~mode:Lockstat.Write ~lo:1 ~hi:4 in
          Sched.note "two-shard try-writer holds [1,4)";
          Sched.pause ();
          released r ~lock:"ad" ~mode:Lockstat.Write ~span ~lo:1 ~hi:4;
          S.AD.release lock h
        | None -> failed r ~lock:"ad" ~mode:Lockstat.Write ~lo:1 ~hi:4
      in
      let reader () =
        let h = S.AD.read_acquire lock (range 0 6) in
        let span = acquired r ~lock:"ad" ~mode:Lockstat.Read ~lo:0 ~hi:6 in
        Sched.note "g reader holds [0,6)";
        Sched.pause ();
        released r ~lock:"ad" ~mode:Lockstat.Read ~span ~lo:0 ~hi:6;
        S.AD.release lock h
      in
      let check () =
        match oracle_check r () with
        | Some _ as violation -> violation
        | None -> (
          match S.AD.holders lock with
          | [] -> None
          | l ->
            Some
              (Printf.sprintf "%d node(s) left after both fibers released"
                 (List.length l)))
      in
      { Explore.fibers = [| writer; reader |]; check })

(* Two writers on disjoint ranges of one shard, with reader bias off so
   every grant goes through the shard list. [0,1) acquires and releases
   twice, [2,3) once, each through the list's blocking acquire, racing the
   other's insert and release. A blocking acquire must wait only on a node
   it actually conflicts with: a writer parked where no overlapping
   release will come is a deadlock the explorer reports. The [+fast]
   instance runs it over the backends' empty-list fast path, as
   shard-rw does. *)
let adaptive_disjoint_park_on ~fast_path name =
  scenario name ~bound:4 ~max_steps:120_000 (fun () ->
      let module S = Adaptive_stack () in
      let lock =
        S.AD.create ~shards:1 ~space:4 ~sample_every:0 ~rbias:false
          ~fast_path ()
      in
      let r = recorder () in
      let writer lo hi rounds () =
        for _ = 1 to rounds do
          let h = S.AD.write_acquire lock (range lo hi) in
          let span = acquired r ~lock:"ad" ~mode:Lockstat.Write ~lo ~hi in
          released r ~lock:"ad" ~mode:Lockstat.Write ~span ~lo ~hi;
          S.AD.release lock h
        done
      in
      { Explore.fibers = [| writer 0 1 2; writer 2 3 1 |];
        check = oracle_check r })

let adaptive_disjoint_park =
  adaptive_disjoint_park_on ~fast_path:false "adaptive-disjoint-park"

let adaptive_disjoint_park_fast =
  adaptive_disjoint_park_on ~fast_path:true "adaptive-disjoint-park+fast"

(* The reader-bias Dekker pair: a narrow writer [0,2) against a wide
   reader [1,4) eligible for the biased fast path. On the schedules
   where the reader publishes its slot and loads [w_live] = 0 it is
   granted with no list presence at all; exclusion over the overlap
   [1,2) then rests entirely on the writer's slot sweep (raise [w_live],
   scan, park on [rwait]). The interleavings cover both Dekker outcomes,
   the retract-and-fallback path, and the release-side wake of a parked
   sweeping writer. Arming [adaptive.rbias.skip] drops the sweep and
   must yield an overlap counterexample (the bias mutation self-test). *)
let adaptive_reader_bias =
  scenario "adaptive-reader-bias" ~bound:3 ~max_steps:120_000 (fun () ->
      let module S = Adaptive_stack () in
      let lock =
        S.AD.create ~shards:2 ~space:4 ~narrow_max:1 ~sample_every:0 ()
      in
      let r = recorder () in
      let writer () =
        let h = S.AD.write_acquire lock (range 0 2) in
        let span = acquired r ~lock:"ad" ~mode:Lockstat.Write ~lo:0 ~hi:2 in
        Sched.note "narrow writer holds [0,2)";
        Sched.pause ();
        released r ~lock:"ad" ~mode:Lockstat.Write ~span ~lo:0 ~hi:2;
        S.AD.release lock h
      in
      let reader () =
        let h = S.AD.read_acquire lock (range 1 4) in
        let span = acquired r ~lock:"ad" ~mode:Lockstat.Read ~lo:1 ~hi:4 in
        Sched.note "wide reader holds [1,4)";
        Sched.pause ();
        released r ~lock:"ad" ~mode:Lockstat.Read ~span ~lo:1 ~hi:4;
        S.AD.release lock h
      in
      { Explore.fibers = [| writer; reader |]; check = oracle_check r })

(* Slot aliasing on the biased-reader pool: [rslot_count:1] pins every
   fiber onto one slot, so the two readers race free -> claimed ->
   published on the same [rseq]. The claim CAS must let exactly one
   publish — the loser takes the list path — and retract/release must
   recycle the slot without leaving a phantom publication. (With the
   pre-CAS check-then-set publication both readers could publish over
   each other: the writer's sweep then read only the survivor's range
   and was granted over the other fast reader, and the double release
   left [rseq] in the published state forever — a phantom reader
   parking every later overlapping writer.) *)
let adaptive_rbias_alias =
  scenario "adaptive-rbias-alias" ~bound:3 ~max_steps:200_000 (fun () ->
      let module S = Adaptive_stack () in
      let lock =
        S.AD.create ~shards:1 ~space:4 ~sample_every:0 ~rslot_count:1 ()
      in
      let r = recorder () in
      let reader lo hi () =
        let h = S.AD.read_acquire lock (range lo hi) in
        let span = acquired r ~lock:"ad" ~mode:Lockstat.Read ~lo ~hi in
        Sched.note (Printf.sprintf "reader holds [%d,%d)" lo hi);
        Sched.pause ();
        released r ~lock:"ad" ~mode:Lockstat.Read ~span ~lo ~hi;
        S.AD.release lock h
      in
      let writer () =
        let h = S.AD.write_acquire lock (range 0 2) in
        let span = acquired r ~lock:"ad" ~mode:Lockstat.Write ~lo:0 ~hi:2 in
        Sched.note "writer holds [0,2)";
        Sched.pause ();
        released r ~lock:"ad" ~mode:Lockstat.Write ~span ~lo:0 ~hi:2;
        S.AD.release lock h
      in
      { Explore.fibers = [| reader 0 2; reader 2 4; writer |];
        check = oracle_check r })

let all =
  [ mutex_overlap; mutex_fastpath; mutex_try; mutex_3dom; rw_validate_race;
    rw_writer_pref; rw_fastpath; rw_relink; fairgate_escalate; rwlock_basic;
    park_unpark; skip_validate_race; skip_park; skip_mixed_height;
    skip_tower_race;
    adaptive_switch_race; adaptive_narrow_drain; adaptive_narrow_drain_fast;
    adaptive_narrow_try; adaptive_disjoint_park; adaptive_disjoint_park_fast;
    adaptive_reader_bias; adaptive_rbias_alias ]

let run t =
  Explore.explore ~bound:t.bound ~max_steps:t.max_steps t.scen
