(* The adaptive frontend battery.

   Deterministic groups plus the headline differential property:

   - regime thresholds: the width sampler's hysteresis band, exercised
     exactly at and on both sides of the switch percentages;
   - pile-up: readers parked behind a same-shard writer must all be
     granted on its release, and none before it;
   - liveness: two domains on disjoint wide slices must finish a fixed
     op count under a deadline (a domain parked where no overlapping
     release will come fails the test instead of hanging it);
   - mid-switch timed cancellation: a deadline acquisition racing a
     forced regime flip must time out cleanly (no residue) against a
     conflicting narrow holder and grant against a disjoint one;
   - reader bias: the fast path, the writer sweep and slot aliasing;
   - the differential oracle property (mirroring the PR 7 skip/list
     one): random sequential programs replayed against list-rw and
     adaptive-rw — with the sampling knobs tuned to flip regimes
     mid-program — must produce identical outcome vectors and
     individually oracle-clean histories. *)

module A = Rlk_adaptive.Adaptive_rw
module Range = Rlk.Range
module Intf = Rlk.Intf
module History = Rlk.History
module Record = Rlk_check.Record
module Oracle = Rlk_check.Oracle
module Clock = Rlk_primitives.Clock
module Watchdog = Rlk_chaos.Watchdog

let range lo hi = Range.v ~lo ~hi

let regime_name = function A.Sharded -> "sharded" | A.List -> "list"

let check_regime what expected t =
  Alcotest.(check string) what (regime_name expected) (regime_name (A.regime t))

(* ---- regime-threshold boundaries ---- *)

(* Every op sampled, window 4, switch up at >= 50% wide, down at <= 10%.
   Single-domain, so the sample counters and the decision point are
   exact. *)
let mk_sampling () =
  A.create ~shards:4 ~space:64 ~narrow_max:1 ~sample_every:1 ~window:4
    ~hi_pct:50 ~lo_pct:10 ()

let narrow_op t =
  let h = A.write_acquire t (range 0 2) in
  A.release t h

let wide_op t =
  let h = A.write_acquire t (range 0 64) in
  A.release t h

let test_threshold_up () =
  (* Exactly at hi_pct: 2 wide in a window of 4 = 50% >= 50 switches on
     the window-filling sample. *)
  let t = mk_sampling () in
  check_regime "starts sharded" A.Sharded t;
  narrow_op t;
  narrow_op t;
  wide_op t;
  check_regime "window not yet full" A.Sharded t;
  wide_op t;
  check_regime "50% wide flips to list" A.List t;
  Alcotest.(check int) "one switch recorded" 1 (A.switch_count t)

let test_threshold_below () =
  (* Just below hi_pct: 1 wide in 4 = 25% < 50 must not switch. *)
  let t = mk_sampling () in
  narrow_op t;
  narrow_op t;
  narrow_op t;
  wide_op t;
  check_regime "25% wide stays sharded" A.Sharded t;
  Alcotest.(check int) "no switch recorded" 0 (A.switch_count t)

let test_threshold_down () =
  (* Hysteresis: after the flip to list, 25% wide sits inside the band
     (> lo_pct) and must not flip back; an all-narrow tail must. *)
  let t = mk_sampling () in
  wide_op t;
  wide_op t;
  narrow_op t;
  narrow_op t;
  check_regime "in list regime" A.List t;
  narrow_op t;
  narrow_op t;
  narrow_op t;
  wide_op t;
  check_regime "25% wide holds in the band" A.List t;
  let budget = ref 100 in
  while A.regime t = A.List && !budget > 0 do
    narrow_op t;
    decr budget
  done;
  check_regime "all-narrow tail flips back" A.Sharded t;
  Alcotest.(check int) "two switches recorded" 2 (A.switch_count t)

let test_force_regime () =
  let t = A.create ~shards:4 ~space:64 ~sample_every:0 () in
  check_regime "starts sharded" A.Sharded t;
  A.force_regime t A.List;
  check_regime "forced to list" A.List t;
  A.force_regime t A.List;
  Alcotest.(check int) "idempotent force counts once" 1 (A.switch_count t);
  A.force_regime t A.Sharded;
  check_regime "forced back" A.Sharded t

let test_combine_rejected () =
  Alcotest.check_raises "~combine:true is refused"
    (Invalid_argument "Adaptive_rw.create: ~combine must be false")
    (fun () -> ignore (A.create ~combine:true ()))

(* ---- allocation on the narrow path ---- *)

(* A single-shard pair behind one resident holder, bias off so both
   modes take the shard list (OCaml 5.1, no flambda). Read and write
   pairs both allocate 27 words: the backend's 19-word node and the
   2-word failure counter of its insert path (test_core's bounds), the
   4-word handle and the 2-word [Single] grant. Shard classification
   allocates nothing: the first and last shard come from two [Router]
   calls, not a tuple (they cost 7 words while they did). The insert
   walk's and validation scans' closures cost 44 more words per pair
   (45 for a write) while they were closures. The bounds are the exact
   figures, so a new allocation anywhere on the frontend's narrow path
   fails them. *)
let test_narrow_allocation () =
  let t = A.create ~shards:4 ~space:64 ~rbias:false () in
  let resident = A.read_acquire t (range 0 1) in
  let r = range 2 3 in
  let check what ~bound words =
    Alcotest.(check bool)
      (Printf.sprintf "%s pair allocates <= %.0f words (got %.2f)" what bound
         words)
      true (words <= bound)
  in
  check "read" ~bound:27.
    (Stress_helpers.pair_words (fun () ->
         A.release t (A.read_acquire t r)));
  check "write" ~bound:27.
    (Stress_helpers.pair_words (fun () ->
         A.release t (A.write_acquire t r)));
  Alcotest.(check int) "the resident and every pair took one shard" 22_001
    (A.snapshot t).A.s_narrow;
  A.release t resident

(* ---- same-shard pile-up ---- *)

let spin_until ?(timeout_s = 10.) what pred =
  let deadline = Clock.now_ns () + int_of_float (timeout_s *. 1e9) in
  while (not (pred ())) && Clock.now_ns () < deadline do
    Domain.cpu_relax ()
  done;
  if not (pred ()) then Alcotest.failf "timed out waiting for %s" what

(* Readers parked on the list, as the starvation watchdog sees them:
   every lock created while [auto_watch] is on registers its waitboard,
   and a blocking wait is published there until it ends. *)
let watched f =
  Watchdog.clear ();
  Watchdog.set_auto_watch true;
  Fun.protect ~finally:(fun () -> Watchdog.set_auto_watch false) f

let parked () = List.length (Watchdog.scan ~threshold_ns:0)

let test_pile_up () =
  (* A writer holds the whole (single-shard) space; three readers pile up
     behind it on the shard list. No reader may be granted while the
     writer holds, and its release must grant all three. *)
  let t = watched (fun () -> A.create ~shards:1 ~space:16 ~sample_every:0 ()) in
  Fun.protect ~finally:Watchdog.clear @@ fun () ->
  let h = A.write_acquire t (range 0 16) in
  let released = Atomic.make false in
  let early = Atomic.make 0 in
  let got = Atomic.make 0 in
  let reader () =
    let hr = A.read_acquire t (range 2 6) in
    if not (Atomic.get released) then Atomic.incr early;
    Atomic.incr got;
    A.release t hr
  in
  let ds = List.init 3 (fun _ -> Domain.spawn reader) in
  spin_until "3 parked readers" (fun () -> parked () >= 3);
  Alcotest.(check int) "no grant while the writer holds" 0 (Atomic.get got);
  Atomic.set released true;
  A.release t h;
  List.iter Domain.join ds;
  Alcotest.(check int) "all three readers granted" 3 (Atomic.get got);
  Alcotest.(check int) "none granted early" 0 (Atomic.get early);
  Alcotest.(check int) "no waiter left behind" 0 (parked ());
  (* No residue: the whole space is immediately writable again. *)
  let h = A.write_acquire t (range 0 16) in
  A.release t h

(* ---- liveness on disjoint wide slices ---- *)

(* Two domains, each on its own half of the space. A half spans four of
   the eight shards, more than [narrow_max] = 2, so every operation goes
   through the global list, where the two domains' inserts and releases
   race although their ranges never overlap. A blocking acquisition may
   only wait on a node it conflicts with; one that parked anywhere else
   would never be woken. The main domain polls for completion rather
   than joining, so a stuck worker fails the test at the deadline
   instead of hanging it. *)
let test_disjoint_liveness () =
  let t = A.create ~shards:8 ~space:256 () in
  let ops = 2_000_000 in
  let finished = Atomic.make 0 in
  let worker id () =
    let rng = Random.State.make [| id |] in
    let r = range (id * 128) ((id + 1) * 128) in
    for _ = 1 to ops do
      let h =
        if Random.State.int rng 100 < 75 then A.read_acquire t r
        else A.write_acquire t r
      in
      A.release t h
    done;
    Atomic.incr finished
  in
  let ds = List.init 2 (fun id -> Domain.spawn (worker id)) in
  let deadline = Clock.now_ns () + 30_000_000_000 in
  while Atomic.get finished < 2 && Clock.now_ns () < deadline do
    Unix.sleepf 0.01
  done;
  if Atomic.get finished < 2 then
    Alcotest.failf "%d of 2 domains finished %d ops within 30 s"
      (Atomic.get finished) ops;
  List.iter Domain.join ds

(* ---- mid-switch timed cancellation ---- *)

let test_mid_switch_timed () =
  let t = A.create ~shards:4 ~space:64 ~sample_every:0 () in
  (* Narrow holder published in shard 0 of the sharded regime... *)
  let h = A.write_acquire t (range 0 4) in
  check_regime "narrow grant in sharded regime" A.Sharded t;
  (* ...then the regime flips under it. A timed acquisition now routes
     through the global list but must still honour both the holder and
     its own deadline. *)
  A.force_regime t A.List;
  let d = Clock.now_ns () + 30_000_000 in
  (match A.write_acquire_opt t ~deadline_ns:d (range 2 6) with
   | Some _ -> Alcotest.fail "granted against a live conflicting holder"
   | None -> ());
  Alcotest.(check bool) "waited out the deadline" true (Clock.now_ns () >= d);
  (* A disjoint timed acquisition crosses the same switch untouched (same
     shard, so the res-drain runs and must pass). *)
  (match
     A.read_acquire_opt t
       ~deadline_ns:(Clock.now_ns () + 1_000_000_000)
       (range 8 12)
   with
   | Some h2 -> A.release t h2
   | None -> Alcotest.fail "disjoint timed acquisition failed");
  (* The timeout unwound its g node: once the holder releases, the same
     range grants instantly. *)
  A.release t h;
  (match
     A.write_acquire_opt t
       ~deadline_ns:(Clock.now_ns () + 1_000_000_000)
       (range 2 6)
   with
   | Some h2 -> A.release t h2
   | None -> Alcotest.fail "range still blocked after unwind");
  Alcotest.(check int) "one timeout recorded" 1 (A.snapshot t).A.s_timeouts

(* ---- reader bias ---- *)

let test_reader_bias_fast_path () =
  let t = A.create ~shards:4 ~space:64 ~sample_every:0 () in
  (* A solo reader takes the biased fast path: no list node, just the
     slot. *)
  let hr = A.read_acquire t (range 8 24) in
  Alcotest.(check int) "fast-path grant counted" 1
    (A.snapshot t).A.s_fast_reads;
  (* The writer-side sweep makes the slot-held range visible: an
     overlapping try-write must fail, a disjoint one must grant. *)
  Alcotest.(check bool) "overlapping try_write refused" true
    (A.try_write_acquire t (range 20 28) = None);
  (match A.try_write_acquire t (range 32 40) with
   | Some h -> A.release t h
   | None -> Alcotest.fail "disjoint try_write must grant past the slot");
  (* A second read from the same domain finds its slot held and falls
     back to the list path — still granted (readers share). *)
  let hr2 = A.read_acquire t (range 8 24) in
  Alcotest.(check int) "fallback read did not count as fast" 1
    (A.snapshot t).A.s_fast_reads;
  A.release t hr2;
  (* A timed overlapping write waits the fast reader out and then wins. *)
  A.release t hr;
  (match
     A.write_acquire_opt t
       ~deadline_ns:(Clock.now_ns () + 1_000_000_000)
       (range 8 24)
   with
   | Some h -> A.release t h
   | None -> Alcotest.fail "released slot must stop excluding");
  (* No residue in the slots. *)
  let h = A.write_acquire t (range 0 64) in
  A.release t h

let test_reader_bias_disabled () =
  let t = A.create ~shards:4 ~space:64 ~sample_every:0 ~rbias:false () in
  let hr = A.read_acquire t (range 8 24) in
  Alcotest.(check int) "no fast-path grants with rbias off" 0
    (A.snapshot t).A.s_fast_reads;
  Alcotest.(check bool) "exclusion still holds" true
    (A.try_write_acquire t (range 20 28) = None);
  A.release t hr

let test_reader_bias_blocking_writer () =
  (* A fast reader holds; a blocking writer must park until the release
     (the rwait wake path), then grant. *)
  let t = A.create ~shards:4 ~space:64 ~sample_every:0 () in
  let hr = A.read_acquire t (range 0 32) in
  Alcotest.(check int) "reader went fast" 1 (A.snapshot t).A.s_fast_reads;
  let granted = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let h = A.write_acquire t (range 16 48) in
        Atomic.set granted true;
        A.release t h)
  in
  (* The writer is sweeping/parked, not granted. *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "writer held out by the fast reader" false
    (Atomic.get granted);
  A.release t hr;
  Domain.join d;
  Alcotest.(check bool) "writer granted after the release" true
    (Atomic.get granted)

let test_reader_bias_aliased_slot () =
  (* [rslot_count:1] pins every domain onto one biased-reader slot. The
     claim CAS must let exactly one domain publish; the alias loses the
     claim and falls back to the list path (still granted, not fast),
     and the writer sweep keeps seeing the winner's real range. *)
  let t = A.create ~shards:4 ~space:64 ~sample_every:0 ~rslot_count:1 () in
  let hold = Atomic.make true in
  let held = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let h = A.read_acquire t (range 0 16) in
        Atomic.set held true;
        while Atomic.get hold do
          Domain.cpu_relax ()
        done;
        A.release t h)
  in
  spin_until "fast reader holds" (fun () -> Atomic.get held);
  Alcotest.(check int) "holder went fast" 1 (A.snapshot t).A.s_fast_reads;
  (* This domain aliases the held slot: its biased try must lose and
     divert to the list path. *)
  let hr = A.read_acquire t (range 32 48) in
  Alcotest.(check int) "aliased reader not fast" 1
    (A.snapshot t).A.s_fast_reads;
  (* The slot still carries the holder's range, not the alias's: writes
     overlapping either reader are refused (slot sweep and list
     respectively), a disjoint one grants. *)
  Alcotest.(check bool) "overlap with fast holder refused" true
    (A.try_write_acquire t (range 8 12) = None);
  Alcotest.(check bool) "overlap with list-path reader refused" true
    (A.try_write_acquire t (range 40 44) = None);
  (match A.try_write_acquire t (range 20 28) with
   | Some h -> A.release t h
   | None -> Alcotest.fail "disjoint write must grant past the slot");
  A.release t hr;
  Atomic.set hold false;
  Domain.join d;
  (* The slot recycled cleanly — no phantom publication left behind to
     park this writer forever. *)
  let h = A.write_acquire t (range 0 64) in
  A.release t h

let test_aliased_slot_stress () =
  (* Same pinning under the ArrBench occupancy checker: 4 domains
     hammer one slot with claim/retract/release while writers sweep —
     the claim protocol must preserve exclusion throughout. *)
  let lock = A.impl ~shards:4 ~space:256 ~rslot_count:1 () in
  match
    Rlk_workloads.Arrbench.self_check ~lock
      ~variant:Rlk_workloads.Arrbench.Random ~threads:4 ~read_pct:80
      ~duration_s:0.2
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* ---- multi-domain exclusion (the ArrBench occupancy checker) ---- *)

let test_multi_domain_exclusion () =
  let lock = Rlk_adaptive.Adaptive_rw.impl ~shards:8 ~space:256 () in
  match
    Rlk_workloads.Arrbench.self_check ~lock
      ~variant:Rlk_workloads.Arrbench.Random ~threads:4 ~read_pct:50
      ~duration_s:0.2
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* ---- differential oracle property (satellite of PR 7's) ----

   Same program shape as test_index's list/skip property, plus a wide
   operation class so the generated mix crosses the adaptive lock's
   narrow/wide boundary; the sampling knobs force regime switches
   mid-program (asserted cumulatively below). Sequential programs are
   deterministic, so the outcome vectors must match exactly. *)

type op =
  | Try_read of int * int
  | Try_write of int * int
  | Try_wide of int
  | Timed_read of int * int
  | Timed_write of int * int
  | Release_nth of int

let op_to_string = function
  | Try_read (lo, w) -> Printf.sprintf "try_read [%d,%d)" lo (lo + w)
  | Try_write (lo, w) -> Printf.sprintf "try_write [%d,%d)" lo (lo + w)
  | Try_wide w -> Printf.sprintf "try_wide [0,%d)" w
  | Timed_read (lo, w) -> Printf.sprintf "timed_read [%d,%d)" lo (lo + w)
  | Timed_write (lo, w) -> Printf.sprintf "timed_write [%d,%d)" lo (lo + w)
  | Release_nth k -> Printf.sprintf "release#%d" k

let ops_arb =
  let open QCheck.Gen in
  let slot = int_bound 48 and width = int_range 1 6 in
  let op_gen =
    frequency
      [ (3, map2 (fun lo w -> Try_read (lo, w)) slot width);
        (3, map2 (fun lo w -> Try_write (lo, w)) slot width);
        (2, map (fun w -> Try_wide w) (int_range 24 56));
        (1, map2 (fun lo w -> Timed_read (lo, w)) slot width);
        (1, map2 (fun lo w -> Timed_write (lo, w)) slot width);
        (3, map (fun k -> Release_nth k) (int_bound 24)) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    (list_size (int_range 12 50) op_gen)

let run_program impl ops =
  let module M = (val (impl : Intf.rw_impl)) in
  let l = M.create () in
  let held = ref [] in
  let grant h =
    held := h :: !held;
    true
  in
  let outcomes =
    List.map
      (fun op ->
        match op with
        | Try_read (lo, w) -> (
          match M.try_read_acquire l (range lo (lo + w)) with
          | Some h -> grant h
          | None -> false)
        | Try_write (lo, w) -> (
          match M.try_write_acquire l (range lo (lo + w)) with
          | Some h -> grant h
          | None -> false)
        | Try_wide w -> (
          match M.try_write_acquire l (range 0 w) with
          | Some h -> grant h
          | None -> false)
        | Timed_read (lo, w) -> (
          let deadline_ns = Clock.now_ns () + 1_000_000 in
          match M.read_acquire_opt l ~deadline_ns (range lo (lo + w)) with
          | Some h -> grant h
          | None -> false)
        | Timed_write (lo, w) -> (
          let deadline_ns = Clock.now_ns () + 1_000_000 in
          match M.write_acquire_opt l ~deadline_ns (range lo (lo + w)) with
          | Some h -> grant h
          | None -> false)
        | Release_nth k -> (
          match !held with
          | [] -> false
          | hs ->
            let i = k mod List.length hs in
            let h = List.nth hs i in
            held := List.filteri (fun j _ -> j <> i) hs;
            M.release l h;
            true))
      ops
  in
  List.iter (M.release l) !held;
  outcomes

(* Aggressive sampling: every op, a 4-sample window, and a tight
   hysteresis band, so the generated wide/narrow mix flips the regime
   repeatedly inside one program. *)
let adaptive_impl () =
  A.impl ~shards:8 ~space:64 ~sample_every:1 ~window:4 ~hi_pct:40 ~lo_pct:20
    ()

let switches_seen = ref 0

let differential_prop ops =
  History.arm ();
  A.trace_arm ();
  Fun.protect
    ~finally:(fun () ->
      switches_seen := !switches_seen + List.length (A.trace_drain ());
      A.trace_disarm ();
      History.disarm ();
      ignore (History.drain ()))
    (fun () ->
      let out_list =
        run_program (Record.wrap (module Intf.List_rw_impl)) ops
      in
      let out_adaptive = run_program (Record.wrap (adaptive_impl ())) ops in
      let events = History.drain () in
      let dropped = History.dropped () in
      let oracle_clean name =
        let evs =
          List.filter (fun e -> String.equal e.History.lock name) events
        in
        let report = Oracle.check ~dropped evs in
        if not (Oracle.ok report) then
          QCheck.Test.fail_reportf "%s history rejected by oracle:@.%a" name
            Oracle.pp_report report
      in
      oracle_clean "list-rw";
      oracle_clean "adaptive-rw";
      if out_list <> out_adaptive then
        QCheck.Test.fail_reportf
          "outcome divergence:@.list-rw:     %s@.adaptive-rw: %s"
          (String.concat ""
             (List.map (fun b -> if b then "1" else "0") out_list))
          (String.concat ""
             (List.map (fun b -> if b then "1" else "0") out_adaptive));
      true)

let differential_test =
  QCheck.Test.make ~name:"list-rw and adaptive-rw grant identically"
    ~count:40 ops_arb differential_prop

(* Runs after the differential suite: the knobs above must actually have
   forced regime switches mid-program, otherwise the property never
   exercised the boundary it claims to. *)
let test_switches_were_forced () =
  Alcotest.(check bool)
    (Printf.sprintf "differential programs forced regime switches (saw %d)"
       !switches_seen)
    true (!switches_seen > 0)

let qsuite name tests =
  Printf.printf "%s qcheck suite: seed %d (override with RLK_SEED)\n%!" name
    Stress_helpers.base_seed;
  ( name,
    List.map
      (QCheck_alcotest.to_alcotest ~long:false
         ~rand:(Stress_helpers.qcheck_rand ()))
      tests )

let () =
  Alcotest.run "adaptive"
    [ ( "regimes",
        [ Alcotest.test_case "switch at hi_pct" `Quick test_threshold_up;
          Alcotest.test_case "hold below hi_pct" `Quick test_threshold_below;
          Alcotest.test_case "hysteresis band and flip-back" `Quick
            test_threshold_down;
          Alcotest.test_case "force_regime" `Quick test_force_regime;
          Alcotest.test_case "combine:true rejected" `Quick
            test_combine_rejected ] );
      ( "allocation",
        [ Alcotest.test_case "narrow pair words" `Quick
            test_narrow_allocation ] );
      ( "pile-up",
        [ Alcotest.test_case "same-shard pile-up exclusion" `Quick
            test_pile_up ] );
      ( "liveness",
        [ Alcotest.test_case "disjoint wide slices finish" `Quick
            test_disjoint_liveness ] );
      ( "timed",
        [ Alcotest.test_case "mid-switch cancellation" `Quick
            test_mid_switch_timed ] );
      ( "reader-bias",
        [ Alcotest.test_case "fast path and writer sweep" `Quick
            test_reader_bias_fast_path;
          Alcotest.test_case "rbias:false keeps the list path" `Quick
            test_reader_bias_disabled;
          Alcotest.test_case "blocking writer parks on a fast reader"
            `Quick test_reader_bias_blocking_writer;
          Alcotest.test_case "aliased slot loses the claim CAS" `Quick
            test_reader_bias_aliased_slot;
          Alcotest.test_case "aliased-slot random stress" `Quick
            test_aliased_slot_stress ] );
      ( "exclusion",
        [ Alcotest.test_case "multi-domain random self-check" `Quick
            test_multi_domain_exclusion ] );
      qsuite "differential" [ differential_test ];
      ( "differential-coverage",
        [ Alcotest.test_case "regime switches were forced" `Quick
            test_switches_were_forced ] ) ]
