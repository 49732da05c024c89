open Rlk

let range lo hi = Range.v ~lo ~hi

(* Simple start barrier so stress domains begin together. *)
let make_barrier n =
  let waiting = Atomic.make n in
  fun () ->
    Atomic.decr waiting;
    while Atomic.get waiting > 0 do Domain.cpu_relax () done

let spawn_n n f = Array.init n (fun i -> Domain.spawn (fun () -> f i))

let join_all ds = Array.iter Domain.join ds

(* ---------------- Range ---------------- *)

let test_range_basics () =
  let r = range 10 20 in
  Alcotest.(check int) "lo" 10 (Range.lo r);
  Alcotest.(check int) "hi" 20 (Range.hi r);
  Alcotest.(check int) "length" 10 (Range.length r);
  Alcotest.(check bool) "contains lo" true (Range.contains r 10);
  Alcotest.(check bool) "excludes hi" false (Range.contains r 20);
  Alcotest.(check bool) "full is full" true (Range.is_full Range.full);
  Alcotest.(check string) "pp" "[10, 20)" (Range.to_string r)

let test_range_validation () =
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Range.v: need 0 <= lo < hi, got [5, 5)")
    (fun () -> ignore (range 5 5));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Range.v: need 0 <= lo < hi, got [-1, 5)")
    (fun () -> ignore (range (-1) 5))

let test_range_overlap () =
  let check a b expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s vs %s" (Range.to_string a) (Range.to_string b))
      expected (Range.overlap a b);
    Alcotest.(check bool) "symmetric" expected (Range.overlap b a)
  in
  check (range 0 10) (range 10 20) false;
  check (range 0 10) (range 9 20) true;
  check (range 0 10) (range 3 7) true;
  check (range 5 6) (range 0 100) true;
  check (range 0 1) (range 2 3) false;
  check Range.full (range 7 8) true

let test_range_ops () =
  Alcotest.(check bool) "subsumes" true (Range.subsumes (range 0 10) (range 2 5));
  Alcotest.(check bool) "not subsumes" false (Range.subsumes (range 2 5) (range 0 10));
  (match Range.intersect (range 0 10) (range 5 15) with
   | Some r -> Alcotest.(check bool) "intersect" true (Range.equal r (range 5 10))
   | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool) "disjoint intersect" true
    (Range.intersect (range 0 5) (range 5 10) = None);
  Alcotest.(check bool) "hull" true
    (Range.equal (Range.union_hull (range 0 5) (range 8 10)) (range 0 10))

let test_range_subtract () =
  let to_s rs = String.concat "," (List.map Range.to_string rs) in
  let check a b expect =
    Alcotest.(check string)
      (Printf.sprintf "%s - %s" (Range.to_string a) (Range.to_string b))
      (to_s expect) (to_s (Range.subtract a b))
  in
  check (range 0 10) (range 20 30) [ range 0 10 ];
  check (range 0 10) (range 0 10) [];
  check (range 0 10) (range 3 7) [ range 0 3; range 7 10 ];
  check (range 0 10) (range 0 5) [ range 5 10 ];
  check (range 0 10) (range 5 10) [ range 0 5 ];
  check (range 3 7) (range 0 10) []

let prop_subtract_partitions =
  QCheck.Test.make ~name:"subtract removes exactly the overlap" ~count:300
    QCheck.(quad (int_bound 40) (int_bound 15) (int_bound 40) (int_bound 15))
    (fun (a, la, b, lb) ->
      let r1 = range a (a + la + 1) and r2 = range b (b + lb + 1) in
      let pieces = Range.subtract r1 r2 in
      (* Every point of r1 is in pieces iff it is not in r2. *)
      let ok = ref true in
      for x = Range.lo r1 to Range.hi r1 - 1 do
        let in_pieces = List.exists (fun p -> Range.contains p x) pieces in
        if in_pieces <> not (Range.contains r2 x) then ok := false
      done;
      (* Pieces never stray outside r1 and never overlap each other. *)
      List.iter
        (fun p -> if not (Range.subsumes r1 p) then ok := false)
        pieces;
      (match pieces with
       | [ p; q ] -> if Range.overlap p q then ok := false
       | _ -> ());
      !ok)

let range_pair_arb =
  QCheck.(
    map
      (fun (a, la, b, lb) -> (range a (a + la + 1), range b (b + lb + 1)))
      (quad (int_bound 60) (int_bound 20) (int_bound 60) (int_bound 20)))

let prop_overlap_symmetric =
  QCheck.Test.make ~name:"overlap is symmetric" ~count:500 range_pair_arb
    (fun (r1, r2) -> Range.overlap r1 r2 = Range.overlap r2 r1)

let prop_adjacent_not_overlapping =
  (* Touching endpoints never overlap (half-open), but any 1-slot extension
     across the boundary does — exactly the adjacency semantics the
     adjacent-range lock scenarios rely on. *)
  QCheck.Test.make ~name:"adjacency vs overlap at shared boundary" ~count:300
    QCheck.(pair (int_bound 50) (pair (int_bound 15) (int_bound 15)))
    (fun (k, (la, lb)) ->
      let left = range k (k + la + 1) in
      let right = range (k + la + 1) (k + la + lb + 2) in
      (not (Range.overlap left right))
      && Range.overlap left (range k (k + la + 2))
      && Range.overlap (range (k + la + 1) (k + la + 2)) right)

let prop_intersect_agrees_with_overlap =
  QCheck.Test.make ~name:"intersect is Some iff overlap, and is the overlap"
    ~count:500 range_pair_arb (fun (r1, r2) ->
      match Range.intersect r1 r2 with
      | None -> not (Range.overlap r1 r2)
      | Some i ->
        Range.overlap r1 r2
        && Range.subsumes r1 i && Range.subsumes r2 i
        && Range.lo i = max (Range.lo r1) (Range.lo r2)
        && Range.hi i = min (Range.hi r1) (Range.hi r2))

let prop_union_hull_normalizes =
  QCheck.Test.make ~name:"union_hull is the least range covering both"
    ~count:500 range_pair_arb (fun (r1, r2) ->
      let h = Range.union_hull r1 r2 in
      Range.subsumes h r1 && Range.subsumes h r2
      && Range.lo h = min (Range.lo r1) (Range.lo r2)
      && Range.hi h = max (Range.hi r1) (Range.hi r2))

let prop_overlap_iff_common_point =
  QCheck.Test.make ~name:"overlap iff a common integer point" ~count:500
    QCheck.(quad (int_bound 60) (int_bound 20) (int_bound 60) (int_bound 20))
    (fun (a, la, b, lb) ->
      let r1 = range a (a + la + 1) and r2 = range b (b + lb + 1) in
      let naive =
        let common = ref false in
        for x = min a b to max (a + la) (b + lb) + 1 do
          if Range.contains r1 x && Range.contains r2 x then common := true
        done;
        !common
      in
      Range.overlap r1 r2 = naive)

(* ---------------- Fairgate ---------------- *)

let test_fairgate_disabled_noop () =
  let s = Fairgate.start None in
  Alcotest.(check bool) "never escalates" false
    (Fairgate.failures_exceeded s ~failures:1_000_000);
  Fairgate.escalate s;
  Fairgate.finish s

let test_fairgate_protocol () =
  let g = Fairgate.create ~patience:3 () in
  let s = Fairgate.start (Some g) in
  Alcotest.(check bool) "below budget" false (Fairgate.failures_exceeded s ~failures:2);
  Alcotest.(check bool) "at budget" true (Fairgate.failures_exceeded s ~failures:3);
  Fairgate.escalate s;
  Alcotest.(check bool) "impatient never escalates again" false
    (Fairgate.failures_exceeded s ~failures:100);
  (* A new session while impatient must take the read side (it would block
     if the writer still held it, so check after finish). *)
  Fairgate.finish s;
  let s2 = Fairgate.start (Some g) in
  Fairgate.finish s2

(* Bounded bypass (Section 4.3): under a continuous stream of arriving
   readers on the same range, a writer with a fairness gate must acquire
   after a bounded number of reader grants slip past it — the impatient
   counter plus the auxiliary write lock shuts the door on new arrivals
   once the writer's patience runs out. Readers carry an explicit
   iteration cap so a starved writer fails the property instead of
   hanging the suite.

   Readers run out of patience too (each wait on the writer's transient
   node counts against their budget), so the lock's escalation count
   cannot tell when the *writer* escalated. The property therefore runs
   on the production list core over a gate that flags the escalation of
   one watched domain, the writer's. *)
let watched_domain = Atomic.make (-1)

let watched_escalated = Atomic.make false

module Watched_gate = struct
  include Fairgate

  let escalate s =
    if (Domain.self () :> int) = Atomic.get watched_domain then
      Atomic.set watched_escalated true;
    Fairgate.escalate s
end

module Watched_rw =
  List_rw_core.Make (Rlk_primitives.Traced_atomic.Real) (Node) (Watched_gate)

let prop_fairgate_bounded_bypass =
  QCheck.Test.make ~name:"impatient counter bounds writer bypass" ~count:6
    QCheck.(pair (int_range 1 3) (int_range 1 8))
    (fun (readers, patience) ->
      Atomic.set watched_domain (Domain.self () :> int);
      Atomic.set watched_escalated false;
      let l = Watched_rw.create ~fairness:patience () in
      let r = range 0 8 in
      let reader_cap = 100_000 (* per reader; termination guarantee *) in
      let stop = Atomic.make false in
      let writer_waiting = Atomic.make false in
      let bypass = Atomic.make 0 in
      let post_esc_bypass = Atomic.make 0 in
      let capped = Atomic.make false in
      let ds =
        spawn_n readers (fun _ ->
            let i = ref 0 in
            while (not (Atomic.get stop)) && !i < reader_cap do
              incr i;
              let h = Watched_rw.read_acquire l r in
              if Atomic.get writer_waiting then begin
                Atomic.incr bypass;
                if Atomic.get watched_escalated then
                  Atomic.incr post_esc_bypass
              end;
              Watched_rw.release l h
            done;
            if !i >= reader_cap then Atomic.set capped true)
      in
      Atomic.set writer_waiting true;
      let h = Watched_rw.write_acquire l r in
      Atomic.set writer_waiting false;
      Atomic.set stop true;
      Watched_rw.release l h;
      join_all ds;
      let m = Watched_rw.metrics l in
      let b = Atomic.get bypass and pe = Atomic.get post_esc_bypass in
      (* Once the writer escalates, the aux write lock stops new arrivals:
         only acquisitions already in flight (at most one per reader, plus
         a small benign-race allowance) may still slip past. Before
         escalation, bypass is bounded by the patience budget — but with
         noisy constants (wake latency admits a burst per failure), so the
         sharp assertion is on the post-escalation side. *)
      let writer_escalated = Atomic.get watched_escalated in
      let ok = (not (Atomic.get capped)) && pe <= 8 * readers in
      if not ok then
        Printf.eprintf
          "fairgate: bypass=%d post-escalation=%d escalations=%d \
           writer-escalated=%b capped=%b at readers=%d patience=%d\n\
           %!"
          b pe m.Metrics.escalations writer_escalated (Atomic.get capped)
          readers patience;
      ok)

(* ---------------- List_mutex: sequential ---------------- *)

let test_mutex_disjoint_coexist () =
  let l = List_mutex.create () in
  let h1 = List_mutex.acquire l (range 0 10) in
  let h2 = List_mutex.acquire l (range 10 20) in
  let h3 = List_mutex.acquire l (range 50 60) in
  Alcotest.(check int) "three holders" 3 (List.length (List_mutex.holders l));
  (* Invariant 1: holders sorted and non-overlapping. *)
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "sorted, disjoint" true (Range.hi a <= Range.lo b);
      check_sorted rest
    | _ -> ()
  in
  check_sorted (List_mutex.holders l);
  List_mutex.release l h2;
  List_mutex.release l h1;
  List_mutex.release l h3;
  (* Marked nodes linger until a traversal unlinks them; a fresh disjoint
     acquisition sweeps them. *)
  let h = List_mutex.acquire l (range 0 100) in
  List_mutex.release l h

let test_mutex_try_blocks_on_overlap () =
  let l = List_mutex.create () in
  let h = List_mutex.acquire l (range 10 20) in
  Alcotest.(check bool) "overlap refused" true
    (List_mutex.try_acquire l (range 15 25) = None);
  let touch_hi = List_mutex.try_acquire l (range 20 30) in
  Alcotest.(check bool) "touching hi ok" true (touch_hi <> None);
  let touch_lo = List_mutex.try_acquire l (range 0 10) in
  Alcotest.(check bool) "touching lo ok" true (touch_lo <> None);
  Option.iter (List_mutex.release l) touch_hi;
  Option.iter (List_mutex.release l) touch_lo;
  List_mutex.release l h;
  Alcotest.(check bool) "after release ok" true
    (List_mutex.try_acquire l (range 15 25) <> None)

let test_mutex_full_range () =
  let l = List_mutex.create () in
  let h = List_mutex.acquire l Range.full in
  Alcotest.(check bool) "anything blocked" true
    (List_mutex.try_acquire l (range 1_000_000 1_000_001) = None);
  List_mutex.release l h

let test_mutex_with_range_exception () =
  let l = List_mutex.create () in
  (try List_mutex.with_range l (range 0 5) (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "released after exception" true
    (List_mutex.try_acquire l (range 0 5) <> None)

let test_mutex_fast_path_metrics () =
  let l = List_mutex.create ~fast_path:true () in
  for _ = 1 to 10 do
    List_mutex.with_range l (range 0 100) (fun () -> ())
  done;
  let m = List_mutex.metrics l in
  Alcotest.(check int) "all acquisitions on fast path" 10 m.Metrics.fast_path_hits;
  Alcotest.(check int) "acquisitions counted" 10 m.Metrics.acquisitions;
  List_mutex.reset_metrics l;
  Alcotest.(check int) "reset" 0 (List_mutex.metrics l).Metrics.acquisitions

let test_mutex_fast_path_to_regular_release () =
  (* Acquire on the fast path, have another range arrive (which unmarks the
     head), then release: must fall back to the regular path correctly. *)
  let l = List_mutex.create ~fast_path:true () in
  let h1 = List_mutex.acquire l (range 0 10) in
  let h2 = List_mutex.acquire l (range 50 60) in
  (* h2's traversal unmarked the head; releasing h1 takes the regular path. *)
  List_mutex.release l h1;
  Alcotest.(check bool) "h1's range free again" true
    (List_mutex.try_acquire l (range 0 10) <> None);
  List_mutex.release l h2

let test_mutex_try_under_contention () =
  (* try_acquire against a holder in another domain: refused on overlap,
     granted when disjoint, granted again once the holder releases — and a
     handle obtained via try releases like any other. *)
  let l = List_mutex.create () in
  let holding = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let h = List_mutex.acquire l (range 0 10) in
        Atomic.set holding true;
        while not (Atomic.get release) do Domain.cpu_relax () done;
        List_mutex.release l h)
  in
  while not (Atomic.get holding) do Domain.cpu_relax () done;
  Alcotest.(check bool) "overlap refused while held elsewhere" true
    (List_mutex.try_acquire l (range 5 15) = None);
  (match List_mutex.try_acquire l (range 10 20) with
   | Some h -> List_mutex.release l h
   | None -> Alcotest.fail "disjoint try refused");
  Atomic.set release true;
  Domain.join d;
  match List_mutex.try_acquire l (range 5 15) with
  | None -> Alcotest.fail "free range refused after release"
  | Some h ->
    List_mutex.release l h;
    let h2 = List_mutex.acquire l (range 5 15) in
    List_mutex.release l h2

(* ---------------- List_mutex: concurrent ---------------- *)

let slots = 64

(* Shared checker: a slot-granular owner count. Exclusive holders must see
   themselves alone on every slot of their range. *)
let make_checker () =
  let owners = Array.init slots (fun _ -> Atomic.make 0) in
  let violated = Atomic.make false in
  let enter_excl r =
    for i = Range.lo r to Range.hi r - 1 do
      if Atomic.fetch_and_add owners.(i) 1 <> 0 then Atomic.set violated true
    done
  and leave_excl r =
    for i = Range.lo r to Range.hi r - 1 do
      ignore (Atomic.fetch_and_add owners.(i) (-1))
    done
  in
  (owners, violated, enter_excl, leave_excl)

let random_range rng =
  let open Rlk_primitives in
  let a = Prng.below rng slots and b = Prng.below rng slots in
  let lo = min a b and hi = max a b + 1 in
  range lo hi

let mutex_stress ?fast_path ?fairness ?park ~domains ~iters () =
  let l = List_mutex.create ?fast_path ?fairness ?park () in
  let _, violated, enter_excl, leave_excl = make_checker () in
  let barrier = make_barrier domains in
  let ds =
    spawn_n domains (fun id ->
        let rng =
          Rlk_primitives.Prng.create
            ~seed:(Stress_helpers.domain_seed ~salt:7919 id)
        in
        barrier ();
        for _ = 1 to iters do
          let r = random_range rng in
          let h = List_mutex.acquire l r in
          enter_excl r;
          leave_excl r;
          List_mutex.release l h
        done)
  in
  join_all ds;
  Alcotest.(check bool) "no exclusion violation" false (Atomic.get violated);
  Alcotest.(check (list string)) "no unmarked node left after the join" []
    (List.map Range.to_string (List_mutex.holders l));
  let m = List_mutex.metrics l in
  Alcotest.(check int) "all acquisitions happened" (domains * iters)
    m.Metrics.acquisitions;
  if park = Some false then
    Alcotest.(check int) "spin mode never parks" 0 m.Metrics.parks

let test_mutex_stress_plain () = mutex_stress ~domains:4 ~iters:2_000 ()

let test_mutex_stress_fast_path () =
  mutex_stress ~fast_path:true ~domains:4 ~iters:2_000 ()

let test_mutex_stress_fairness () =
  mutex_stress ~fairness:8 ~domains:4 ~iters:2_000 ()

let test_mutex_stress_all_options () =
  mutex_stress ~fast_path:true ~fairness:8 ~domains:4 ~iters:2_000 ()

(* Pure-spin mode (PR 5, [~park:false]): blocking waits poll via
   [Sim.wait_until] and never touch the parking layer — exclusion and
   drain semantics must be unchanged, and no parks may be recorded. *)
let test_mutex_stress_spin () =
  mutex_stress ~park:false ~domains:4 ~iters:2_000 ()

let test_mutex_disjoint_parallelism () =
  (* A holder of [0,10) must not block [10,20): the second acquisition must
     succeed while the first is held by another domain. *)
  let l = List_mutex.create () in
  let holding = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let h = List_mutex.acquire l (range 0 10) in
        Atomic.set holding true;
        while not (Atomic.get release) do Domain.cpu_relax () done;
        List_mutex.release l h)
  in
  while not (Atomic.get holding) do Domain.cpu_relax () done;
  let h2 = List_mutex.acquire l (range 10 20) in
  (* C-after-B-after-A case from Section 3: [4..5) does not overlap the held
     [0,10)? it does; use the paper's example shape instead: holder [1,3),
     blocked [2,7), free [4,5) — we emulate with two disjoint ranges. *)
  List_mutex.release l h2;
  Atomic.set release true;
  Domain.join d

(* ---------------- List_rw: sequential ---------------- *)

let test_rw_readers_share () =
  let l = List_rw.create () in
  let h1 = List_rw.read_acquire l (range 0 20) in
  let h2 = List_rw.read_acquire l (range 10 30) in
  Alcotest.(check bool) "both readers" true
    (List_rw.is_reader h1 && List_rw.is_reader h2);
  Alcotest.(check int) "two holders" 2 (List.length (List_rw.holders l));
  (* Invariant 2: sorted by lo. *)
  (match List_rw.holders l with
   | [ (a, `Reader); (b, `Reader) ] ->
     Alcotest.(check bool) "sorted by lo" true (Range.lo a <= Range.lo b)
   | _ -> Alcotest.fail "unexpected holders");
  List_rw.release l h1;
  List_rw.release l h2

let test_rw_writer_excludes () =
  let l = List_rw.create () in
  let hw = List_rw.write_acquire l (range 10 20) in
  Alcotest.(check bool) "reader blocked by writer" true
    (List_rw.try_read_acquire l (range 15 25) = None);
  Alcotest.(check bool) "writer blocked by writer" true
    (List_rw.try_write_acquire l (range 5 15) = None);
  let disjoint = List_rw.try_read_acquire l (range 20 30) in
  Alcotest.(check bool) "disjoint reader fine" true (disjoint <> None);
  Option.iter (List_rw.release l) disjoint;
  List_rw.release l hw;
  let hr = List_rw.read_acquire l (range 10 20) in
  Alcotest.(check bool) "writer blocked by reader" true
    (List_rw.try_write_acquire l (range 15 25) = None);
  let shared = List_rw.try_read_acquire l (range 15 25) in
  Alcotest.(check bool) "overlapping reader fine" true (shared <> None);
  Option.iter (List_rw.release l) shared;
  List_rw.release l hr

let test_rw_full_range_write () =
  let l = List_rw.create () in
  let h = List_rw.write_acquire l Range.full in
  Alcotest.(check bool) "read blocked" true
    (List_rw.try_read_acquire l (range 0 1) = None);
  List_rw.release l h;
  let h = List_rw.read_acquire l Range.full in
  Alcotest.(check bool) "full readers share" true
    (List_rw.try_read_acquire l Range.full <> None);
  List_rw.release l h

let test_rw_try_under_contention () =
  let l = List_rw.create () in
  let holding = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let h = List_rw.read_acquire l (range 0 10) in
        Atomic.set holding true;
        while not (Atomic.get release) do Domain.cpu_relax () done;
        List_rw.release l h)
  in
  while not (Atomic.get holding) do Domain.cpu_relax () done;
  Alcotest.(check bool) "writer refused over cross-domain reader" true
    (List_rw.try_write_acquire l (range 5 15) = None);
  (match List_rw.try_read_acquire l (range 5 15) with
   | Some h -> List_rw.release l h
   | None -> Alcotest.fail "reader sharing refused");
  Atomic.set release true;
  Domain.join d;
  match List_rw.try_write_acquire l (range 5 15) with
  | None -> Alcotest.fail "free range refused after release"
  | Some h -> List_rw.release l h

(* ---------------- List_rw: concurrent ---------------- *)

(* Reader/writer slot checker: writers must be alone; readers must never
   overlap an active writer. Encoding per slot: writer adds 1_000_000,
   reader adds 1. *)
let make_rw_checker () =
  let state = Array.init slots (fun _ -> Atomic.make 0) in
  let violated = Atomic.make false in
  let writer_unit = 1_000_000 in
  let enter r ~reader =
    for i = Range.lo r to Range.hi r - 1 do
      let prev = Atomic.fetch_and_add state.(i) (if reader then 1 else writer_unit) in
      if reader then begin
        if prev >= writer_unit then Atomic.set violated true
      end
      else if prev <> 0 then Atomic.set violated true
    done
  and leave r ~reader =
    for i = Range.lo r to Range.hi r - 1 do
      ignore (Atomic.fetch_and_add state.(i) (if reader then -1 else -writer_unit))
    done
  in
  (violated, enter, leave)

let rw_stress ?fast_path ?fairness ?prefer ?park ~domains ~iters ~write_pct
    () =
  let l = List_rw.create ?fast_path ?fairness ?prefer ?park () in
  let violated, enter, leave = make_rw_checker () in
  let barrier = make_barrier domains in
  let ds =
    spawn_n domains (fun id ->
        let rng =
          Rlk_primitives.Prng.create
            ~seed:(Stress_helpers.domain_seed ~salt:31337 id)
        in
        barrier ();
        for _ = 1 to iters do
          let r = random_range rng in
          let reader = Rlk_primitives.Prng.below rng 100 >= write_pct in
          let h =
            if reader then List_rw.read_acquire l r else List_rw.write_acquire l r
          in
          enter r ~reader;
          leave r ~reader;
          List_rw.release l h
        done)
  in
  join_all ds;
  Alcotest.(check bool) "no rw violation" false (Atomic.get violated);
  let m = List_rw.metrics l in
  Alcotest.(check int) "all acquisitions happened" (domains * iters)
    m.Metrics.acquisitions;
  if park = Some false then
    Alcotest.(check int) "spin mode never parks" 0 m.Metrics.parks

let test_rw_stress_mixed () = rw_stress ~domains:4 ~iters:2_000 ~write_pct:40 ()

let test_rw_stress_read_heavy () = rw_stress ~domains:4 ~iters:2_000 ~write_pct:5 ()

let test_rw_stress_write_only () = rw_stress ~domains:4 ~iters:2_000 ~write_pct:100 ()

let test_rw_stress_fast_fair () =
  rw_stress ~fast_path:true ~fairness:8 ~domains:4 ~iters:2_000 ~write_pct:40 ()

let test_rw_stress_writer_pref () =
  rw_stress ~prefer:List_rw.Prefer_writers ~domains:4 ~iters:2_000 ~write_pct:40 ()

let test_rw_stress_spin () =
  rw_stress ~park:false ~domains:4 ~iters:2_000 ~write_pct:40 ()

let test_rw_stress_writer_pref_read_heavy () =
  rw_stress ~prefer:List_rw.Prefer_writers ~fairness:8 ~domains:4 ~iters:2_000
    ~write_pct:5 ()

let test_writer_pref_sequential_semantics () =
  (* Preference changes who yields, not what conflicts: sequential behaviour
     must be identical to the default. *)
  let l = List_rw.create ~prefer:List_rw.Prefer_writers () in
  let hr = List_rw.read_acquire l (range 0 20) in
  Alcotest.(check bool) "reader sharing preserved" true
    (match List_rw.try_read_acquire l (range 10 30) with
     | Some h -> List_rw.release l h; true
     | None -> false);
  Alcotest.(check bool) "writer still excluded" true
    (List_rw.try_write_acquire l (range 5 15) = None);
  List_rw.release l hr;
  let hw = List_rw.write_acquire l (range 0 20) in
  Alcotest.(check bool) "reader excluded by writer" true
    (List_rw.try_read_acquire l (range 5 15) = None);
  List_rw.release l hw

let test_rw_figure1_race () =
  (* The Figure 1 race shape: readers acquiring [15,45) while writers take
     [30,35): overlapping, inserted at different list positions. Exclusion
     must hold under heavy interleaving. *)
  let l = List_rw.create () in
  let violated, enter, leave = make_rw_checker () in
  let iters = 4_000 in
  let barrier = make_barrier 4 in
  let ds =
    spawn_n 4 (fun id ->
        barrier ();
        if id land 1 = 0 then
          for _ = 1 to iters do
            let r = range 15 45 in
            let h = List_rw.read_acquire l r in
            enter r ~reader:true;
            leave r ~reader:true;
            List_rw.release l h
          done
        else
          for _ = 1 to iters do
            let r = range 30 35 in
            let h = List_rw.write_acquire l r in
            enter r ~reader:false;
            leave r ~reader:false;
            List_rw.release l h
          done)
  in
  join_all ds;
  Alcotest.(check bool) "figure-1 exclusion holds" false (Atomic.get violated);
  (* Writers restarted at least once in this adversarial shape — evidence
     the validation path actually runs. (Not guaranteed, but with 8k
     conflicting pairs on 2 cores it is effectively certain; tolerate 0.) *)
  ignore (List_rw.metrics l).Metrics.validation_failures

(* ---------------- Sequential oracle property ---------------- *)

type oracle_op = Acquire of int * int * bool (* lo, len, reader *) | Release of int

let oracle_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map3 (fun lo len r -> Acquire (lo, len, r)) (int_bound 40) (int_bound 15) bool);
        (2, map (fun i -> Release i) (int_bound 10)) ])

let print_op = function
  | Acquire (lo, len, r) -> Printf.sprintf "A(%d,%d,%b)" lo len r
  | Release i -> Printf.sprintf "R%d" i

let prop_rw_matches_oracle =
  QCheck.Test.make ~name:"list-rw try_acquire agrees with holder oracle" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map print_op l))
       QCheck.Gen.(list_size (int_range 1 60) oracle_op_gen))
    (fun ops ->
      let l = List_rw.create () in
      (* held: (handle, range, reader) list *)
      let held = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
           match op with
           | Acquire (lo, len, reader) ->
             let r = range lo (lo + len + 1) in
             let conflict =
               List.exists
                 (fun (_, hr, hreader) ->
                    Range.overlap r hr && ((not hreader) || not reader))
                 !held
             in
             let res =
               if reader then List_rw.try_read_acquire l r
               else List_rw.try_write_acquire l r
             in
             (match res, conflict with
              | Some h, false -> held := (h, r, reader) :: !held
              | None, true -> ()
              | Some h, true ->
                (* impossible per oracle *)
                List_rw.release l h;
                ok := false
              | None, false -> ok := false)
           | Release i ->
             (match List.nth_opt !held i with
              | None -> ()
              | Some (h, _, _) ->
                List_rw.release l h;
                held := List.filteri (fun j _ -> j <> i) !held))
        ops;
      List.iter (fun (h, _, _) -> List_rw.release l h) !held;
      !ok)

let prop_mutex_matches_oracle =
  QCheck.Test.make ~name:"list-ex try_acquire agrees with holder oracle" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map print_op l))
       QCheck.Gen.(list_size (int_range 1 60) oracle_op_gen))
    (fun ops ->
      let l = List_mutex.create () in
      let held = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
           match op with
           | Acquire (lo, len, _) ->
             let r = range lo (lo + len + 1) in
             let conflict = List.exists (fun (_, hr) -> Range.overlap r hr) !held in
             (match List_mutex.try_acquire l r, conflict with
              | Some h, false -> held := (h, r) :: !held
              | None, true -> ()
              | Some h, true -> List_mutex.release l h; ok := false
              | None, false -> ok := false)
           | Release i ->
             (match List.nth_opt !held i with
              | None -> ()
              | Some (h, _) ->
                List_mutex.release l h;
                held := List.filteri (fun j _ -> j <> i) !held))
        ops;
      List.iter (fun (h, _) -> List_mutex.release l h) !held;
      !ok)

(* Invariant 2 as a property: at every point of a random sequential script,
   the list is sorted by lo and no writer overlaps any other holder. *)
let prop_invariant2_holds =
  QCheck.Test.make ~name:"holders always satisfy Invariant 2" ~count:150
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map print_op l))
       QCheck.Gen.(list_size (int_range 1 50) oracle_op_gen))
    (fun ops ->
      let l = List_rw.create () in
      let held = ref [] in
      let check_invariant () =
        let hs = List_rw.holders l in
        let rec sorted = function
          | (a, _) :: ((b, _) :: _ as rest) ->
            Range.lo a <= Range.lo b && sorted rest
          | _ -> true
        in
        let writers_disjoint =
          List.for_all
            (fun (r, kind) ->
               kind = `Reader
               || List.for_all
                    (fun (r', _) -> Range.equal r r' || not (Range.overlap r r'))
                    hs)
            hs
        in
        sorted hs && writers_disjoint
      in
      List.for_all
        (fun op ->
           (match op with
            | Acquire (lo, len, reader) ->
              let r = range lo (lo + len + 1) in
              let res =
                if reader then List_rw.try_read_acquire l r
                else List_rw.try_write_acquire l r
              in
              (match res with Some h -> held := h :: !held | None -> ())
            | Release i ->
              (match List.nth_opt !held i with
               | Some h ->
                 List_rw.release l h;
                 held := List.filteri (fun j _ -> j <> i) !held
               | None -> ()));
           check_invariant ())
        ops)

(* Exception injection: the scoped helpers must release on every path, for
   both lock families. *)
let test_exception_injection_rw () =
  let l = List_rw.create () in
  let r = range 3 9 in
  (try List_rw.with_write l r (fun () -> failwith "boom") with Failure _ -> ());
  (match List_rw.try_write_acquire l r with
   | Some h -> List_rw.release l h
   | None -> Alcotest.fail "write not released after exception");
  (try List_rw.with_read l r (fun () -> failwith "boom") with Failure _ -> ());
  (match List_rw.try_write_acquire l r with
   | Some h -> List_rw.release l h
   | None -> Alcotest.fail "read not released after exception")

(* ---------------- Node allocation ---------------- *)

(* Minor words per acquire+release pair after a warm-up, and how many of
   the measured pairs took the fast path. *)
let pair_words pair fast_path_hits =
  for _ = 1 to 1_000 do pair () done;
  let f0 = fast_path_hits () in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do pair () done;
  let per_pair = (Gc.minor_words () -. w0) /. 10_000. in
  (per_pair, fast_path_hits () - f0)

(* Minor words of one fresh node: the record, its [next] cell, the shared
   [Some] box and its two canonical links. *)
let node_words () =
  let r = range 2 3 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Node.alloc ~reader:true r))
  done;
  (Gc.minor_words () -. w0) /. 10_000.

(* Every acquisition allocates one fresh node ([w_node], bounded on its
   own so the node cannot grow silently). Links are canonical per (node,
   mark), so the rest of the insert path allocates no link record:
   insert, validate, release-mark and the next pair's helper unlink of
   the marked node all CAS in links built with the node. What is left
   beyond the node (48 words per list-rw read pair on OCaml 5.1, no
   flambda) is the insert attempt's closures and failure counter;
   list-ex skips the validation scan and its closure (34 words per write
   pair). A fresh link per CAS costs 14 more words per pair: the insert
   CAS's link and [Some] box, the node's own [next], the release mark and
   the helper unlink. Each lock keeps one resident holder, so no pair
   takes the fast path. *)
let test_insert_path_allocation () =
  let w_node = node_words () in
  Alcotest.(check bool)
    (Printf.sprintf "a node allocates <= 21 words (got %.2f)" w_node)
    true (w_node <= 21.);
  let check lock ~bound (per_pair, fast_hits) =
    Alcotest.(check int) (lock ^ ": no pair took the fast path") 0 fast_hits;
    Alcotest.(check bool)
      (Printf.sprintf
         "%s: insert-path pair allocates <= %.0f words beyond its node (got \
          %.2f - %.2f)"
         lock bound per_pair w_node)
      true (per_pair -. w_node <= bound)
  in
  let r = range 2 3 in
  let rw = List_rw.create () in
  let resident = List_rw.read_acquire rw (range 0 1) in
  check "list-rw reader" ~bound:52.
    (pair_words
       (fun () -> List_rw.release rw (List_rw.read_acquire rw r))
       (fun () -> (List_rw.metrics rw).Metrics.fast_path_hits));
  List_rw.release rw resident;
  let ex = List_mutex.create () in
  let resident = List_mutex.acquire ex (range 0 1) in
  check "list-ex writer" ~bound:36.
    (pair_words
       (fun () -> List_mutex.release ex (List_mutex.acquire ex r))
       (fun () -> (List_mutex.metrics ex).Metrics.fast_path_hits));
  List_mutex.release ex resident

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false ~rand:(Stress_helpers.qcheck_rand ())) tests)

let () =
  Alcotest.run "core"
    [ ("range",
       [ Alcotest.test_case "basics" `Quick test_range_basics;
         Alcotest.test_case "validation" `Quick test_range_validation;
         Alcotest.test_case "overlap table" `Quick test_range_overlap;
         Alcotest.test_case "set operations" `Quick test_range_ops;
         Alcotest.test_case "subtract" `Quick test_range_subtract ]);
      qsuite "range-property"
        [ prop_overlap_iff_common_point; prop_subtract_partitions;
          prop_overlap_symmetric; prop_adjacent_not_overlapping;
          prop_intersect_agrees_with_overlap; prop_union_hull_normalizes ];
      ("fairgate",
       [ Alcotest.test_case "disabled is noop" `Quick test_fairgate_disabled_noop;
         Alcotest.test_case "protocol" `Quick test_fairgate_protocol ]);
      qsuite "fairgate-property" [ prop_fairgate_bounded_bypass ];
      ("list-mutex",
       [ Alcotest.test_case "disjoint coexist, invariant 1" `Quick
           test_mutex_disjoint_coexist;
         Alcotest.test_case "try blocks on overlap" `Quick
           test_mutex_try_blocks_on_overlap;
         Alcotest.test_case "full range blocks all" `Quick test_mutex_full_range;
         Alcotest.test_case "exception releases" `Quick
           test_mutex_with_range_exception;
         Alcotest.test_case "fast path counted" `Quick test_mutex_fast_path_metrics;
         Alcotest.test_case "fast path falls back on release" `Quick
           test_mutex_fast_path_to_regular_release;
         Alcotest.test_case "disjoint parallelism cross-domain" `Quick
           test_mutex_disjoint_parallelism;
         Alcotest.test_case "try under cross-domain contention" `Quick
           test_mutex_try_under_contention ]);
      ("list-mutex-stress",
       [ Alcotest.test_case "plain" `Quick test_mutex_stress_plain;
         Alcotest.test_case "fast path" `Quick test_mutex_stress_fast_path;
         Alcotest.test_case "fairness" `Quick test_mutex_stress_fairness;
         Alcotest.test_case "pure spin" `Quick test_mutex_stress_spin;
         Alcotest.test_case "fast path + fairness" `Quick
           test_mutex_stress_all_options ]);
      ("list-rw",
       [ Alcotest.test_case "readers share" `Quick test_rw_readers_share;
         Alcotest.test_case "writer excludes" `Quick test_rw_writer_excludes;
         Alcotest.test_case "full range modes" `Quick test_rw_full_range_write;
         Alcotest.test_case "try under cross-domain contention" `Quick
           test_rw_try_under_contention ]);
      ("list-rw-stress",
       [ Alcotest.test_case "mixed 40% writes" `Quick test_rw_stress_mixed;
         Alcotest.test_case "read heavy" `Quick test_rw_stress_read_heavy;
         Alcotest.test_case "write only" `Quick test_rw_stress_write_only;
         Alcotest.test_case "fast path + fairness" `Quick test_rw_stress_fast_fair;
         Alcotest.test_case "pure spin" `Quick test_rw_stress_spin;
         Alcotest.test_case "writer preference" `Quick test_rw_stress_writer_pref;
         Alcotest.test_case "writer preference, read heavy + fairness" `Quick
           test_rw_stress_writer_pref_read_heavy;
         Alcotest.test_case "writer preference sequential semantics" `Quick
           test_writer_pref_sequential_semantics;
         Alcotest.test_case "figure-1 race shape" `Quick test_rw_figure1_race ]);
      qsuite "oracle-property"
        [ prop_mutex_matches_oracle; prop_rw_matches_oracle; prop_invariant2_holds ];
      ("exception-injection",
       [ Alcotest.test_case "rw scoped helpers release" `Quick
           test_exception_injection_rw ]);
      ("node-pool",
       [ Alcotest.test_case "insert path allocates no links" `Quick
           test_insert_path_allocation ]) ]
