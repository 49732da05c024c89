open Rlk_primitives

let spawn_n n f = Array.init n (fun i -> Domain.spawn (fun () -> f i))

let join_all ds = Array.iter Domain.join ds

(* ---- Backoff ---- *)

let test_backoff_escalates () =
  let b = Backoff.create ~min_log:1 ~max_log:3 () in
  for _ = 1 to 10 do Backoff.once b done;
  Alcotest.(check int) "events counted" 10 (Backoff.spins b);
  Backoff.reset b;
  Backoff.once b;
  Alcotest.(check int) "events survive reset" 11 (Backoff.spins b)

let test_backoff_validation () =
  Alcotest.check_raises "min>max rejected" (Invalid_argument
    "Backoff.create: need 0 <= min_log <= max_log")
    (fun () -> ignore (Backoff.create ~min_log:5 ~max_log:2 ()))

(* Regression for the deadline-aware nap (PR 5): once the backoff
   saturates into sleeping naps, a nap must be clamped to the time left
   before [deadline_ns]. With an already-expired deadline every nap
   clamps to zero, so even a thousand saturated iterations finish in far
   less than a single unclamped 1 µs-floor nap schedule would take. *)
let test_backoff_deadline_clamp () =
  let b = Backoff.create ~min_log:0 ~max_log:0 () in
  (* Saturate immediately: every [once] past max_log wants to nap. *)
  for _ = 1 to 100 do Backoff.once b done;
  let deadline_ns = Clock.now_ns () - 1 in
  let t0 = Clock.now_ns () in
  for _ = 1 to 1_000 do Backoff.once ~deadline_ns b done;
  let dt = Clock.elapsed_ns t0 in
  if dt > 50_000_000 then
    Alcotest.failf "1000 expired-deadline naps took %d ns (not clamped)" dt;
  (* And a live deadline is still respected as an upper bound: one nap
     never sleeps past the budget by more than scheduling noise. *)
  let deadline_ns = Clock.now_ns () + 2_000_000 in
  let t0 = Clock.now_ns () in
  Backoff.once ~deadline_ns b;
  let dt = Clock.elapsed_ns t0 in
  if dt > 100_000_000 then
    Alcotest.failf "clamped nap slept %d ns against a 2 ms budget" dt

(* ---- Parker ---- *)

let test_parker_block_wake () =
  let flag = Atomic.make false in
  let slot = Domain_id.get () in
  let blocked = ref false in
  (* Self-wake is degenerate; park from a spawned domain and wake it by
     its slot. *)
  let d =
    Domain.spawn (fun () ->
        let p = Parker.mine () in
        Parker.block p (fun () -> Atomic.get flag);
        Domain_id.get ())
  in
  Unix.sleepf 0.02;
  Atomic.set flag true;
  (* The waiter's slot is whatever its domain got; broadcast every slot —
     stale wakes must be absorbed as spurious. *)
  for s = 0 to Domain_id.capacity - 1 do Parker.wake s done;
  let waiter_slot = Domain.join d in
  Alcotest.(check bool) "waiter had its own slot" true (waiter_slot <> slot);
  Alcotest.(check bool) "no deadlock" true (Atomic.get flag);
  ignore !blocked;
  (* A ready-predicate that is already true never blocks. *)
  Parker.block (Parker.mine ()) (fun () -> true)

(* ---- Nshist ---- *)

let test_nshist_buckets () =
  let h = Nshist.create () in
  Alcotest.(check int) "empty" 0 (Nshist.total (Nshist.snapshot h));
  Nshist.add h 0;
  Nshist.add h 1;
  Nshist.add h 1024;
  Nshist.add h 1025;
  Nshist.add h max_int;
  let snap = Nshist.snapshot h in
  Alcotest.(check int) "total" 5 (Nshist.total snap);
  (* Buckets are (upper_bound_ns, count), ascending, non-zero only. *)
  let sorted = List.sort compare snap in
  Alcotest.(check bool) "ascending" true (sorted = snap);
  Alcotest.(check int) "counts preserved" 5
    (List.fold_left (fun a (_, c) -> a + c) 0 snap);
  List.iter
    (fun (ub, _) -> Alcotest.(check bool) "power of two" true
        (ub land (ub - 1) = 0))
    snap;
  let json = Nshist.to_json snap in
  Alcotest.(check bool) "json object" true
    (String.length json >= 2 && json.[0] = '{');
  Nshist.reset h;
  Alcotest.(check int) "reset" 0 (Nshist.total (Nshist.snapshot h))

let test_nshist_cross_domain () =
  let h = Nshist.create () in
  join_all
    (spawn_n 4 (fun i ->
         for _ = 1 to 100 do Nshist.add h (1 lsl (i + 4)) done));
  Alcotest.(check int) "per-slot strides sum" 400
    (Nshist.total (Nshist.snapshot h))

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_bounds () =
  let r = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.below r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "below out of range: %d" v;
    let v = Prng.in_range r ~lo:5 ~hi:9 in
    if v < 5 || v >= 9 then Alcotest.failf "in_range out of range: %d" v;
    let f = Prng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_prng_spread () =
  let r = Prng.create ~seed:3 in
  let seen = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Prng.below r 10 in
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i c ->
       if c < 500 then Alcotest.failf "bucket %d badly underfilled: %d" i c)
    seen

(* ---- Domain_id ---- *)

let test_domain_id_stable () =
  let a = Domain_id.get () in
  let b = Domain_id.get () in
  Alcotest.(check int) "stable within domain" a b;
  let other = Domain.spawn (fun () -> Domain_id.get ()) in
  let o = Domain.join other in
  if o = a then Alcotest.fail "distinct domains share an id";
  if o < 0 || o >= Domain_id.capacity then Alcotest.fail "id out of range"

(* More domains over a run than [capacity]: exited domains return their
   ids, so neither the live ones of a batch nor any of them ever share the
   main domain's id (minting modulo [capacity] wrapped onto it). *)
let test_domain_id_recycled () =
  let main = Domain_id.get () in
  let batch = 4 in
  for _ = 1 to 300 / batch do
    let ready = Atomic.make 0 in
    let ids =
      Array.init batch (fun _ ->
          Domain.spawn (fun () ->
              let id = Domain_id.get () in
              (* Stay alive until the whole batch holds an id. *)
              Atomic.incr ready;
              while Atomic.get ready < batch do Domain.cpu_relax () done;
              id))
      |> Array.map Domain.join
    in
    Array.iteri
      (fun i id ->
        if id = main then Alcotest.failf "domain shares the main id %d" main;
        for j = 0 to i - 1 do
          if ids.(j) = id then Alcotest.failf "live domains share id %d" id
        done)
      ids
  done

(* ---- Spinlock: mutual exclusion under contention ---- *)

let test_spinlock_mutex () =
  let l = Spinlock.create () in
  let counter = ref 0 in
  let iters = 20_000 in
  let ds =
    spawn_n 4 (fun _ ->
        for _ = 1 to iters do
          Spinlock.with_lock l (fun () -> incr counter)
        done)
  in
  join_all ds;
  Alcotest.(check int) "no lost increments" (4 * iters) !counter

let test_spinlock_try () =
  let l = Spinlock.create () in
  Alcotest.(check bool) "uncontended try" true (Spinlock.try_acquire l);
  Alcotest.(check bool) "second try fails" false (Spinlock.try_acquire l);
  Spinlock.release l;
  Alcotest.(check bool) "after release" true (Spinlock.try_acquire l);
  Spinlock.release l

let test_spinlock_exception_safety () =
  let l = Spinlock.create () in
  (try Spinlock.with_lock l (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "released after exception" false (Spinlock.is_locked l)

let test_spinlock_stats () =
  let stats = Lockstat.create "spin" in
  let l = Spinlock.create ~stats () in
  Spinlock.with_lock l (fun () -> ());
  Spinlock.with_lock l (fun () -> ());
  let s = Lockstat.snapshot stats in
  Alcotest.(check int) "two write acquisitions" 2 s.Lockstat.write_count

(* ---- Ticket lock ---- *)

let test_ticketlock_mutex () =
  let l = Ticketlock.create () in
  let counter = ref 0 in
  let iters = 20_000 in
  let ds =
    spawn_n 4 (fun _ ->
        for _ = 1 to iters do
          Ticketlock.with_lock l (fun () -> incr counter)
        done)
  in
  join_all ds;
  Alcotest.(check int) "no lost increments" (4 * iters) !counter

(* ---- Rwlock ---- *)

let test_rwlock_writer_excludes () =
  let l = Rwlock.create () in
  (* Two correlated variables; writers keep b = 2a. Readers must never
     observe the invariant broken. *)
  let a = ref 0 and b = ref 0 in
  let broken = Atomic.make false in
  let writers =
    spawn_n 2 (fun _ ->
        for _ = 1 to 5_000 do
          Rwlock.with_write l (fun () ->
              incr a;
              (* widen the race window *)
              for _ = 1 to 10 do Domain.cpu_relax () done;
              b := 2 * !a)
        done)
  in
  let readers =
    spawn_n 2 (fun _ ->
        for _ = 1 to 5_000 do
          Rwlock.with_read l (fun () ->
              let av = !a and bv = !b in
              if bv <> 2 * av then Atomic.set broken true)
        done)
  in
  join_all writers;
  join_all readers;
  Alcotest.(check bool) "readers saw consistent state" false (Atomic.get broken);
  Alcotest.(check int) "all writes applied" 10_000 !a

let test_rwlock_readers_concurrent () =
  let l = Rwlock.create () in
  Rwlock.read_acquire l;
  Alcotest.(check bool) "second reader enters" true (Rwlock.try_read_acquire l);
  Alcotest.(check bool) "writer blocked" false (Rwlock.try_write_acquire l);
  Rwlock.read_release l;
  Rwlock.read_release l;
  Alcotest.(check bool) "writer enters when free" true (Rwlock.try_write_acquire l);
  Alcotest.(check bool) "reader blocked by writer" false (Rwlock.try_read_acquire l);
  Rwlock.write_release l

(* ---- Rwsem ---- *)

let test_rwsem_mutex () =
  let sem = Rwsem.create () in
  let counter = ref 0 in
  let iters = 5_000 in
  let ds =
    spawn_n 4 (fun i ->
        for _ = 1 to iters do
          if i < 2 then Rwsem.with_write sem (fun () -> incr counter)
          else Rwsem.with_read sem (fun () -> ignore (Sys.opaque_identity !counter))
        done)
  in
  join_all ds;
  Alcotest.(check int) "writer increments intact" (2 * iters) !counter

let test_rwsem_stats () =
  let stats = Lockstat.create "sem" in
  let sem = Rwsem.create ~stats () in
  Rwsem.with_read sem (fun () -> ());
  Rwsem.with_write sem (fun () -> ());
  let s = Lockstat.snapshot stats in
  Alcotest.(check int) "one read" 1 s.Lockstat.read_count;
  Alcotest.(check int) "one write" 1 s.Lockstat.write_count

let test_rwsem_writer_preference () =
  (* While a writer is queued, newly arriving readers must wait — the
     kernel rwsem discipline that prevents writer starvation. *)
  let sem = Rwsem.create ~spin_budget:0 () in
  Rwsem.down_read sem;
  let writer_granted = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Rwsem.down_write sem;
        Atomic.set writer_granted true;
        Unix.sleepf 0.02;
        Rwsem.up_write sem)
  in
  (* Give the writer time to queue. *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "writer still blocked by reader" false
    (Atomic.get writer_granted);
  let late_reader_done = Atomic.make false in
  let late_reader =
    Domain.spawn (fun () ->
        Rwsem.down_read sem;
        (* By the time a late reader gets in, the queued writer must have
           been served first. *)
        Alcotest.(check bool) "writer served before late reader" true
          (Atomic.get writer_granted);
        Rwsem.up_read sem;
        Atomic.set late_reader_done true)
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "late reader parked behind writer" false
    (Atomic.get late_reader_done);
  Rwsem.up_read sem;
  Domain.join writer;
  Domain.join late_reader;
  Alcotest.(check bool) "everyone finished" true (Atomic.get late_reader_done)

let test_ticketlock_fifo () =
  (* Grant order must follow ticket order: a holder releases, and the
     longest-waiting domain gets in first. We detect FIFO by having each
     waiter record its entry sequence. *)
  let l = Ticketlock.create () in
  let order = Atomic.make [] in
  Ticketlock.acquire l;
  let waiting = Atomic.make 0 in
  let spawn_waiter id =
    Domain.spawn (fun () ->
        Atomic.incr waiting;
        Ticketlock.acquire l;
        let rec push () =
          let cur = Atomic.get order in
          if not (Atomic.compare_and_set order cur (id :: cur)) then push ()
        in
        push ();
        Ticketlock.release l)
  in
  (* Start waiters strictly one after another so their tickets are ordered. *)
  let d1 = spawn_waiter 1 in
  while Atomic.get waiting < 1 do Domain.cpu_relax () done;
  Unix.sleepf 0.01;
  let d2 = spawn_waiter 2 in
  while Atomic.get waiting < 2 do Domain.cpu_relax () done;
  Unix.sleepf 0.01;
  Ticketlock.release l;
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check (list int)) "FIFO grant order" [ 2; 1 ] (Atomic.get order)

(* ---- Seqcount ---- *)

let test_seqcount () =
  let s = Seqcount.create () in
  Alcotest.(check int) "starts at zero" 0 (Seqcount.read s);
  Seqcount.bump s;
  Seqcount.bump s;
  Alcotest.(check int) "two bumps" 2 (Seqcount.read s)

(* ---- Lockstat ---- *)

let test_lockstat_accumulates () =
  let t = Lockstat.create "x" in
  Lockstat.add t Lockstat.Read 100;
  Lockstat.add t Lockstat.Read 300;
  Lockstat.add t Lockstat.Write 50;
  let s = Lockstat.snapshot t in
  Alcotest.(check int) "read waits" 400 s.Lockstat.read_wait_ns;
  Alcotest.(check int) "read count" 2 s.Lockstat.read_count;
  Alcotest.(check int) "write count" 1 s.Lockstat.write_count;
  Alcotest.(check (float 0.01)) "avg read" 200.0 (Lockstat.avg_wait_ns s Lockstat.Read);
  Lockstat.reset t;
  let s = Lockstat.snapshot t in
  Alcotest.(check int) "reset clears" 0 s.Lockstat.read_count

let test_lockstat_max () =
  let t = Lockstat.create "x" in
  Lockstat.add t Lockstat.Read 100;
  Lockstat.add t Lockstat.Read 900;
  Lockstat.add t Lockstat.Read 50;
  let s = Lockstat.snapshot t in
  Alcotest.(check int) "max read" 900 (Lockstat.max_wait_ns s Lockstat.Read);
  Alcotest.(check int) "max write zero" 0 (Lockstat.max_wait_ns s Lockstat.Write);
  (* Maxima merge across domains. *)
  let d = Domain.spawn (fun () -> Lockstat.add t Lockstat.Read 5_000) in
  Domain.join d;
  let s = Lockstat.snapshot t in
  Alcotest.(check int) "cross-domain max" 5_000 (Lockstat.max_wait_ns s Lockstat.Read)

let test_lockstat_cross_domain () =
  let t = Lockstat.create "x" in
  let ds = spawn_n 3 (fun _ -> Lockstat.add t Lockstat.Write 10) in
  join_all ds;
  Lockstat.add t Lockstat.Write 10;
  let s = Lockstat.snapshot t in
  Alcotest.(check int) "all domains counted" 4 s.Lockstat.write_count

(* ---- Padded counters ---- *)

let test_padded_counters () =
  let c = Padded_counters.create ~slots:4 in
  Padded_counters.incr c 0;
  Padded_counters.add c 3 10;
  Padded_counters.incr c 3;
  Alcotest.(check int) "slot 0" 1 (Padded_counters.get c 0);
  Alcotest.(check int) "slot 3" 11 (Padded_counters.get c 3);
  Alcotest.(check int) "sum" 12 (Padded_counters.sum c);
  Padded_counters.reset c;
  Alcotest.(check int) "reset" 0 (Padded_counters.sum c)

(* ---- Clock ---- *)

let test_clock_monotone_enough () =
  let t0 = Clock.now_ns () in
  Unix.sleepf 0.01;
  let dt = Clock.elapsed_ns t0 in
  if dt < 5_000_000 then Alcotest.failf "elapsed too small: %d ns" dt;
  Alcotest.(check (float 0.001)) "ns_to_s" 1.5 (Clock.ns_to_s 1_500_000_000)

let () =
  Alcotest.run "primitives"
    [ ("backoff",
       [ Alcotest.test_case "escalates and counts" `Quick test_backoff_escalates;
         Alcotest.test_case "validates arguments" `Quick test_backoff_validation;
         Alcotest.test_case "deadline clamps saturated naps" `Quick
           test_backoff_deadline_clamp ]);
      ("parker",
       [ Alcotest.test_case "block until woken" `Quick test_parker_block_wake ]);
      ("nshist",
       [ Alcotest.test_case "log2 buckets" `Quick test_nshist_buckets;
         Alcotest.test_case "cross-domain sum" `Quick test_nshist_cross_domain ]);
      ("prng",
       [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
         Alcotest.test_case "bounds respected" `Quick test_prng_bounds;
         Alcotest.test_case "roughly uniform" `Quick test_prng_spread ]);
      ("domain_id",
       [ Alcotest.test_case "stable and distinct" `Quick test_domain_id_stable;
         Alcotest.test_case "exited ids recycled" `Quick test_domain_id_recycled ]);
      ("spinlock",
       [ Alcotest.test_case "mutual exclusion" `Quick test_spinlock_mutex;
         Alcotest.test_case "try semantics" `Quick test_spinlock_try;
         Alcotest.test_case "exception safety" `Quick test_spinlock_exception_safety;
         Alcotest.test_case "stats recorded" `Quick test_spinlock_stats ]);
      ("ticketlock",
       [ Alcotest.test_case "mutual exclusion" `Quick test_ticketlock_mutex ]);
      ("rwlock",
       [ Alcotest.test_case "writer excludes readers" `Quick test_rwlock_writer_excludes;
         Alcotest.test_case "reader sharing" `Quick test_rwlock_readers_concurrent ]);
      ("rwsem",
       [ Alcotest.test_case "mutual exclusion" `Quick test_rwsem_mutex;
         Alcotest.test_case "stats recorded" `Quick test_rwsem_stats;
         Alcotest.test_case "writer preference" `Quick test_rwsem_writer_preference ]);
      ("ticketlock-fifo",
       [ Alcotest.test_case "grant order" `Quick test_ticketlock_fifo ]);
      ("seqcount", [ Alcotest.test_case "bump and read" `Quick test_seqcount ]);
      ("lockstat",
       [ Alcotest.test_case "accumulates and resets" `Quick test_lockstat_accumulates;
         Alcotest.test_case "max wait tracked" `Quick test_lockstat_max;
         Alcotest.test_case "cross-domain sum" `Quick test_lockstat_cross_domain ]);
      ("padded_counters",
       [ Alcotest.test_case "basic ops" `Quick test_padded_counters ]);
      ("clock",
       [ Alcotest.test_case "monotone enough" `Quick test_clock_monotone_enough ]) ]
