open Rlk
module History = Rlk.History
module Oracle = Rlk_check.Oracle
module Record = Rlk_check.Record
module Conformance = Rlk_check.Conformance
module Fault = Rlk_chaos.Fault
module Lockstat = Rlk_primitives.Lockstat

let range lo hi = Range.v ~lo ~hi

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Recording is process-global state: every test leaves it disarmed. *)
let with_recording ?capacity ?sink f =
  History.arm ?capacity ?sink ();
  Fun.protect
    ~finally:(fun () ->
      History.disarm ();
      ignore (History.drain ()))
    f

(* ---------------- History recorder ---------------- *)

let test_history_disarmed () =
  History.disarm ();
  Alcotest.(check bool) "not armed" false (History.armed ());
  ignore (History.acquired ~lock:"t" ~mode:Lockstat.Write ~lo:0 ~hi:4);
  History.failed ~lock:"t" ~mode:Lockstat.Read ~lo:0 ~hi:4;
  Alcotest.(check int) "nothing recorded" 0 (List.length (History.drain ()))

let test_history_roundtrip () =
  with_recording (fun () ->
      let s0 = History.acquired ~lock:"t" ~mode:Lockstat.Write ~lo:0 ~hi:4 in
      let s1 = History.acquired ~lock:"t" ~mode:Lockstat.Read ~lo:8 ~hi:12 in
      History.released ~lock:"t" ~span:s0 ~mode:Lockstat.Write ~lo:0 ~hi:4;
      History.failed ~lock:"t" ~mode:Lockstat.Write ~lo:8 ~hi:12;
      History.released ~lock:"t" ~span:s1 ~mode:Lockstat.Read ~lo:8 ~hi:12;
      Alcotest.(check bool) "spans are distinct" true (s0 <> s1);
      let evs = History.drain () in
      Alcotest.(check int) "five events" 5 (List.length evs);
      let seqs = List.map (fun e -> e.History.seq) evs in
      Alcotest.(check (list int)) "seq order" [ 0; 1; 2; 3; 4 ] seqs;
      (match evs with
       | a :: _ ->
         Alcotest.(check bool) "first is the write acquire" true
           (a.History.kind = History.Acquired && a.History.span = s0
            && a.History.lo = 0 && a.History.hi = 4
            && a.History.mode = Lockstat.Write)
       | [] -> Alcotest.fail "empty drain");
      (match List.filter (fun e -> e.History.kind = History.Failed) evs with
       | [ f ] -> Alcotest.(check int) "failed has dead span" (-1) f.History.span
       | l -> Alcotest.failf "expected one Failed, got %d" (List.length l));
      Alcotest.(check int) "drain clears" 0 (List.length (History.drain ())))

let test_history_sink_and_capacity () =
  let seen = ref 0 in
  with_recording ~capacity:1
    ~sink:(fun _ -> incr seen)
    (fun () ->
      for _ = 1 to 3 do
        ignore (History.acquired ~lock:"t" ~mode:Lockstat.Write ~lo:0 ~hi:1)
      done;
      Alcotest.(check int) "sink sees every event" 3 !seen;
      Alcotest.(check int) "overflow counted" 2 (History.dropped ());
      Alcotest.(check int) "buffer capped" 1 (List.length (History.drain ())));
  (* re-arming resets the drop counter *)
  with_recording (fun () ->
      Alcotest.(check int) "dropped reset on arm" 0 (History.dropped ()))

let test_history_pp () =
  with_recording (fun () ->
      ignore (History.acquired ~lock:"demo" ~mode:Lockstat.Read ~lo:2 ~hi:9);
      match History.drain () with
      | [ e ] ->
        let s = Format.asprintf "%a" History.pp_event e in
        Alcotest.(check bool) "pp mentions lock and range" true
          (contains s "demo" && contains s "[2, 9)")
      | l -> Alcotest.failf "expected one event, got %d" (List.length l))

(* ---------------- Oracle (synthetic histories) ---------------- *)

let ev ?(domain = 0) ?(lock = "L") ~seq ~kind ~span ~mode lo hi =
  { History.seq; kind; span; lock; domain; mode; lo; hi; t_ns = 0 }

let acq ?domain ?lock ~seq ~span ~mode lo hi =
  ev ?domain ?lock ~seq ~kind:History.Acquired ~span ~mode lo hi

let rel ?domain ?lock ~seq ~span ~mode lo hi =
  ev ?domain ?lock ~seq ~kind:History.Released ~span ~mode lo hi

let w = Lockstat.Write

let r = Lockstat.Read

let test_oracle_clean () =
  let report =
    Oracle.check
      [ acq ~seq:0 ~span:0 ~mode:w 0 4;
        rel ~seq:1 ~span:0 ~mode:w 0 4;
        acq ~seq:2 ~span:1 ~mode:r 0 4;
        rel ~seq:3 ~span:1 ~mode:r 0 4 ]
  in
  Alcotest.(check bool) "clean history passes" true (Oracle.ok report);
  Alcotest.(check int) "acquired" 2 report.Oracle.acquired;
  Alcotest.(check int) "released" 2 report.Oracle.released

let test_oracle_writer_overlap () =
  let report =
    Oracle.check
      [ acq ~seq:0 ~span:0 ~mode:w 0 8;
        acq ~seq:1 ~span:1 ~mode:w 4 12;
        rel ~seq:2 ~span:0 ~mode:w 0 8;
        rel ~seq:3 ~span:1 ~mode:w 4 12 ]
  in
  Alcotest.(check bool) "flagged" false (Oracle.ok report);
  match report.Oracle.violations with
  | [ Oracle.Overlap { first; second } ] ->
    Alcotest.(check int) "first span" 0 first.Oracle.span;
    Alcotest.(check int) "second span" 1 second.Oracle.span
  | l -> Alcotest.failf "expected one overlap, got %d" (List.length l)

let test_oracle_reader_writer_overlap () =
  let report =
    Oracle.check
      [ acq ~seq:0 ~span:0 ~mode:r 0 8;
        acq ~seq:1 ~span:1 ~mode:w 7 9;
        rel ~seq:2 ~span:1 ~mode:w 7 9;
        rel ~seq:3 ~span:0 ~mode:r 0 8 ]
  in
  Alcotest.(check int) "reader/writer overlap flagged" 1
    report.Oracle.violation_total

let test_oracle_reader_sharing_ok () =
  let report =
    Oracle.check
      [ acq ~seq:0 ~span:0 ~mode:r 0 8;
        acq ~seq:1 ~span:1 ~mode:r 4 12;
        rel ~seq:2 ~span:0 ~mode:r 0 8;
        rel ~seq:3 ~span:1 ~mode:r 4 12 ]
  in
  Alcotest.(check bool) "reader/reader overlap is legal" true (Oracle.ok report)

let test_oracle_adjacent_ok () =
  let report =
    Oracle.check
      [ acq ~seq:0 ~span:0 ~mode:w 0 4;
        acq ~seq:1 ~span:1 ~mode:w 4 8;
        rel ~seq:2 ~span:0 ~mode:w 0 4;
        rel ~seq:3 ~span:1 ~mode:w 4 8 ]
  in
  Alcotest.(check bool) "adjacent half-open writers are disjoint" true
    (Oracle.ok report)

let test_oracle_per_lock () =
  let report =
    Oracle.check
      [ acq ~lock:"A" ~seq:0 ~span:0 ~mode:w 0 8;
        acq ~lock:"B" ~seq:1 ~span:1 ~mode:w 0 8;
        rel ~lock:"A" ~seq:2 ~span:0 ~mode:w 0 8;
        rel ~lock:"B" ~seq:3 ~span:1 ~mode:w 0 8 ]
  in
  Alcotest.(check bool) "different locks never conflict" true (Oracle.ok report)

let test_oracle_unmatched_release () =
  let report = Oracle.check [ rel ~seq:0 ~span:7 ~mode:w 0 4 ] in
  Alcotest.(check bool) "flagged" false (Oracle.ok report);
  match report.Oracle.violations with
  | [ Oracle.Unmatched_release { span; _ } ] ->
    Alcotest.(check int) "span" 7 span
  | l -> Alcotest.failf "expected unmatched release, got %d" (List.length l)

let test_oracle_residue () =
  let history = [ acq ~seq:0 ~span:0 ~mode:w 0 4 ] in
  let report = Oracle.check history in
  Alcotest.(check bool) "open span fails the run" false (Oracle.ok report);
  Alcotest.(check int) "reported as open" 1 (List.length report.Oracle.open_spans);
  (* ... unless the recording is known-truncated, when a dropped Released
     is indistinguishable from a leak. *)
  let report = Oracle.check ~dropped:1 history in
  Alcotest.(check bool) "waived under truncation" true (Oracle.ok report);
  Alcotest.(check bool) "but marked" true report.Oracle.truncated

let test_oracle_online_sink () =
  let o = Oracle.create () in
  with_recording ~sink:(Oracle.sink o) (fun () ->
      ignore (History.acquired ~lock:"t" ~mode:w ~lo:0 ~hi:8);
      Alcotest.(check int) "no violation yet" 0 (Oracle.violation_count o);
      ignore (History.acquired ~lock:"t" ~mode:w ~lo:4 ~hi:12);
      Alcotest.(check int) "flagged as it happens" 1 (Oracle.violation_count o);
      Alcotest.(check int) "both live" 2 (List.length (Oracle.open_spans o)))

(* ---------------- Record wrapper and native hooks ---------------- *)

module RecRw = Record.Make (Intf.List_rw_impl)

let kinds evs = List.map (fun e -> e.History.kind) evs

let test_record_wrapper () =
  (* The wrapper forwards ?stats to nobody (double-record protection), so
     even a stats-carrying create records each hold exactly once. *)
  let l = RecRw.create ~stats:(Lockstat.create "rec") () in
  with_recording (fun () ->
      let h = RecRw.write_acquire l (range 0 4) in
      Alcotest.(check bool) "conflicting try fails and records" true
        (RecRw.try_write_acquire l (range 2 6) = None);
      RecRw.release l h;
      let evs = History.drain () in
      Alcotest.(check int) "exactly three events" 3 (List.length evs);
      Alcotest.(check bool) "acquire, failed try, release" true
        (kinds evs = [ History.Acquired; History.Failed; History.Released ]);
      match (List.nth evs 0, List.nth evs 2) with
      | a, rl ->
        Alcotest.(check int) "span closes" a.History.span rl.History.span;
        Alcotest.(check string) "lock name" "list-rw" a.History.lock)

let test_record_wrapper_timed () =
  let l = RecRw.create () in
  with_recording (fun () ->
      (match
         RecRw.read_acquire_opt l
           ~deadline_ns:(Rlk_primitives.Clock.now_ns () + 1_000_000)
           (range 0 4)
       with
       | Some h -> RecRw.release l h
       | None -> Alcotest.fail "uncontended timed read failed");
      let report = Oracle.check (History.drain ()) in
      Alcotest.(check bool) "timed path leaves no residue" true
        (Oracle.ok report))

(* The skip-index lock is the list core over a tower locator; its native
   hooks and chaos points must still be its own. *)
let skip_rw_impl = Option.get (Rlk_workloads.Locks.find_arrbench_lock "skip-rw")

let test_native_hooks () =
  (* The list-core locks record natively when created with ?stats. *)
  List.iter
    (fun impl ->
      let module L = (val (impl : Intf.rw_impl)) in
      let l = L.create ~stats:(Lockstat.create "native") () in
      let bare = L.create () in
      with_recording (fun () ->
          let h = L.write_acquire l (range 0 4) in
          L.release l h;
          let h = L.read_acquire l (range 0 4) in
          L.release l h;
          Alcotest.(check bool) "conflict try records Failed" true
            (let h = L.write_acquire l (range 8 12) in
             let refused = L.try_read_acquire l (range 8 12) = None in
             L.release l h;
             refused);
          (* a stats-less lock stays silent even while armed *)
          let h = L.write_acquire bare (range 0 4) in
          L.release bare h;
          let evs = History.drain () in
          Alcotest.(check int) "seven events, all from the stats lock" 7
            (List.length evs);
          Alcotest.(check bool) ("events carry " ^ L.name) true
            (List.for_all (fun e -> e.History.lock = L.name) evs);
          let report = Oracle.check evs in
          Alcotest.(check bool) "history is clean" true (Oracle.ok report)))
    [ (module Intf.List_rw_impl); skip_rw_impl ]

let test_native_hooks_mutex () =
  let l = List_mutex.create ~stats:(Lockstat.create "native-ex") () in
  with_recording (fun () ->
      let h = List_mutex.acquire l (range 0 4) in
      Alcotest.(check bool) "conflicting try refused" true
        (List_mutex.try_acquire l (range 0 4) = None);
      List_mutex.release l h;
      let evs = History.drain () in
      Alcotest.(check bool) "acquire, failed, release" true
        (kinds evs = [ History.Acquired; History.Failed; History.Released ]);
      Alcotest.(check bool) "clean" true (Oracle.ok (Oracle.check evs)))

(* ---------------- Conformance battery ---------------- *)

let conformance_case (name, impl, expect_disjoint, expect_sharing, expect_timed)
    =
  Alcotest.test_case name `Quick (fun () ->
      let module M = (val (impl : Intf.rw_impl)) in
      let module C = Conformance.Make (M) in
      let outcomes =
        C.run ~domains:4 ~iters:60 ~slots:64 ~seeds:[ 1; 2 ] ~expect_disjoint
          ~expect_sharing ~expect_timed ()
      in
      Alcotest.(check int) "battery size" (2 * 5) (List.length outcomes);
      match Conformance.failures outcomes with
      | [] -> ()
      | o :: rest ->
        Alcotest.failf "%a (+%d more)" Conformance.pp_outcome o
          (List.length rest))

(* name, impl, expect_disjoint (adjacent cells independently grantable),
   expect_sharing (reader/reader co-grant), expect_timed (a generous
   deadline wins a free lock). The token baseline is whole-file and its
   poll-derived timed path cannot revoke an idle domain's cached token;
   the Rw_of_mutex lifts are exclusive-only. *)
let conformance_impls : (string * Intf.rw_impl * bool * bool * bool) list =
  let arr name =
    match Rlk_workloads.Locks.find_arrbench_lock name with
    | Some impl -> impl
    | None -> Alcotest.failf "unknown arrbench lock %s" name
  in
  [ ("list-rw", arr "list-rw", true, true, true);
    ("skip-rw", arr "skip-rw", true, true, true);
    ("list-ex", arr "list-ex", true, false, true);
    ("lustre-ex", arr "lustre-ex", true, false, true);
    ("kernel-rw", arr "kernel-rw", true, true, true);
    ("pnova-rw", arr "pnova-rw", true, true, true);
    ("shard-rw", arr "shard-rw", true, true, true);
    ("adaptive-rw", arr "adaptive-rw", true, true, true);
    ("vee-rw", Rlk_workloads.Locks.vee_rw_impl, true, true, true);
    ( "list-rw+wpref",
      Rlk_workloads.Locks.list_rw_writer_pref_impl,
      true,
      true,
      true );
    ( "list-ex+fast",
      Rlk_workloads.Locks.list_mutex_fast_path_impl,
      true,
      false,
      true );
    ("mpi-slots", Rlk_workloads.Locks.slots_mutex_impl, true, false, true);
    ("gpfs-tokens", Rlk_workloads.Locks.gpfs_tokens_impl, false, false, false)
  ]

(* The acceptance test for the whole oracle: a deliberately broken lock
   (validation and conflict waiting skipped via the chaos unsound points)
   must be caught, with the seed in the failure detail for replay. Run on
   both list-core locks with only their own points armed, which also
   proves the shared core fires each instance's points. *)
let test_broken_impl_caught () =
  List.iter
    (fun (points, impl) ->
      let plan seed =
        Fault.plan ~seed ~p:0.7 ~relax_spins:32
          ~unsound:
            [ points ^ ".conflict_wait.skip";
              points ^ ".w_validate.skip";
              points ^ ".r_validate.skip" ]
          ~only:[ points ] ()
      in
      let module M = (val (impl : Intf.rw_impl)) in
      let module C = Conformance.Make (M) in
      let outcomes =
        C.run ~domains:4 ~iters:200 ~slots:12 ~seeds:[ 42; 43; 44 ] ~plan
          ~only:[ "overlap-exclusion" ] ()
      in
      match Conformance.failures outcomes with
      | [] -> Alcotest.failf "oracle missed the deliberately broken %s" M.name
      | o :: _ ->
        Alcotest.(check bool) "failure embeds a replay seed" true
          (contains o.Conformance.detail "replay: seed");
        Alcotest.(check bool) "failure names the overlap" true
          (contains o.Conformance.detail "overlap"))
    [ ("list_rw", (module Intf.List_rw_impl : Intf.RW));
      ("skip_rw", skip_rw_impl) ]

let () =
  Alcotest.run "check"
    [ ("history",
       [ Alcotest.test_case "disarmed is inert" `Quick test_history_disarmed;
         Alcotest.test_case "record/drain roundtrip" `Quick
           test_history_roundtrip;
         Alcotest.test_case "sink sees overflow" `Quick
           test_history_sink_and_capacity;
         Alcotest.test_case "pp_event" `Quick test_history_pp ]);
      ("oracle",
       [ Alcotest.test_case "clean history" `Quick test_oracle_clean;
         Alcotest.test_case "writer/writer overlap" `Quick
           test_oracle_writer_overlap;
         Alcotest.test_case "reader/writer overlap" `Quick
           test_oracle_reader_writer_overlap;
         Alcotest.test_case "reader sharing legal" `Quick
           test_oracle_reader_sharing_ok;
         Alcotest.test_case "adjacent ranges disjoint" `Quick
           test_oracle_adjacent_ok;
         Alcotest.test_case "locks checked independently" `Quick
           test_oracle_per_lock;
         Alcotest.test_case "unmatched release" `Quick
           test_oracle_unmatched_release;
         Alcotest.test_case "residual state" `Quick test_oracle_residue;
         Alcotest.test_case "online sink" `Quick test_oracle_online_sink ]);
      ("record",
       [ Alcotest.test_case "wrapper records once" `Quick test_record_wrapper;
         Alcotest.test_case "wrapper timed path" `Quick
           test_record_wrapper_timed;
         Alcotest.test_case "list-rw native hooks" `Quick test_native_hooks;
         Alcotest.test_case "list-ex native hooks" `Quick
           test_native_hooks_mutex ]);
      ("conformance", List.map conformance_case conformance_impls);
      ("detection",
       [ Alcotest.test_case "broken implementation is caught" `Quick
           test_broken_impl_caught ]) ]
