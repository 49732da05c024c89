(* Tests for the skip-index range-lock core (lib/index).

   Three layers:
   - structural unit tests over the production {!Rlk_index.Skip_rw}
     instance (tower audit, reader sharing, multi-domain stress);
   - the differential oracle property: random operation sequences
     replayed against [list-rw] and [skip-rw] under the recording
     wrapper must produce identical outcome vectors and
     oracle-equivalent grant histories (no overlap, no residue);
   - the tower recycle regression: a node released through a
     multi-level unlink must never be restamped while another domain
     still dereferences its handle. *)

open Rlk
module Skip = Rlk_index.Skip_rw
module History = Rlk.History
module Oracle = Rlk_check.Oracle
module Record = Rlk_check.Record
module Prng = Rlk_primitives.Prng
module Clock = Rlk_primitives.Clock

let range lo hi = Range.v ~lo ~hi

(* ---------------- structural unit tests ---------------- *)

let check_ok t expected what =
  match Skip.check_structure t with
  | Ok live -> Alcotest.(check int) what expected live
  | Error msg -> Alcotest.failf "%s: structure check failed: %s" what msg

let test_structure_audit () =
  let t = Skip.create () in
  check_ok t 0 "empty";
  let hs =
    List.init 16 (fun i ->
        if i mod 3 = 0 then Skip.write_acquire t (range (4 * i) ((4 * i) + 3))
        else Skip.read_acquire t (range (4 * i) ((4 * i) + 2)))
  in
  check_ok t 16 "16 live ranges";
  Alcotest.(check int) "holders agree" 16 (List.length (Skip.holders t));
  (* Release every other one: marked nodes may linger at the bottom until
     a traversal helps them out, but the tower must already be clean of
     them and the live count must drop. *)
  List.iteri (fun i h -> if i mod 2 = 0 then Skip.release t h) hs;
  check_ok t 8 "8 after alternating release";
  List.iteri (fun i h -> if i mod 2 = 1 then Skip.release t h) hs;
  check_ok t 0 "all released"

let test_reader_sharing () =
  let t = Skip.create () in
  let a = Skip.read_acquire t (range 0 8) in
  let b = Skip.read_acquire t (range 4 12) in
  (* Overlapping writer must not be grantable non-blocking... *)
  Alcotest.(check bool) "writer blocked by readers" true
    (Skip.try_write_acquire t (range 6 7) = None);
  (* ...but a disjoint writer must pass. *)
  (match Skip.try_write_acquire t (range 100 104) with
  | Some w -> Skip.release t w
  | None -> Alcotest.fail "disjoint writer refused");
  Skip.release t a;
  Skip.release t b;
  (* Readers gone: the same writer range is now free. *)
  match Skip.try_write_acquire t (range 6 7) with
  | Some w -> Skip.release t w; check_ok t 0 "quiescent"
  | None -> Alcotest.fail "writer refused after readers left"

let test_timed_paths () =
  let t = Skip.create () in
  let h = Skip.write_acquire t (range 0 4) in
  let deadline_ns = Clock.now_ns () + 2_000_000 in
  Alcotest.(check bool) "conflicting timed write times out" true
    (Skip.write_acquire_opt t ~deadline_ns (range 2 6) = None);
  (match Skip.read_acquire_opt t ~deadline_ns:(Clock.now_ns () + 2_000_000)
           (range 10 12)
   with
  | Some r -> Skip.release t r
  | None -> Alcotest.fail "free timed read refused");
  Skip.release t h;
  check_ok t 0 "no residue after timeouts"

module Skip_try : Intf.RW_TRY = struct
  include Skip

  let create ?stats () = Skip.create ?stats ()
end

let test_multi_domain_stress () =
  let violated =
    Stress_helpers.rw_stress
      (module Skip_try)
      ~domains:4 ~iters:2_500 ~write_pct:30 ~slots:64 ()
  in
  Alcotest.(check bool) "exclusion holds under 4-domain stress" false violated

(* ---------------- differential oracle property ----------------

   A random sequence of non-blocking and short-deadline operations is a
   deterministic sequential program: whether each step grants depends
   only on the set of currently held ranges. Replaying one sequence
   against the list core and the skip core must therefore produce
   (a) identical outcome vectors and (b) individually oracle-clean
   histories. This is the headline behavioural-equivalence test for the
   new core: any divergence in grant semantics — a conflict the tower
   walk misses, a spurious refusal, residue after a timeout — shows up
   either as an outcome mismatch or as an oracle violation. *)

type op =
  | Try_read of int * int
  | Try_write of int * int
  | Timed_read of int * int
  | Timed_write of int * int
  | Release_nth of int

let op_to_string = function
  | Try_read (lo, w) -> Printf.sprintf "try_read [%d,%d)" lo (lo + w)
  | Try_write (lo, w) -> Printf.sprintf "try_write [%d,%d)" lo (lo + w)
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
        (1, map2 (fun lo w -> Timed_read (lo, w)) slot width);
        (1, map2 (fun lo w -> Timed_write (lo, w)) slot width);
        (3, map (fun k -> Release_nth k) (int_bound 24)) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    (list_size (int_range 12 50) op_gen)

(* Replay [ops] against [impl]; returns the outcome vector (did step i
   grant?). Held handles are released by [Release_nth k] picking index
   [k mod length] — identical selection across implementations as long
   as the outcome vectors agree, which the property asserts anyway. *)
let run_program impl ops =
  let module M = (val (impl : Intf.rw_impl)) in
  let l = M.create () in
  let held = ref [] in
  let grant h = held := h :: !held; true in
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

let differential_prop ops =
  History.arm ();
  Fun.protect
    ~finally:(fun () ->
      History.disarm ();
      ignore (History.drain ()))
    (fun () ->
      let out_list =
        run_program (Record.wrap (module Intf.List_rw_impl)) ops
      in
      let out_skip =
        run_program
          (Record.wrap
             (module struct
               include Skip

               let create ?stats () = Skip.create ?stats ()
             end : Intf.RW))
          ops
      in
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
      oracle_clean "skip-rw";
      if out_list <> out_skip then
        QCheck.Test.fail_reportf
          "outcome divergence:@.list-rw: %s@.skip-rw: %s"
          (String.concat "" (List.map (fun b -> if b then "1" else "0") out_list))
          (String.concat ""
             (List.map (fun b -> if b then "1" else "0") out_skip));
      true)

let differential_test =
  QCheck.Test.make ~name:"list-rw and skip-rw grant identically" ~count:40
    ops_arb differential_prop

(* ---------------- tower recycle regression ----------------

   Released nodes are left to the GC, never reused, so a handle that a
   concurrent domain still holds must keep its range for good. A
   dedicated skip-core instance with a *constant* tower height of 3
   makes every release a multi-level unlink (tower levels under the
   guard, then the bottom mark). A writer stamps each node via its
   range ([lo] strictly increases per iteration), publishes the handle,
   then releases; a reader dereferences the published handle, dwells
   across the release, and checks the stamp did not change. Any future
   node reuse without a grace period shows up as a restamp. *)

module Tower_probe =
  Rlk_index.Skip_rw_core.Make (Rlk_primitives.Traced_atomic.Real)
    (struct
      let max_level = 4

      let height () = 3
    end)
    ()

let tower_recycle_race ~seed ~iters =
  let t = Tower_probe.create () in
  let slot = Atomic.make None in
  let violations = Atomic.make 0 in
  let observed = Atomic.make 0 in
  let stop = Atomic.make false in
  let dwell rng =
    for _ = 1 to 32 + Prng.below rng 64 do
      Domain.cpu_relax ()
    done
  in
  let reader =
    Domain.spawn (fun () ->
        let rng = Prng.create ~seed:((seed * 31) + 5) in
        while not (Atomic.get stop) do
          match Atomic.get slot with
          | Some h ->
            Atomic.incr observed;
            let g0 = Range.lo (Tower_probe.range_of_handle h) in
            dwell rng;
            if Range.lo (Tower_probe.range_of_handle h) <> g0 then
              Atomic.incr violations
          | None -> Domain.cpu_relax ()
        done)
  in
  let writer =
    Domain.spawn (fun () ->
        let rng = Prng.create ~seed:((seed * 131) + 7) in
        for i = 1 to iters do
          let h = Tower_probe.write_acquire t (range (2 * i) ((2 * i) + 1)) in
          Atomic.set slot (Some h);
          dwell rng;
          Atomic.set slot None;
          Tower_probe.release t h
        done)
  in
  Domain.join writer;
  Atomic.set stop true;
  Domain.join reader;
  (match Tower_probe.check_structure t with
  | Ok 0 -> ()
  | Ok live -> Alcotest.failf "%d ranges left after the race" live
  | Error msg -> Alcotest.failf "structure check failed: %s" msg);
  (Atomic.get violations, Atomic.get observed)

let test_tower_recycle_safe () =
  let violations, observed = tower_recycle_race ~seed:7 ~iters:3_000 in
  if observed = 0 then
    Alcotest.fail "reader never saw a handle: test exercised nothing";
  if violations > 0 then
    Alcotest.failf
      "released tower node restamped under a reader %d times (replay seed 7)"
      violations

let () =
  Alcotest.run "index"
    [ ("structure",
       [ Alcotest.test_case "tower audit across acquire/release" `Quick
           test_structure_audit;
         Alcotest.test_case "reader sharing and writer exclusion" `Quick
           test_reader_sharing;
         Alcotest.test_case "timed paths leave no residue" `Quick
           test_timed_paths ]);
      ("stress",
       [ Alcotest.test_case "4-domain mixed stress" `Quick
           test_multi_domain_stress ]);
      ("differential",
       [ QCheck_alcotest.to_alcotest ~rand:(Stress_helpers.qcheck_rand ())
           differential_test ]);
      ("tower-recycle",
       [ Alcotest.test_case "released node keeps its range" `Quick
           test_tower_recycle_safe ]) ]
