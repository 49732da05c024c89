(* Model-checking suite: exhaustive (preemption-bounded, DPOR-pruned)
   interleaving exploration of the functorized range-lock cores. See
   doc/testing.md, "Model checking".

   Everything here is deterministic by construction — no seeds, no time,
   no real domains — so a failure is immediately replayable: the printed
   integer seed encodes the counterexample schedule, and the full trace
   is written to model-counterexample.txt (uploaded as a CI artifact).

   The quick set runs under `dune runtest`; `dune build @model` (or
   RLK_MODEL_FULL=1) adds the larger full-only configurations. *)

module Explore = Rlk_model.Explore
module Scenarios = Rlk_model.Scenarios
module Fault = Rlk_chaos.Fault

let full =
  match Sys.getenv_opt "RLK_MODEL_FULL" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let counterexample_file = "model-counterexample.txt"

(* Persist an unexpected counterexample where CI can pick it up. *)
let record_counterexample name v =
  let s = Explore.violation_to_string name v in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 counterexample_file
  in
  output_string oc s;
  output_string oc "\n";
  close_out oc;
  s

let check_scenario (t : Scenarios.t) () =
  match Scenarios.run t with
  | Explore.Pass { executions } ->
    Printf.printf "%s: %d schedule(s) explored, no violations\n%!"
      t.scen.name executions
  | Explore.Fail v -> Alcotest.fail (record_counterexample t.scen.name v)

(* Mutation self-tests: each row arms one deliberately unsound chaos
   skip ([point ^ ".skip"]) and explores its target scenario. The
   explorer must find a counterexample of the expected kind, the
   minimized counterexample must replay from its printed seed alone (or
   from its deviation list, when it has too many deviations for one
   integer), and the pristine code must explore clean once the fault is
   disarmed. Each row proves the checker observes the edge the skipped
   step provides. *)
type expect = Overlap | Deadlock | Audit

type mutation = {
  case : string;  (* Alcotest case name *)
  target : Scenarios.t;
  point : string;
  seed : int;  (* chaos plan seed *)
  expect : expect;
  observes : string;  (* what a passing armed run shows the checker misses *)
}

let mutations =
  [ (* Writer validation on the insert/validate race: only the writer's
       rescan from the head repairs a reader that linked before it. *)
    { case = "w_validate-skip counterexample";
      target = Scenarios.rw_validate_race;
      point = "list_rw.w_validate"; seed = 42; expect = Overlap;
      observes = "the validation race" };
    (* Release-side wakes: a parked waiter whose wake is skipped is never
       re-enabled, so the explorer must find a deadlock. *)
    { case = "parker-wake-skip counterexample";
      target = Scenarios.park_unpark;
      point = "parker.wake"; seed = 1105; expect = Deadlock;
      observes = "the parking hand-off" };
    (* The window-bounded writer rescan on the tower-indexed core. *)
    { case = "skip-rw w_validate-skip counterexample";
      target = Scenarios.skip_validate_race;
      point = "skip_rw.w_validate"; seed = 707; expect = Overlap;
      observes = "the tower-path validation race" };
    (* Freezing a tower cell before unlinking it: the only edge that
       stops a grant from linking behind a node whose unlink has already
       read its successor. *)
    { case = "skip-rw tower_freeze-skip counterexample";
      target = Scenarios.skip_tower_race;
      point = "skip_rw.tower_freeze"; seed = 808; expect = Audit;
      observes = "the tower unlink race" };
    (* The adaptive narrow path's g-conflict check: the only edge making an
       already-granted g holder visible to a narrow acquirer. *)
    { case = "adaptive switch-skip counterexample";
      target = Scenarios.adaptive_switch_race;
      point = "adaptive.switch"; seed = 909; expect = Overlap;
      observes = "the cross-regime handshake" };
    (* The writer's reader-slot sweep: the only edge making a biased
       fast-path reader, which holds no list node, visible to a granted
       writer. *)
    { case = "adaptive rbias-skip counterexample";
      target = Scenarios.adaptive_reader_bias;
      point = "adaptive.rbias"; seed = 911; expect = Overlap;
      observes = "the bias handshake" };
    (* list-ex skips validation, so the traversal's conflict wait is its
       only guard: walking past the holder must yield an overlap. With
       validation on, as in list-rw, the writer's scan catches the holder
       it walked past, and no overlap results. *)
    { case = "list-ex conflict_wait-skip counterexample";
      target = Scenarios.mutex_overlap;
      point = "list_ex.conflict_wait"; seed = 1601; expect = Overlap;
      observes = "the writers-only conflict wait" } ]

let expected m (kind : Explore.failure_kind) =
  match (m.expect, kind) with
  | (Overlap | Audit), Explore.Check _ | Deadlock, Explore.Deadlock -> true
  | _ -> false

let failure_kind kind = Format.asprintf "%a" Explore.pp_failure_kind kind

let mutation m () =
  let t = m.target in
  Fault.arm
    (Fault.plan ~p:1.0 ~cas_fail_p:0.0 ~relax_spins:0 ~yield_every:0
       ~delay_ns:0 ~unsound:[ m.point ^ ".skip" ] ~only:[ m.point ]
       ~seed:m.seed ());
  Fun.protect ~finally:Fault.disarm (fun () ->
      match Scenarios.run t with
      | Explore.Pass { executions } ->
        Alcotest.failf
          "%s.skip armed but %d explored schedules all passed —\n\
           the checker is not observing %s"
          m.point executions m.observes
      | Explore.Fail v ->
        if not (expected m v.kind) then
          Alcotest.failf "expected %s, got: %s"
            (match m.expect with
             | Overlap -> "an oracle overlap"
             | Deadlock -> "a lost-wakeup deadlock"
             | Audit -> "a structural audit failure")
            (failure_kind v.kind);
        Printf.printf
          "%s.skip counterexample found after %d schedule(s) (expected):\n\
           %s\n\
           %!"
          m.point v.executions
          (Explore.violation_to_string t.scen.name v);
        (match v.seed with
         | Some seed -> (
           match Explore.replay ~max_steps:t.max_steps t.scen ~seed with
           | Explore.Fail { kind; _ } when expected m kind -> ()
           | Explore.Fail { kind; _ } ->
             Alcotest.failf "seed %d replayed to a different failure: %s"
               seed (failure_kind kind)
           | Explore.Pass _ ->
             Alcotest.failf "seed %d did not reproduce the counterexample"
               seed)
         | None -> (
           match
             Explore.run_deviations ~max_steps:t.max_steps t.scen
               v.deviations
           with
           | Some kind when expected m kind -> ()
           | _ ->
             Alcotest.fail
               "deviation list did not reproduce the counterexample")));
  (* Pristine code: the same exploration must be violation-free. *)
  match Scenarios.run t with
  | Explore.Pass _ -> ()
  | Explore.Fail v ->
    Alcotest.fail (record_counterexample (t.scen.name ^ " (clean)") v)

let () =
  let scens =
    List.filter (fun t -> full || not t.Scenarios.full_only) Scenarios.all
  in
  Printf.printf "model suite: %s scenario set (%d scenarios)\n%!"
    (if full then "full" else "quick")
    (List.length scens);
  let cases =
    List.map
      (fun (t : Scenarios.t) ->
        Alcotest.test_case t.scen.name `Quick (check_scenario t))
      scens
  in
  Alcotest.run "model"
    [ ("scenarios", cases);
      ( "mutation",
        List.map
          (fun m -> Alcotest.test_case m.case `Quick (mutation m))
          mutations ) ]
