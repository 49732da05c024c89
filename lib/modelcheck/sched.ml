(* Deterministic cooperative scheduler for the model checker.

   Simulated domains are effect-based fibers multiplexed on one real
   thread. Every atomic operation of the recording runtime ({!Sim})
   *announces* itself — performs a {!Yield} effect — BEFORE executing, so
   at every scheduling point the explorer knows each runnable fiber's
   pending operation (kind + cell id), which is what dependence-based
   pruning needs. When the explorer picks a fiber, resuming it executes
   the announced operation and runs the fiber up to its next announce
   (or its end).

   Blocking ([Sim.wait_until]) suspends the fiber instead of spinning:
   the fiber announces a [Wait] step; executing that step evaluates the
   predicate once (with announcements suppressed, so a multi-access
   predicate collapses into one atomic step — conservatively treated as
   dependent with everything). A fiber whose predicate came back false is
   re-enabled only after some other fiber performs a mutating operation
   (a global version counter cheaply over-approximates "state changed"),
   which both bounds re-check steps and makes genuine deadlocks visible
   as "no fiber enabled".

   One checker instance per process: the scheduler state is global and
   re-initialized by {!begin_run}. Exploration is stateless re-execution,
   so determinism is essential: cell ids are assigned by a counter that
   resets every run, and nothing in an explored path may consult wall
   clocks or ambient randomness. *)

type kind = Read | Write | Cas | Faa | Exchange | Wait | Pause

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Cas -> "cas"
  | Faa -> "faa"
  | Exchange -> "xchg"
  | Wait -> "wait"
  | Pause -> "pause"

let is_mutating = function
  | Write | Cas | Faa | Exchange -> true
  | Read | Pause -> false
  | Wait -> true (* the predicate may CAS; be conservative *)

(* Mazurkiewicz (in)dependence used by the sleep sets: two pending
   operations commute unless they touch the same cell with at least one
   mutation. [Wait] steps collapse a whole predicate evaluation, so they
   conservatively conflict with everything. *)
let dependent (k1, l1) (k2, l2) =
  match k1, k2 with
  | Wait, _ | _, Wait -> true
  | _ -> l1 = l2 && (is_mutating k1 || is_mutating k2)

type _ Effect.t += Yield : kind * int -> unit Effect.t

type fiber = {
  id : int;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable pending : (kind * int) option;
  mutable blocked_version : int;
      (* version at which this fiber's wait predicate last came back
         false; -1 = not blocked (always enabled). A [Wait]-pending fiber
         is enabled iff the version has moved since. *)
  mutable finished : bool;
  mutable failed : exn option;
}

type entry = Op of { fiber : int; kind : kind; loc : int } | Note of string

exception Too_many_steps

(* Global single-checker state. *)
let fibers : fiber array ref = ref [||]
let current : int option ref = ref None
let suppressed = ref false
let version = ref 0
let next_loc = ref 0
let trace_rev : entry list ref = ref []
let steps_taken = ref 0
let step_budget = ref max_int

let begin_run ?(max_steps = 20_000) () =
  fibers := [||];
  current := None;
  suppressed := false;
  version := 0;
  next_loc := 0;
  trace_rev := [];
  steps_taken := 0;
  step_budget := max_steps

let current_fiber () = match !current with Some i -> i | None -> 7

let note msg = trace_rev := Note msg :: !trace_rev

let announce kind loc =
  match !current with
  | Some _ when not !suppressed -> Effect.perform (Yield (kind, loc))
  | _ -> ()

let bump () = incr version

(* The recording runtime the functorized cores run against. *)
module Sim : Rlk_primitives.Traced_atomic.SIM = struct
  module A = struct
    type 'a t = { mutable v : 'a; id : int }

    let make v =
      let id = !next_loc in
      incr next_loc;
      { v; id }

    let make_contended = make

    let get c =
      announce Read c.id;
      c.v

    let set c v =
      announce Write c.id;
      c.v <- v;
      bump ()

    let exchange c v =
      announce Exchange c.id;
      let old = c.v in
      c.v <- v;
      bump ();
      old

    let compare_and_set c old v =
      announce Cas c.id;
      if c.v == old then begin
        c.v <- v;
        bump ();
        true
      end
      else false

    let fetch_and_add c d =
      announce Faa c.id;
      let old = c.v in
      c.v <- old + d;
      bump ();
      old
  end

  let capacity = 8

  let domain_id = current_fiber

  let wait_until pred =
    match !current with
    | None ->
      (* Build/check context: there is no scheduler to wait on, so the
         predicate must already hold. *)
      if not (pred ()) then
        failwith "Rlk_model.Sched: wait_until would block outside a fiber"
    | Some i ->
      let f = !fibers.(i) in
      let eval () =
        suppressed := true;
        Fun.protect ~finally:(fun () -> suppressed := false) pred
      in
      f.blocked_version <- -1;
      let rec loop () =
        Effect.perform (Yield (Wait, -1));
        if not (eval ()) then begin
          f.blocked_version <- !version;
          loop ()
        end
      in
      loop ()

  (* Parking is just a suspension to the checker: the fiber blocks on its
     flag like any [Wait] step, so publish/arm/check/park interleave with
     mark/scan/notify as ordinary scheduling points. A wake that never
     comes (the lost-wakeup bug class, injectable via [parker.wake.skip])
     leaves the fiber permanently disabled — reported as a deadlock. *)
  let park ready =
    wait_until ready;
    true

  (* The notifying flag write already bumped the version, which is what
     re-enables the suspended fiber; there is no OS parker to poke. *)
  let unpark _slot = ()
end

(* A per-fiber scheduling point with no memory effect, for scenario
   bodies that want to widen a hold window ("do work while holding the
   lock"). The unique negative loc keeps it independent of every real
   operation. *)
let pause () =
  match !current with
  | None -> ()
  | Some i -> Effect.perform (Yield (Pause, -(i + 2)))

let spawn bodies =
  let n = Array.length bodies in
  if n > Sim.capacity - 1 then invalid_arg "Sched.spawn: too many fibers";
  fibers :=
    Array.init n (fun id ->
        { id; cont = None; pending = None; blocked_version = -1;
          finished = false; failed = None });
  let handler i =
    let open Effect.Deep in
    { retc = (fun () -> !fibers.(i).finished <- true);
      exnc =
        (fun e ->
          let f = !fibers.(i) in
          f.failed <- Some e;
          f.finished <- true);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield (kind, loc) ->
            Some
              (fun (k : (a, unit) continuation) ->
                let f = !fibers.(i) in
                f.pending <- Some (kind, loc);
                f.cont <- Some k)
          | _ -> None) }
  in
  (* Run each fiber's prefix (up to its first announce) eagerly, in fiber
     order — the prefix touches no shared state the scheduler needs to
     interleave (node allocation, etc.). *)
  Array.iteri
    (fun i body ->
      current := Some i;
      Effect.Deep.match_with body () (handler i);
      current := None)
    bodies

let enabled () =
  let out = ref [] in
  Array.iter
    (fun f ->
      if not f.finished then
        match f.pending with
        | Some ((kind, _) as op) when f.cont <> None ->
          if kind <> Wait || f.blocked_version < !version then
            out := (f.id, op) :: !out
        | _ -> ())
    !fibers;
  List.rev !out

let finished () = Array.for_all (fun f -> f.finished) !fibers

let failure () =
  Array.fold_left
    (fun acc f ->
      match acc, f.failed with
      | None, Some e -> Some (f.id, e)
      | _ -> acc)
    None !fibers

(* Execute fiber [i]'s announced operation and run it to its next
   announce (or its end). *)
let step i =
  let f = !fibers.(i) in
  (match f.cont with
  | None -> invalid_arg "Sched.step: fiber not runnable"
  | Some k ->
    incr steps_taken;
    if !steps_taken > !step_budget then raise Too_many_steps;
    (match f.pending with
    | Some (kind, loc) -> trace_rev := Op { fiber = i; kind; loc } :: !trace_rev
    | None -> ());
    f.cont <- None;
    f.pending <- None;
    current := Some i;
    Effect.Deep.continue k ();
    current := None)

let trace () = List.rev !trace_rev

let pp_entry ppf = function
  | Op { fiber; kind; loc } ->
    if loc >= 0 then
      Format.fprintf ppf "[f%d] %s cell%d" fiber (kind_name kind) loc
    else Format.fprintf ppf "[f%d] %s" fiber (kind_name kind)
  | Note s -> Format.fprintf ppf "      -- %s" s
