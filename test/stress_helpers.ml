(* Shared concurrency-stress machinery for testing every range-lock
   implementation against the same exclusion invariants. *)

open Rlk

(* One process-wide stress seed, overridable with RLK_SEED (the same knob
   the torture harness takes via --seed). Every per-domain PRNG derives
   from it, and a failed run prints it for replay. *)
let base_seed =
  match Sys.getenv_opt "RLK_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None ->
      Printf.eprintf "stress: ignoring unparsable RLK_SEED=%S\n%!" s;
      0xC0FFEE)
  | None -> 0xC0FFEE

let domain_seed ~salt id = (base_seed * 0x9E3779B1) + (id * salt) + 3

(* Printed once per test executable that links this module: a failing run
   can always be replayed by exporting the seed it announced. *)
let () =
  Printf.printf "stress seed: %d (override with RLK_SEED)\n%!" base_seed

(* Deterministic PRNG state for qcheck suites, derived from the same
   seed. Passing this to [QCheck_alcotest.to_alcotest ~rand] replaces
   qcheck's per-run random seed, so property failures replay with
   RLK_SEED alone. *)
let qcheck_rand () = Random.State.make [| base_seed |]

let report_violation name =
  Printf.eprintf "%s: exclusion violated; replay with RLK_SEED=%d\n%!" name
    base_seed

let make_barrier n =
  let waiting = Atomic.make n in
  fun () ->
    Atomic.decr waiting;
    while Atomic.get waiting > 0 do Domain.cpu_relax () done

let spawn_n n f = Array.init n (fun i -> Domain.spawn (fun () -> f i))

let join_all ds = Array.iter Domain.join ds

(* Minor words per acquire+release pair after a warm-up (the allocation
   bounds in test_adaptive and test_shard). *)
let pair_words pair =
  for _ = 1 to 1_000 do pair () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do pair () done;
  (Gc.minor_words () -. w0) /. 10_000.

let random_range rng ~slots =
  let open Rlk_primitives in
  let a = Prng.below rng slots and b = Prng.below rng slots in
  let lo = min a b and hi = max a b + 1 in
  Range.v ~lo ~hi

(* Per-slot reader/writer occupancy checker. Writers must be alone on every
   slot of their range; readers must never share a slot with a writer. *)
type rw_checker = {
  violated : bool Atomic.t;
  enter : Range.t -> reader:bool -> unit;
  leave : Range.t -> reader:bool -> unit;
}

let make_rw_checker ~slots =
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
  { violated; enter; leave }

(* Run a mixed read/write stress over any RW implementation; returns whether
   the exclusion invariant was ever violated. *)
let rw_stress (module L : Intf.RW_TRY) ~domains ~iters ~write_pct ~slots () =
  let l = L.create () in
  let c = make_rw_checker ~slots in
  let barrier = make_barrier domains in
  let ds =
    spawn_n domains (fun id ->
        let rng = Rlk_primitives.Prng.create ~seed:(domain_seed ~salt:104729 id) in
        barrier ();
        for _ = 1 to iters do
          let r = random_range rng ~slots in
          let reader = Rlk_primitives.Prng.below rng 100 >= write_pct in
          let h = if reader then L.read_acquire l r else L.write_acquire l r in
          c.enter r ~reader;
          c.leave r ~reader;
          L.release l h
        done)
  in
  join_all ds;
  if Atomic.get c.violated then report_violation L.name;
  Atomic.get c.violated

(* Exclusive-only stress over any MUTEX implementation. *)
let mutex_stress (module L : Intf.MUTEX_TRY) ~domains ~iters ~slots () =
  let l = L.create () in
  let c = make_rw_checker ~slots in
  let barrier = make_barrier domains in
  let ds =
    spawn_n domains (fun id ->
        let rng = Rlk_primitives.Prng.create ~seed:(domain_seed ~salt:65537 id) in
        barrier ();
        for _ = 1 to iters do
          let r = random_range rng ~slots in
          let h = L.acquire l r in
          c.enter r ~reader:false;
          c.leave r ~reader:false;
          L.release l h
        done)
  in
  join_all ds;
  if Atomic.get c.violated then report_violation L.name;
  Atomic.get c.violated
