(* One measured cell: two worker domains running a closed loop against one
   lock instance (or one simulated address space) for a fixed time, under a
   wall-clock deadline. *)

open Rlk_primitives
module Range = Rlk.Range

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let domains = 2

(* Minor heap per domain, in words (8 MiB; OCaml's default is 256k words).
   Every minor collection stops both workers together, and the VM cell
   allocates enough to collect hundreds of times a second: at the default
   size, every longlist figure spread about twice as far over five runs.
   [Gc.set] covers only the calling domain, so each worker sets it too. *)
let minor_heap_words = 1 lsl 20

let set_minor_heap () = Gc.set { (Gc.get ()) with minor_heap_size = minor_heap_words }

(* ---- traffic patterns ---- *)

type pattern = {
  space : int;  (** slots *)
  route_space : int;  (** the sharded locks' routing space *)
  ranges : Range.t array;  (** every range an operation may take *)
  stream : Prng.t -> int -> unit -> int;
      (** [stream rng domain] is that domain's operation stream: each call
          gives [(index lsl 1) lor write], [index] into [ranges] *)
  residents : Range.t array;  (** read-held by the main domain throughout *)
  think : bool;  (** ArrBench's up-to-2048 no-ops between operations *)
  cs_slots : int;  (** most slots one critical section traverses *)
}

(* [pick] chooses the range; [read_pct] of the operations read. *)
let mixed ~read_pct pick rng d () =
  (pick rng d lsl 1) lor Bool.to_int (Prng.below rng 100 >= read_pct)

let arrbench ~ranges ~pick =
  { space = 256; route_space = 256; ranges; stream = mixed ~read_pct:75 pick;
    residents = [||]; think = true; cs_slots = max_int }

let slice_pattern ~width =
  arrbench
    ~ranges:(Array.init domains (fun d -> Range.v ~lo:(d * width) ~hi:((d + 1) * width)))
    ~pick:(fun _ d -> d)

(* ArrBench disjoint: each domain on a private one-shard (32-slot) slice. *)
let arr_disjoint = slice_pattern ~width:32

(* Half-space slices: not a benchmark workload; reproduces the
   deterministic adaptive-rw hang (README.md, known defects). *)
let arr_halfspace = slice_pattern ~width:128

(* ArrBench random ranges in the first [window] slots: both ends uniform
   (mean span about window / 3). The ranges are built once so operations
   allocate nothing. *)
let random_pattern ~window =
  arrbench
    ~ranges:
      (Array.init (window * window) (fun i ->
           let a = i / window and b = i mod window in
           Range.v ~lo:(min a b) ~hi:(max a b + 1)))
    ~pick:(fun rng _ -> Prng.below rng (window * window))

(* Both domains inside one shared 32-slot shard: the contended workload. *)
let arr_contended = random_pattern ~window:32

(* ArrBench random over all 256 slots (mean span ~85). Not a benchmark
   workload while adaptive-rw hangs intermittently on it (README.md, known
   defects); kept to reproduce that. *)
let arr_random = random_pattern ~window:256

(* 1,000 resident readers on the even slots; each domain reads or writes
   single odd (gap) slots of its own (alternate gaps), so nothing
   conflicts and only locating costs. *)
let longlist =
  let n = 1000 in
  { space = 2 * n; route_space = 2 * n;
    ranges = Array.init n (fun i -> Range.v ~lo:((2 * i) + 1) ~hi:((2 * i) + 2));
    stream = mixed ~read_pct:50 (fun rng d -> (domains * Prng.below rng (n / domains)) + d);
    residents = Array.init n (fun i -> Range.v ~lo:(2 * i) ~hi:((2 * i) + 1));
    think = false; cs_slots = max_int }

(* Metis' wrmem profile: 24 touched 8 KiB allocations per task and an
   arena reset every second task (no input reads), on 4 MiB per-domain
   arenas as in [Metis.run]. *)
let wrmem = Rlk_workloads.Metis.wrmem

let arena_bytes = 4 * 1024 * 1024

let page = Rlk_vm.Page.size

(* The lock traffic Sync list-refined issues for one steady-state reset
   cycle of a wrmem arena whose first page is slot [base] (one slot per
   page), derived from Glibc_arena's commit and trim arithmetic. A page
   fault read-locks its page. A speculative mprotect read-locks
   [addr, addr + len), then write-locks the VMA at [addr] plus a page on
   each side (Mm_ops.speculative_write_range): an expand hits the
   PROT_NONE tail, a trim the read-write head. The cycle starts and ends
   with the trim threshold committed. Returns the operations in order and
   the cycle's fault and mprotect counts. *)
let vm_cycle ~base =
  let trim = Rlk_vm.Page.align_up wrmem.arena_trim in
  let n = (wrmem.alloc_bytes + 7) land lnot 7 in
  let ops = ref [] and faults = ref 0 and mprotects = ref 0 in
  let lock ~write lo hi = ops := (Range.v ~lo:(base + lo) ~hi:(base + hi), write) :: !ops in
  let mprotect ~addr ~len ~vma_lo ~vma_hi =
    incr mprotects;
    lock ~write:false (addr / page) ((addr + len) / page);
    lock ~write:true ((vma_lo / page) - 1) ((vma_hi / page) + 1)
  in
  let top = ref 0 and committed = ref trim in
  for k = 1 to wrmem.reset_every do
    for _ = 1 to wrmem.allocs_per_task do
      if !top + n > !committed then begin
        let new_end = Rlk_vm.Page.align_up (!top + n) in
        mprotect ~addr:!committed ~len:(new_end - !committed) ~vma_lo:!committed
          ~vma_hi:arena_bytes;
        committed := new_end
      end;
      for p = !top / page to (!top + n - 1) / page do
        incr faults;
        lock ~write:false p (p + 1)
      done;
      top := !top + n
    done;
    if k = wrmem.reset_every then begin
      top := 0;
      if !committed > trim then begin
        mprotect ~addr:trim ~len:(!committed - trim) ~vma_lo:0 ~vma_hi:!committed;
        committed := trim
      end
    end
  done;
  (Array.of_list (List.rev !ops), !faults, !mprotects)

(* Each domain replays its own arena's cycle from a seeded point in it; an
   arena and its two guard pages take [region] slots. The sharded locks
   route 8 shards of 4096 slots, so both arenas share shard 0, as the
   64 MiB-aligned arenas share one 512 MiB shard in Sync's shard-refined
   geometry. A critical section touches one slot: a fault installs one
   page and an mprotect edits one VMA, whatever the range. *)
let vm_footprint, vm_cycle_counts =
  let region = (arena_bytes / page) + 2 in
  let cycles = Array.init domains (fun d -> vm_cycle ~base:((d * region) + 1)) in
  let ops d = let o, _, _ = cycles.(d) in o in
  let len = Array.length (ops 0) in
  let codes =
    Array.init domains (fun d ->
        Array.mapi (fun j (_, write) -> (((d * len) + j) lsl 1) lor Bool.to_int write) (ops d))
  in
  let _, faults, mprotects = cycles.(0) in
  ( { space = domains * region; route_space = 8 * 4096;
      ranges = Array.concat (List.init domains (fun d -> Array.map fst (ops d)));
      stream =
        (fun rng d ->
          let c = codes.(d) and i = ref (Prng.below rng len) in
          fun () ->
            let x = Array.unsafe_get c !i in
            i := if !i + 1 = len then 0 else !i + 1;
            x);
      residents = [||]; think = false; cs_slots = 1 },
    (faults, mprotects) )

(* ---- critical section and exclusion check ---- *)

let pad = 8 (* ints per slot: one cache line, as ArrBench *)

let writer_unit = 1 lsl 30

type shared = {
  slots : int array;
  occ : int Atomic.t array;  (** per-slot occupancy: writers add a big unit *)
  violations : int Atomic.t;
}

let make_shared p =
  { slots = Array.make (p.space * pad) 0;
    occ = Array.init p.space (fun _ -> Padded_counters.atomic 0);
    violations = Padded_counters.atomic 0 }

let enter s ~lo ~hi ~write =
  for i = lo to hi - 1 do
    let prev = Atomic.fetch_and_add (Array.unsafe_get s.occ i) (if write then writer_unit else 1) in
    if (write && prev <> 0) || prev >= writer_unit then Atomic.incr s.violations
  done

let leave s ~lo ~hi ~write =
  let d = if write then - writer_unit else -1 in
  for i = lo to hi - 1 do
    ignore (Atomic.fetch_and_add (Array.unsafe_get s.occ i) d)
  done

(* ArrBench's slot traversal: readers sum, writers increment. *)
let traverse s ~lo ~hi ~write =
  let a = s.slots in
  if write then
    for i = lo to hi - 1 do
      a.(i * pad) <- a.(i * pad) + 1
    done
  else begin
    let acc = ref 0 in
    for i = lo to hi - 1 do
      acc := !acc + a.(i * pad)
    done;
    ignore (Sys.opaque_identity !acc)
  end

(* Every [check_every]-th operation of each domain also runs the
   occupancy check. Checking every operation would double ArrBench's
   critical section with contended atomics and change which lock wins;
   an exclusion bug still trips the sampled check within a cell. *)
let check_every = 8

let critical s ~check ~lo ~hi ~write ~slots =
  if check then enter s ~lo ~hi ~write;
  traverse s ~lo ~hi:(if hi - lo > slots then lo + slots else hi) ~write;
  if check then leave s ~lo ~hi ~write

let think rng =
  for _ = 1 to Prng.below rng 2048 do
    ignore (Sys.opaque_identity ())
  done

(* ---- domains under a deadline ---- *)

type 'r outcome =
  | Done of { per_domain : 'r array; elapsed_s : float; minor_gcs : int }
  | Overrun of { progress : int }  (** operations published before the stall *)

(* ---- worker domains ---- *)

(* The worker domains live for the whole run and every cell hands them
   its loops. Fresh domains per cell would take new [Domain_id] slots
   each time, so the per-domain state keyed by them (node pools, adaptive
   reader-bias slots, skip-rw's tower seeds) would start cold and alias
   differently in every cell. On think-free one-shard ArrBench slices,
   adaptive-rw's run-to-run spread fell from about 20% to 13% when the
   workers became persistent. *)
type worker = {
  m : Mutex.t;
  c : Condition.t;
  mutable job : (unit -> unit) option;
  mutable quit : bool;
}

let rec serve w =
  Mutex.lock w.m;
  while Option.is_none w.job && not w.quit do Condition.wait w.c w.m done;
  let job = w.job in
  w.job <- None;
  Mutex.unlock w.m;
  match job with Some f -> f (); serve w | None -> ()

let signal w f =
  Mutex.lock w.m;
  f w;
  Condition.signal w.c;
  Mutex.unlock w.m

let workers : (worker * unit Domain.t) array ref = ref [||]

let the_workers () =
  if Array.length !workers = 0 then
    workers :=
      Array.init domains (fun _ ->
          let w = { m = Mutex.create (); c = Condition.create (); job = None; quit = false } in
          (w, Domain.spawn (fun () -> set_minor_heap (); serve w)));
  !workers

(* Stop and join the workers (those of an abandoned cell stay behind). *)
let shutdown () =
  Array.iter (fun (w, d) -> signal w (fun w -> w.quit <- true); Domain.join d) !workers;
  workers := [||]

(* Hand each worker [prepare] (its buffers) and then the loop it returns,
   run between a common start and [stop].
   Domains cannot be cancelled, so a cell that misses its deadline is
   abandoned: its workers are left behind, later cells get fresh ones, and
   the caller is told how far they got. *)
let run ~duration_s ~grace_s
    ~(prepare : int -> stop:bool Atomic.t -> progress:int Atomic.t -> unit -> 'r) =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let stop = Atomic.make false and finished = Atomic.make 0 in
  let progress = Array.init domains (fun _ -> Padded_counters.atomic 0) in
  let results = Array.make domains None and ends = Array.make domains 0 in
  Array.iteri
    (fun id (w, _) ->
      signal w (fun w ->
          w.job <-
            Some
              (fun () ->
                let body = prepare id ~stop ~progress:progress.(id) in
                Atomic.incr ready;
                while not (Atomic.get go) do Domain.cpu_relax () done;
                let r = body () in
                results.(id) <- Some r;
                ends.(id) <- now_ns ();
                Atomic.incr finished)))
    (the_workers ());
  let wait_for counter ~until =
    while Atomic.get counter < domains && now_ns () < until do
      Unix.sleepf 2e-5
    done;
    Atomic.get counter = domains
  in
  let grace_ns = int_of_float (grace_s *. 1e9) in
  let stalled () =
    Atomic.set stop true;
    workers := [||];
    Overrun { progress = Array.fold_left (fun a p -> a + Atomic.get p) 0 progress }
  in
  if not (wait_for ready ~until:(now_ns () + grace_ns)) then stalled ()
  else begin
    let t0 = now_ns () in
    let gcs0 = (Gc.quick_stat ()).minor_collections in
    Atomic.set go true;
    Unix.sleepf duration_s;
    Atomic.set stop true;
    if not (wait_for finished ~until:(now_ns () + grace_ns)) then stalled ()
    else begin
      let t1 = Array.fold_left max t0 ends in
      Done { per_domain = Array.map Option.get results;
             elapsed_s = float_of_int (t1 - t0) *. 1e-9;
             minor_gcs = (Gc.quick_stat ()).minor_collections - gcs0 }
    end
  end

(* ---- lock cells ---- *)

(* Raw spans kept per domain and cell for the trace file: the first
   [span_ops] operations, six timestamps each (see [write_spans] in
   repobench.ml). *)
let span_ops = 1024

(* What one worker domain hands back: operation count, latency buffers
   and its own minor-heap allocation. *)
type lock_domain = {
  d_ops : int;
  d_acq_r : Buf.t;
  d_acq_w : Buf.t;
  d_tr_acq : Buf.t;
  d_tr_rel : Buf.t;
  d_tr_self : Buf.t;
  d_spans : Buf.t;
  d_minor_words : float;
}

type lock_cell = {
  l_ops : int;
  l_setup_s : float;
  l_elapsed_s : float;
  l_minor_gcs : int;
  l_minor_words : float;
  acq_r : Buf.t;  (** sampled acquire latency, ns, read mode *)
  acq_w : Buf.t;
  tr_acq : Buf.t;  (** traced: every acquire span, ns *)
  tr_rel : Buf.t;
  tr_self : Buf.t;  (** operation span minus its acquire and release *)
  l_spans : Buf.t array;
  counters : (string * int) list;
  pool : Rlk_ebr.Pool.stats;
  violations : int;
  residue : bool;  (** whole-space try-write refused after the run *)
}

(* Odd: vm-wrmem's replayed cycle has an even length with every write on
   one parity, so an even stride could sample no write in a cell. *)
let sample_every = 7

let concat bufs =
  let b = Buf.create ~capacity:(max 1 (Array.fold_left (fun a x -> a + Buf.length x) 0 bufs)) () in
  Array.iter (fun x -> for i = 0 to Buf.length x - 1 do Buf.push b (Buf.get x i) done) bufs;
  b

let pool_delta (a : Rlk_ebr.Pool.stats) (b : Rlk_ebr.Pool.stats) : Rlk_ebr.Pool.stats =
  { fresh_allocations = b.fresh_allocations - a.fresh_allocations;
    recycled = b.recycled - a.recycled; barriers = b.barriers - a.barriers;
    trimmed = b.trimmed - a.trimmed }

(* Set-up, timed on the calling domain: the lock instance, the shared
   slots and the resident holders. *)
let lock_cell (module L : Subject.S) p ~seed ~traced ~duration_s ~grace_s =
  let t_setup = now_ns () in
  let lock = L.make ~space:p.route_space in
  let s = make_shared p in
  let held =
    Array.map
      (fun r ->
        let h = L.read_acquire lock r in
        enter s ~lo:(Range.lo r) ~hi:(Range.hi r) ~write:false;
        h)
      p.residents
  in
  let setup_s = float_of_int (now_ns () - t_setup) *. 1e-9 in
  let pool0 = Rlk.Node.pool_stats () in
  let prepare d ~stop ~progress =
    let rng = Prng.create ~seed:(seed + (d * 7919)) in
    let acq_r = Buf.create () and acq_w = Buf.create () in
    let cap = if traced then 1 lsl 16 else 16 in
    let tr_acq = Buf.create ~capacity:cap () and tr_rel = Buf.create ~capacity:cap () in
    let tr_self = Buf.create ~capacity:cap () in
    let spans = Buf.create ~capacity:(if traced then 6 * span_ops else 16) () in
    let next = p.stream rng d and slots = p.cs_slots in
    fun () ->
      let w0 = Gc.minor_words () in
      let ops = ref 0 in
      while not (Atomic.get stop) do
        let code = next () in
        let write = code land 1 = 1 in
        let r = Array.unsafe_get p.ranges (code lsr 1) in
        let lo = Range.lo r and hi = Range.hi r in
        let check = !ops mod check_every = 3 in
        if traced then begin
          let t0 = now_ns () in
          let h = if write then L.write_acquire lock r else L.read_acquire lock r in
          let t1 = now_ns () in
          critical s ~check ~lo ~hi ~write ~slots;
          let t2 = now_ns () in
          L.release lock h;
          let t3 = now_ns () in
          Buf.push tr_acq (t1 - t0);
          Buf.push tr_rel (t3 - t2);
          Buf.push tr_self (t2 - t1);
          if !ops < span_ops then begin
            Buf.push spans t0; Buf.push spans t1; Buf.push spans t2;
            Buf.push spans t3; Buf.push spans (Bool.to_int write); Buf.push spans !ops
          end
        end
        else if !ops mod sample_every = 0 then begin
          let t0 = now_ns () in
          let h = if write then L.write_acquire lock r else L.read_acquire lock r in
          Buf.push (if write then acq_w else acq_r) (now_ns () - t0);
          critical s ~check ~lo ~hi ~write ~slots;
          L.release lock h
        end
        else begin
          let h = if write then L.write_acquire lock r else L.read_acquire lock r in
          critical s ~check ~lo ~hi ~write ~slots;
          L.release lock h
        end;
        incr ops;
        if !ops land 63 = 0 then Atomic.set progress !ops;
        if p.think then think rng
      done;
      { d_ops = !ops; d_acq_r = acq_r; d_acq_w = acq_w; d_tr_acq = tr_acq;
        d_tr_rel = tr_rel; d_tr_self = tr_self; d_spans = spans;
        d_minor_words = Gc.minor_words () -. w0 }
  in
  match run ~duration_s ~grace_s ~prepare with
  | Overrun { progress } -> Error progress
  | Done { per_domain = pd; elapsed_s; minor_gcs } ->
    let pool = pool_delta pool0 (Rlk.Node.pool_stats ()) in
    let counters = L.counters lock in
    Array.iteri
      (fun i h ->
        let r = p.residents.(i) in
        leave s ~lo:(Range.lo r) ~hi:(Range.hi r) ~write:false;
        L.release lock h)
      held;
    let residue =
      match L.try_write_acquire lock (Range.v ~lo:0 ~hi:p.space) with
      | Some h -> L.release lock h; false
      | None -> true
    in
    let cat f = concat (Array.map f pd) in
    Ok
      { l_ops = Array.fold_left (fun a x -> a + x.d_ops) 0 pd;
        l_setup_s = setup_s; l_elapsed_s = elapsed_s; l_minor_gcs = minor_gcs;
        l_minor_words = Array.fold_left (fun a x -> a +. x.d_minor_words) 0.0 pd;
        acq_r = cat (fun x -> x.d_acq_r); acq_w = cat (fun x -> x.d_acq_w);
        tr_acq = cat (fun x -> x.d_tr_acq); tr_rel = cat (fun x -> x.d_tr_rel);
        tr_self = cat (fun x -> x.d_tr_self); l_spans = Array.map (fun x -> x.d_spans) pd;
        counters; pool; violations = (if L.exclusive then Atomic.get s.violations else 0);
        residue }

(* ---- host reference ---- *)

module Int_map = Map.Make (Int)

(* Fixed OCaml work that touches no library code: each worker adds and
   removes random keys in a private [Map] of about 2,000 entries, which
   allocates and chases pointers as the lock and VM cells do. Its rate
   moves only with the host. Returns the operations and elapsed time. *)
let host_cell ~seed ~duration_s ~grace_s =
  let prepare d ~stop ~progress =
    let rng = Prng.create ~seed:(seed + (d * 7919)) in
    let m = ref Int_map.empty in
    for i = 0 to 2047 do m := Int_map.add (Prng.below rng 4096) i !m done;
    fun () ->
      let ops = ref 0 in
      while not (Atomic.get stop) do
        let k = Prng.below rng 4096 in
        m := if Int_map.mem k !m then Int_map.remove k !m else Int_map.add k !ops !m;
        incr ops;
        if !ops land 63 = 0 then Atomic.set progress !ops
      done;
      !ops
  in
  match run ~duration_s ~grace_s ~prepare with
  | Overrun { progress } -> Error progress
  | Done { per_domain; elapsed_s; _ } -> Ok (Array.fold_left ( + ) 0 per_domain, elapsed_s)

(* ---- the VM cell: Metis wrmem on Sync list-refined ---- *)

type vm_domain = {
  v_tasks : int;
  v_cycles : int;  (** [wrmem.reset_every] tasks, closed by a reset *)
  v_errors : int;
  v_task_ns : Buf.t;
  v_malloc_ns : Buf.t;  (** traced *)
  v_reset_ns : Buf.t;  (** traced *)
  v_self_ns : Buf.t;  (** traced: task span minus its calls into the arena *)
  v_minor_words : float;
}

type vm_cell = {
  v_setup_s : float;
  v_elapsed_s : float;
  v_minor_gcs : int;
  per_domain : vm_domain array;
  ops : Rlk_vm.Sync.op_stats;
  lock_wait : Lockstat.snapshot;
  v_pool : Rlk_ebr.Pool.stats;
}

let vm_tasks v = Array.fold_left (fun a d -> a + d.v_tasks) 0 v.per_domain

let new_arena sync =
  Rlk_vm.Glibc_arena.create sync ~size:arena_bytes ~trim_threshold:wrmem.arena_trim ()

(* One domain's arena life after set-up: whole reset cycles until [stop],
   then destroy. Every arena call must return [Ok]; [max_cycles] bounds
   the cycles for calibration. *)
let vm_prepare ?(max_cycles = max_int) arena ~traced ~stop ~progress =
  let errors = ref 0 in
  let ok = function Ok _ -> () | Error _ -> incr errors in
  let task_ns = Buf.create () and cap = if traced then 1 lsl 16 else 16 in
  let malloc_ns = Buf.create ~capacity:cap () and reset_ns = Buf.create ~capacity:cap () in
  let self_ns = Buf.create ~capacity:(if traced then 1 lsl 12 else 16) () in
  fun () ->
    let w0 = Gc.minor_words () in
    let tasks = ref 0 and cycles = ref 0 in
    let timed buf f =
      let t0 = now_ns () in
      ok (f ());
      let d = now_ns () - t0 in
      Buf.push buf d;
      d
    in
    while (not (Atomic.get stop)) && !cycles < max_cycles do
      for k = 1 to wrmem.reset_every do
        let t0 = now_ns () in
        let inner = ref 0 in
        for _ = 1 to wrmem.allocs_per_task do
          if traced then
            inner := !inner + timed malloc_ns (fun () ->
                Rlk_vm.Glibc_arena.malloc_touched arena wrmem.alloc_bytes)
          else ok (Rlk_vm.Glibc_arena.malloc_touched arena wrmem.alloc_bytes)
        done;
        if k = wrmem.reset_every then begin
          if traced then
            inner := !inner + timed reset_ns (fun () -> Rlk_vm.Glibc_arena.reset arena)
          else ok (Rlk_vm.Glibc_arena.reset arena)
        end;
        let d = now_ns () - t0 in
        Buf.push task_ns d;
        if traced then Buf.push self_ns (d - !inner);
        incr tasks
      done;
      incr cycles;
      Atomic.set progress !tasks
    done;
    ok (Rlk_vm.Glibc_arena.destroy arena);
    { v_tasks = !tasks; v_cycles = !cycles; v_errors = !errors; v_task_ns = task_ns;
      v_malloc_ns = malloc_ns; v_reset_ns = reset_ns; v_self_ns = self_ns;
      v_minor_words = Gc.minor_words () -. w0 }

(* Set-up, timed on the calling domain: the address space and one arena
   per worker (handed over at spawn). *)
let vm_cell ~traced ~duration_s ~grace_s =
  let t_setup = now_ns () in
  let lock_stats = Lockstat.create "mm-lock" in
  let sync = Rlk_vm.Sync.create ~stats:lock_stats Rlk_vm.Sync.List_refined in
  let arenas = Array.init domains (fun _ -> new_arena sync) in
  let setup_s = float_of_int (now_ns () - t_setup) *. 1e-9 in
  let arenas =
    Array.map (function Ok a -> a | Error _ -> failwith "arena creation failed") arenas
  in
  let pool0 = Rlk.Node.pool_stats () in
  let prepare d ~stop ~progress = vm_prepare arenas.(d) ~traced ~stop ~progress in
  match run ~duration_s ~grace_s ~prepare with
  | Overrun { progress } -> Error progress
  | Done { per_domain; elapsed_s; minor_gcs } ->
    Ok { v_setup_s = setup_s; v_elapsed_s = elapsed_s; v_minor_gcs = minor_gcs;
         per_domain; ops = Rlk_vm.Sync.op_stats sync;
         lock_wait = Lockstat.snapshot lock_stats;
         v_pool = pool_delta pool0 (Rlk.Node.pool_stats ()) }

(* Fault and mprotect counts of one arena's life with [cycles] reset
   cycles, on a private address space in the calling domain. *)
let vm_counts ~cycles =
  let sync = Rlk_vm.Sync.create Rlk_vm.Sync.List_refined in
  let stop = Atomic.make false and progress = Atomic.make 0 in
  let arena = Result.get_ok (new_arena sync) in
  let d = vm_prepare arena ~traced:false ~max_cycles:cycles ~stop ~progress () in
  let s = Rlk_vm.Sync.op_stats sync in
  if d.v_errors > 0 || d.v_cycles <> cycles then failwith "vm calibration failed";
  (s.faults, s.mprotects)

(* The exact counts a VM cell must report: each domain's arena costs one
   amount for its first cycle and another for every later one (a domain
   stopped before its first cycle only creates and destroys). The
   calibration also checks that the counts are linear. *)
let vm_expect () =
  let c = Array.init 4 (fun cycles -> vm_counts ~cycles) in
  let (f1, m1) = c.(1) and (f2, m2) = c.(2) and (f3, m3) = c.(3) in
  if f3 - f2 <> f2 - f1 || m3 - m2 <> m2 - m1 then
    failwith "vm fault/mprotect counts are not linear in the task count";
  fun ~cycles ->
    if cycles = 0 then c.(0)
    else (f1 + ((cycles - 1) * (f2 - f1)), m1 + ((cycles - 1) * (m2 - m1)))
