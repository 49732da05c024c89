(* Range-lock benchmark: one workload per process, two worker
   domains, closed loops.

     repobench.exe --workload NAME --seed N --seconds S --trace 0|1

   A run is one round per second; each round runs every cell once, in an
   order rotated per round: list-rw, skip-rw and adaptive-rw on the
   workload's range traffic, the VM cell (Metis wrmem on Sync
   list-refined) and the host reference. [--trace 1] adds the null and
   shard-rw references, runs each cell both plain and traced, prints the
   per-layer ledger instead of the end-to-end metrics and writes the raw
   spans under .bench_out/. Every figure is an interquartile mean over
   rounds, and the end-to-end ones are host-adjusted; the last line of
   stdout is the JSON result. See README.md. *)

let workloads =
  [ ("vm-wrmem", Cells.vm_footprint); ("arr-disjoint", Cells.arr_disjoint);
    ("arr-contended", Cells.arr_contended); ("longlist", Cells.longlist);
    ("arr-random", Cells.arr_random); ("arr-halfspace", Cells.arr_halfspace) ]

type cell = Lock of Subject.t | Vm | Host

let cell_name = function Lock l -> Subject.name l | Vm -> "vm" | Host -> "host"

(* Share of a round each cell gets. *)
let weight = function
  | Lock l when List.memq l Subject.main -> 1.0
  | Lock _ | Host -> 0.5
  | Vm -> 1.5

(* The host reference's rate (operations per second, both workers) on an
   idle 2-vCPU x86-64 host. The end-to-end figures are scaled to it: on a
   shared 2-vCPU host, every cell's speed moved by up to 35% between runs
   minutes apart, and the reference moved with them. *)
let host_nominal = 5e6

(* The null and shard-rw references feed only the per-layer ledger, so
   they run in the traced run alone; the host reference runs in both. *)
let cells ~trace =
  List.map (fun l -> Lock l) (if trace then Subject.all else Subject.main) @ [ Vm; Host ]

let usage () =
  prerr_endline
    "usage: repobench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10.0; trace = false } in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: tl -> a := { !a with workload = v }; go tl
    | "--seed" :: v :: tl -> a := { !a with seed = int_of_string v }; go tl
    | "--seconds" :: v :: tl -> a := { !a with seconds = float_of_string v }; go tl
    | "--trace" :: v :: tl -> a := { !a with trace = v = "1" }; go tl
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem_assoc !a.workload workloads) then begin
    Printf.eprintf "unknown workload %S; known: %s\n" !a.workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  end;
  !a

(* ---- per-cell records across rounds ---- *)

type lock_rounds = {
  mutable plain : Cells.lock_cell list;  (** untraced, newest first *)
  mutable traced : Cells.lock_cell list;
}

type vm_rounds = {
  mutable vplain : Cells.vm_cell list;
  mutable vtraced : Cells.vm_cell list;
}

let attempted = ref 0

let failed = ref 0

let failures = ref []

let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

(* Every per-round figure is summarised by its interquartile mean. *)
let over_rounds f l = Buf.iqm_of (List.map f l)

let pct buf p = Buf.rank (Buf.sorted buf) p

let per_s n secs = float_of_int n /. secs

let sum_i f l = List.fold_left (fun a x -> a + f x) 0 l

let sum_f f l = List.fold_left (fun a x -> a +. f x) 0.0 l

let counter name (c : Cells.lock_cell) =
  Option.value ~default:0 (List.assoc_opt name c.counters)

(* Checks every finished lock cell must pass. *)
let check_lock ~ctx (c : Cells.lock_cell) =
  if c.violations > 0 then begin
    fail "%s: %d exclusion violations" ctx c.violations;
    failed := !failed + min c.l_ops c.violations
  end;
  if c.residue then begin
    fail "%s: whole-space try_write_acquire refused after all holders released" ctx;
    incr failed
  end

let check_vm ~ctx ~expect (v : Cells.vm_cell) =
  let errors = Array.fold_left (fun a d -> a + d.Cells.v_errors) 0 v.per_domain in
  let tasks = Cells.vm_tasks v in
  let ef, em =
    Array.fold_left
      (fun (f, m) d ->
        let f', m' = expect ~cycles:d.Cells.v_cycles in
        (f + f', m + m'))
      (0, 0) v.per_domain
  in
  if errors > 0 then fail "%s: %d arena calls returned an error" ctx errors;
  if v.ops.faults <> ef || v.ops.mprotects <> em then
    fail "%s: %d faults and %d mprotects, expected exactly %d and %d" ctx
      v.ops.faults v.ops.mprotects ef em;
  if errors > 0 || v.ops.faults <> ef || v.ops.mprotects <> em then
    failed := !failed + max 1 (min tasks errors)

let clock_cost_ns () =
  let n = 200_000 in
  let t0 = Cells.now_ns () in
  for _ = 1 to n do ignore (Sys.opaque_identity (Cells.now_ns ())) done;
  float_of_int (Cells.now_ns () - t0) /. float_of_int n

(* ---- spans ---- *)

(* One line per span: cell, round, domain, operation id, span name,
   start and end (ns since the run began), parent operation id. *)
let write_spans ~path ~t_base spans =
  (try Unix.mkdir (Filename.dirname path) 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out path in
  output_string oc "cell\tround\tdomain\top\tspan\tstart_ns\tend_ns\tparent\n";
  List.iter
    (fun (cell, round, (bufs : Buf.t array)) ->
      Array.iteri
        (fun d (b : Buf.t) ->
          let i = ref 0 in
          while !i + 6 <= Buf.length b do
            let g k = Buf.get b (!i + k) - t_base in
            let op = Buf.get b (!i + 5) in
            let line name s e parent =
              Printf.fprintf oc "%s\t%d\t%d\t%d\t%s\t%d\t%d\t%s\n" cell round d op name s e parent
            in
            line (if Buf.get b (!i + 4) = 1 then "op.write" else "op.read") (g 0) (g 3) "-";
            line "acquire" (g 0) (g 1) (string_of_int op);
            line "release" (g 2) (g 3) (string_of_int op);
            i := !i + 6
          done)
        bufs)
    (List.rev spans);
  close_out oc

(* ---- the run ---- *)

let () =
  Rlk_workloads.Runner.init ();
  Cells.set_minor_heap ();
  let a = parse_args () in
  let pattern = List.assoc a.workload workloads in
  let t_base = Cells.now_ns () in
  let expect = Cells.vm_expect () in
  (* The vm-wrmem lock cells replay one reset cycle of Sync's traffic: it
     must have the fault and mprotect counts Sync reports per cycle. *)
  (let f1, m1 = expect ~cycles:1 and f2, m2 = expect ~cycles:2 in
   let rf, rm = Cells.vm_cycle_counts in
   if (rf, rm) <> (f2 - f1, m2 - m1) then
     fail "vm-wrmem replay: %d faults and %d mprotects per cycle, Sync counts %d and %d" rf
       rm (f2 - f1) (m2 - m1));
  let clock_ns = clock_cost_ns () in
  let locks = List.map (fun l -> (Subject.name l, { plain = []; traced = [] })) Subject.all in
  let vm = { vplain = []; vtraced = [] } in
  let setups = ref [] in
  let dead = Hashtbl.create 4 in
  let spans = ref [] in
  let host = ref [] in
  let cells = cells ~trace:a.trace in
  let total_w = List.fold_left (fun a c -> a +. weight c) 0.0 cells in
  (* One round per second of measurement. The first eighth of the rounds
     warm up: their cells run and are checked, but no figure uses them.
     Until then the node pools and the heap are still settling, and
     list-rw on longlist ran up to 40% faster in the first rounds. *)
  let rounds = max 1 (int_of_float a.seconds) in
  let round_s = a.seconds /. float_of_int rounds in
  let warm = rounds / 8 in
  let ncells = List.length cells in
  for r = 0 to rounds - 1 do
    let kept = r >= warm in
    let setup = ref 0.0 in
    List.iteri
      (fun k _ ->
        let i = (k + r) mod ncells in
        let c = List.nth cells i in
        let name = cell_name c in
        let slice = round_s *. weight c /. total_w in
        let grace_s = 2.0 +. slice in
        let seed = (a.seed * 1_000_003) + (r * 7_919) + (i * 104_729) in
        let ctx = Printf.sprintf "workload=%s lock=%s seed=%d round=%d" a.workload name a.seed r in
        let overrun progress =
          fail "%s: cell missed its %.1f s deadline (stalled domains abandoned)" ctx
            (slice +. grace_s);
          Printf.printf "# FAILED cell %s: deadline overrun\n%!" ctx;
          attempted := !attempted + progress + Cells.domains;
          failed := !failed + progress + Cells.domains;
          Hashtbl.replace dead name ()
        in
        let log ~traced rate setup_s =
          Printf.printf "# round %d %-12s %s %12.0f /s  set-up %.6f s\n" r name
            (if traced then "traced" else "plain ") rate setup_s
        in
        (* Traced mode halves each slice between an untraced and a traced
           pass, so the overhead is measured on the same round. *)
        let passes =
          match c with
          | Lock l when a.trace && List.memq l Subject.main -> [ (false, slice /. 2.); (true, slice /. 2.) ]
          | Vm when a.trace -> [ (false, slice /. 2.); (true, slice /. 2.) ]
          | _ -> [ (false, slice) ]
        in
        List.iter
          (fun (traced, duration_s) ->
            (* Every cell starts from a finished major cycle, so none pays
               for the garbage of the one before. *)
            Gc.full_major ();
            if not (Hashtbl.mem dead name) then
              match c with
              | Lock l -> (
                match Cells.lock_cell l pattern ~seed ~traced ~duration_s ~grace_s with
                | Error progress -> overrun progress
                | Ok cell ->
                  attempted := !attempted + cell.l_ops;
                  log ~traced (per_s cell.l_ops cell.l_elapsed_s) cell.l_setup_s;
                  check_lock ~ctx cell;
                  if not traced then setup := !setup +. cell.l_setup_s;
                  let rs = List.assoc name locks in
                  if not kept then ()
                  else if traced then begin
                    rs.traced <- cell :: rs.traced;
                    spans := (name, r, cell.l_spans) :: !spans
                  end
                  else rs.plain <- cell :: rs.plain)
              | Host -> (
                match Cells.host_cell ~seed ~duration_s ~grace_s with
                | Error progress -> overrun progress
                | Ok (ops, elapsed_s) ->
                  attempted := !attempted + ops;
                  log ~traced (per_s ops elapsed_s) 0.0;
                  if kept then host := per_s ops elapsed_s :: !host)
              | Vm -> (
                match Cells.vm_cell ~traced ~duration_s ~grace_s with
                | Error progress -> overrun progress
                | Ok v ->
                  attempted := !attempted + Cells.vm_tasks v;
                  log ~traced (per_s (Cells.vm_tasks v) v.v_elapsed_s) v.v_setup_s;
                  check_vm ~ctx ~expect v;
                  if not traced then setup := !setup +. v.v_setup_s;
                  if not kept then ()
                  else if traced then vm.vtraced <- v :: vm.vtraced
                  else vm.vplain <- v :: vm.vplain))
          passes)
      cells;
    if kept then setups := !setup :: !setups
  done;
  Cells.shutdown ();
  (* ---- metrics ---- *)
  let metrics = ref [] in
  let emit name unit v = metrics := (name, unit, v) :: !metrics in
  let plain n = (List.assoc n locks).plain in
  let traced n = (List.assoc n locks).traced in
  let main_names = List.map Subject.name Subject.main in
  let ops_s (c : Cells.lock_cell) = per_s c.l_ops c.l_elapsed_s in
  let us x = x /. 1000.0 in
  let vbuf f (v : Cells.vm_cell) = Cells.concat (Array.map f v.per_domain) in
  let ops cs = float_of_int (max 1 (sum_i (fun (c : Cells.lock_cell) -> c.l_ops) cs)) in
  let elapsed cs = sum_f (fun (c : Cells.lock_cell) -> c.l_elapsed_s) cs in
  let per_kop cs f = 1000.0 *. float_of_int (sum_i f cs) /. ops cs in
  if not a.trace then begin
    (* Host-adjusted: every figure is scaled to a host on which the
       reference runs at [host_nominal] (README.md, "Host adjustment"). *)
    let speed = Buf.iqm_of !host /. host_nominal in
    let rate x = x /. speed and time x = x *. speed in
    emit "setup_s" "s" (time (Buf.iqm_of !setups));
    List.iter
      (fun n ->
        let cs = plain n in
        let lat name unit f =
          emit (name ^ "." ^ n) unit (time (over_rounds (fun c -> us (f c)) cs))
        in
        emit ("ops_per_s." ^ n) "1/s" (rate (over_rounds ops_s cs));
        if n <> "adaptive-rw" then lat "read_p99_us" "us" (fun c -> pct c.acq_r 0.99);
        lat "write_p99_us" "us" (fun c -> pct c.acq_w 0.99))
      main_names;
    emit "vm.tasks_per_s" "1/s"
      (rate (over_rounds (fun v -> per_s (Cells.vm_tasks v) v.Cells.v_elapsed_s) vm.vplain));
    (* p90, not p99: on a host with vCPU steal, one task in a hundred
       waits out a descheduled vCPU, and p99 moved 3-6x between runs. *)
    emit "vm.task_p90_us" "us"
      (time (over_rounds (fun v -> us (pct (vbuf (fun d -> d.Cells.v_task_ns) v) 0.9)) vm.vplain))
  end
  else begin
    List.iter
      (fun n ->
        List.iter
          (fun k -> emit (n ^ "." ^ k ^ "_per_kop") "1/kop" (per_kop (plain n) (counter k)))
          [ "restarts"; "cas_failures"; "overlap_waits"; "validation_failures"; "parks";
            "wakes" ])
      [ "list-rw"; "skip-rw" ];
    List.iter
      (fun n ->
        let ts = traced n and cs = plain n in
        List.iter
          (fun (k, f) ->
            emit (n ^ "." ^ k ^ "_ns.p50") "ns" (over_rounds (fun c -> pct (f c) 0.5) ts);
            emit (n ^ "." ^ k ^ "_ns.p99") "ns" (over_rounds (fun c -> pct (f c) 0.99) ts))
          [ ("acquire", fun (c : Cells.lock_cell) -> c.tr_acq); ("release", fun c -> c.tr_rel) ];
        emit (n ^ ".gc.minor_words_per_op") "words"
          (sum_f (fun (c : Cells.lock_cell) -> c.l_minor_words) cs /. ops cs);
        emit (n ^ ".gc.minor_gcs_per_s") "1/s"
          (float_of_int (sum_i (fun (c : Cells.lock_cell) -> c.l_minor_gcs) cs) /. elapsed cs))
      main_names;
    (* Node pools: the list core's global pool (list-rw, and adaptive-rw
       through its list backend); skip-rw's pool is private to its core. *)
    List.iter
      (fun n ->
        List.iter
          (fun (k, f) -> emit (n ^ ".pool." ^ k ^ "_per_kop") "1/kop" (per_kop (plain n) f))
          [ ("fresh", fun (c : Cells.lock_cell) -> c.pool.fresh_allocations);
            ("recycled", fun c -> c.pool.recycled); ("barriers", fun c -> c.pool.barriers);
            ("trimmed", fun c -> c.pool.trimmed) ])
      [ "list-rw"; "adaptive-rw" ];
    let ad = plain "adaptive-rw" in
    List.iter
      (fun (m, k) -> emit ("adaptive-rw." ^ m) "share" (per_kop ad (counter k) /. 1000.0))
      [ ("fast_read_share", "fast_reads"); ("g_share", "g");
        ("narrow_share", "narrow"); ("diverted_share", "diverted") ];
    (* Its read p99 sits between the biased fast path and the list path and
       jumped between 0.9 and 1.8 us from run to run, too unsteady for an
       end-to-end bound. *)
    emit "adaptive-rw.read_p99_us" "us" (over_rounds (fun c -> us (pct c.Cells.acq_r 0.99)) ad);
    (* The sampled acquire p50 moved by up to 60% between runs of vm-wrmem
       (list-rw 0.48-0.80 us), too unsteady for an end-to-end bound. *)
    List.iter
      (fun n ->
        emit ("acq_p50_us." ^ n) "us"
          (over_rounds
             (fun (c : Cells.lock_cell) -> us (pct (Cells.concat [| c.acq_r; c.acq_w |]) 0.5))
             (plain n)))
      main_names;
    emit "adaptive-rw.regime_switches_per_s" "1/s"
      (float_of_int (sum_i (counter "switches") ad) /. elapsed ad);
    let sh = plain "shard-rw" in
    emit "ref.shard-rw.ops_per_s" "1/s" (over_rounds ops_s sh);
    let acqs = float_of_int (max 1 (sum_i (counter "acquisitions") sh)) in
    List.iter
      (fun k -> emit ("shard-rw." ^ k ^ "_share") "share" (float_of_int (sum_i (counter k) sh) /. acqs))
      [ "single"; "multi"; "wide"; "slow" ];
    (* VM layers: the arena calls traced, Sync's own counters, the mm
       lock's waits, the node pool and the GC, per task. *)
    let vt = vm.vtraced and vp = vm.vplain in
    List.iter
      (fun (k, f) ->
        emit ("vm." ^ k ^ "_ns.p50") "ns" (over_rounds (fun v -> pct (vbuf f v) 0.5) vt);
        emit ("vm." ^ k ^ "_ns.p99") "ns" (over_rounds (fun v -> pct (vbuf f v) 0.99) vt))
      [ ("malloc_touched", fun d -> d.Cells.v_malloc_ns); ("reset", fun d -> d.Cells.v_reset_ns) ];
    emit "vm.task_self_ns.p50" "ns"
      (over_rounds (fun v -> pct (vbuf (fun d -> d.Cells.v_self_ns) v) 0.5) vt);
    let tasks = float_of_int (max 1 (sum_i Cells.vm_tasks vp)) in
    let vsum f = float_of_int (sum_i f vp) in
    let opsum f = vsum (fun (v : Cells.vm_cell) -> f v.ops) in
    let mprot = Float.max 1.0 (opsum (fun o -> o.mprotects)) in
    emit "vm.faults_per_task" "count" (opsum (fun o -> o.faults) /. tasks);
    emit "vm.mprotects_per_task" "count" (opsum (fun o -> o.mprotects) /. tasks);
    emit "vm.spec_share" "share" (opsum (fun o -> o.spec_success) /. mprot);
    emit "vm.spec_retries_per_kmprotect" "1/kop"
      (1000.0 *. opsum (fun o -> o.spec_retries) /. mprot);
    emit "vm.fallbacks_per_kmprotect" "1/kop"
      (1000.0 *. opsum (fun o -> o.structural_fallbacks) /. mprot);
    let lw f = vsum (fun (v : Cells.vm_cell) -> f v.lock_wait) in
    emit "vm.mm_lock.wait_ns_per_acq" "ns"
      (lw (fun s -> s.read_wait_ns + s.write_wait_ns)
       /. Float.max 1.0 (lw (fun s -> s.read_count + s.write_count)));
    emit "vm.pool.fresh_per_ktask" "1/kop"
      (1000.0 *. vsum (fun v -> v.v_pool.fresh_allocations) /. tasks);
    emit "vm.pool.recycled_per_ktask" "1/kop" (1000.0 *. vsum (fun v -> v.v_pool.recycled) /. tasks);
    let words (v : Cells.vm_cell) =
      Array.fold_left (fun a d -> a +. d.Cells.v_minor_words) 0.0 v.per_domain
    in
    emit "vm.gc.minor_words_per_task" "words" (sum_f words vp /. tasks);
    (* Harness: host reference, the cost of sampling and of tracing. *)
    emit "harness.null_ops_per_s" "1/s" (over_rounds ops_s (plain "null"));
    emit "harness.host_ops_per_s" "1/s" (Buf.iqm_of !host);
    emit "harness.cs_self_ns.p50" "ns"
      (over_rounds (fun (c : Cells.lock_cell) -> pct c.tr_self 0.5) (traced "list-rw"));
    let mains = List.concat_map plain main_names in
    let samples =
      sum_i (fun (c : Cells.lock_cell) -> Buf.length c.acq_r + Buf.length c.acq_w) mains
    in
    emit "harness.sampling_overhead_share" "share"
      (float_of_int samples *. 2.0 *. clock_ns *. 1e-9
       /. (elapsed mains *. float_of_int Cells.domains));
    let tp f = List.fold_left (fun acc n -> acc +. over_rounds ops_s (f n)) 0.0 main_names in
    emit "trace.overhead_share" "share" (1.0 -. (tp traced /. tp plain))
  end;
  let metrics = List.rev !metrics in
  List.iter
    (fun (n, _, v) -> if not (Float.is_finite v) then fail "metric %s has no samples" n)
    metrics;
  if a.trace then begin
    let path = Printf.sprintf ".bench_out/spans-%s-seed%d.tsv" a.workload a.seed in
    write_spans ~path ~t_base !spans;
    Printf.printf "# spans written to %s\n" path
  end;
  List.iter (fun m -> Printf.printf "# FAILURE %s\n" m) (List.rev !failures);
  List.iter (fun (n, u, v) -> Printf.printf "# %-40s %14.4f %s\n" n v u) metrics;
  let correct = !failures = [] in
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let json_metric (n, u, v) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) (if correct then !failed else max 1 !failed)
    (String.concat ", " (List.map json_metric metrics));
  exit 0
