module Range = Rlk.Range
module Router = Rlk_shard.Router
module Shard_rw = Rlk_shard.Shard_rw
module Clock = Rlk_primitives.Clock

let range lo hi = Range.v ~lo ~hi

(* ---------------- Router cover properties ---------------- *)

(* Geometry generator: 1..12 shards, width 1..40 (mixing power-of-two and
   odd widths exercises both routing paths), a range that may extend past
   [space] (the last shard absorbs the tail of the universe). *)
let geometry_arb =
  QCheck.(
    quad (int_range 1 12) (int_range 1 40) (int_bound 400) (int_range 1 200))

let prop_cover_exact =
  QCheck.Test.make ~name:"cover tiles the range exactly, in order" ~count:500
    geometry_arb
    (fun (shards, width, lo, len) ->
      let space = shards * width in
      let t = Router.create ~shards ~space in
      let r = range lo (lo + len) in
      let cover = Router.cover t r in
      let ok = ref (cover <> []) in
      (* Strictly ascending, consecutive shard indices. *)
      let idx = List.map fst cover in
      (match idx with
       | [] -> ok := false
       | first :: rest ->
         ignore
           (List.fold_left
              (fun prev i ->
                if i <> prev + 1 then ok := false;
                i)
              first rest));
      (* The clamped pieces tile [lo, hi) without gaps or overlaps. *)
      let expected = ref (Range.lo r) in
      List.iter
        (fun (i, sub) ->
          if Range.lo sub <> !expected then ok := false;
          if Range.hi sub <= Range.lo sub then ok := false (* minimal *);
          if not (Range.overlap (Router.span t i) sub) then ok := false;
          expected := Range.hi sub)
        cover;
      if !expected <> Range.hi r then ok := false;
      (* Agreement with the allocation-free hot-path form. *)
      let first, last = Router.first_last t r in
      (match (idx, List.rev idx) with
       | f :: _, l :: _ -> if f <> first || l <> last then ok := false
       | _ -> ok := false);
      !ok)

let prop_point_routing =
  QCheck.Test.make ~name:"shard_of_point matches the span partition"
    ~count:500
    QCheck.(triple (int_range 1 12) (int_range 1 40) (int_bound 600))
    (fun (shards, width, x) ->
      let t = Router.create ~shards ~space:(shards * width) in
      let s = Router.shard_of_point t x in
      s >= 0 && s < shards && Range.contains (Router.span t s) x)

(* ---------------- Router construction and boundaries ---------------- *)

let test_create_validation () =
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s must be rejected" name
  in
  rejects "zero shards" (fun () -> Router.create ~shards:0 ~space:64);
  rejects "negative shards" (fun () -> Router.create ~shards:(-4) ~space:64);
  rejects "zero space" (fun () -> Router.create ~shards:4 ~space:0);
  rejects "negative space" (fun () -> Router.create ~shards:4 ~space:(-64));
  rejects "space not a multiple of shards" (fun () ->
      Router.create ~shards:4 ~space:63);
  (* Non-power-of-two geometries are legal — they take the division route
     instead of the shift. *)
  let t = Router.create ~shards:3 ~space:21 in
  Alcotest.(check int) "odd width" 7 (Router.width t);
  Alcotest.(check int) "odd-width routing" 2 (Router.shard_of_point t 20)

let test_boundary_at_space () =
  let shards = 4 and space = 64 in
  let t = Router.create ~shards ~space in
  (* A range ending exactly at [space] stays inside the declared universe:
     its cover ends at the last shard and tiles to exactly [space]. *)
  let cover = Router.cover t (range 0 space) in
  Alcotest.(check int) "full range covers all shards" shards
    (List.length cover);
  (match List.rev cover with
   | (i, sub) :: _ ->
     Alcotest.(check int) "last shard index" (shards - 1) i;
     Alcotest.(check int) "last piece ends at space" space (Range.hi sub)
   | [] -> Alcotest.fail "empty cover");
  (* Final in-space point and the width-1 range ending exactly at [space]
     both route to the last shard, exercising the lsr fast path's min
     clamp. *)
  Alcotest.(check int) "space - 1 routes to last shard" (shards - 1)
    (Router.shard_of_point t (space - 1));
  let first, last = Router.first_last t (range (space - 1) space) in
  Alcotest.(check (pair int int)) "tail sliver first_last"
    (shards - 1, shards - 1) (first, last);
  (* Same boundary on a non-power-of-two width (division route). *)
  let t = Router.create ~shards:3 ~space:21 in
  let first, last = Router.first_last t (range 20 21) in
  Alcotest.(check (pair int int)) "odd-width tail sliver" (2, 2)
    (first, last);
  let cover = Router.cover t (range 6 21) in
  Alcotest.(check int) "odd-width cover spans shards 0-2" 3
    (List.length cover)

(* ---------------- Single-geometry fixture ---------------- *)

(* 8 shards of width 32 over [0, 256): the benchmark geometry. wide_span
   defaults to 2, so covers of 1-2 shards are narrow and 3+ go wide. *)
let mk () = Shard_rw.create ~shards:8 ~space:256 ()

let test_boundary_precision () =
  let t = mk () in
  (* A writer straddling the shard 0/1 boundary conflicts with overlapping
     ranges on both sides but nothing else — the shards stay range locks,
     not mutexes. *)
  let h = Shard_rw.write_acquire t (range 30 34) in
  Alcotest.(check bool) "overlap on shard 0 side refused" true
    (Shard_rw.try_write_acquire t (range 31 32) = None);
  Alcotest.(check bool) "overlap on shard 1 side refused" true
    (Shard_rw.try_read_acquire t (range 33 40) = None);
  (match Shard_rw.try_write_acquire t (range 0 30) with
   | Some g -> Shard_rw.release t g
   | None -> Alcotest.fail "disjoint range in shard 0 must be grantable");
  (match Shard_rw.try_write_acquire t (range 34 64) with
   | Some g -> Shard_rw.release t g
   | None -> Alcotest.fail "disjoint range in shard 1 must be grantable");
  Shard_rw.release t h;
  match Shard_rw.try_write_acquire t (range 30 34) with
  | Some g -> Shard_rw.release t g
  | None -> Alcotest.fail "released straddle must be reacquirable"

let test_try_all_or_nothing () =
  let t = mk () in
  (* Conflict sits in shard 1; a multi-shard try covering shards 0-1 must
     fail and leave shard 0 untouched. *)
  let h = Shard_rw.write_acquire t (range 40 44) in
  Alcotest.(check bool) "straddling try refused" true
    (Shard_rw.try_write_acquire t (range 20 44) = None);
  (match Shard_rw.try_write_acquire t (range 20 32) with
   | Some g -> Shard_rw.release t g
   | None -> Alcotest.fail "shard 0 must not be left locked by the retreat");
  Shard_rw.release t h;
  let snap = Shard_rw.snapshot t in
  Alcotest.(check bool) "retreat counted" true (snap.Shard_rw.retreats >= 1)

let test_wide_exclusion () =
  let t = mk () in
  let h = Shard_rw.write_acquire t (range 0 256) in
  let snap = Shard_rw.snapshot t in
  Alcotest.(check int) "wide path taken" 1 snap.Shard_rw.wide_path;
  Alcotest.(check bool) "single-shard read excluded by wide writer" true
    (Shard_rw.try_read_acquire t (range 0 4) = None);
  Alcotest.(check bool) "single-shard write excluded by wide writer" true
    (Shard_rw.try_write_acquire t (range 200 204) = None);
  Shard_rw.release t h;
  let h2 = Shard_rw.read_acquire t (range 0 256) in
  (* Wide readers keep reader sharing: narrow and wide readers coexist. *)
  (match Shard_rw.try_read_acquire t (range 0 4) with
   | Some g -> Shard_rw.release t g
   | None -> Alcotest.fail "narrow reader must share with a wide reader");
  Alcotest.(check bool) "narrow writer excluded by wide reader" true
    (Shard_rw.try_write_acquire t (range 0 4) = None);
  Shard_rw.release t h2

let test_timed_unwind () =
  let t = mk () in
  let h = Shard_rw.write_acquire t (range 0 256) in
  let deadline_ns = Clock.now_ns () + 20_000_000 in
  Alcotest.(check bool) "deadline passes under a wide writer" true
    (Shard_rw.read_acquire_opt t ~deadline_ns (range 100 108) = None);
  let snap = Shard_rw.snapshot t in
  Alcotest.(check bool) "timeout counted" true (snap.Shard_rw.timeouts >= 1);
  Shard_rw.release t h;
  let deadline_ns = Clock.now_ns () + 1_000_000_000 in
  match Shard_rw.read_acquire_opt t ~deadline_ns (range 100 108) with
  | Some g -> Shard_rw.release t g
  | None -> Alcotest.fail "generous deadline on a free lock must win"

let test_path_accounting () =
  let t = mk () in
  let release h = Shard_rw.release t h in
  release (Shard_rw.write_acquire t (range 0 8)) (* 1 shard: single *);
  release (Shard_rw.write_acquire t (range 30 40)) (* 2 shards: multi *);
  release (Shard_rw.write_acquire t (range 0 96)) (* 3 shards: wide *);
  let snap = Shard_rw.snapshot t in
  Alcotest.(check int) "single" 1 snap.Shard_rw.single_shard;
  Alcotest.(check int) "multi" 1 snap.Shard_rw.multi_shard;
  Alcotest.(check int) "wide" 1 snap.Shard_rw.wide_path;
  Alcotest.(check int) "total" 3 snap.Shard_rw.acquisitions;
  Alcotest.(check int) "shard 0 loads both narrow grants" 2
    snap.Shard_rw.shard_loads.(0)

(* A single-shard pair allocates its list node and nothing else: the
   handle comes from the per-domain handle pool. *)
let test_single_shard_allocation_free () =
  let w_node =
    let r = range 3 10 in
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (Rlk.Node.alloc ~reader:true r))
    done;
    (Gc.minor_words () -. w0) /. 10_000.
  in
  let t = mk () in
  let r = range 3 10 in
  (* Warm the per-domain handle pool. *)
  for _ = 1 to 1_000 do
    Shard_rw.release t (Shard_rw.read_acquire t r)
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Shard_rw.release t (Shard_rw.read_acquire t r)
  done;
  let per_op = (Gc.minor_words () -. w0) /. 10_000. in
  Alcotest.(check bool)
    (Printf.sprintf
       "single-shard pair allocates only its node, %.2f words/op (got %.2f)"
       w_node per_op)
    true (per_op <= w_node +. 0.5)

let test_multi_domain_exclusion () =
  (* The ArrBench occupancy checker crashes (sets [violated]) on any
     granted overlap, including across shard boundaries — the random
     variant draws plenty of boundary-straddling and wide ranges. *)
  let lock = Rlk_shard.Shard_rw.impl ~shards:8 ~space:256 () in
  match
    Rlk_workloads.Arrbench.self_check ~lock ~variant:Rlk_workloads.Arrbench.Random
      ~threads:4 ~read_pct:50 ~duration_s:0.2
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let qsuite name tests =
  Printf.printf "%s qcheck suite: seed %d (override with RLK_SEED)\n%!" name
    Stress_helpers.base_seed;
  ( name,
    List.map
      (QCheck_alcotest.to_alcotest ~long:false
         ~rand:(Stress_helpers.qcheck_rand ()))
      tests )

let () =
  Alcotest.run "shard"
    [ qsuite "router" [ prop_cover_exact; prop_point_routing ];
      ( "router-edges",
        [ Alcotest.test_case "create validation" `Quick
            test_create_validation;
          Alcotest.test_case "ranges ending exactly at space" `Quick
            test_boundary_at_space ] );
      ( "shard-rw",
        [ Alcotest.test_case "boundary precision" `Quick
            test_boundary_precision;
          Alcotest.test_case "try is all-or-nothing" `Quick
            test_try_all_or_nothing;
          Alcotest.test_case "wide path exclusion" `Quick test_wide_exclusion;
          Alcotest.test_case "timed unwind" `Quick test_timed_unwind;
          Alcotest.test_case "path accounting" `Quick test_path_accounting;
          Alcotest.test_case "single-shard pair is allocation-free" `Quick
            test_single_shard_allocation_free;
          Alcotest.test_case "multi-domain exclusion" `Quick
            test_multi_domain_exclusion ] ) ]
