open Rlk_primitives
module List_rw = Rlk.List_rw
module Range = Rlk.Range
module History = Rlk.History

(* Sharded frontend over the paper's reader-writer list lock (see
   doc/perf.md). The range universe is partitioned by {!Router} into
   contiguous spans, each guarded by its own (cache-line-isolated)
   [List_rw]. Three acquisition regimes:

   - narrow: the cover fits in at most [wide_span] shards. Shards are
     locked in ascending index order (deadlock-free: the global order
     wide-list < shard 0 < shard 1 < ... is respected by every path) with
     the clamped sub-range; in the common single-shard case this touches
     exactly one shard and no shared state at all.

   - wide: the cover exceeds [wide_span] shards. Locking S lists per
     acquisition would make full-range holds S times slower than a plain
     [List_rw], so wide acquisitions take a dedicated wide list (where
     wide/wide conflicts resolve with normal reader-writer semantics),
     raise per-shard revocation counters, and then *drain* each covered
     shard: a non-inserting wait for pre-existing conflicting narrow
     holders ([List_rw.drain_conflicts]).

   - slow narrow: a narrow acquisition that observes a raised revocation
     counter for a conflicting mode (readers yield only to wide writers;
     writers yield to any wide) retreats from every shard it claimed
     (all-or-nothing) and
     re-enters through the wide list (full reader-writer conflict with the
     wide holder), then locks its shards in order without further checks —
     its wide grant already excludes every conflicting wide holder.

   The narrow/wide handshake is the store-buffer pattern over seq-cst
   atomics: a narrow op publishes its shard node (CAS) and then loads the
   counters; a wide op increments the counters (RMW) and then reads the
   shard lists. Whichever loses the race sees the other: a narrow op that
   loaded zero counters inserted, in the sequential order, before the wide
   increment — so the wide drain finds its node and waits; a narrow op
   that loads a non-zero counter retreats. *)

type grant =
  | Single
    (* the common case: one shard — constant constructor, the sub-handle
       lives in the handle's [s]/[sh] fields so a single-shard grant is
       one allocation (the handle itself) *)
  | Narrow of (int * List_rw.handle) list
  | Slow of { wh : List_rw.handle; subs : (int * List_rw.handle) list }
  | Wide of List_rw.handle
    (* the covered shard interval is recomputed from the handle's range at
       release time — keeping the grant at two words matters on the
       all-wide workloads, where allocation rate bounds throughput *)

(* [sh] is only meaningful when [grant = Single]; multi-shard handles
   store an immediate there (never dereferenced — [release] and [holders]
   dispatch on [grant] first). *)
let no_sub : List_rw.handle = Obj.magic 0

type handle = {
  mutable reader : bool;
  mutable lo : int;
  mutable hi : int;
  mutable grant : grant;
  mutable s : int; (* shard index of a Single grant; -1 otherwise *)
  mutable sh : List_rw.handle;
    (* sub-handle of a Single grant; [no_sub] otherwise *)
  mutable span : int; (* open History span; -1 when not recorded *)
}

(* Per-domain free stack of released handles, indexed by the domain-id
   slot the metrics bumps already fetch (one TLS lookup serves both).
   Steady state turns the handle allocation — the only allocation left on
   the single-shard path — into a pop + seven field stores; the cap
   bounds what a release burst can pin. A handle must not be used after
   [release]: recycling is what enforces the cost model, the API contract
   is unchanged. *)
type hstack = { mutable harr : handle array; mutable hlen : int }

let hstack_cap = 64


type t = {
  router : Router.t;
  shards : List_rw.t array;
  wide : List_rw.t;
  counts_w : int Atomic.t array; (* per-shard wide-writer revocation *)
  counts_r : int Atomic.t array; (* per-shard wide-reader revocation *)
  all_w : int Atomic.t; (* full-cover wide writers *)
  all_r : int Atomic.t; (* full-cover wide readers *)
  wide_span : int;
  stats : Lockstat.t option;
  single : Padded_counters.t;
  multi : Padded_counters.t;
  wides : Padded_counters.t;
  slow : Padded_counters.t;
  retreats : Padded_counters.t;
  timeouts : Padded_counters.t;
  hpool : hstack array; (* indexed by Domain_id slot *)
}

let name = "shard-rw"

let create ?stats ?(shards = 8) ?(space = 1 lsl 16) ?wide_span
    ?(fast_path = true) ?park () =
  let router = Router.create ~shards ~space in
  let wide_span =
    match wide_span with Some w -> max 1 w | None -> max 1 (shards / 4)
  in
  let c () = Padded_counters.create ~slots:Domain_id.capacity in
  { router;
    shards =
      Array.init shards (fun _ ->
          Padded_counters.isolate (List_rw.create ~fast_path ?park ()));
    wide = Padded_counters.isolate (List_rw.create ~fast_path ?park ());
    counts_w = Array.init shards (fun _ -> Padded_counters.atomic 0);
    counts_r = Array.init shards (fun _ -> Padded_counters.atomic 0);
    all_w = Padded_counters.atomic 0;
    all_r = Padded_counters.atomic 0;
    wide_span;
    stats;
    single = c ();
    multi = c ();
    wides = c ();
    slow = c ();
    retreats = c ();
    timeouts = c ();
    hpool =
      Array.init Domain_id.capacity (fun _ ->
          Padded_counters.isolate { harr = [||]; hlen = 0 }) }

let router t = t.router

let shard_count t = Router.shards t.router

let wide_span t = t.wide_span

(* ---- history hooks (same discipline as the list locks) ---- *)

let rw_mode reader = if reader then Lockstat.Read else Lockstat.Write

let mode_of h = rw_mode h.reader

let hist_acquired t (h : handle) =
  if Atomic.get History.enabled && Option.is_some t.stats then
    h.span <- History.acquired ~lock:name ~mode:(mode_of h) ~lo:h.lo ~hi:h.hi

let hist_failed t ~mode ~lo ~hi =
  if Atomic.get History.enabled && Option.is_some t.stats then
    History.failed ~lock:name ~mode ~lo ~hi

let hist_released (h : handle) =
  if h.span >= 0 then begin
    if Atomic.get History.enabled then
      History.released ~lock:name ~span:h.span ~mode:(mode_of h) ~lo:h.lo
        ~hi:h.hi;
    h.span <- -1
  end

(* ---- counters ---- *)

let bump c = Padded_counters.incr c (Domain_id.get ())

(* The revocation counters are split by mode, mirroring the drain's
   conflict test: a narrow reader only yields to wide *writers*, so
   read-mostly workloads keep full reader-reader parallelism across the
   narrow/wide boundary. A narrow writer yields to any wide holder. *)
let busy t ~reader s =
  Atomic.get t.counts_w.(s) > 0
  || Atomic.get t.all_w > 0
  || ((not reader)
      && (Atomic.get t.counts_r.(s) > 0 || Atomic.get t.all_r > 0))

let rec any_busy t ~reader s last =
  s <= last && (busy t ~reader s || any_busy t ~reader (s + 1) last)

let raise_counts t ~reader ~first ~last ~all =
  if all then Atomic.incr (if reader then t.all_r else t.all_w)
  else
    let counts = if reader then t.counts_r else t.counts_w in
    for s = first to last do
      Atomic.incr counts.(s)
    done

let lower_counts t ~reader ~first ~last ~all =
  if all then Atomic.decr (if reader then t.all_r else t.all_w)
  else
    let counts = if reader then t.counts_r else t.counts_w in
    for s = last downto first do
      Atomic.decr counts.(s)
    done

(* ---- shard-level plumbing ---- *)

let release_subs t subs =
  List.iter (fun (i, h) -> List_rw.release t.shards.(i) h) subs

let l_acquire t i ~reader sub =
  List_rw.acquire t.shards.(i) ~mode:(rw_mode reader) sub

let l_try t i ~reader sub =
  if reader then List_rw.try_read_acquire t.shards.(i) sub
  else List_rw.try_write_acquire t.shards.(i) sub

let l_timed t i ~reader ~deadline_ns sub =
  if reader then List_rw.read_acquire_opt t.shards.(i) ~deadline_ns sub
  else List_rw.write_acquire_opt t.shards.(i) ~deadline_ns sub

(* ---- narrow path ---- *)

(* Ascending ordered acquisition with the publish-then-check handshake.
   [None] means a wide holder covers one of our shards: everything claimed
   so far has been released and the caller must re-enter via the wide
   list. Callers route the single-shard case ([first = last]) straight
   from the entry points — these functions only see genuine multi-shard
   covers. *)
let narrow_blocking t ~reader ~first ~last r =
  if any_busy t ~reader first last then None
  else
    let rec go i acc =
      if i > last then Some (Narrow (List.rev acc))
      else
        let sub = Router.clamp t.router i r in
        let h = l_acquire t i ~reader sub in
        if busy t ~reader i then begin
          List_rw.release t.shards.(i) h;
          release_subs t acc;
          bump t.retreats;
          None
        end
        else go (i + 1) ((i, h) :: acc)
    in
    go first []

let narrow_try t ~reader ~first ~last r =
  if any_busy t ~reader first last then `Diverted
  else
    let rec go i acc =
      if i > last then `Granted (Narrow (List.rev acc))
      else
        let sub = Router.clamp t.router i r in
        match l_try t i ~reader sub with
        | None ->
          release_subs t acc;
          if acc <> [] then bump t.retreats;
          `Refused
        | Some h ->
          if busy t ~reader i then begin
            List_rw.release t.shards.(i) h;
            release_subs t acc;
            bump t.retreats;
            `Diverted
          end
          else go (i + 1) ((i, h) :: acc)
    in
    go first []

let narrow_timed t ~reader ~deadline_ns ~first ~last r =
  if any_busy t ~reader first last then `Diverted
  else
    let rec go i acc =
      if i > last then `Granted (Narrow (List.rev acc))
      else
        let sub = Router.clamp t.router i r in
        match l_timed t i ~reader ~deadline_ns sub with
        | None ->
          release_subs t acc;
          if acc <> [] then bump t.retreats;
          `Timeout
        | Some h ->
          if busy t ~reader i then begin
            List_rw.release t.shards.(i) h;
            release_subs t acc;
            bump t.retreats;
            `Diverted
          end
          else go (i + 1) ((i, h) :: acc)
    in
    go first []

(* ---- slow narrow path (diverted by a wide holder) ---- *)

let w_acquire t ~reader r = List_rw.acquire t.wide ~mode:(rw_mode reader) r

let w_try t ~reader r =
  if reader then List_rw.try_read_acquire t.wide r
  else List_rw.try_write_acquire t.wide r

let w_timed t ~reader ~deadline_ns r =
  if reader then List_rw.read_acquire_opt t.wide ~deadline_ns r
  else List_rw.write_acquire_opt t.wide ~deadline_ns r

let slow_blocking t ~reader ~first ~last r =
  let wh = w_acquire t ~reader r in
  let rec go i acc =
    if i > last then Slow { wh; subs = List.rev acc }
    else begin
      let sub = Router.clamp t.router i r in
      let h = l_acquire t i ~reader sub in
      go (i + 1) ((i, h) :: acc)
    end
  in
  go first []

let slow_try t ~reader ~first ~last r =
  match w_try t ~reader r with
  | None -> None
  | Some wh ->
    let rec go i acc =
      if i > last then Some (Slow { wh; subs = List.rev acc })
      else
        let sub = Router.clamp t.router i r in
        match l_try t i ~reader sub with
        | Some h -> go (i + 1) ((i, h) :: acc)
        | None ->
          release_subs t acc;
          List_rw.release t.wide wh;
          bump t.retreats;
          None
    in
    go first []

let slow_timed t ~reader ~deadline_ns ~first ~last r =
  match w_timed t ~reader ~deadline_ns r with
  | None -> None
  | Some wh ->
    let rec go i acc =
      if i > last then Some (Slow { wh; subs = List.rev acc })
      else
        let sub = Router.clamp t.router i r in
        match l_timed t i ~reader ~deadline_ns sub with
        | Some h -> go (i + 1) ((i, h) :: acc)
        | None ->
          release_subs t acc;
          List_rw.release t.wide wh;
          bump t.retreats;
          None
    in
    go first []

(* ---- wide path ---- *)

let wide_blocking t ~reader ~first ~last ~all r =
  let wh = w_acquire t ~reader r in
  raise_counts t ~reader ~first ~last ~all;
  (* No clamp: nodes linked into shard [s] are already clamped to span(s),
     so conflict tests against the full range are equivalent. *)
  for s = first to last do
    ignore
      (List_rw.drain_conflicts t.shards.(s) ~reader ~blocking:true
         ~deadline_ns:max_int r)
  done;
  Wide wh

let wide_try t ~reader ~first ~last ~all r =
  match w_try t ~reader r with
  | None -> None
  | Some wh ->
    raise_counts t ~reader ~first ~last ~all;
    let rec drain s =
      s > last
      || (List_rw.drain_conflicts t.shards.(s) ~reader ~blocking:false
            ~deadline_ns:max_int r
          && drain (s + 1))
    in
    if drain first then Some (Wide wh)
    else begin
      lower_counts t ~reader ~first ~last ~all;
      List_rw.release t.wide wh;
      bump t.retreats;
      None
    end

let wide_timed t ~reader ~deadline_ns ~first ~last ~all r =
  match w_timed t ~reader ~deadline_ns r with
  | None -> None
  | Some wh ->
    raise_counts t ~reader ~first ~last ~all;
    let rec drain s =
      s > last
      || (List_rw.drain_conflicts t.shards.(s) ~reader ~blocking:true
            ~deadline_ns r
          && drain (s + 1))
    in
    if drain first then Some (Wide wh)
    else begin
      lower_counts t ~reader ~first ~last ~all;
      List_rw.release t.wide wh;
      bump t.retreats;
      None
    end

(* ---- public acquisition surface ---- *)

let is_wide t n = n > t.wide_span && n > 1

(* Exactly one counter bump per grant; [snapshot] sums the four. The
   wide/slow counters therefore count *grants* — failed attempts show up
   as [retreats] and [timeouts]. *)
let finish_grant t grant =
  (match grant with
   | Single -> bump t.single
   | Narrow _ -> bump t.multi
   | Slow _ -> bump t.slow
   | Wide _ -> bump t.wides);
  grant

let mk t ~mode ~reader ~lo ~hi ~t0 ~s ~sh grant =
  let p = t.hpool.(Domain_id.get ()) in
  let h =
    if p.hlen = 0 then { reader; lo; hi; grant; s; sh; span = -1 }
    else begin
      let n = p.hlen - 1 in
      p.hlen <- n;
      let h = p.harr.(n) in
      h.reader <- reader;
      h.lo <- lo;
      h.hi <- hi;
      h.grant <- grant;
      h.s <- s;
      h.sh <- sh;
      h.span <- -1;
      h
    end
  in
  hist_acquired t h;
  (match t.stats with
   | None -> ()
   | Some st -> Lockstat.add st mode (Clock.now_ns () - t0));
  h

let mk_multi t ~mode ~reader ~lo ~hi ~t0 grant =
  mk t ~mode ~reader ~lo ~hi ~t0 ~s:(-1) ~sh:no_sub (finish_grant t grant)

(* The entry points route [first = last] — the case the frontend exists
   for — through a straight-line sequence whose only allocation is the
   returned handle: counter pre-check, one sub-lock acquisition, counter
   post-check. Everything else goes through the narrow/slow/wide grant
   machinery. *)
let acquire t ~mode r =
  let reader = match mode with Lockstat.Read -> true | Lockstat.Write -> false in
  let t0 = match t.stats with None -> 0 | Some _ -> Clock.now_ns () in
  let lo = Range.lo r and hi = Range.hi r in
  let first = Router.shard_of_point t.router lo in
  let last = Router.shard_of_point t.router (hi - 1) in
  if first = last then begin
    if not (busy t ~reader first) then begin
      let sh = l_acquire t first ~reader r in
      if busy t ~reader first then begin
        List_rw.release t.shards.(first) sh;
        bump t.retreats;
        mk_multi t ~mode ~reader ~lo ~hi ~t0
          (slow_blocking t ~reader ~first ~last r)
      end
      else begin
        bump t.single;
        mk t ~mode ~reader ~lo ~hi ~t0 ~s:first ~sh Single
      end
    end
    else
      mk_multi t ~mode ~reader ~lo ~hi ~t0
        (slow_blocking t ~reader ~first ~last r)
  end
  else begin
    let n = last - first + 1 in
    let grant =
      if is_wide t n then
        wide_blocking t ~reader ~first ~last ~all:(n = shard_count t) r
      else
        match narrow_blocking t ~reader ~first ~last r with
        | Some g -> g
        | None -> slow_blocking t ~reader ~first ~last r
    in
    mk_multi t ~mode ~reader ~lo ~hi ~t0 grant
  end

let read_acquire t r = acquire t ~mode:Lockstat.Read r

let write_acquire t r = acquire t ~mode:Lockstat.Write r

let try_tail t ~mode ~reader ~lo ~hi ~t0 = function
  | Some g -> Some (mk_multi t ~mode ~reader ~lo ~hi ~t0 g)
  | None ->
    hist_failed t ~mode ~lo ~hi;
    None

let try_acquire t ~mode r =
  let reader = match mode with Lockstat.Read -> true | Lockstat.Write -> false in
  let t0 = match t.stats with None -> 0 | Some _ -> Clock.now_ns () in
  let lo = Range.lo r and hi = Range.hi r in
  let first = Router.shard_of_point t.router lo in
  let last = Router.shard_of_point t.router (hi - 1) in
  if first = last then begin
    if not (busy t ~reader first) then
      match l_try t first ~reader r with
      | None ->
        hist_failed t ~mode ~lo ~hi;
        None
      | Some sh ->
        if busy t ~reader first then begin
          List_rw.release t.shards.(first) sh;
          bump t.retreats;
          try_tail t ~mode ~reader ~lo ~hi ~t0
            (slow_try t ~reader ~first ~last r)
        end
        else begin
          bump t.single;
          Some (mk t ~mode ~reader ~lo ~hi ~t0 ~s:first ~sh Single)
        end
    else
      try_tail t ~mode ~reader ~lo ~hi ~t0
        (slow_try t ~reader ~first ~last r)
  end
  else begin
    let n = last - first + 1 in
    let grant =
      if is_wide t n then
        wide_try t ~reader ~first ~last ~all:(n = shard_count t) r
      else
        match narrow_try t ~reader ~first ~last r with
        | `Granted g -> Some g
        | `Refused -> None
        | `Diverted -> slow_try t ~reader ~first ~last r
    in
    try_tail t ~mode ~reader ~lo ~hi ~t0 grant
  end

let try_read_acquire t r = try_acquire t ~mode:Lockstat.Read r

let try_write_acquire t r = try_acquire t ~mode:Lockstat.Write r

let timed_tail t ~mode ~reader ~lo ~hi ~t0 = function
  | Some g -> Some (mk_multi t ~mode ~reader ~lo ~hi ~t0 g)
  | None ->
    bump t.timeouts;
    hist_failed t ~mode ~lo ~hi;
    None

let acquire_opt t ~mode ~deadline_ns r =
  let reader = match mode with Lockstat.Read -> true | Lockstat.Write -> false in
  let t0 = match t.stats with None -> 0 | Some _ -> Clock.now_ns () in
  let lo = Range.lo r and hi = Range.hi r in
  let first = Router.shard_of_point t.router lo in
  let last = Router.shard_of_point t.router (hi - 1) in
  if first = last then begin
    if not (busy t ~reader first) then
      match l_timed t first ~reader ~deadline_ns r with
      | None ->
        bump t.timeouts;
        hist_failed t ~mode ~lo ~hi;
        None
      | Some sh ->
        if busy t ~reader first then begin
          List_rw.release t.shards.(first) sh;
          bump t.retreats;
          timed_tail t ~mode ~reader ~lo ~hi ~t0
            (slow_timed t ~reader ~deadline_ns ~first ~last r)
        end
        else begin
          bump t.single;
          Some (mk t ~mode ~reader ~lo ~hi ~t0 ~s:first ~sh Single)
        end
    else
      timed_tail t ~mode ~reader ~lo ~hi ~t0
        (slow_timed t ~reader ~deadline_ns ~first ~last r)
  end
  else begin
    let n = last - first + 1 in
    let grant =
      if is_wide t n then
        wide_timed t ~reader ~deadline_ns ~first ~last
          ~all:(n = shard_count t) r
      else
        match narrow_timed t ~reader ~deadline_ns ~first ~last r with
        | `Granted g -> Some g
        | `Timeout -> None
        | `Diverted -> slow_timed t ~reader ~deadline_ns ~first ~last r
    in
    timed_tail t ~mode ~reader ~lo ~hi ~t0 grant
  end

let read_acquire_opt t ~deadline_ns r =
  acquire_opt t ~mode:Lockstat.Read ~deadline_ns r

let write_acquire_opt t ~deadline_ns r =
  acquire_opt t ~mode:Lockstat.Write ~deadline_ns r

let recycle t h =
  (* Clear the pointer fields so a pooled handle doesn't pin released
     sub-handles (or grant lists) against the GC. *)
  h.grant <- Single;
  h.sh <- no_sub;
  let p = t.hpool.(Domain_id.get ()) in
  let cap = Array.length p.harr in
  if p.hlen < cap then begin
    p.harr.(p.hlen) <- h;
    p.hlen <- p.hlen + 1
  end
  else if cap = 0 then begin
    p.harr <- Array.make hstack_cap h;
    p.hlen <- 1
  end
(* cap reached: drop the handle to the GC *)

let release t h =
  hist_released h;
  (match h.grant with
   | Single -> List_rw.release t.shards.(h.s) h.sh
   | Narrow subs -> release_subs t subs
   | Slow { wh; subs } ->
     release_subs t subs;
     List_rw.release t.wide wh
   | Wide wh ->
     let first = Router.shard_of_point t.router h.lo in
     let last = Router.shard_of_point t.router (h.hi - 1) in
     let all = last - first + 1 = shard_count t in
     lower_counts t ~reader:h.reader ~first ~last ~all;
     List_rw.release t.wide wh);
  recycle t h

let with_read t r f =
  let h = read_acquire t r in
  match f () with
  | v -> release t h; v
  | exception e -> release t h; raise e

let with_write t r f =
  let h = write_acquire t r in
  match f () with
  | v -> release t h; v
  | exception e -> release t h; raise e

let range_of_handle h = Range.v ~lo:h.lo ~hi:h.hi

let is_reader h = h.reader

(* ---- observability ---- *)

type snapshot = {
  acquisitions : int;
  single_shard : int;
  multi_shard : int;
  wide_path : int;
  slow_path : int;
  retreats : int;
  timeouts : int;
  shard_loads : int array;
  sub : Rlk.Metrics.snapshot;
}

let snapshot (t : t) : snapshot =
  let add (a : Rlk.Metrics.snapshot) (b : Rlk.Metrics.snapshot) :
      Rlk.Metrics.snapshot =
    (* Histograms are sorted assoc lists (upper_bound_ns, count): merge
       bucket-wise. *)
    let rec merge_hist h1 h2 =
      match h1, h2 with
      | [], h | h, [] -> h
      | (u1, c1) :: r1, (u2, c2) :: r2 ->
        if u1 = u2 then (u1, c1 + c2) :: merge_hist r1 r2
        else if u1 < u2 then (u1, c1) :: merge_hist r1 h2
        else (u2, c2) :: merge_hist h1 r2
    in
    { acquisitions = a.acquisitions + b.acquisitions;
      fast_path_hits = a.fast_path_hits + b.fast_path_hits;
      restarts = a.restarts + b.restarts;
      cas_failures = a.cas_failures + b.cas_failures;
      overlap_waits = a.overlap_waits + b.overlap_waits;
      validation_failures = a.validation_failures + b.validation_failures;
      escalations = a.escalations + b.escalations;
      timeouts = a.timeouts + b.timeouts;
      parks = a.parks + b.parks;
      wakes = a.wakes + b.wakes;
      wait_hist = merge_hist a.wait_hist b.wait_hist }
  in
  let sub =
    Array.fold_left
      (fun acc s -> add acc (List_rw.metrics s))
      (List_rw.metrics t.wide) t.shards
  in
  let single_shard = Padded_counters.sum t.single in
  let multi_shard = Padded_counters.sum t.multi in
  let wide_path = Padded_counters.sum t.wides in
  let slow_path = Padded_counters.sum t.slow in
  { acquisitions = single_shard + multi_shard + wide_path + slow_path;
    single_shard;
    multi_shard;
    wide_path;
    slow_path;
    retreats = Padded_counters.sum t.retreats;
    timeouts = Padded_counters.sum t.timeouts;
    shard_loads =
      Array.map (fun s -> (List_rw.metrics s).Rlk.Metrics.acquisitions)
        t.shards;
    sub }

let reset_metrics (t : t) =
  Padded_counters.reset t.single;
  Padded_counters.reset t.multi;
  Padded_counters.reset t.wides;
  Padded_counters.reset t.slow;
  Padded_counters.reset t.retreats;
  Padded_counters.reset t.timeouts;
  Array.iter List_rw.reset_metrics t.shards;
  List_rw.reset_metrics t.wide

let pp_snapshot ppf (s : snapshot) =
  Format.fprintf ppf
    "acq=%d single=%d multi=%d wide=%d slow=%d retreats=%d timeouts=%d \
     loads=[%s] | sub: %a"
    s.acquisitions s.single_shard s.multi_shard s.wide_path s.slow_path
    s.retreats s.timeouts
    (String.concat ";"
       (Array.to_list (Array.map string_of_int s.shard_loads)))
    Rlk.Metrics.pp_snapshot s.sub

let to_json (s : snapshot) =
  Printf.sprintf
    "{\"acquisitions\":%d,\"single_shard\":%d,\"multi_shard\":%d,\
     \"wide_path\":%d,\"slow_path\":%d,\"retreats\":%d,\"timeouts\":%d,\
     \"shard_loads\":[%s],\"sub\":%s}"
    s.acquisitions s.single_shard s.multi_shard s.wide_path s.slow_path
    s.retreats s.timeouts
    (String.concat ","
       (Array.to_list (Array.map string_of_int s.shard_loads)))
    (Rlk.Metrics.to_json s.sub)

let holders t =
  List.concat
    (List.init (shard_count t) (fun i ->
         List.map (fun h -> (i, h)) (List_rw.holders t.shards.(i))))

let wide_holders t = List_rw.holders t.wide

(* ---- packaging against the common signatures ---- *)

let impl ~shards ~space ?wide_span () : Rlk.Intf.rw_impl =
  (module struct
    type nonrec t = t

    type nonrec handle = handle

    let name = name

    let create ?stats () = create ?stats ~shards ~space ?wide_span ()

    let read_acquire = read_acquire

    let write_acquire = write_acquire

    let try_read_acquire = try_read_acquire

    let try_write_acquire = try_write_acquire

    let read_acquire_opt = read_acquire_opt

    let write_acquire_opt = write_acquire_opt

    let release = release
  end : Rlk.Intf.RW)
