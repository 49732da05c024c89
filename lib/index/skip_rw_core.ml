open Rlk_primitives
module Fault = Rlk_chaos.Fault
module Range = Rlk.Range

(* Functorized body of {!Skip_rw}: the list core ({!Rlk.List_rw_core})
   instantiated with a tower locator. The grant semantics are
   {!Rlk.List_rw}'s with the paper's default reader preference (Section
   4.2's insert-then-validate protocol); the locator only changes where
   the insert walk and the writer validation scan start, so locating the
   insertion/conflict window costs O(log n) in the number of live ranges
   instead of a head-to-position list walk.

   Layering:

   - Level 0 (the "bottom") is the list core's marked-link list, run by
     the list core's own code: insert with CAS, validate, mark-and-
     retreat, helper unlink. It is the *authoritative*
     structure: every correctness argument of the list lock carries over
     unchanged, and a protocol fix lands in both locks at once.

   - Levels 1..max_level-1 are hint towers over a suffix of the bottom
     nodes (coin-flip height, as in lib/skiplist), kept in the nodes'
     [tower] cells. Towers only accelerate the descent to the conflict
     window; a stale or missing tower entry can never grant a wrong lock,
     only slow a walk. All tower *mutations* are serialized by a per-lock
     writer mutex, making the hint layers single-writer: plain stores, no
     per-level CAS loops, and — crucially — no resurrection hazard where a
     racing unlinker re-installs a pointer to a node that has already
     been released. Tower *reads* (the descent) stay lock-free.

   - The conflict window is bounded by [maxw], a monotone maximum of all
     granted widths: a node whose [lo] is below [node.lo - maxw] cannot
     overlap [node], so both the insert walk and the writer validation
     start at the tower-descended predecessor of that window instead of
     the head. [maxw] is re-read on every scan, and it is raised (the
     locator's [before_insert]) before the requesting node can link, so a
     scan that must see a conflicting node always uses a window wide
     enough to contain it.

   - Order on release: tower unlink (the locator's [releasing], under
     the guard) comes strictly *before* the bottom mark. Helper unlinks
     at the bottom only ever see marked nodes, and a marked node is
     guaranteed to be out of every tower. A descent that reaches a
     released node finds its tower cleared and, once the node is marked,
     re-descends; the node is never reused, so its range stays valid.

   The instance fixes the list core's options: no empty-list fast path
   (a head-marked holder would bypass the towers), no fairness gate, and
   reader preference. Functorized over {!Traced_atomic.SIM} like the
   other cores: the production instance runs on {!Traced_atomic.Real};
   the model checker instantiates a fresh stack per explored run
   (constant tower height, two levels) and explores the insert/validate/
   tower interleavings exhaustively. The list core registers this lock's
   chaos points under [skip_rw.*]; [skip_rw.tower] is the index's own. *)

let fp_tower = Fault.point "skip_rw.tower"

module type CFG = sig
  val max_level : int
  (** Total number of levels including the bottom list; [>= 1]. *)

  val height : unit -> int
  (** Tower height drawn per granted node, clamped to
      [1 .. max_level]. [1] means bottom-only (no tower entry). Must be
      deterministic under the model checker (the model stack uses a
      constant). *)
end

(* Generative ([()]): applying the functor creates the instance's own
   [tail] cells, so the model checker gets fresh ones per explored run. *)
module Make (Sim : Traced_atomic.SIM) (Cfg : CFG) () = struct
  module Guard = Rwlock_core.Make (Sim)

  let tower_cells = Cfg.max_level - 1

  module N =
    Rlk.Node_core.Make_towered (Sim)
      (struct
        let tower_cells = tower_cells
      end)

  (* Ends every tower level, so a linked tower cell always holds [Some]: a
     node's linked cells are exactly its leading [Some] cells, and the
     node record needs no height field. [lo = max_int] stops every walk
     before it. *)
  let tail =
    { N.lo = max_int; hi = max_int; reader = false; span = -1;
      next = Sim.A.make N.nil; live_link = N.nil; self_link = N.nil;
      tower = [||] }

  module Tower = struct
    type t = {
      sentinel : N.t;  (* [lo = hi = min_int], never marked, full tower *)
      maxw : int Sim.A.t;  (* monotone max of all granted widths *)
      guard : Guard.t;  (* serializes every tower mutation *)
      preds : N.t array;  (* [tower_preds]' result; owned by the guard *)
    }

    let name = "skip-rw"

    let writers_only = false

    let create () =
      { sentinel =
          { N.lo = min_int; hi = min_int; reader = false; span = -1;
            next = Sim.A.make_contended N.nil; live_link = N.nil;
            self_link = N.nil;
            tower = Array.init tower_cells (fun _ -> Sim.A.make (Some tail)) };
        maxw = Sim.A.make_contended 1;
        guard = Guard.create ();
        preds = Array.make (max tower_cells 1) tail }

    let head t = t.sentinel.N.next

    (* ---- conflict window ----

       [maxw] only grows, and it is raised to at least a node's width
       before that node can link. So for any linked node [c]:
       [c.hi <= c.lo + maxw] holds whenever [maxw] is read *after* [c]
       linked — which every walk does, because [start] re-reads [maxw]
       each time. Hence nodes with [lo < node.lo - maxw] cannot overlap
       [node], and walks may start at the last node below that window;
       any node concurrently inserted behind the start with a smaller
       [lo] precedes [node] by the same bound. Ranges are non-negative
       ([Range.v] demands [0 <= lo]), so the subtraction cannot underflow
       below [min_int + 1] and the sentinel ([lo = min_int]) always
       precedes every window. *)
    let rec before_insert t r =
      let w = Range.hi r - Range.lo r in
      let cur = Sim.A.get t.maxw in
      if w > cur && not (Sim.A.compare_and_set t.maxw cur w) then
        before_insert t r

    (* ---- tower descent (lock-free) ----

       Last *unmarked* node with [lo < key] at the bottom level. The tower
       levels narrow the search; the bottom walk finishes it. The returned
       node can of course be marked by the time the caller uses it — the
       list core's CAS (or its own marked-link check) detects that and
       restarts through [start]. If the descent itself lands on a node
       that is already marked (it raced that node's release), we
       re-descend: towers only shrink during such a race, so this
       terminates.

       The walks are top-level recursions with explicit arguments, so a
       descent allocates nothing. *)

    (* Last node from [p] along tower cell [cell] with [lo < key]. *)
    let rec advance cell key (p : N.t) =
      match Sim.A.get p.N.tower.(cell) with
      | Some c when c.N.lo < key -> advance cell key c
      | _ -> p

    let rec descend key p cell =
      if cell < 0 then p else descend key (advance cell key p) (cell - 1)

    (* Last unmarked node from [p] along the bottom list with
       [lo < key]; [last] if none. *)
    let rec bottom key (last : N.t) (p : N.t) =
      let pl = Sim.A.get p.N.next in
      let last = if pl.N.marked then last else p in
      match pl.N.succ with
      | Some c when c.N.lo < key -> bottom key last c
      | _ -> last

    let rec find_pred t key =
      let start = descend key t.sentinel (tower_cells - 1) in
      if start != t.sentinel && (Sim.A.get start.N.next).N.marked then
        find_pred t key
      else bottom key start start

    let start t (node : N.t) =
      (find_pred t (node.N.lo - Sim.A.get t.maxw)).N.next

    (* ---- tower maintenance (under the guard) ----

       While we hold the guard, no towered node can be tower-unlinked,
       hence none can reach its bottom mark: every tower pointer the walks
       below follow is to a live node. *)

    (* Per-cell predecessors of [key] under the guard: one descent in
       which each level's walk resumes from the level above, so the whole
       thing is O(log n) expected — NOT a fresh O(n) head walk per level.
       The predicate is strictly [c.lo < key]: ties are excluded so the
       returned pred can never sit *past* a same-lo node whose per-level
       order within the equal-lo group differs between levels (each
       [granted] prepends to the group at every cell it owns, so groups
       are consistently ordered only among cells a node actually
       spans). The result is the lock's one [preds] array, which only
       the guard holder touches. *)
    let rec fill_preds preds key p cell =
      if cell >= 0 then begin
        let p = advance cell key p in
        preds.(cell) <- p;
        fill_preds preds key p (cell - 1)
      end

    let tower_preds t key =
      fill_preds t.preds key t.sentinel (tower_cells - 1);
      t.preds

    let granted t (node : N.t) =
      let h = Cfg.height () in
      let h =
        if h < 1 then 1 else if h > Cfg.max_level then Cfg.max_level else h
      in
      if h > 1 then begin
        if Atomic.get Fault.enabled then Fault.hit fp_tower;
        Guard.write_acquire t.guard;
        let preds = tower_preds t node.N.lo in
        for cell = 0 to h - 2 do
          let pred = preds.(cell) in
          Sim.A.set node.N.tower.(cell) (Sim.A.get pred.N.tower.(cell));
          Sim.A.set pred.N.tower.(cell) node.N.live_link.N.succ
        done;
        Guard.write_release t.guard
      end

    (* Number of tower cells [node] is linked at, counting from [cell]. *)
    let rec linked_cells (node : N.t) cell =
      if cell < tower_cells && Option.is_some (Sim.A.get node.N.tower.(cell))
      then linked_cells node (cell + 1)
      else cell

    (* Follow tower cell [cell] from [p] while the next node is not
       [node] and starts at or before it: stops at [node]'s predecessor
       when [node] is linked at that cell. *)
    let rec pred_in_group cell (node : N.t) (p : N.t) =
      match Sim.A.get p.N.tower.(cell) with
      | Some c when c != node && c.N.lo <= node.N.lo ->
        pred_in_group cell node c
      | _ -> p

    (* Tower first, then (in the list core) mark: a marked node is never
       in a tower, so helper unlink at the bottom stays safe. Only
       the node's own [granted] links its cells, so the unguarded test of
       cell 0 is stable. *)
    let releasing t (node : N.t) =
      if tower_cells > 0 && Option.is_some (Sim.A.get node.N.tower.(0)) then
      begin
        if Atomic.get Fault.enabled then Fault.hit fp_tower;
        Guard.write_acquire t.guard;
        let preds = tower_preds t node.N.lo in
        for cell = linked_cells node 1 - 1 downto 0 do
          (* The strict descent stops before the equal-lo group; finish
             with a short forward walk to the link that targets [node]. *)
          let pred = pred_in_group cell node preds.(cell) in
          (match Sim.A.get pred.N.tower.(cell) with
           | Some c when c == node ->
             Sim.A.set pred.N.tower.(cell) (Sim.A.get node.N.tower.(cell))
           | _ -> ());
          Sim.A.set node.N.tower.(cell) None
        done;
        Guard.write_release t.guard
      end
  end

  (* The gate functor is applied only to satisfy the list core's
     signature: skip-rw never creates a gate. *)
  module Core =
    Rlk.List_rw_core.Make_located (Sim) (N)
      (Rlk.Fairgate_core.Make (Sim) (Guard))
      (Tower)

  include Core

  let create ?stats ?park () = Core.create ?stats ?park ()

  (* ---- test probes ---- *)

  (* Quiescent structural audit (no concurrent operations): the bottom
     list must be sorted by [lo]; every tower level must end at [tail];
     every tower entry must point at an unmarked node that is
     bottom-reachable; a node linked at level [l] must be linked at every
     level below it. Returns the live (unmarked) range count. *)
  let check_structure t =
    let exception Bad of string in
    let sentinel = t.index.Tower.sentinel in
    try
      let bottom_nodes = ref [] in
      let live = ref 0 in
      let rec walk (p : N.t) prev_lo =
        match (Sim.A.get p.N.next).N.succ with
        | None -> ()
        | Some c ->
          if c.N.lo < prev_lo then
            raise
              (Bad (Printf.sprintf "bottom unsorted: %d after %d" c.N.lo prev_lo));
          bottom_nodes := c :: !bottom_nodes;
          if not (Sim.A.get c.N.next).N.marked then incr live;
          walk c c.N.lo
      in
      walk sentinel min_int;
      for cell = tower_cells - 1 downto 0 do
        let rec tower_walk (p : N.t) prev_lo =
          match Sim.A.get p.N.tower.(cell) with
          | None ->
            raise (Bad (Printf.sprintf "tower level %d misses its tail" (cell + 1)))
          | Some c when c == tail -> ()
          | Some c ->
            if (Sim.A.get c.N.next).N.marked then
              raise (Bad (Printf.sprintf "marked node in tower level %d" (cell + 1)));
            if c.N.lo < prev_lo then
              raise (Bad (Printf.sprintf "tower level %d unsorted" (cell + 1)));
            if Tower.linked_cells c 0 < cell + 1 then
              raise (Bad (Printf.sprintf "tower level %d node unlinked below"
                            (cell + 1)));
            if not (List.memq c !bottom_nodes) then
              raise (Bad (Printf.sprintf "tower level %d node not in bottom list"
                            (cell + 1)));
            tower_walk c c.N.lo
        in
        tower_walk sentinel min_int
      done;
      Ok !live
    with Bad msg -> Error msg
end
