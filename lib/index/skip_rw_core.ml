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
     nodes, kept in the nodes' [tower] cells. A node's height [h] is
     drawn when the node is allocated, and its tower has exactly [h - 1]
     cells (cell [l-1] is level [l]); a height-1 node shares the empty
     array. So every cell a node has is linked while it holds the lock,
     and a walk that reaches a node at some level finds a cell there.
     Towers only accelerate the descent to the conflict window; a stale
     or missing tower entry can never grant a wrong lock, only slow a
     walk.

   - Each tower level is a Harris list built from the bottom list's link
     algebra, and no grant or release takes a lock. A cell holds a link:
     the successor's canonical [live_link] while its node is at that
     level (the [tail]'s at the end of a level), the marked twin of that
     link once its node is leaving the level ("frozen"), and [N.nil]
     before the node is linked and after it has left. So no CAS
     allocates. A grant descends once, carrying each level's
     predecessor on the stack, and links its levels bottom-up: store
     [node.cell := pred's link], then CAS [pred.cell] from that link to
     [node.live_link]. A release freezes its cells top-down, then
     unlinks each level top-down by CASing [pred.cell] from
     [node.live_link] to the unmarked successor, then resets its cells to
     [N.nil]. A level search that meets a frozen cell helps that node out
     with the same CAS (Harris), so no loop waits on another domain.

     Soundness. A frozen cell's successor never changes: nothing CASes a
     cell it read marked, and only the releaser resets it. A CAS on
     [pred.cell] expects a live (unmarked, non-nil) link, so it succeeds
     only while [pred] is at the level: a live link in a cell means its
     node has been linked there and not unlinked, because a node is
     unlinked only after it is frozen and is reset only after it is
     unlinked. The hazard is resurrection, an unlinker re-installing a
     released node X, which would leave the level pointing at X's [N.nil]
     cells. X re-enters a level only when its frozen predecessor Z is
     unlinked (Z's pred takes Z's successor, X). That CAS succeeds only
     while Z is still linked, and X cannot have been unlinked before it:
     Z's frozen cell holds X's marked link, so no cell holds
     [X.live_link], which X's unlink expects. So a released node is never
     re-installed. The releaser knows its node has left a level once its
     walk passes the node's equal-[lo] group without meeting it: a linker
     inserts at the front of the group, so the group is sorted behind
     [pred], and the walk follows only live links. A descent from the
     sentinel therefore only reaches nodes that are, or were while it
     read them, at the level, and [find_pred]'s re-descent over a marked
     landing still terminates.

   - The conflict window is bounded by [maxw], a monotone maximum of all
     granted widths: a node whose [lo] is below [node.lo - maxw] cannot
     overlap [node], so both the insert walk and the writer validation
     start at the tower-descended predecessor of that window instead of
     the head. [maxw] is re-read on every scan, and it is raised (the
     locator's [before_insert]) before the requesting node can link, so a
     scan that must see a conflicting node always uses a window wide
     enough to contain it.

   - Order on release: tower unlink (the locator's [releasing]) comes
     strictly *before* the bottom mark. Helper unlinks at the bottom only
     ever see marked nodes, and a marked node is guaranteed to be out of
     every tower. A descent that reaches a released node finds its tower
     cleared and, once the node is marked, re-descends; the node is never
     reused, so its range stays valid.

   The instance fixes the list core's options: no empty-list fast path
   (a head-marked holder would bypass the towers), no fairness gate, and
   reader preference. Functorized over {!Traced_atomic.SIM} like the
   other cores: production runs [Skip_rw_core_real], this text compiled
   against {!Traced_atomic.Real} and the generated list core
   (lib/index/dune); the model checker instantiates a fresh stack per
   explored run (two levels at a constant height, three levels with one
   untowered and one two-cell node, or three levels with two two-cell
   nodes) and explores the insert/validate/tower interleavings
   exhaustively. The list core registers this lock's chaos points under
   [skip_rw.*]; [skip_rw.tower] and [skip_rw.tower_freeze.skip] are the
   index's own. *)

let fp_tower = Fault.point "skip_rw.tower"

(* Unsound skip: unlink a node from its tower levels without freezing its
   cells first, so a grant that links behind it in the meantime is lost
   (the model checker's skip-tower-race mutation row). *)
let fp_tower_freeze_skip = Fault.point "skip_rw.tower_freeze.skip"

module type CFG = sig
  val max_level : int
  (** Total number of levels including the bottom list; [>= 1]. *)

  val height : unit -> int
  (** Tower height drawn per allocated node, clamped to
      [1 .. max_level]: a node that is retried or whose try fails has
      drawn one too. [1] means bottom-only (no tower cells). Must be
      deterministic under the model checker (the model stacks use a
      constant, or the fiber's [Sim.domain_id]). *)
end

(* Generative ([()]): applying the functor creates the instance's own
   [tail], so the model checker gets a fresh one per explored run. *)
module Make (Sim : Traced_atomic.SIM) (Cfg : CFG) () = struct
  let tower_cells = Cfg.max_level - 1

  (* A node's tower is sized to its height, drawn when it is allocated:
     [h - 1] cells, none (the shared empty array) at height 1. *)
  module N =
    Rlk.Node_core.Make_towered (Sim)
      (struct
        let tower_cells () =
          let h = Cfg.height () in
          if h <= 1 then 0 else if h > Cfg.max_level then tower_cells
          else h - 1
      end)

  (* Ends every tower level: an end-of-level cell holds [tail.live_link],
     so a linked cell never holds [N.nil] (an unlinked cell's value), and
     a node's linked cells are exactly its leading non-nil cells. [lo =
     max_int] stops every walk before it, as it does at [N.nil_node]. Its
     links are built as [N.alloc] builds a node's, so a frozen
     end-of-level cell holds [tail.self_link]. *)
  let tail =
    let n =
      { N.lo = max_int; hi = max_int; reader = false; span = -1;
        next = Sim.A.make N.nil; live_link = N.nil; self_link = N.nil;
        tower = [||] }
    in
    let live = { N.marked = false; succ = n; twin = N.nil } in
    let self = { N.marked = true; succ = n; twin = live } in
    live.N.twin <- self;
    n.N.live_link <- live;
    n.N.self_link <- self;
    n

  module Tower = struct
    type t = {
      sentinel : N.t;  (* [lo = hi = min_int], never marked, full tower *)
      maxw : int Sim.A.t;  (* monotone max of all granted widths *)
    }

    let name = "skip-rw"

    let writers_only = false

    let create () =
      { sentinel =
          { N.lo = min_int; hi = min_int; reader = false; span = -1;
            next = Sim.A.make_contended N.nil; live_link = N.nil;
            self_link = N.nil;
            tower =
              Array.init tower_cells (fun _ -> Sim.A.make tail.N.live_link) };
        maxw = Sim.A.make_contended 1 }

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

    (* ---- tower descent (read-only) ----

       Last *unmarked* node with [lo < key] at the bottom level. The tower
       levels narrow the search; the bottom walk finishes it. The returned
       node can of course be marked by the time the caller uses it — the
       list core's CAS (or its own marked-link check) detects that and
       restarts through [start]. If the descent itself lands on a node
       that is already marked (it raced that node's release), we
       re-descend: a marked node has left every tower, and a released
       node is never re-installed, so this terminates.

       The descent follows frozen cells like live ones: a frozen cell's
       successor is a node that is still at the level or was when the
       cell froze. The walks are top-level recursions with explicit
       arguments, so a descent allocates nothing. [tail] and [N.nil_node]
       both start at [max_int], so the [lo < key] test alone ends every
       walk, at the end of a level and at a cell its node's release
       cleared. *)

    (* Last node from [p] along tower cell [cell] with [lo < key]. *)
    let rec advance cell key (p : N.t) =
      let c = (Sim.A.get p.N.tower.(cell)).N.succ in
      if c.N.lo < key then advance cell key c else p

    let rec descend key p cell =
      if cell < 0 then p else descend key (advance cell key p) (cell - 1)

    (* Last unmarked node from [p] along the bottom list with
       [lo < key]; [last] if none. *)
    let rec bottom key (last : N.t) (p : N.t) =
      let pl = Sim.A.get p.N.next in
      let last = if pl.N.marked then last else p in
      let c = pl.N.succ in
      if c.N.lo < key then bottom key last c else last

    let rec find_pred t key =
      let start = descend key t.sentinel (tower_cells - 1) in
      if start != t.sentinel && (Sim.A.get start.N.next).N.marked then
        find_pred t key
      else bottom key start start

    let start t (node : N.t) =
      (find_pred t (node.N.lo - Sim.A.get t.maxw)).N.next

    (* ---- tower maintenance (lock-free) ----

       A cell is live when it holds neither a marked link nor [N.nil]:
       its node is then at that level. *)
    let dead (l : N.link) = l.N.marked || l == N.nil

    (* Last node with [lo < key] from [p] along tower cell [cell],
       stepping only along live links and helping out (Harris) every
       frozen node it would step onto. The predicate is strict, so a grant
       links at the front of its equal-[lo] group and a release's walk
       starts before its group. If [p] turns out to have left the level,
       the search starts over from the sentinel. *)
    let rec search t cell key (p : N.t) =
      let pl = Sim.A.get p.N.tower.(cell) in
      if dead pl then
        search t cell key
          (from_top t key (tower_cells - 1) (cell + 1) t.sentinel)
      else
        let c = pl.N.succ in
        if c.N.lo >= key then p
        else
          let cl = Sim.A.get c.N.tower.(cell) in
          if cl.N.marked then begin
            ignore (Sim.A.compare_and_set p.N.tower.(cell) pl (N.unmarked cl));
            search t cell key p
          end
          else search t cell key c

    (* [search] from [p] at every level from [cell] down to [stop]. *)
    and from_top t key cell stop p =
      if cell < stop then p
      else from_top t key (cell - 1) stop (search t cell key p)

    (* Link [node] at tower cell [cell] behind [p], found by [search]. *)
    let rec link_at t (node : N.t) cell (p : N.t) =
      let pl = Sim.A.get p.N.tower.(cell) in
      if dead pl || pl.N.succ.N.lo < node.N.lo then
        link_at t node cell (search t cell node.N.lo p)
      else begin
        Sim.A.set node.N.tower.(cell) pl;
        (* A stall here leaves [node]'s cell pointing at a successor that
           a racing release may be freezing or unlinking. *)
        if Atomic.get Fault.enabled then Fault.hit fp_tower;
        if not (Sim.A.compare_and_set p.N.tower.(cell) pl node.N.live_link)
        then link_at t node cell p
      end

    (* The predecessors, one per level from [cell] down, live on the
       stack: levels link bottom-up as the recursion returns, so a node
       is at level [l] only once it is at every level below it. *)
    let rec link_levels t (node : N.t) cell p =
      if cell >= 0 then begin
        let p = search t cell node.N.lo p in
        link_levels t node (cell - 1) p;
        link_at t node cell p
      end

    let granted t (node : N.t) =
      let cells = Array.length node.N.tower in
      if cells > 0 then
        link_levels t node (cells - 1)
          (from_top t node.N.lo (tower_cells - 1) cells t.sentinel)

    (* Freeze [node]'s cells from [cell] down: each moves to its marked
       twin, after which no CAS changes it. *)
    let rec freeze (node : N.t) cell =
      if cell >= 0 then begin
        let l = Sim.A.get node.N.tower.(cell) in
        if l.N.marked
           || Sim.A.compare_and_set node.N.tower.(cell) l (N.marked l)
        then freeze node (cell - 1)
        else freeze node cell
      end

    (* Unlink the frozen [node] from tower cell [cell], walking its
       equal-[lo] group from [p] (at the level, [p.lo <= node.lo]) and
       helping out frozen group members in front of it. A walk that
       passes the group without meeting [node] finds it already helped
       out. *)
    let rec unlink_at t (node : N.t) cell (p : N.t) =
      let pl = Sim.A.get p.N.tower.(cell) in
      if dead pl then unlink_at t node cell (search t cell node.N.lo p)
      else
        let c = pl.N.succ in
        if c == node then begin
          if not
               (Sim.A.compare_and_set p.N.tower.(cell) pl
                  (N.unmarked (Sim.A.get node.N.tower.(cell))))
          then unlink_at t node cell p
        end
        else if c.N.lo <= node.N.lo then begin
          let cl = Sim.A.get c.N.tower.(cell) in
          if cl.N.marked then begin
            ignore (Sim.A.compare_and_set p.N.tower.(cell) pl (N.unmarked cl));
            unlink_at t node cell p
          end
          else unlink_at t node cell c
        end

    let rec unlink_levels t (node : N.t) cell p =
      if cell >= 0 then begin
        let p = search t cell node.N.lo p in
        unlink_at t node cell p;
        unlink_levels t node (cell - 1) p
      end

    (* Tower first, then (in the list core) mark: a marked node is never
       in a tower, so helper unlink at the bottom stays safe. Only the
       node's own [granted] links its cells, so the test of cell 0 is
       stable. *)
    let releasing t (node : N.t) =
      let cells = Array.length node.N.tower in
      if cells > 0 && Sim.A.get node.N.tower.(0) != N.nil then begin
        if not (Atomic.get Fault.enabled && Fault.skip fp_tower_freeze_skip)
        then freeze node (cells - 1);
        (* A stall here keeps the frozen cells in place for the other
           domain's searches to help out. *)
        if Atomic.get Fault.enabled then Fault.hit fp_tower;
        unlink_levels t node (cells - 1)
          (from_top t node.N.lo (tower_cells - 1) cells t.sentinel);
        for cell = 0 to cells - 1 do
          Sim.A.set node.N.tower.(cell) N.nil
        done
      end
  end

  (* The gate functor is applied only to satisfy the list core's
     signature: skip-rw never creates a gate. *)
  module Core =
    Rlk.List_rw_core.Make_located (Sim) (N)
      (Rlk.Fairgate_core.Make (Sim) (Rwlock_core.Make (Sim)))
      (Tower)

  include Core

  let create ?stats ?park () = Core.create ?stats ?park ()

  (* ---- test probes ---- *)

  (* Number of tower cells [node] is linked at, counting from [cell]. *)
  let rec linked_cells (node : N.t) cell =
    if cell < Array.length node.N.tower
       && Sim.A.get node.N.tower.(cell) != N.nil
    then linked_cells node (cell + 1)
    else cell

  (* Quiescent structural audit (no concurrent operations): the bottom
     list must be sorted by [lo]; every tower level must end at [tail];
     every tower entry must point at an unmarked node that is
     bottom-reachable; a node linked at level [l] must be linked at every
     level below it. Every unmarked bottom node (a holder: its [granted]
     has run) must be linked at exactly its tower's length of levels,
     with no frozen cell (only a release freezes one), and no tower may
     have more than [max_level - 1] cells. Returns the live (unmarked)
     range count. *)
  let check_structure t =
    let exception Bad of string in
    let sentinel = t.index.Tower.sentinel in
    try
      let bottom_nodes = ref [] in
      let live = ref 0 in
      let rec walk (p : N.t) prev_lo =
        let c = (Sim.A.get p.N.next).N.succ in
        if c != N.nil_node then begin
          if c.N.lo < prev_lo then
            raise
              (Bad (Printf.sprintf "bottom unsorted: %d after %d" c.N.lo prev_lo));
          bottom_nodes := c :: !bottom_nodes;
          if not (Sim.A.get c.N.next).N.marked then incr live;
          walk c c.N.lo
        end
      in
      walk sentinel min_int;
      let levels = Array.make tower_cells [] in
      for cell = tower_cells - 1 downto 0 do
        let rec tower_walk (p : N.t) prev_lo =
          let l = Sim.A.get p.N.tower.(cell) in
          let c = l.N.succ in
          if l == N.nil then
            raise (Bad (Printf.sprintf "tower level %d misses its tail" (cell + 1)))
          else if l.N.marked then
            raise (Bad (Printf.sprintf "frozen cell at tower level %d" (cell + 1)))
          else if c != tail then begin
            if (Sim.A.get c.N.next).N.marked then
              raise (Bad (Printf.sprintf "marked node in tower level %d" (cell + 1)));
            if c.N.lo < prev_lo then
              raise (Bad (Printf.sprintf "tower level %d unsorted" (cell + 1)));
            if linked_cells c 0 < cell + 1 then
              raise (Bad (Printf.sprintf "tower level %d node unlinked below"
                            (cell + 1)));
            if not (List.memq c !bottom_nodes) then
              raise (Bad (Printf.sprintf "tower level %d node not in bottom list"
                            (cell + 1)));
            levels.(cell) <- c :: levels.(cell);
            tower_walk c c.N.lo
          end
        in
        tower_walk sentinel min_int
      done;
      List.iter
        (fun (c : N.t) ->
          let cells = Array.length c.N.tower in
          if not (Sim.A.get c.N.next).N.marked then begin
            if cells > tower_cells then
              raise (Bad (Printf.sprintf "[%d,%d) has %d tower cells, max is %d"
                            c.N.lo c.N.hi cells tower_cells));
            if linked_cells c 0 <> cells then
              raise (Bad (Printf.sprintf "[%d,%d) linked at %d of its %d cells"
                            c.N.lo c.N.hi (linked_cells c 0) cells));
            for cell = 0 to cells - 1 do
              if (Sim.A.get c.N.tower.(cell)).N.marked then
                raise (Bad (Printf.sprintf "[%d,%d) frozen at tower level %d"
                              c.N.lo c.N.hi (cell + 1)));
              if not (List.memq c levels.(cell)) then
                raise (Bad (Printf.sprintf "[%d,%d) missing from tower level %d"
                              c.N.lo c.N.hi (cell + 1)))
            done
          end)
        !bottom_nodes;
      Ok !live
    with Bad msg -> Error msg
end
