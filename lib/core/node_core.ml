open Rlk_primitives

(* Functorized body of {!Node}: the paper's [LNode] plus its epoch/pool
   plumbing, parameterized over the simulatable runtime (see
   traced_atomic.ml) and over the epoch/pool modules so the production
   instance shares [Rlk_ebr]'s types while the model checker builds a
   fresh, isolated instance per explored run. *)

(* The node interface consumed by the functorized list locks. ['a aref] is
   the SIM's atomic cell constructor ([= 'a Atomic.t] in production); the
   list cores constrain it to their own runtime's cells. *)
module type S = sig
  type 'a aref

  type t = {
    mutable lo : int;
    mutable hi : int;
    mutable reader : bool;
    mutable span : int;
    next : link aref;
    mutable live_link : link;
    mutable self_link : link;
    tower : t option aref array;
  }

  and link = { marked : bool; succ : t option; twin : link }

  val nil : link

  val unmarked : link -> link

  val marked : link -> link

  val range_of : t -> Range.t

  val alloc : reader:bool -> Range.t -> t

  val retire : t -> unit

  val epoch_enter : unit -> unit

  val epoch_leave : unit -> unit

  val epoch_pin : (unit -> 'a) -> 'a
end

(* Generative ([()]): applying the functor creates the instance's own
   epoch and pool state. [tower_cells] sizes each node's index tower (the
   skip-index core's hint levels above the list); list nodes use [0] and
   share the one empty array, so the tower costs them one field. Pooled
   nodes keep every tower cell [None]: the index clears a node's tower
   before the node can be marked, so [alloc] needs no tower scrub. *)
module Make_towered
    (Sim : Traced_atomic.SIM)
    (Epoch : Rlk_ebr.Epoch_core.S)
    (Pool : Rlk_ebr.Pool_core.S with type epoch = Epoch.t)
    (Cfg : sig
       val pool_target : int

       val tower_cells : int
     end)
    () =
struct
  type 'a aref = 'a Sim.A.t

  type t = {
    mutable lo : int;
    mutable hi : int;
    mutable reader : bool;
    mutable span : int;
    next : link aref;
    mutable live_link : link;
    mutable self_link : link;
    tower : t option aref array;  (* cell [l-1] holds index level [l] *)
  }

  and link = { marked : bool; succ : t option; twin : link }

  (* Links are canonical per (successor, mark): the paper's pointer word
     with its mark bit, so "unmarked pointer to [n]" is always the one
     record [n.live_link] and no CAS allocates. Reusing the same record
     across CASes brings back the ABA of a raw pointer CAS, which is what
     the paper relies on reclamation to exclude: a node stays in its
     incarnation while any walker that may hold its link is pinned.

     Each link points at its [twin] (same successor, other mark), so
     flipping the mark of a link that was read touches only that link,
     never the successor node — which another domain may be writing. *)
  let rec nil = { marked = false; succ = None; twin = nil_marked }

  and nil_marked = { marked = true; succ = None; twin = nil }

  let unmarked l = if l.marked then l.twin else l

  let marked l = if l.marked then l else l.twin

  let range_of n = Range.v ~lo:n.lo ~hi:n.hi

  let epoch = Epoch.create ()

  let epoch_enter () = Epoch.enter epoch

  let epoch_leave () = Epoch.leave epoch

  let epoch_pin f = Epoch.pin epoch f

  (* A node's two links, built once and shared by every incarnation: the
     range lives in the node's mutable fields, not in the link. They share
     one [Some n] box, so a walk goes cell -> link -> box -> node, all
     allocated together with the node. *)
  let fresh () =
    let n =
      { lo = 0; hi = 1; reader = false; span = -1; next = Sim.A.make nil;
        live_link = nil; self_link = nil;
        tower = Array.init Cfg.tower_cells (fun _ -> Sim.A.make None) }
    in
    let succ = Some n in
    let rec live = { marked = false; succ; twin = self }
    and self = { marked = true; succ; twin = live } in
    n.live_link <- live;
    n.self_link <- self;
    n

  let pool = Pool.create ~target:Cfg.pool_target ~alloc:fresh epoch

  let alloc ~reader r =
    let n = Pool.get pool in
    n.lo <- Range.lo r;
    n.hi <- Range.hi r;
    n.reader <- reader;
    n.span <- -1;
    (* Nodes released on the fast path come back with [next] still [nil];
       checking first trades a fence for a load on that (hot) reuse path. *)
    if Sim.A.get n.next != nil then Sim.A.set n.next nil;
    n

  let retire n = Pool.retire pool n

  let pool_stats () = Pool.stats pool
end

module Make
    (Sim : Traced_atomic.SIM)
    (Epoch : Rlk_ebr.Epoch_core.S)
    (Pool : Rlk_ebr.Pool_core.S with type epoch = Epoch.t)
    (Cfg : sig
       val pool_target : int
     end)
    () =
  Make_towered (Sim) (Epoch) (Pool)
    (struct
      include Cfg

      let tower_cells = 0
    end)
    ()
