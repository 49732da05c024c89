open Rlk_primitives

(* Functorized body of {!Node}: the paper's [LNode], parameterized over
   the simulatable runtime (see traced_atomic.ml) so the model checker can
   build nodes whose link cells are its recording cells. *)

(* The node interface consumed by the functorized list locks. ['a aref] is
   the SIM's atomic cell constructor ([= 'a Atomic.t] in production); the
   list cores constrain it to their own runtime's cells. *)
module type S = sig
  type 'a aref

  type t = {
    lo : int;
    hi : int;
    reader : bool;
    mutable span : int;
    next : link aref;
    mutable live_link : link;
    mutable self_link : link;
    tower : t option aref array;
  }

  and link = { marked : bool; succ : t option; mutable twin : link }

  val nil : link

  val unmarked : link -> link

  val marked : link -> link

  val range_of : t -> Range.t

  val alloc : reader:bool -> Range.t -> t
end

(* [tower_cells] sizes each node's index tower (the skip-index core's hint
   levels above the list); list nodes use [0] and share the one empty
   array, so the tower costs them one field. *)
module Make_towered
    (Sim : Traced_atomic.SIM)
    (Cfg : sig
       val tower_cells : int
     end) =
struct
  type 'a aref = 'a Sim.A.t

  type t = {
    lo : int;
    hi : int;
    reader : bool;
    mutable span : int;
    next : link aref;
    mutable live_link : link;
    mutable self_link : link;
    tower : t option aref array;  (* cell [l-1] holds index level [l] *)
  }

  and link = { marked : bool; succ : t option; mutable twin : link }

  (* Links are canonical per (successor, mark): the paper's pointer word
     with its mark bit, so "unmarked pointer to [n]" is always the one
     record [n.live_link] and no CAS allocates. Reusing the same record
     across CASes brings back the ABA of a raw pointer CAS, which the
     paper excludes through reclamation. Here a node is never reused: its
     range is immutable and the GC frees it only once no walker holds it,
     so a stale CAS that succeeds links the same live node it read.

     Each link points at its [twin] (same successor, other mark), so
     flipping the mark of a link that was read touches only that link,
     never the successor node — which another domain may be writing. *)
  let rec nil = { marked = false; succ = None; twin = nil_marked }

  and nil_marked = { marked = true; succ = None; twin = nil }

  let unmarked l = if l.marked then l.twin else l

  let marked l = if l.marked then l else l.twin

  let range_of n = Range.v ~lo:n.lo ~hi:n.hi

  (* A fresh node per acquisition; a released node is simply dropped. Its
     two links share one [Some n] box, so a walk goes cell -> link -> box
     -> node, all allocated together. The cycles (node -> link -> node,
     link -> twin -> link) are closed by three stores before the node is
     published, not by [let rec], which costs two dummy blocks and two C
     calls per node. [empty_cell] is top-level so [Array.init] gets a
     closure that is not allocated per node. *)
  let empty_cell _ = Sim.A.make None

  let alloc ~reader r =
    let n =
      { lo = Range.lo r; hi = Range.hi r; reader; span = -1;
        next = Sim.A.make nil; live_link = nil; self_link = nil;
        tower = Array.init Cfg.tower_cells empty_cell }
    in
    let succ = Some n in
    let live = { marked = false; succ; twin = nil } in
    let self = { marked = true; succ; twin = live } in
    live.twin <- self;
    n.live_link <- live;
    n.self_link <- self;
    n
end

module Make (Sim : Traced_atomic.SIM) =
  Make_towered (Sim)
    (struct
      let tower_cells = 0
    end)
