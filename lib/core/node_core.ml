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
    tower : link aref array;
  }

  and link = { marked : bool; succ : t; mutable twin : link }

  val nil_node : t

  val nil : link

  val unmarked : link -> link

  val marked : link -> link

  val range_of : t -> Range.t

  val alloc : reader:bool -> Range.t -> t
end

(* [tower_cells ()] sizes each node's index tower (the skip-index core's
   hint levels above the list) and is called once per allocated node, so
   the skip-index core draws a node's height there. List nodes always get
   [0] and share the one empty array, so the tower costs them one field. *)
module Make_towered
    (Sim : Traced_atomic.SIM)
    (Cfg : sig
       val tower_cells : unit -> int
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
    tower : link aref array;  (* cell [l-1] holds index level [l] *)
  }

  and link = { marked : bool; succ : t; mutable twin : link }

  (* Links are canonical per (successor, mark): the paper's pointer word
     with its mark bit, so "unmarked pointer to [n]" is always the one
     record [n.live_link] and no CAS allocates. Reusing the same record
     across CASes brings back the ABA of a raw pointer CAS, which the
     paper excludes through reclamation. Here a node is never reused: its
     range is immutable and the GC frees it only once no walker holds it,
     so a stale CAS that succeeds links the same live node it read.

     Each link points at its [twin] (same successor, other mark), so
     flipping the mark of a link that was read touches only that link,
     never the successor node — which another domain may be writing.

     The end of the list is one shared node, [nil_node], rather than an
     option: a link's [succ] is the successor itself, so a hop is
     cell -> link -> node. [nil_node] has [lo = hi = max_int], so a walk
     bounded by [lo] stops on it like on any node past its window; the
     other walks test [c == nil_node] before they load [c.next]. Its
     [live_link]/[self_link] are [nil]/[nil_marked], like any node's.

     [let rec] cannot close a cycle through [Sim.A.make], and every link
     names a node, so [nil_node]'s own [next] cell cannot start out
     holding a real link. It holds an immediate placeholder instead. No
     walk ever reads or writes that one cell (each stops at [nil_node]
     first), and nothing else holds a placeholder. *)
  let nil_cell : link aref = Sim.A.make (Obj.magic 0)

  let rec nil = { marked = false; succ = nil_node; twin = nil_marked }

  and nil_marked = { marked = true; succ = nil_node; twin = nil }

  and nil_node =
    { lo = max_int; hi = max_int; reader = false; span = -1; next = nil_cell;
      live_link = nil; self_link = nil_marked; tower = [||] }

  let unmarked l = if l.marked then l.twin else l

  let marked l = if l.marked then l else l.twin

  let range_of n = Range.v ~lo:n.lo ~hi:n.hi

  (* A fresh node per acquisition; a released node is simply dropped. A
     list node is 19 words, allocated together: the record (9), its
     [next] cell (2) and its two links (4 each). The cycles (node -> link
     -> node, link -> twin -> link) are closed by three stores before the
     node is published, not by [let rec], which costs two dummy blocks
     and two C calls per node. A tower of [k > 0] cells adds its array
     (1 + k words) and the cells (2 each): 20 + 3k words in all. A tower
     of [0] cells is the shared empty array and adds nothing. A tower
     cell holds a link, like [next]; an unlinked one holds [nil].
     [empty_cell] is top-level so [Array.init] gets a closure that is not
     allocated per node. *)
  let empty_cell _ = Sim.A.make nil

  let alloc ~reader r =
    let n =
      { lo = Range.lo r; hi = Range.hi r; reader; span = -1;
        next = Sim.A.make nil; live_link = nil; self_link = nil;
        tower = Array.init (Cfg.tower_cells ()) empty_cell }
    in
    let live = { marked = false; succ = n; twin = nil } in
    let self = { marked = true; succ = n; twin = live } in
    live.twin <- self;
    n.live_link <- live;
    n.self_link <- self;
    n
end

module Make (Sim : Traced_atomic.SIM) =
  Make_towered (Sim)
    (struct
      let tower_cells () = 0
    end)
