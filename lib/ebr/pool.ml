(* The counter record of the removed node pool. Nodes are plain GC
   allocations; no pool exists. The record is kept only because the
   repository benchmark still links [rlk_ebr] and reads
   [Rlk.Node.pool_stats], which now reports all zeros. It goes once the
   benchmark drops its [pool.*] rows. *)

type stats = {
  fresh_allocations : int;
  recycled : int;
  barriers : int;
  trimmed : int;
}
