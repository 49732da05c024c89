(* One OS-level parker per domain slot, allocated eagerly so wakers can
   reach any slot without a publication race. Each parker is isolated onto
   its own cache line: the mutex word is hammered by wakers while the
   owner sleeps on it.

   The protocol state (which flag a sleeper is waiting on) lives with the
   caller — see waitq_core.ml. [block] re-checks [ready] under the mutex
   before every sleep, and [wake] broadcasts under the same mutex, so a
   waker that makes [ready] true and then calls [wake] can never slip
   between a sleeper's final check and its wait: either the check sees the
   flag, or the waker's lock acquisition serializes after the sleeper has
   released the mutex into [Condition.wait] and the broadcast reaches it.

   Domain ids are reused once their domain exits, so one parker may serve
   several domains over a run. [wake] therefore broadcasts (not signals),
   and callers must treat any wake-up as possibly spurious — re-check,
   re-arm, re-block. *)

type t = { mu : Mutex.t; cv : Condition.t }

let parkers =
  Array.init Domain_id.capacity (fun _ ->
      Padded_counters.isolate { mu = Mutex.create (); cv = Condition.create () })

let mine () = parkers.(Domain_id.get ())

let block p ready =
  Mutex.lock p.mu;
  while not (ready ()) do
    Condition.wait p.cv p.mu
  done;
  Mutex.unlock p.mu

let wake i =
  let p = parkers.(i) in
  Mutex.lock p.mu;
  Condition.broadcast p.cv;
  Mutex.unlock p.mu
