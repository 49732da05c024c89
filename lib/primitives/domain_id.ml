let capacity = 256

let counter = Atomic.make 0

(* Ids of exited domains, handed out again before a new one is minted, so
   ids only wrap once more than [capacity] domains are alive at once.
   Fresh cons cells make the stack immune to ABA. *)
let free : int list Atomic.t = Atomic.make []

let rec push id =
  let l = Atomic.get free in
  if not (Atomic.compare_and_set free l (id :: l)) then push id

let rec pop () =
  match Atomic.get free with
  | [] -> Atomic.fetch_and_add counter 1 mod capacity
  | id :: rest as l -> if Atomic.compare_and_set free l rest then id else pop ()

(* [Domain.at_exit] reads and writes its own, older DLS key; this key's
   [get] has already sized the DLS array past it, so the nested access
   cannot grow the array under the pending initialisation. *)
let key =
  Domain.DLS.new_key (fun () ->
      let id = pop () in
      Domain.at_exit (fun () -> push id);
      id)

let get () = Domain.DLS.get key
