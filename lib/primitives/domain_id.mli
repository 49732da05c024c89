(** Small dense per-domain identifiers.

    [Domain.self] ids grow without bound as domains are spawned and joined;
    statistics arrays need small indices. The first call from a domain
    takes the id of a domain that has exited, if any, and otherwise mints
    the next one (modulo [capacity]). A domain returns its id when it
    exits, so two live domains share an id only if more than [capacity]
    are alive at once — beyond OCaml's own limit on live domains. *)

val capacity : int
(** Number of distinct slots (256). *)

val get : unit -> int
(** Dense id of the calling domain, in [0, capacity). *)
