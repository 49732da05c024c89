open Rlk_primitives
module Fault = Rlk_chaos.Fault

(* Functorized body of {!Fairgate} (Section 4.3's starvation gate); see
   fairgate.mli for semantics. [Fairgate] is this functor applied to
   {!Traced_atomic.Real} and the production {!Rwlock}; the model checker
   applies it to its recording runtime so the counter/aux-lock races the
   paper calls benign are actually explored. *)

let fp_escalate = Fault.point "fairgate.escalate"

(* The gate interface consumed by the functorized list locks. *)
module type S = sig
  type t

  type session

  val create : ?patience:int -> unit -> t

  val start : t option -> session

  val failures_exceeded : session -> failures:int -> bool

  val escalate : session -> unit

  val finish : session -> unit
end

module Make (Sim : Traced_atomic.SIM) (RW : Rwlock_core.S) = struct
  module A = Sim.A

  type t = {
    impatient : int A.t;
    aux : RW.t;
    patience : int;
  }

  type mode = Disabled | Polite | Polite_locked | Impatient

  type session = { gate : t option; mutable mode : mode }

  let create ?(patience = 64) () =
    if patience <= 0 then
      invalid_arg "Fairgate.create: patience must be positive";
    { impatient = A.make 0; aux = RW.create (); patience }

  (* Every gate-less acquisition shares this session: [escalate] and
     [finish] never write to a session without a gate, so sharing it saves
     an allocation per acquisition. *)
  let disabled = { gate = None; mode = Disabled }

  let start = function
    | None -> disabled
    | Some g ->
      if A.get g.impatient = 0 then { gate = Some g; mode = Polite }
      else begin
        RW.read_acquire g.aux;
        { gate = Some g; mode = Polite_locked }
      end

  let failures_exceeded s ~failures =
    match s.gate, s.mode with
    | Some g, (Polite | Polite_locked) -> failures >= g.patience
    | _ -> false

  let escalate s =
    match s.gate with
    | None -> ()
    | Some g ->
      if Atomic.get Fault.enabled then Fault.hit fp_escalate;
      (match s.mode with
       | Polite_locked -> RW.read_release g.aux
       | Polite -> ()
       | Disabled | Impatient -> invalid_arg "Fairgate.escalate: bad mode");
      ignore (A.fetch_and_add g.impatient 1);
      RW.write_acquire g.aux;
      s.mode <- Impatient

  let finish s =
    match s.gate with
    | None -> ()
    | Some g ->
      (match s.mode with
       | Disabled | Polite -> ()
       | Polite_locked -> RW.read_release g.aux
       | Impatient ->
         RW.write_release g.aux;
         ignore (A.fetch_and_add g.impatient (-1)));
      s.mode <- Disabled
end
