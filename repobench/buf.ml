(* Growable int buffers for latency samples, and the order statistics the
   report takes from them. Appending never allocates until the buffer is
   full, so the measured loops stay allocation-free in the common case.
   The samples live outside the OCaml heap: a run keeps every round's
   buffers, and on the heap the major GC would scan all of them during
   later cells, slowing each round a little more than the one before. *)

open Bigarray

type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

let create ?(capacity = 4096) () = { a = Array1.create int c_layout capacity; n = 0 }

let push b v =
  if b.n = Array1.dim b.a then begin
    let a = Array1.create int c_layout (2 * b.n) in
    Array1.blit b.a (Array1.sub a 0 b.n);
    b.a <- a
  end;
  Array1.unsafe_set b.a b.n v;
  b.n <- b.n + 1

let length b = b.n

let get b i = b.a.{i}

let sorted b =
  let s = Array.init b.n (fun i -> Array1.unsafe_get b.a i) in
  Array.sort compare s;
  s

(* Nearest-rank percentile of a sorted array; [nan] when empty. *)
let rank s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    float_of_int s.(max 0 (min (n - 1) i))

(* Interquartile mean: the mean of the middle half of the values ([nan]
   when there are none). Over rounds it ignores a slow host phase as a
   median does, and averages the rest instead of picking one. *)
let iqm_of l =
  let s = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) l) in
  Array.sort compare s;
  let n = Array.length s in
  let k = n / 4 in
  Array.fold_left ( +. ) 0.0 (Array.sub s k (n - (2 * k))) /. float_of_int (n - (2 * k))
