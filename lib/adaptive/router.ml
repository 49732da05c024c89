module Range = Rlk.Range

type t = { shards : int; width : int; shift : int }

(* Validate loudly at construction: every other entry point divides or
   shifts by [width], so a bad geometry admitted here would surface as a
   wrong-shard route (silent lost exclusion), not an exception. *)
let create ~shards ~space =
  if shards <= 0 then
    invalid_arg
      (Printf.sprintf "Router.create: shards must be positive (got %d)"
         shards);
  if space <= 0 then
    invalid_arg
      (Printf.sprintf "Router.create: space must be positive (got %d)" space);
  if space mod shards <> 0 then
    invalid_arg
      (Printf.sprintf
         "Router.create: space (%d) must be a multiple of shards (%d)" space
         shards);
  let width = space / shards in
  (* Power-of-two widths route with a shift instead of a division — the
     router sits on every acquisition's critical path. *)
  let shift = if width land (width - 1) = 0 then
      let rec log2 acc w = if w <= 1 then acc else log2 (acc + 1) (w lsr 1) in
      log2 0 width
    else -1
  in
  { shards; width; shift }

let shards t = t.shards

let width t = t.width

(* Shard spans partition [0, max_int): the last shard absorbs everything at
   or past [space], so ranges over a larger universe (Range.full, VM
   addresses beyond the tuned space) still route without special cases. *)
let span t i =
  if i < 0 || i >= t.shards then invalid_arg "Router.span";
  let lo = i * t.width in
  let hi = if i = t.shards - 1 then max_int else lo + t.width in
  Range.v ~lo ~hi

let shard_of_point t x =
  if x < 0 then invalid_arg "Router.shard_of_point";
  if t.shift >= 0 then min (x lsr t.shift) (t.shards - 1)
  else min (x / t.width) (t.shards - 1)

(* The first and last shard covering a range: two calls rather than one
   returning a pair, which the compiler would allocate at every
   acquisition. *)
let first t r = shard_of_point t (Range.lo r)

let last t r = shard_of_point t (Range.hi r - 1)

let clamp t i r =
  match Range.intersect r (span t i) with
  | Some sub -> sub
  | None -> invalid_arg "Router.clamp: shard does not intersect the range"

let cover t r =
  let first = first t r and last = last t r in
  List.init (last - first + 1) (fun k ->
      let i = first + k in
      (i, clamp t i r))
