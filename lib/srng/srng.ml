(** Deterministic splittable random-number generator (SplitMix64).

    Every random decision in the chaos layer and the fuzzer flows from
    one of these, created from a single printed seed — no global state,
    no [Random] module — so a whole campaign replays bit-identically
    from its seed, and [split] gives independent streams (one per test
    case) whose values do not depend on how much randomness earlier
    cases consumed.

    This is the single shared implementation: the chaos layer, the
    fuzzer, the fleet, the hot-path workload and the tests call it
    directly. *)

type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Gammas must be odd; weak ones (too few bit transitions) get fixed up
   as in the reference SplitMix implementation. *)
let mix_gamma z =
  let z = Int64.logor (mix64 z) 1L in
  let n =
    Int64.logxor z (Int64.shift_right_logical z 1)
    |> fun x ->
    let rec popcount acc x =
      if x = 0L then acc
      else popcount (acc + 1) (Int64.logand x (Int64.sub x 1L))
    in
    popcount 0 x
  in
  if n < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let create seed = { state = Int64.of_int seed; gamma = golden_gamma }

let next_int64 t =
  t.state <- Int64.add t.state t.gamma;
  mix64 t.state

(** An independent child stream.  Advances the parent, so successive
    splits are themselves independent. *)
let split t =
  let s = next_int64 t in
  let g = next_int64 t in
  { state = s; gamma = mix_gamma g }

(** Uniform in [0, bound); bound must be positive. *)
let int t bound =
  if bound <= 0 then invalid_arg "Srng.int";
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Bernoulli: true with probability [num] in [den]. *)
let chance t num den = int t den < num

(** Uniform in [lo, hi] inclusive. *)
let range t lo hi = lo + int t (hi - lo + 1)

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Srng.choose";
  arr.(int t (Array.length arr))

let choose_list t l = List.nth l (int t (List.length l))

(** A full 32-bit value (for immediates). *)
let int32 t = Int64.to_int (Int64.logand (next_int64 t) 0xFFFFFFFFL)

(** Pick an index by integer weight from [(weight, 'a) array]. *)
let weighted t pairs =
  let total = Array.fold_left (fun a (w, _) -> a + w) 0 pairs in
  let k = int t total in
  let rec go i acc =
    let w, v = pairs.(i) in
    if k < acc + w then v else go (i + 1) (acc + w)
  in
  go 0 0
