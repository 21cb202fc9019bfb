(* Wall-clock latency recorder: a fixed three-tier bucket array, exact to
   the nanosecond below 65.5 us (where in-process ops live), 64 ns steps
   to 4.3 ms (network round trips) and 16.4 us steps to ~1.1 s. Recording
   is one array increment — no allocation, so it can sit inside the
   measured loop — and the memory is fixed (1.5 MiB per recorder), so a
   long run does not grow the benchmark's RSS the way a sample array
   would. *)

let tier = 65536
let step1 = 64
let step2 = 16384
let base1 = tier
let base2 = base1 + (tier * step1)

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make (3 * tier) 0; n = 0 }

let index ns =
  if ns < base1 then if ns < 0 then 0 else ns
  else if ns < base2 then tier + ((ns - base1) / step1)
  else min ((3 * tier) - 1) ((2 * tier) + ((ns - base2) / step2))

let add t ns =
  let i = index ns in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
  t.n <- t.n + 1

let count t = t.n

(* Bucket midpoint, in ns (the steps are even). *)
let value_of i =
  if i < tier then i
  else if i < 2 * tier then base1 + ((i - tier) * step1) + (step1 / 2)
  else base2 + ((i - (2 * tier)) * step2) + (step2 / 2)

(* Nearest-rank quantile in ns; 0 when empty. Returns an int so that the
   per-window p99 taken inside a measured loop allocates nothing. *)
let quantile_ns t q =
  if t.n = 0 then 0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let acc = ref 0 and i = ref 0 in
    while !acc + t.counts.(!i) < rank do
      acc := !acc + t.counts.(!i);
      incr i
    done;
    value_of !i
  end

let quantile t q = float_of_int (quantile_ns t q)

let merge_into ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.n <- into.n + t.n

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0
