(* Log-bucketed latency histogram. Geometric buckets double from [lo]:
   bucket 0 is [0, lo), bucket i >= 1 is [lo·2^(i-1), lo·2^i), the last
   bucket is open-ended; with lo = 100 ns and 40 buckets the top closed
   bound is ≈ 15 h, far beyond any run we time. Count, sum and max are
   exact; quantiles are read off bucket upper bounds (≤ 2× error), capped
   at the exact max.

   Naming contract: histogram names must start with "wall" (as in
   "wall_event", "wall_crypto") so every derived metric's final dotted
   segment does too — Gate exempts those from drift checks, which is
   essential because latencies are machine-dependent. *)

type t = {
  name : string;
  mutable count : int;
  mutable sum : float;
  mutable max_value : float;
  buckets : int array;
}

let bucket_count = 40
let lo = 1e-7

let make name =
  {
    name;
    count = 0;
    sum = 0.;
    max_value = 0.;
    buckets = Array.make bucket_count 0;
  }

(* bounds.(i) = lo·2^i. Doubling only bumps the exponent, so every bound
   is exact and boundary values classify exactly: bucket i >= 1 holds
   [bounds.(i-1), bounds.(i)). The previous float_of(log2) formulation put
   values sitting exactly on a bound in the neighbouring bucket whenever
   log2 rounded across the integer. *)
let bounds =
  let b = Array.make (bucket_count - 1) lo in
  for i = 1 to bucket_count - 2 do
    b.(i) <- b.(i - 1) *. 2.
  done;
  b

let bucket_of v =
  let rec go i =
    if i = bucket_count - 1 then i
    else if v < bounds.(i) then i
    else go (i + 1)
  in
  go 0

let observe t v =
  let v = if Float.is_nan v || v < 0. then 0. else v in
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v > t.max_value then t.max_value <- v;
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1

let count t = t.count
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

(* upper bound of bucket [i]: lo for bucket 0, lo·2^i above; the last
   bucket is open-ended so callers cap it with the exact max. *)
let upper_bound i = bounds.(min i (bucket_count - 2))

let quantile t q =
  if t.count = 0 then 0.
  else
    let q = Float.min 1. (Float.max 0. q) in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    let rec go i acc =
      let acc = acc + t.buckets.(i) in
      if acc >= target || i = bucket_count - 1 then
        Float.min (upper_bound i) t.max_value
      else go (i + 1) acc
    in
    go 0 0

let max_value t = t.max_value

(* Merge [s] into [into]: count/sum/max exact, buckets elementwise, so the
   result is indistinguishable from one histogram that observed both. The
   wire mirror's [Stats.add] totals its sessions' round-trip histograms
   with it. *)
let merge ~into (s : t) =
  into.count <- into.count + s.count;
  into.sum <- into.sum +. s.sum;
  if s.max_value > into.max_value then into.max_value <- s.max_value;
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) s.buckets

let metrics t =
  [
    Metrics.int (t.name ^ "_count") t.count;
    Metrics.float (t.name ^ "_mean_s") (mean t);
    Metrics.float (t.name ^ "_p50_s") (quantile t 0.5);
    Metrics.float (t.name ^ "_p95_s") (quantile t 0.95);
    Metrics.float (t.name ^ "_p99_s") (quantile t 0.99);
    Metrics.float (t.name ^ "_max_s") t.max_value;
  ]
