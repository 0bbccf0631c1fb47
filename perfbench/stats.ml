(* Order statistics over raw samples.  The benchmark keeps every sample
   (one per pass or per job) and computes its figures here, so a
   percentile is an observed value, never a histogram bucket edge. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Median; the mean of the two middle values for an even count. *)
let median samples =
  let n = Array.length samples in
  if n = 0 then nan
  else
    let a = sorted samples in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The value at percentile [p] (0 < p < 100) by the nearest-rank rule:
   the smallest sample with at least p% of the samples at or below it. *)
let percentile p samples =
  let n = Array.length samples in
  if n = 0 then nan
  else
    let a = sorted samples in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Number of samples strictly above the nearest-rank value at [p]. *)
let beyond p n =
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  n - max 1 (min n rank)

(* The tail rule: the highest percentile that still has at least
   [min_beyond] samples above it.  With sorted samples a.(0..n-1), that
   is a.(n - 1 - min_beyond), reported as percentile
   100 (n - min_beyond) / n.  [None] when there are too few samples. *)
let tail ?(min_beyond = 10) samples =
  let n = Array.length samples in
  if n <= min_beyond then None
  else
    let a = sorted samples in
    let pct = 100.0 *. float_of_int (n - min_beyond) /. float_of_int n in
    Some (pct, a.(n - 1 - min_beyond))

(* The number of windows to cut [n] samples into: as many as give each
   at least [min_size] samples, made odd so the median of the windows'
   statistics is one of them; at least 1. *)
let window_count ~min_size n =
  let w = max 1 (n / min_size) in
  if w land 1 = 0 then w - 1 else w

(* Median over [windows] contiguous, equal slices of [samples] of
   [stat] on each slice.  A stall of the host moves the statistic of
   the slices it hits, not the reported median. *)
let windowed ~windows stat samples =
  let n = Array.length samples in
  if n < windows then stat samples
  else
    median
      (Array.init windows (fun w ->
           let lo = w * n / windows and hi = (w + 1) * n / windows in
           stat (Array.sub samples lo (hi - lo))))
