(* Tests of the benchmark's own arithmetic: the tail percentile rule,
   span self time, and the output comparators. *)

module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Checks = Perfbench.Checks

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

(* 1..n in shuffled order. *)
let samples n = Array.init n (fun i -> float_of_int ((i * 7919 mod n) + 1))

let test_tail () =
  (* 40 samples: the 75th percentile is the highest with ten beyond it. *)
  (match Stats.tail (samples 40) with
  | Some (pct, v) ->
    check "tail pct 40" (close pct 75.0);
    check "tail value 40" (close v 30.0)
  | None -> check "tail 40 exists" false);
  (* 1000 samples: p99, value 990, exactly ten beyond. *)
  (match Stats.tail (samples 1000) with
  | Some (pct, v) ->
    check "tail pct 1000" (close pct 99.0);
    check "tail value 1000" (close v 990.0)
  | None -> check "tail 1000 exists" false);
  (* Ten or fewer samples have no percentile with ten beyond it. *)
  check "tail 10 none" (Stats.tail (samples 10) = None);
  (match Stats.tail (samples 11) with
  | Some (_, v) -> check "tail 11 is the minimum" (close v 1.0)
  | None -> check "tail 11 exists" false);
  let a = samples 1000 in
  check "p99 nearest rank" (close (Stats.percentile 99.0 a) 990.0);
  check "beyond p99 of 1000" (Stats.beyond 99.0 1000 = 10);
  check "beyond p99 of 999" (Stats.beyond 99.0 999 = 9);
  check "median odd" (close (Stats.median [| 3.; 1.; 2. |]) 2.0);
  check "median even" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "infinite samples sort last"
    (close (Stats.median [| 1.; infinity; 2. |]) 2.0
    && Stats.percentile 99.0 [| 1.; infinity |] = infinity)

let test_windows () =
  check "window count odd" (Stats.window_count ~min_size:1000 10_000 = 9);
  check "window count exact" (Stats.window_count ~min_size:1000 9_999 = 9);
  check "window count small" (Stats.window_count ~min_size:1000 1_500 = 1);
  check "window count empty" (Stats.window_count ~min_size:1000 0 = 1);
  (* Nine windows of 1..100, the first hit by a stall: the stall moves
     that window's median, not the median of the windows. *)
  let a = Array.init 900 (fun i -> float_of_int ((i mod 100) + 1)) in
  Array.fill a 0 100 1000.0;
  check "windowed median ignores one bad window" (close (Stats.windowed ~windows:9 Stats.median a) 50.5);
  check "windowed falls back to the whole" (close (Stats.windowed ~windows:5 Stats.median [| 1.; 2.; 3. |]) 2.0)

let test_self_time () =
  let t = Spans.create () in
  let root = Spans.fresh_id t in
  Spans.add_with_id t ~id:root "pass" ~start_us:0.0 ~stop_us:100.0;
  (* Two overlapping children cover [10, 50]; one sticks out past the
     parent and is clipped to [90, 100]. *)
  ignore (Spans.add t ~parent:root "a" ~start_us:10.0 ~stop_us:40.0);
  let b = Spans.add t ~parent:root "b" ~start_us:30.0 ~stop_us:50.0 in
  ignore (Spans.add t ~parent:root "c" ~start_us:90.0 ~stop_us:120.0);
  ignore (Spans.add t ~parent:b "d" ~start_us:35.0 ~stop_us:45.0);
  let self = Spans.self_times (Spans.spans t) in
  let of_name n =
    snd (List.find (fun ((s : Spans.span), _) -> s.Spans.name = n) self)
  in
  check "self pass" (close (of_name "pass") 50.0);
  check "self b" (close (of_name "b") 10.0);
  check "self leaf" (close (of_name "d") 10.0);
  check "covered merges overlaps"
    (close (Spans.covered ~lo:0.0 ~hi:10.0 [ (1.0, 3.0); (2.0, 4.0); (6.0, 7.0) ]) 4.0)

let test_comparators () =
  check "float within tolerance" (Checks.float_close 1e6 (1e6 *. (1.0 +. 1e-12)));
  check "float outside tolerance" (not (Checks.float_close 1e6 (1e6 *. (1.0 +. 1e-6))));
  check "small floats compare absolutely" (Checks.float_close 1e-20 2e-20);
  check "nan never matches" (not (Checks.float_close nan nan));
  check "float arrays" (Checks.float_array_close [| 1.0; 2.0 |] [| 1.0; 2.0 +. 1e-12 |]);
  check "float array lengths" (not (Checks.float_array_close [| 1.0 |] [| 1.0; 2.0 |]));
  let hull = [ (0.0, 0.0); (1.0, 0.0); (1.0, 1.0); (0.0, 1.0) ] in
  check "hull rotated and reversed"
    (Checks.same_point_set hull [ (1.0, 1.0); (1.0, 0.0); (0.0, 0.0); (0.0, 1.0) ]);
  check "hull missing a vertex"
    (not (Checks.same_point_set hull [ (0.0, 0.0); (1.0, 0.0); (1.0, 1.0) ]));
  (* bfs: a path 0 -> 1 -> 2 plus a shortcut 0 -> 2. *)
  let g = Bds_graph.Csr.of_edges ~num_vertices:4 [| (0, 1); (1, 2); (0, 2) |] in
  check "bfs valid" (Bds_graph.Bfs.valid_parents g 0 [| 0; 0; 0; -1 |]);
  check "bfs parent one level too deep" (not (Bds_graph.Bfs.valid_parents g 0 [| 0; 0; 1; -1 |]));
  check "bfs wrong reached set" (not (Bds_graph.Bfs.valid_parents g 0 [| 0; 0; 0; 0 |]))

let () =
  test_tail ();
  test_windows ();
  test_self_time ();
  test_comparators ();
  if !failures > 0 then exit 1;
  print_endline "perfbench: all checks passed"
