(* Layer probes for the traced run: one map -> filter -> reduce chain
   priced down the stack (a hand-written loop, the Stream push fold, Seq
   at one and at two domains), the single Seq operations the kernel
   workloads lean on, and bare Runtime fork-join and loop costs.  Every
   probe's result is checked against a loop computing the same value. *)

module Seq = Bds.Seq
module Stream = Bds_stream.Stream
module Runtime = Bds_runtime.Runtime

let n = 1_000_000
let reps = 7

(* The ladder's chain. *)
let g i = (i * 3) + 1
let keep x = x land 1 = 0

let loop_chain () =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let x = g i in
    if keep x then acc := !acc + x
  done;
  !acc

let loop_filter p =
  let acc = ref 0 in
  for x = 0 to n - 1 do
    if p x then acc := !acc + x
  done;
  !acc

(* Irregular inner lengths for the flatten probe: 0 to 15 elements,
   7.5 on average. *)
let outer = n / 8
let inner_len i = (i * 7919) land 15

let flatten_elems =
  let c = ref 0 in
  for i = 0 to outer - 1 do
    c := !c + inner_len i
  done;
  !c

let loop_flatten () =
  let acc = ref 0 in
  for i = 0 to outer - 1 do
    for j = 0 to inner_len i - 1 do
      acc := !acc + i + j
    done
  done;
  !acc

let loop_scan () =
  let acc = ref 0 and prefix = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + !prefix;
    prefix := !prefix + i
  done;
  !acc

type t = {
  spans : Perfbench.Spans.t option;
  mutable failures : int;
  mutable results : Report.metric list;
}

(* Median cost per element (or per op) of [reps] timed runs after one
   warm-up, checking each run's result. *)
let measure t name ~unit ~per ~scale ~expect f =
  ignore (Sys.opaque_identity (f ()));
  let start = Unix.gettimeofday () in
  let samples =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let t1 = Unix.gettimeofday () in
        if r <> expect then t.failures <- t.failures + 1;
        (t1 -. t0) *. scale /. float_of_int per)
  in
  (match t.spans with
  | None -> ()
  | Some sp ->
    let module S = Perfbench.Spans in
    ignore
      (S.add sp ("probe:" ^ name) ~start_us:(S.us_of sp start) ~stop_us:(S.now_us sp)));
  t.results <- Report.metric name unit (Perfbench.Stats.median samples) :: t.results

let ns = 1e9

let run ?spans ~domains () =
  let t = { spans; failures = 0; results = [] } in
  let chain = loop_chain () in
  measure t "probe.loop_ns" ~unit:"ns" ~per:n ~scale:ns ~expect:chain loop_chain;
  measure t "probe.stream_ns" ~unit:"ns" ~per:n ~scale:ns ~expect:chain (fun () ->
      Stream.reduce
        (fun acc x -> if keep x then acc + x else acc)
        0
        (Stream.map g (Stream.tabulate n Fun.id)));
  let seq_chain () = Seq.reduce ( + ) 0 (Seq.filter keep (Seq.map g (Seq.iota n))) in
  Runtime.set_num_domains 1;
  measure t "probe.seq_p1_ns" ~unit:"ns" ~per:n ~scale:ns ~expect:chain seq_chain;
  Runtime.set_num_domains domains;
  measure t "probe.seq_p2_ns" ~unit:"ns" ~per:n ~scale:ns ~expect:chain seq_chain;
  let filter name p =
    measure t name ~unit:"ns" ~per:n ~scale:ns ~expect:(loop_filter p) (fun () ->
        Seq.reduce ( + ) 0 (Seq.filter p (Seq.iota n)))
  in
  filter "seq.filter_sparse_ns" (fun x -> x land 7 = 0);
  filter "seq.filter_dense_ns" (fun x -> x land 7 <> 0);
  measure t "seq.flatten_ns" ~unit:"ns" ~per:flatten_elems ~scale:ns ~expect:(loop_flatten ())
    (fun () ->
      Seq.reduce ( + ) 0
        (Seq.flatten
           (Seq.map (fun i -> Seq.tabulate (inner_len i) (fun j -> i + j)) (Seq.iota outer))));
  measure t "seq.scan_ns" ~unit:"ns" ~per:n ~scale:ns ~expect:(loop_scan ()) (fun () ->
      Seq.reduce ( + ) 0 (fst (Seq.scan ( + ) 0 (Seq.iota n))));
  let forks = 20_000 in
  measure t "runtime.fork_join_us" ~unit:"us" ~per:forks ~scale:1e6 ~expect:() (fun () ->
      Runtime.run (fun () ->
          for _ = 1 to forks do
            ignore (Sys.opaque_identity (Runtime.par (fun () -> ()) (fun () -> ())))
          done));
  measure t "runtime.parallel_for_ns" ~unit:"ns" ~per:n ~scale:ns ~expect:() (fun () ->
      Runtime.parallel_for 0 n (fun _ -> ()));
  (List.rev t.results, t.failures)
