(* bds_perf: the repository benchmark.

     bds_perf --workload NAME --seed N --seconds S --trace 0|1

   Workloads: filter-flatten and scan-reduce (the paper's kernels, split
   by the sequence operations they build on) and service-mixed (the job
   service under an open loop).  Every run uses a fixed pool of two
   domains and the shipped defaults, checks every output outside its
   timers, prints a table, and ends with one JSON line.  --trace 0 gives
   the end-to-end metrics; --trace 1 is the separate traced run that
   gives the per-layer metrics.  See README.md for what each metric
   means and which end-to-end metric it should move. *)

module Runtime = Bds_runtime.Runtime
module T = Bds_runtime.Telemetry
module Service = Bds_service.Service
module S = Perfbench.Spans
module Stats = Perfbench.Stats
module R = Report

let domains = 2

(* Set-up is repeated this many times per run and its median reported. *)
let setups = 3

(* Short slices of the workloads not named by a traced run, so that
   every traced run reports every per-layer metric. *)
let companion_passes = 3
let companion_service_s = 2.0

(* Variables that change what the library does.  The benchmark measures
   the shipped defaults, so it refuses to run under any of them. *)
let pinned =
  [ "BDS_ADAPT"; "BDS_ADAPT_TABLE"; "BDS_GRAIN"; "BDS_BLOCK_SIZE"; "BDS_BLOCKS_PER_WORKER";
    "BDS_CHAOS"; "BDS_PROFILE"; "BDS_TRACE"; "BDS_NUM_DOMAINS" ]

let now = Unix.gettimeofday
let ms s = s *. 1e3
let mb words = words *. 8.0 /. 1e6

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bds_perf: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Kernel passes                                                        *)

type tracer = { spans : S.t; gc : Gc_events.t }

type pass = {
  wall_s : float;  (** first kernel start to last kernel end; checks excluded *)
  kernel_s : float array;
  bad : int;  (** kernels whose output failed its check (0 if unchecked) *)
  counters : T.snapshot;  (** telemetry delta; traced passes only *)
  gc : Gc_events.totals;  (** GC over the pass; traced passes only *)
  kernel_gc : Gc_events.totals array;  (** the same, per kernel *)
}

let empty_counters = T.diff ~before:(T.snapshot ()) ~after:(T.snapshot ())

(* Run each kernel once.  Traced: a span per pass and per kernel, the
   telemetry delta of the pass, and GC phases polled at each kernel
   boundary so they land on the kernel that ran them. *)
let run_pass ?tracer ?(check = true) (ks : Kernel_wl.kernel list) =
  let nk = List.length ks in
  let kernel_s = Array.make nk 0.0 and kernel_gc = Array.make nk Gc_events.zero in
  let before = match tracer with Some _ -> T.snapshot () | None -> empty_counters in
  let pass_id = match tracer with Some tr -> S.fresh_id tr.spans | None -> -1 in
  let g_start = match tracer with Some tr -> Gc_events.poll tr.gc | None -> Gc_events.zero in
  let start = now () in
  let checks =
    List.mapi
      (fun i (k : Kernel_wl.kernel) ->
        let g0 = match tracer with Some tr -> Gc_events.poll tr.gc | None -> Gc_events.zero in
        let t0 = now () in
        let check = k.run () in
        let t1 = now () in
        kernel_s.(i) <- t1 -. t0;
        (match tracer with
        | None -> ()
        | Some tr ->
          kernel_gc.(i) <- Gc_events.diff (Gc_events.poll tr.gc) g0;
          ignore
            (S.add tr.spans ~parent:pass_id ("kernel:" ^ k.name) ~start_us:(S.us_of tr.spans t0)
               ~stop_us:(S.us_of tr.spans t1)));
        check)
      ks
  in
  let stop = now () in
  let counters, gc =
    match tracer with
    | None -> (empty_counters, Gc_events.zero)
    | Some tr ->
      S.add_with_id tr.spans ~id:pass_id "pass" ~start_us:(S.us_of tr.spans start)
        ~stop_us:(S.us_of tr.spans stop);
      (T.diff ~before ~after:(T.snapshot ()), Gc_events.diff (Gc_events.poll tr.gc) g_start)
  in
  let bad =
    if check then List.fold_left (fun c ok -> if ok () then c else c + 1) 0 checks else 0
  in
  { wall_s = stop -. start; kernel_s; bad; counters; gc; kernel_gc }

(* One set-up: start the pool, generate the inputs, run the warm-up
   pass (unchecked: the references come after set-up).  Returns the
   kernels and the elapsed time. *)
let setup_kernels make ~seed =
  Runtime.shutdown ();
  Gc.compact ();
  let t0 = now () in
  Runtime.set_num_domains domains;
  let ks = make ~seed in
  ignore (run_pass ~check:false ks);
  (ks, now () -. t0)

(* Major-heap (and minor, promoted) MB of one pass on a one-domain pool,
   where all allocation happens on this domain and the GC counters are
   exact — as the harness's [Measure.alloc_single_domain] does. *)
let alloc_pass ks =
  Runtime.set_num_domains 1;
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let p = run_pass ks in
  let s1 = Gc.quick_stat () in
  Runtime.set_num_domains domains;
  let d f = mb (f s1 -. f s0) in
  ( d (fun s -> s.Gc.major_words),
    d (fun s -> s.Gc.minor_words),
    d (fun s -> s.Gc.promoted_words),
    p.bad )

(* Passes for [seconds], and at least enough for a tail percentile with
   ten passes beyond it. *)
let min_passes = 11

let timed_passes ~seconds ks =
  let deadline = now () +. seconds in
  let passes = ref [] and n = ref 0 in
  while now () < deadline || !n < min_passes do
    passes := run_pass ks :: !passes;
    incr n
  done;
  List.rev !passes

let kernel_workload ~make ~seed ~seconds =
  let runs = List.init setups (fun _ -> setup_kernels make ~seed) in
  let ks, _ = List.nth runs (setups - 1) in
  let setup_s = Stats.median (Array.of_list (List.map snd runs)) in
  List.iter (fun (k : Kernel_wl.kernel) -> k.reference ()) ks;
  let passes = timed_passes ~seconds ks in
  let major, _, _, alloc_bad = alloc_pass ks in
  let walls = Array.of_list (List.map (fun p -> ms p.wall_s) passes) in
  let n = Array.length walls in
  let pct, tail = Option.get (Stats.tail walls) in
  let nk = List.length ks in
  let bad = List.fold_left (fun c p -> c + p.bad) 0 passes in
  let attempted = (n + 1) * nk and failed = bad + alloc_bad in
  Printf.printf "%d passes of %d kernels; tail = p%.1f (10 of %d passes beyond it)\n" n nk pct n;
  Printf.printf "failed_frac = %d / %d\n" failed attempted;
  List.iteri
    (fun i (k : Kernel_wl.kernel) ->
      let t = Array.of_list (List.map (fun p -> ms p.kernel_s.(i)) passes) in
      Printf.printf "  %-12s median %8.2f ms\n" k.name (Stats.median t))
    ks;
  let metrics =
    [
      R.metric "latency_ms.p50" "ms" (Stats.median walls);
      R.metric "latency_ms.tail" "ms" tail;
      R.metric "major_alloc_mb" "MB" major;
      R.metric "setup_s" "s" setup_s;
    ]
  in
  (metrics, attempted, failed)

(* ------------------------------------------------------------------ *)
(* Service                                                              *)

module Sv = Service_wl

(* Job latencies are reported as the median, over equal windows of the
   schedule, of each window's percentile.  The host's speed drifts from
   second to second; a slow second then moves one window, not the
   figure.  Each window holds at least 1000 jobs, so its p99 has at
   least ten jobs beyond it. *)
let windows_for jobs = Stats.window_count ~min_size:1000 jobs

let setup_service ~seed ~seconds =
  Runtime.shutdown ();
  Gc.compact ();
  let t0 = now () in
  Runtime.set_num_domains domains;
  let jobs = Sv.schedule ~seed ~seconds in
  let svc = Service.create ~config:Sv.config () in
  let warm_bad = Sv.run_closed svc (Array.sub jobs 0 (min 64 (Array.length jobs))) in
  (jobs, svc, warm_bad, now () -. t0)

(* Per-job GC of a closed-loop batch on a one-domain pool. *)
let alloc_jobs () =
  Runtime.set_num_domains 1;
  let svc = Service.create ~config:Sv.config () in
  let batch = Sv.alloc_batch in
  ignore (Sv.run_closed svc (Array.sub batch 0 8));
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let bad = Sv.run_closed svc batch in
  let s1 = Gc.quick_stat () in
  Service.shutdown svc;
  Runtime.set_num_domains domains;
  let per f = mb (f s1 -. f s0) /. float_of_int (Array.length batch) in
  ( per (fun s -> s.Gc.major_words),
    per (fun s -> s.Gc.minor_words),
    per (fun s -> s.Gc.promoted_words),
    bad )

let check_exactly_once (r : Sv.result) =
  if r.Sv.lost <> 0 then
    Printf.printf "EXACTLY-ONCE VIOLATION: admitted, resolved and callbacks disagree by %d\n"
      r.Sv.lost

let print_service (r : Sv.result) ~seconds =
  Printf.printf
    "%d jobs offered over %.1f s at %.0f/s: %d rejected, %d not completed, %d wrong, %d lost; \
     generator at most %.3f ms late\n"
    r.Sv.offered seconds Sv.rate r.Sv.rejected r.Sv.not_completed r.Sv.mismatched r.Sv.lost
    r.Sv.late_ms_max;
  let windows = windows_for r.Sv.offered in
  let per_window = r.Sv.offered / windows in
  Printf.printf
    "job latency over the whole schedule: p50 %.3f ms, p99 %.3f ms; reported: median over %d \
     windows of ~%d jobs, each p99 with %d jobs beyond it\n"
    (Stats.median r.Sv.latency_ms) (Stats.percentile 99.0 r.Sv.latency_ms) windows per_window
    (Stats.beyond 99.0 per_window)

let service_workload ~seed ~seconds =
  (* Each set-up's service is shut down before the next set-up tears
     down the pool under it. *)
  let last = ref None and warm_bad = ref 0 in
  let times =
    Array.init setups (fun _ ->
        Option.iter (fun (_, svc) -> Service.shutdown svc) !last;
        let jobs, svc, bad, dt = setup_service ~seed ~seconds in
        last := Some (jobs, svc);
        warm_bad := !warm_bad + bad;
        dt)
  in
  let jobs, svc = Option.get !last and warm_bad = !warm_bad in
  let setup_s = Stats.median times in
  let r = Sv.run svc jobs in
  let major, _, _, alloc_bad = alloc_jobs () in
  print_service r ~seconds;
  check_exactly_once r;
  let failed = Sv.failed r in
  Printf.printf "failed_frac = %d / %d\n" failed r.Sv.offered;
  let windows = windows_for r.Sv.offered in
  let metrics =
    [
      R.metric "latency_ms.p50" "ms" (Stats.windowed ~windows Stats.median r.Sv.latency_ms);
      R.metric "latency_ms.tail" "ms"
        (Stats.windowed ~windows (Stats.percentile 99.0) r.Sv.latency_ms);
      R.metric "major_alloc_mb" "MB" major;
      R.metric "goodput_per_s" "1/s" (Sv.goodput r ~seconds);
      R.metric "setup_s" "s" setup_s;
    ]
  in
  let hard = r.Sv.mismatched + r.Sv.lost + warm_bad + alloc_bad in
  (metrics, r.Sv.offered, failed, hard)

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)

let median_of f xs = Stats.median (Array.of_list (List.map f xs))

let counter_metrics ~per (items : (T.snapshot * Gc_events.totals) list) =
  let m name unit f = R.metric name unit (median_of (fun x -> float_of_int (f x) /. per) items) in
  let sum f = List.fold_left (fun s (c, _) -> s + f c) 0 items in
  let attempts = sum (fun c -> c.T.s_steal_attempts) in
  [
    m "runtime.tasks" "count" (fun (c, _) -> c.T.s_tasks_spawned);
    m "runtime.chunks" "count" (fun (c, _) -> c.T.s_chunks_executed);
    m "runtime.steals" "count" (fun (c, _) -> c.T.s_steals);
    m "runtime.overflow_pushes" "count" (fun (c, _) -> c.T.s_overflow_pushes);
    m "runtime.cancel_polls" "count" (fun (c, _) -> c.T.s_cancel_polls);
    R.metric "runtime.steal_hit_frac" "frac"
      (if attempts = 0 then 0.0
       else float_of_int (sum (fun c -> c.T.s_steals)) /. float_of_int attempts);
    m "stream.fused_folds" "count" (fun (c, _) -> c.T.s_fused_folds);
    m "stream.trickle_fallbacks" "count" (fun (c, _) -> c.T.s_trickle_fallbacks);
    m "seq.shared_forces" "count" (fun (c, _) -> c.T.s_shared_forces);
    m "seq.float_fast_path" "count" (fun (c, _) -> c.T.s_float_fast_path);
    m "seq.float_boxed_fallback" "count" (fun (c, _) -> c.T.s_float_boxed_fallback);
    m "gc.minor_collections" "count" (fun (_, g) -> g.Gc_events.minor_collections);
    m "gc.major_slices" "count" (fun (_, g) -> g.Gc_events.major_slices);
    R.metric "gc.minor_ms" "ms"
      (median_of (fun (_, g) -> float_of_int g.Gc_events.minor_ns /. 1e6 /. per) items);
    R.metric "gc.major_ms" "ms"
      (median_of (fun (_, g) -> float_of_int g.Gc_events.major_ns /. 1e6 /. per) items);
  ]

let service_metrics (r : Sv.result) (tr : Sv.trace) =
  let bk = r.Sv.breakdown in
  let jobs = float_of_int (max 1 bk.Service.bk_jobs) in
  let mean_ms ns = float_of_int ns /. 1e6 /. jobs in
  [
    R.metric "service.submit_us.p50" "us" (Stats.median r.Sv.submit_us);
    R.metric "service.queue_ms.mean" "ms" (mean_ms bk.Service.bk_queue_ns);
    R.metric "service.run_ms.mean" "ms" (mean_ms bk.Service.bk_run_ns);
    R.metric "service.residue_ms.mean" "ms"
      (mean_ms
         (bk.Service.bk_wall_ns - bk.Service.bk_queue_ns - bk.Service.bk_run_ns
        - bk.Service.bk_backoff_ns));
    R.metric "service.queue_depth.max" "count" (float_of_int tr.Sv.depth_max);
    R.metric "loadgen.late_ms.max" "ms" r.Sv.late_ms_max;
  ]

let traced_service tracer ~seed ~seconds =
  Runtime.set_num_domains domains;
  let jobs = Sv.schedule ~seed ~seconds in
  let svc = Service.create ~config:Sv.config () in
  let tr = { Sv.spans = tracer.spans; depth_max = 0 } in
  let before = T.snapshot () and g0 = Gc_events.poll tracer.gc in
  let r = Sv.run ~trace:tr svc jobs in
  let counters = T.diff ~before ~after:(T.snapshot ()) in
  let gc = Gc_events.diff (Gc_events.poll tracer.gc) g0 in
  check_exactly_once r;
  (r, tr, counters, gc)

(* Kernel times of a workload's traced passes, per kernel. *)
let kernel_ms (ks : Kernel_wl.kernel list) passes =
  List.mapi
    (fun i (k : Kernel_wl.kernel) ->
      R.metric ("kernel_ms." ^ k.name) "ms" (median_of (fun p -> ms p.kernel_s.(i)) passes))
    ks

let print_kernel_gc (ks : Kernel_wl.kernel list) passes =
  Printf.printf "\nGC attributed to kernel spans (per pass, summed over domains)\n";
  List.iteri
    (fun i (k : Kernel_wl.kernel) ->
      let f g = median_of (fun p -> g p.kernel_gc.(i)) passes in
      Printf.printf "  %-12s minor %6.0f (%7.2f ms)  major slices %6.0f (%7.2f ms)\n" k.name
        (f (fun g -> float_of_int g.Gc_events.minor_collections))
        (f (fun g -> float_of_int g.Gc_events.minor_ns /. 1e6))
        (f (fun g -> float_of_int g.Gc_events.major_slices))
        (f (fun g -> float_of_int g.Gc_events.major_ns /. 1e6)))
    ks

let companion_kernels tracer ~seed make =
  Runtime.set_num_domains domains;
  let ks = make ~seed in
  List.iter (fun (k : Kernel_wl.kernel) -> k.reference ()) ks;
  ignore (run_pass ~check:false ks);
  let passes = List.init companion_passes (fun _ -> run_pass ~tracer ks) in
  (kernel_ms ks passes, List.fold_left (fun c p -> c + p.bad) 0 passes, List.length ks * companion_passes)

let traced_run ~workload ~seed ~seconds =
  Runtime.set_num_domains domains;
  let tracer = { spans = S.create (); gc = Gc_events.create () } in
  let probes, probe_bad = Probes.run ~spans:tracer.spans ~domains () in
  let layer, attempted, bad =
    match List.assoc_opt workload Kernel_wl.workloads with
    | Some make ->
      let ks = make ~seed in
      List.iter (fun (k : Kernel_wl.kernel) -> k.reference ()) ks;
      ignore (run_pass ~check:false ks);
      (* Untraced and traced passes alternate, so both see the same
         machine; their medians give the tracing overhead. *)
      let deadline = now () +. seconds in
      let plain = ref [] and traced = ref [] in
      while now () < deadline do
        Gc_events.pause ();
        plain := run_pass ks :: !plain;
        Gc_events.resume ();
        traced := run_pass ~tracer ks :: !traced
      done;
      let traced = List.rev !traced and plain = !plain in
      let _, minor, promoted, alloc_bad = alloc_pass ks in
      print_kernel_gc ks traced;
      let overhead =
        (median_of (fun p -> p.wall_s) traced /. median_of (fun p -> p.wall_s) plain) -. 1.0
      in
      let others =
        List.concat_map
          (fun (name, make) -> if name = workload then [] else [ companion_kernels tracer ~seed make ])
          Kernel_wl.workloads
      in
      let r, tr, _, _ = traced_service tracer ~seed ~seconds:companion_service_s in
      let all = plain @ traced in
      let bad =
        List.fold_left (fun c p -> c + p.bad) 0 all
        + alloc_bad + r.Sv.mismatched + r.Sv.lost
        + List.fold_left (fun c (_, b, _) -> c + b) 0 others
      in
      let attempted =
        ((List.length all + 1) * List.length ks)
        + r.Sv.offered
        + List.fold_left (fun c (_, _, a) -> c + a) 0 others
      in
      ( kernel_ms ks traced
        @ List.concat_map (fun (m, _, _) -> m) others
        @ counter_metrics ~per:1.0 (List.map (fun p -> (p.counters, p.gc)) traced)
        @ [ R.metric "gc.minor_mb" "MB" minor; R.metric "gc.promoted_mb" "MB" promoted ]
        @ service_metrics r tr
        @ [ R.metric "trace.overhead_frac" "frac" overhead ],
        attempted,
        bad )
    | None ->
      let half = seconds /. 2.0 in
      Gc_events.pause ();
      Runtime.set_num_domains domains;
      let plain_svc = Service.create ~config:Sv.config () in
      let plain = Sv.run plain_svc (Sv.schedule ~seed ~seconds:half) in
      check_exactly_once plain;
      Gc_events.resume ();
      let r, tr, counters, gc = traced_service tracer ~seed ~seconds:half in
      print_service r ~seconds:half;
      let _, minor, promoted, alloc_bad = alloc_jobs () in
      let others =
        List.map (fun (_, make) -> companion_kernels tracer ~seed make) Kernel_wl.workloads
      in
      let overhead =
        (Stats.median r.Sv.latency_ms /. Stats.median plain.Sv.latency_ms) -. 1.0
      in
      let bad =
        r.Sv.mismatched + r.Sv.lost + plain.Sv.mismatched + plain.Sv.lost + alloc_bad
        + List.fold_left (fun c (_, b, _) -> c + b) 0 others
      in
      let attempted =
        r.Sv.offered + plain.Sv.offered + List.fold_left (fun c (_, _, a) -> c + a) 0 others
      in
      ( List.concat_map (fun (m, _, _) -> m) others
        @ counter_metrics ~per:(float_of_int r.Sv.offered) [ (counters, gc) ]
        @ [ R.metric "gc.minor_mb" "MB" minor; R.metric "gc.promoted_mb" "MB" promoted ]
        @ service_metrics r tr
        @ [ R.metric "trace.overhead_frac" "frac" overhead ],
        attempted,
        bad )
  in
  let lost = (Gc_events.poll tracer.gc).Gc_events.lost_events in
  if lost > 0 then Printf.printf "runtime_events: %d events lost; GC figures are low\n" lost;
  let spans = S.spans tracer.spans in
  Printf.printf "\nSelf time by span name (%d spans)\n" (List.length spans);
  List.iter
    (fun (name, count, self_us) ->
      Printf.printf "  %-24s %7d spans %12.3f ms self\n" name count (self_us /. 1e3))
    (S.self_by_name spans);
  let dir = Filename.concat ".bench_build" "perfbench" in
  (try Sys.mkdir ".bench_build" 0o755 with Sys_error _ -> ());
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" workload seed) in
  S.write_json path spans;
  Printf.printf "spans written to %s\n" path;
  (probes @ layer, attempted + (List.length probes * (Probes.reps + 1)), bad + probe_bad)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME filter-flatten | scan-reduce | service-mixed");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ]
    (fun a -> die "unexpected argument %S" a)
    "bds_perf --workload NAME --seed N --seconds S --trace 0|1";
  let known = "service-mixed" :: List.map fst Kernel_wl.workloads in
  if not (List.mem !workload known) then die "unknown workload %S" !workload;
  if !seed < 0 then die "--seed must be a non-negative integer";
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (match List.filter (fun v -> Sys.getenv_opt v <> None) pinned with
  | [] -> ()
  | set -> die "refusing to run with %s set: the benchmark measures the defaults" (String.concat ", " set));
  let seconds_f = float_of_int !seconds in
  Printf.printf "bds_perf: workload=%s seed=%d P=%d seconds=%d trace=%d\n%!" !workload !seed
    domains !seconds !trace;
  let metrics, attempted, failed, hard =
    if !trace = 1 then
      let m, a, bad = traced_run ~workload:!workload ~seed:!seed ~seconds:seconds_f in
      (m, a, bad, bad)
    else
      match List.assoc_opt !workload Kernel_wl.workloads with
      | Some make ->
        let m, a, f = kernel_workload ~make ~seed:!seed ~seconds:seconds_f in
        (m, a, f, f)
      | None -> service_workload ~seed:!seed ~seconds:seconds_f
  in
  Runtime.shutdown ();
  R.print_table
    (Printf.sprintf "%s metrics (workload=%s seed=%d P=%d)"
       (if !trace = 1 then "per-layer" else "end-to-end")
       !workload !seed domains)
    metrics;
  let correct = hard = 0 in
  R.print_json ~correct ~attempted ~failed metrics;
  if not correct then exit 1
