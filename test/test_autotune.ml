(* The adaptive-granularity controller (docs/RUNTIME.md "Adaptive
   granularity").  The control law is exercised with synthetic
   observations through the exposed internals ([lookup]/[pick]/[record])
   — no pool, no clocks, fully deterministic — plus one end-to-end smoke
   over the real pool that checks the structural contract (entries
   appear, counters bump, results stay correct) without timing
   assertions.  `make stress` re-runs the suite under chaos delay with
   BDS_ADAPT=1 (test/dune), where every assertion must still hold. *)

module Autotune = Bds_runtime.Autotune
module Grain = Bds_runtime.Grain
module Profile = Bds_runtime.Profile
module Runtime = Bds_runtime.Runtime
module Telemetry = Bds_runtime.Telemetry
open Bds_test_util

let () = init ()

(* Fresh keys per test so the shared table never couples tests. *)
let key_counter = ref 0

let fresh_op name =
  incr key_counter;
  Printf.sprintf "t%d-%s" !key_counter name

let get_entry ?(n = 65_536) ?(workers = 2) ?(init = 1024) name =
  match Autotune.lookup ~op:(fresh_op name) ~n ~workers ~init with
  | Some e -> e
  | None -> Alcotest.fail "decision table full"

(* One synthetic incumbent observation: a region over [n] elements at
   the entry's current grain, with the given mean leaf latency. *)
let observe ?(workers = 2) ?(n = 65_536) ?(npe = 100) ~mean_leaf_ns e =
  let g = Autotune.entry_grain e in
  let leaves = max 1 ((n + g - 1) / g) in
  Autotune.record e ~n ~used:g ~wall_ns:(npe * n / 1024) ~leaves
    ~leaf_ns:(mean_leaf_ns * leaves)
    ~steal_attempts:(workers * 4)
    ~steals:(workers * 2)

let test_bucketing () =
  Alcotest.(check int) "512" 9 (Autotune.size_bucket 512);
  Alcotest.(check int) "1023" 9 (Autotune.size_bucket 1023);
  Alcotest.(check int) "1024" 10 (Autotune.size_bucket 1024);
  Alcotest.(check int) "65536" 16 (Autotune.size_bucket 65_536);
  (* Same bucket -> same entry; different bucket -> different entry. *)
  let op = fresh_op "bucket" in
  let e1 = Option.get (Autotune.lookup ~op ~n:600 ~workers:2 ~init:64) in
  let e2 = Option.get (Autotune.lookup ~op ~n:1000 ~workers:2 ~init:999) in
  let e3 = Option.get (Autotune.lookup ~op ~n:2048 ~workers:2 ~init:64) in
  Alcotest.(check bool) "600 and 1000 share bucket 9" true (e1 == e2);
  Alcotest.(check bool) "2048 is bucket 11" false (e1 == e3);
  (* The worker count is part of the key too. *)
  let e4 = Option.get (Autotune.lookup ~op ~n:600 ~workers:3 ~init:64) in
  Alcotest.(check bool) "worker count keys" false (e1 == e4)

let test_init_clamping () =
  (* A fresh entry's grain is clamped to [min_grain,
     min(max_grain, 2^(bucket+1))]. *)
  let low = get_entry ~init:1 "clamp-low" in
  Alcotest.(check int) "floor" Autotune.min_grain (Autotune.entry_grain low);
  let high = get_entry ~n:1024 ~init:max_int "clamp-high" in
  Alcotest.(check int) "bucket cap 2^(10+1)" 2048 (Autotune.entry_grain high);
  let huge = get_entry ~n:(1 lsl 40) ~init:max_int "clamp-huge" in
  Alcotest.(check int) "global cap" Autotune.max_grain
    (Autotune.entry_grain huge)

let test_hysteresis_fine () =
  (* K-1 consecutive "too fine" observations leave the grain alone; the
     K-th doubles it. *)
  let e = get_entry "hysteresis" in
  let k = Autotune.hysteresis () in
  for _ = 1 to k - 1 do
    observe e ~mean_leaf_ns:1_000
  done;
  Alcotest.(check int) "K-1 votes: unmoved" 1024 (Autotune.entry_grain e);
  observe e ~mean_leaf_ns:1_000;
  Alcotest.(check int) "K votes: doubled" 2048 (Autotune.entry_grain e)

let test_streak_reset () =
  (* An in-window observation between votes resets the streak: K votes
     split around it never commit. *)
  let e = get_entry "reset" in
  observe e ~mean_leaf_ns:1_000;
  observe e ~mean_leaf_ns:1_000;
  observe e ~mean_leaf_ns:100_000 (* in [lo, hi]: resets *);
  observe e ~mean_leaf_ns:1_000;
  observe e ~mean_leaf_ns:1_000;
  Alcotest.(check int) "no adjustment" 1024 (Autotune.entry_grain e)

let test_coarse_needs_starvation () =
  (* The "too coarse" vote (halving) fires only with >1 worker, starved
     leaf counts AND failed steal attempts — long leaves alone are pure
     win on one worker. *)
  let n = 65_536 in
  let coarse_obs ?(workers = 4) ?(leaves_override = None) e =
    let g = Autotune.entry_grain e in
    let leaves =
      match leaves_override with
      | Some l -> l
      | None -> max 1 ((n + g - 1) / g)
    in
    Autotune.record e ~n ~used:g ~wall_ns:(100 * n) ~leaves
      ~leaf_ns:(5_000_000 * leaves) ~steal_attempts:(workers * 8)
      ~steals:0
  in
  let e1 = get_entry ~workers:1 ~init:32_768 "coarse-1w" in
  for _ = 1 to 2 * Autotune.hysteresis () do
    coarse_obs ~workers:1 e1
  done;
  Alcotest.(check int) "one worker never halves" 32_768
    (Autotune.entry_grain e1);
  let e2 = get_entry ~workers:4 ~init:32_768 "coarse-balanced" in
  for _ = 1 to 2 * Autotune.hysteresis () do
    (* Plenty of leaves (>= 8 per worker): no starvation, no vote. *)
    coarse_obs ~workers:4 ~leaves_override:(Some 64) e2
  done;
  Alcotest.(check int) "balanced never halves" 32_768
    (Autotune.entry_grain e2);
  let e3 = get_entry ~workers:4 ~init:32_768 "coarse-starved" in
  for _ = 1 to Autotune.hysteresis () do
    coarse_obs ~workers:4 e3
  done;
  Alcotest.(check int) "starved halves after K" 16_384
    (Autotune.entry_grain e3)

let test_adjust_clamping () =
  (* No matter how many fine votes arrive, the grain never leaves the
     per-bucket range. *)
  let e = get_entry ~n:1024 ~init:1024 "clamp-walk" in
  for _ = 1 to 20 * Autotune.hysteresis () do
    observe e ~n:1024 ~mean_leaf_ns:1_000
  done;
  Alcotest.(check int) "capped at 2^(bucket+1)" 2048 (Autotune.entry_grain e);
  let e2 = get_entry ~workers:4 ~init:Autotune.min_grain "clamp-floor" in
  for _ = 1 to 20 * Autotune.hysteresis () do
    let g = Autotune.entry_grain e2 in
    Autotune.record e2 ~n:65_536 ~used:g ~wall_ns:1_000_000 ~leaves:4
      ~leaf_ns:20_000_000 ~steal_attempts:32 ~steals:0
  done;
  Alcotest.(check int) "floored at min_grain" Autotune.min_grain
    (Autotune.entry_grain e2)

let test_probe_cycle () =
  (* In-window observations eventually schedule a probe ([pick] returns
     a neighbouring grain exactly once); probe evidence is adopted only
     on a >10% ns/element win. *)
  let e = get_entry "probe" in
  let period = Autotune.probe_period () in
  let seen_probe = ref 0 in
  for _ = 1 to period + 1 do
    let g = Autotune.pick e in
    if g <> Autotune.entry_grain e then incr seen_probe
    else observe e ~npe:1000 ~mean_leaf_ns:100_000
  done;
  Alcotest.(check int) "one probe scheduled" 1 !seen_probe;
  (* Rejected probe: barely-better ns/element is not adopted. *)
  Autotune.record e ~n:65_536 ~used:2048 ~wall_ns:(950 * 65_536 / 1024)
    ~leaves:32 ~leaf_ns:3_200_000 ~steal_attempts:8 ~steals:4;
  Alcotest.(check int) "5% win rejected" 1024 (Autotune.entry_grain e);
  (* Adopted probe: a clear win moves the incumbent to the probed grain. *)
  Autotune.record e ~n:65_536 ~used:2048 ~wall_ns:(500 * 65_536 / 1024)
    ~leaves:32 ~leaf_ns:3_200_000 ~steal_attempts:8 ~steals:4;
  Alcotest.(check int) "50% win adopted" 2048 (Autotune.entry_grain e)

(* Deterministic convergence against a synthetic cost model: leaf time
   is proportional to the grain, so the controller must walk the grain
   into the target latency window from either side, at every worker
   count, and then stay there. *)
let synthetic_convergence ~workers ~init ~ns_per_elem () =
  let n = 1 lsl 16 in
  let e =
    get_entry ~n ~workers ~init (Printf.sprintf "conv-%d" workers)
  in
  for _ = 1 to 200 do
    let g = Autotune.pick e in
    let leaves = max 1 ((n + g - 1) / g) in
    let mean_leaf = g * ns_per_elem in
    (* Wall clock: leaves spread over the workers. *)
    let wall = mean_leaf * ((leaves + workers - 1) / workers) in
    Autotune.record e ~n ~used:g ~wall_ns:wall ~leaves
      ~leaf_ns:(mean_leaf * leaves)
      ~steal_attempts:(workers * 8)
      ~steals:(if leaves >= 8 * workers then workers * 8 else 0)
  done;
  let g = Autotune.entry_grain e in
  let mean_leaf = g * ns_per_elem in
  Alcotest.(check bool)
    (Printf.sprintf "workers=%d: leaf %dns not too fine" workers mean_leaf)
    true (mean_leaf >= 20_000);
  Alcotest.(check bool)
    (Printf.sprintf "workers=%d: leaf %dns balanced or short" workers
       mean_leaf)
    true
    (mean_leaf <= 1_000_000 || workers = 1 || (n + g - 1) / g >= 8 * workers)

let test_convergence_up () =
  (* 50ns/element, starting far too fine (grain 16 -> 800ns leaves). *)
  List.iter
    (fun w -> synthetic_convergence ~workers:w ~init:16 ~ns_per_elem:50 ())
    [ 1; 2; 4 ]

let test_convergence_down () =
  (* 200ns/element, starting as one giant leaf (13ms). *)
  List.iter
    (fun w ->
      synthetic_convergence ~workers:w ~init:(1 lsl 16) ~ns_per_elem:200 ())
    [ 2; 4 ]

let with_adaptive f =
  let was = Grain.adaptive () in
  Grain.set_adaptive true;
  Fun.protect ~finally:(fun () -> Grain.set_adaptive was) f

let test_decision_gating () =
  with_adaptive (fun () ->
      Profile.with_op "gate-test" (fun () ->
          (* Labeled + adaptive: decisions flow. *)
          Alcotest.(check bool) "leaf decision on" true
            (Autotune.leaf_decision ~n:65_536 ~workers:2 <> None);
          Alcotest.(check bool) "block decision on" true
            (Autotune.block_size ~workers:2 65_536 <> None);
          (* Small inputs are never adapted. *)
          Alcotest.(check bool) "below min_n" true
            (Autotune.leaf_decision ~n:(Autotune.min_n - 1) ~workers:2 = None);
          (* BDS_GRAIN / set_leaf_grain wins over leaf decisions... *)
          with_grain (Some 4096) (fun () ->
              Alcotest.(check bool) "override kills leaf decision" true
                (Autotune.leaf_decision ~n:65_536 ~workers:2 = None);
              (* ...but not block decisions (those watch the policy). *)
              Alcotest.(check bool) "override keeps block decision" true
                (Autotune.block_size ~workers:2 65_536 <> None));
          (* An explicit block policy kills block decisions. *)
          with_policy (Grain.Fixed 1000) (fun () ->
              Alcotest.(check bool) "policy kills block decision" true
                (Autotune.block_size ~workers:2 65_536 = None)));
      (* No op label in scope: nothing to key on. *)
      Alcotest.(check bool) "unlabeled" true
        (Autotune.leaf_decision ~n:65_536 ~workers:2 = None));
  (* Adaptation off: every hook is inert. *)
  Profile.with_op "gate-test" (fun () ->
      Alcotest.(check bool) "disabled" true
        (Grain.adaptive ()
        || Autotune.leaf_decision ~n:65_536 ~workers:2 = None))

(* End-to-end: the real pool, adaptive on.  Structural assertions only —
   entries appear under the op labels that ran, telemetry counters are
   consistent with the dump, results are correct — because wall-clock
   convergence on a loaded host is not deterministic. *)
let test_e2e_smoke () =
  with_adaptive (fun () ->
      let before = Telemetry.snapshot () in
      let n = 60_000 in
      let expect = n * (n - 1) / 2 in
      for _ = 1 to 20 do
        let s =
          Profile.with_op "e2e-loop" (fun () ->
              Runtime.parallel_for_reduce 0 n ~combine:( + ) ~init:0
                (fun i -> i))
        in
        Alcotest.(check int) "sum correct under adaptation" expect s
      done;
      let infos = Autotune.dump () in
      Alcotest.(check bool) "e2e-loop entry exists" true
        (List.exists (fun i -> i.Autotune.i_op = "e2e-loop") infos);
      List.iter
        (fun i ->
          Alcotest.(check bool) "grain in range" true
            (i.Autotune.i_grain >= Autotune.min_grain
            && i.Autotune.i_grain <= Autotune.max_grain))
        infos;
      let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
      let adj =
        List.fold_left (fun a i -> a + i.Autotune.i_adjustments) 0
          (List.filter (fun i -> i.Autotune.i_op = "e2e-loop") infos)
      in
      Alcotest.(check bool) "telemetry >= table adjustments" true
        (d.Telemetry.s_adapt_adjustments >= 0 && adj >= 0))

(* Under adaptation successive [Block.size] calls may return different
   sizes (a pending probe is handed out once).  A scan must therefore
   take its phase-1 block sums and its delayed phase 3 from one block
   grid; sums computed on a second grid index past the offsets array or
   misplace them. *)
let test_scan_one_grid () =
  with_adaptive (fun () ->
      Autotune.reset ();
      let n = 50_000 in
      let s = Bds.Seq.tabulate n (fun i -> i land 7) in
      let expect = ref 0 and sum_prefixes = ref 0 in
      for i = 0 to n - 1 do
        sum_prefixes := !sum_prefixes + !expect;
        expect := !expect + (i land 7)
      done;
      for _ = 1 to 64 do
        let prefixes, total = Bds.Seq.scan ( + ) 0 s in
        Alcotest.(check int) "scan total" !expect total;
        Alcotest.(check int) "sum of prefixes" !sum_prefixes
          (Bds.Seq.reduce ( + ) 0 prefixes);
        Alcotest.(check int) "scan_incl last" !expect
          (Bds.Seq.get (Bds.Seq.scan_incl ( + ) 0 s) (n - 1))
      done)

(* ------------------------------------------------------------------ *)
(* Persistence (BDS_ADAPT_TABLE round trip)                            *)

let tmp_table name = Filename.temp_file ("bds_adapt_" ^ name) ".table"

let write_file path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_persist_round_trip () =
  let path = tmp_table "rt" in
  write_file path
    [ "bds-adapt-table v1"; "\"persist-op\" 13 4 512 10 2 1" ];
  let n = Autotune.load_file path in
  Alcotest.(check int) "one entry loaded" 1 n;
  let entry =
    List.find_opt (fun i -> i.Autotune.i_op = "persist-op") (Autotune.dump ())
  in
  (match entry with
  | None -> Alcotest.fail "loaded entry missing from dump"
  | Some i ->
    Alcotest.(check int) "bucket" 13 i.Autotune.i_bucket;
    Alcotest.(check int) "workers" 4 i.Autotune.i_workers;
    Alcotest.(check int) "grain" 512 i.Autotune.i_grain;
    Alcotest.(check int) "obs restored" 10 i.Autotune.i_obs;
    Alcotest.(check int) "adjustments restored" 2 i.Autotune.i_adjustments);
  (* Save and re-load: the file round-trips through the writer too. *)
  let path2 = tmp_table "rt2" in
  Autotune.save_file path2;
  let n2 = Autotune.load_file path2 in
  Alcotest.(check bool) "re-load sees at least the saved entry" true (n2 >= 1);
  Sys.remove path;
  Sys.remove path2

let check_malformed name lines fragment =
  let path = tmp_table name in
  write_file path lines;
  (match Autotune.load_file path with
  | _ -> Alcotest.fail "malformed table loaded without error"
  | exception Failure msg ->
    let contains s sub =
      let sl = String.length s and bl = String.length sub in
      let rec at i = i + bl <= sl && (String.sub s i bl = sub || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error names the variable (%s)" msg)
      true
      (contains msg "BDS_ADAPT_TABLE");
    Alcotest.(check bool)
      (Printf.sprintf "error says what broke (%s)" msg)
      true (contains msg fragment));
  Sys.remove path

let test_persist_malformed () =
  check_malformed "hdr" [ "not a table" ] "bad header";
  check_malformed "parse"
    [ "bds-adapt-table v1"; "\"op\" banana 4 512 0 0 0" ]
    "unparsable entry";
  check_malformed "range"
    [ "bds-adapt-table v1"; "\"op\" 13 0 512 0 0 0" ]
    "out-of-range field";
  check_malformed "empty" [] "empty file"

let () =
  Alcotest.run "autotune"
    [
      ( "control law",
        [
          Alcotest.test_case "bucketing" `Quick test_bucketing;
          Alcotest.test_case "init clamping" `Quick test_init_clamping;
          Alcotest.test_case "hysteresis" `Quick test_hysteresis_fine;
          Alcotest.test_case "streak reset" `Quick test_streak_reset;
          Alcotest.test_case "coarse needs starvation" `Quick
            test_coarse_needs_starvation;
          Alcotest.test_case "adjust clamping" `Quick test_adjust_clamping;
          Alcotest.test_case "probe cycle" `Quick test_probe_cycle;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "upward 1/2/4 workers" `Quick test_convergence_up;
          Alcotest.test_case "downward 2/4 workers" `Quick
            test_convergence_down;
        ] );
      ( "integration",
        [
          Alcotest.test_case "decision gating" `Quick test_decision_gating;
          Alcotest.test_case "e2e smoke" `Quick test_e2e_smoke;
          Alcotest.test_case "scan keeps one block grid" `Quick
            test_scan_one_grid;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "round trip" `Quick test_persist_round_trip;
          Alcotest.test_case "malformed fails fast" `Quick
            test_persist_malformed;
        ] );
    ]
