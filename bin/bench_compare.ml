(* Perf-regression gate: compare a fresh benchmark CSV (bench/main.exe
   --csv) against a committed baseline snapshot (BENCH_9.json for the
   ratios below, BENCH_17.json for the paper kernels' allocation).

   The host is a shared container whose absolute wall-clock drifts by
   tens of percent between runs, so the gate judges *within-run ratios*
   by default: the push-vs-pull speedup of the stream-overhead chain,
   the fused-vs-materialized speedup of the Seq filter/flatten chains,
   and the unboxed-vs-boxed speedup of every float-kernels bench — each
   divides two times measured seconds apart on the same machine, which
   is stable (see the snapshots' host_note).  The one absolute figure
   gated by default is major-heap allocation: the Figure 13/14 "Ours"
   kernels' [major_alloc_bytes], measured on a one-domain pool, which is
   near-deterministic on any host.  A section is gated when it is
   present in the baseline's "results" (so older BENCH_4-shaped
   baselines still work); a baseline with no known section is a usage
   error, never a silent pass.  Absolute times are compared only under
   --absolute, for quiet hosts.

   Exit status: 0 when every checked metric is within --max-regress
   percent of the baseline, 1 on any regression, 2 on usage/parse
   errors.  The report prints one line per metric either way, so the CI
   artifact shows the margins even when the gate passes. *)

module J = Bds_runtime.Tiny_json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* CSV rows: section,bench,version,procs,metric,value *)

type row = {
  section : string;
  bench : string;
  version : string;
  metric : string;
  value : float;
}

let parse_csv text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty CSV"
  | header :: rest ->
    if String.trim header <> "section,bench,version,procs,metric,value" then
      Error (Printf.sprintf "unexpected CSV header: %s" header)
    else
      let parse_line i l =
        match String.split_on_char ',' l with
        | [ section; bench; version; _procs; metric; value ] -> (
          match float_of_string_opt value with
          | Some value -> Ok { section; bench; version; metric; value }
          | None -> Error (Printf.sprintf "line %d: bad value %S" (i + 2) value))
        | _ -> Error (Printf.sprintf "line %d: expected 6 fields" (i + 2))
      in
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | l :: rest -> (
          match parse_line i l with
          | Ok r -> go (i + 1) (r :: acc) rest
          | Error _ as e -> e)
      in
      go 0 [] rest

(* Last matching row wins, mirroring how the harness appends rows. *)
let find rows ~section ~bench ~version ~metric =
  List.fold_left
    (fun acc r ->
      if
        r.section = section && r.bench = bench && r.version = version
        && r.metric = metric
      then Some r.value
      else acc)
    None rows

(* ------------------------------------------------------------------ *)
(* Checks *)

type direction = Higher_better | Lower_better

type check = {
  name : string;
  dir : direction;
  baseline : float;
  current : float;
}

let verdict ~tolerance c =
  let margin = tolerance /. 100.0 in
  match c.dir with
  | Higher_better -> c.current >= c.baseline *. (1.0 -. margin)
  | Lower_better -> c.current <= c.baseline *. (1.0 +. margin)

let change_pct c =
  if c.baseline = 0.0 then 0.0
  else (c.current -. c.baseline) /. c.baseline *. 100.0

let baseline_float json path_ =
  match Option.bind (J.path path_ json) J.to_float with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "baseline: missing %s" (String.concat "." path_))

let build_checks ~absolute json rows =
  let ( let* ) = Result.bind in
  let csv_time ~section ~bench version =
    match find rows ~section ~bench ~version ~metric:"time_s" with
    | Some v when v > 0.0 ->
      Ok v
    | Some _ ->
      Error
        (Printf.sprintf "csv: non-positive time for %s/%s/%s" section bench
           version)
    | None ->
      Error (Printf.sprintf "csv: no %s time for %s/%s" section bench version)
  in
  (* stream-overhead: gate the push-vs-pull speedup (present since
     BENCH_4). *)
  let stream_checks () =
    let chain = [ "results"; "stream-overhead/chain3" ] in
    match J.path chain json with
    | None -> Ok []
    | Some _ ->
      let* base_speedup =
        baseline_float json (chain @ [ "speedup_push_vs_pull" ])
      in
      let time = csv_time ~section:"stream-overhead" ~bench:"chain3" in
      let* t_pull = time "pull" in
      let* t_push = time "push" in
      let ratio_checks =
        [
          {
            name = "stream-overhead push-vs-pull speedup";
            dir = Higher_better;
            baseline = base_speedup;
            current = t_pull /. t_push;
          };
        ]
      in
      if not absolute then Ok ratio_checks
      else
        let* base_pull =
          baseline_float json (chain @ [ "pull_trickle"; "time_s" ])
        in
        let* base_push =
          baseline_float json (chain @ [ "push_fused"; "time_s" ])
        in
        Ok
          (ratio_checks
          @ [
              {
                name = "stream-overhead pull time_s (absolute)";
                dir = Lower_better;
                baseline = base_pull;
                current = t_pull;
              };
              {
                name = "stream-overhead push time_s (absolute)";
                dir = Lower_better;
                baseline = base_push;
                current = t_push;
              };
            ])
  in
  (* Seq filter/flatten chains: gate the fused-vs-materialized speedup
     of each chain bench the baseline records (present since BENCH_8). *)
  let chain_checks bench =
    let chain = [ "results"; "stream-overhead/" ^ bench ] in
    match J.path chain json with
    | None -> Ok []
    | Some _ ->
      let* base_speedup =
        baseline_float json (chain @ [ "speedup_fused_vs_materialized" ])
      in
      let time = csv_time ~section:"stream-overhead" ~bench in
      let* t_mat = time "materialized" in
      let* t_fused = time "fused" in
      let ratio_checks =
        [
          {
            name =
              Printf.sprintf "stream-overhead %s fused-vs-materialized speedup"
                bench;
            dir = Higher_better;
            baseline = base_speedup;
            current = t_mat /. t_fused;
          };
        ]
      in
      if not absolute then Ok ratio_checks
      else
        let* base_mat =
          baseline_float json (chain @ [ "materialized"; "time_s" ])
        in
        let* base_fused = baseline_float json (chain @ [ "fused"; "time_s" ]) in
        Ok
          (ratio_checks
          @ [
              {
                name =
                  Printf.sprintf "stream-overhead %s materialized time_s (absolute)"
                    bench;
                dir = Lower_better;
                baseline = base_mat;
                current = t_mat;
              };
              {
                name =
                  Printf.sprintf "stream-overhead %s fused time_s (absolute)"
                    bench;
                dir = Lower_better;
                baseline = base_fused;
                current = t_fused;
              };
            ])
  in
  (* float-kernels: gate the unboxed-vs-boxed speedup of every bench the
     baseline records (present since BENCH_7). *)
  let float_checks () =
    match J.path [ "results"; "float-kernels" ] json with
    | None -> Ok []
    | Some (J.Obj benches) ->
      let* checks =
        List.fold_left
          (fun acc (bench, v) ->
            let* acc = acc in
            let* base =
              match
                Option.bind (J.member "speedup_unboxed_vs_boxed" v) J.to_float
              with
              | Some f -> Ok f
              | None ->
                Error
                  (Printf.sprintf
                     "baseline: missing results.float-kernels.%s.speedup_unboxed_vs_boxed"
                     bench)
            in
            let time = csv_time ~section:"float-kernels" ~bench in
            let* t_boxed = time "boxed" in
            let* t_unboxed = time "unboxed" in
            Ok
              ({
                 name =
                   Printf.sprintf "float-kernels %s unboxed-vs-boxed speedup"
                     bench;
                 dir = Higher_better;
                 baseline = base;
                 current = t_boxed /. t_unboxed;
               }
              :: acc))
          (Ok []) benches
      in
      Ok (List.rev checks)
    | Some _ -> Error "baseline: results.float-kernels is not an object"
  in
  (* paper-alloc: gate the major-heap bytes of every Figure 13/14
     "Ours" kernel the baseline records, keyed "SECTION/BENCH" (present
     since BENCH_17); lower is better. *)
  let alloc_checks () =
    match J.path [ "results"; "paper-alloc" ] json with
    | None -> Ok []
    | Some (J.Obj kernels) ->
      let* checks =
        List.fold_left
          (fun acc (key, v) ->
            let* acc = acc in
            let* section, bench =
              match String.index_opt key '/' with
              | Some i ->
                Ok (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
              | None ->
                Error
                  (Printf.sprintf "baseline: paper-alloc key %S is not SECTION/BENCH" key)
            in
            let* base =
              match Option.bind (J.member "major_alloc_bytes" v) J.to_float with
              | Some f -> Ok f
              | None ->
                Error
                  (Printf.sprintf
                     "baseline: missing results.paper-alloc.%s.major_alloc_bytes" key)
            in
            let* current =
              match
                find rows ~section ~bench ~version:"delay" ~metric:"major_alloc_bytes"
              with
              | Some c -> Ok c
              | None ->
                Error (Printf.sprintf "csv: no major_alloc_bytes for %s/%s/delay" section bench)
            in
            Ok
              ({
                 name = Printf.sprintf "paper-alloc %s Ours major_alloc_bytes" key;
                 dir = Lower_better;
                 baseline = base;
                 current;
               }
              :: acc))
          (Ok []) kernels
      in
      Ok (List.rev checks)
    | Some _ -> Error "baseline: results.paper-alloc is not an object"
  in
  let* sc = stream_checks () in
  let* filter_c = chain_checks "filter-chain" in
  let* flatten_c = chain_checks "flatten-chain" in
  let* fc = float_checks () in
  let* ac = alloc_checks () in
  match sc @ filter_c @ flatten_c @ fc @ ac with
  | [] ->
    Error
      "baseline: results contains no known gated section \
       (stream-overhead/chain3, stream-overhead/filter-chain, \
       stream-overhead/flatten-chain, float-kernels or paper-alloc)"
  | checks -> Ok checks

(* ------------------------------------------------------------------ *)
(* Driver *)

let () =
  let baseline = ref "BENCH_9.json" in
  let csv = ref "" in
  let tolerance = ref 15.0 in
  let absolute = ref false in
  let usage = "bench_compare --csv FILE [--baseline FILE] [--max-regress PCT] [--absolute]" in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "FILE Baseline snapshot JSON (default BENCH_9.json)");
      ("--csv", Arg.Set_string csv, "FILE Fresh bench CSV (bench/main.exe --csv)");
      ("--max-regress", Arg.Set_float tolerance, "PCT Allowed regression percent (default 15)");
      ("--absolute", Arg.Set absolute, " Also gate absolute times (noisy hosts: leave off)");
    ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    usage;
  if !csv = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let fail msg =
    Printf.eprintf "bench_compare: %s\n" msg;
    exit 2
  in
  let json =
    match J.parse_result (read_file !baseline) with
    | Ok j -> j
    | Error e -> fail (Printf.sprintf "%s: %s" !baseline e)
    | exception Sys_error e -> fail e
  in
  let rows =
    match parse_csv (read_file !csv) with
    | Ok r -> r
    | Error e -> fail (Printf.sprintf "%s: %s" !csv e)
    | exception Sys_error e -> fail e
  in
  let checks =
    match build_checks ~absolute:!absolute json rows with
    | Ok c -> c
    | Error e -> fail e
  in
  let snap =
    match Option.bind (J.member "snapshot" json) J.to_float with
    | Some f -> string_of_int (int_of_float f)
    | None -> "?"
  in
  Printf.printf "bench_compare: baseline snapshot %s (%s), tolerance %g%%\n" snap
    !baseline !tolerance;
  let ok =
    List.fold_left
      (fun ok c ->
        let pass = verdict ~tolerance:!tolerance c in
        Printf.printf "  %-42s baseline %8.4f  current %8.4f  %+6.1f%%  %s\n"
          c.name c.baseline c.current (change_pct c)
          (if pass then "ok" else "REGRESSION");
        ok && pass)
      true checks
  in
  if ok then begin
    print_endline "result: PASS";
    exit 0
  end
  else begin
    print_endline "result: FAIL";
    exit 1
  end
