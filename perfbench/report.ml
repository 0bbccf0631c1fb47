(* The benchmark's output: a readable table, then, as the last line of
   standard output, one JSON object with the run's verdict and metrics. *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* JSON has no infinity: a latency that is infinite because jobs failed
   is written as 1e12. *)
let json_number v =
  if not (Float.is_finite v) then "1e12"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_table title metrics =
  Printf.printf "\n%s\n" title;
  List.iter (fun m -> Printf.printf "  %-28s %16.6g %s\n" m.name m.value m.unit) metrics

let print_json ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)
