(* In-memory span recorder for the traced run.  Spans are recorded from
   the benchmark's own code, around its calls into each layer; nothing
   inside the library is instrumented.  They are kept in memory and
   written out once, when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, or -1 at top level *)
  job : int;  (** shared by every span of one service job, else -1 *)
  start_us : float;
  stop_us : float;
}

type t = { origin : float; mutable next_id : int; mutable spans : span list }

let create () = { origin = Unix.gettimeofday (); next_id = 0; spans = [] }

(* Microseconds since the recorder was created, for a wall-clock time. *)
let us_of t wall = (wall -. t.origin) *. 1e6
let now_us t = us_of t (Unix.gettimeofday ())

let add t ?(parent = -1) ?(job = -1) name ~start_us ~stop_us =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; name; parent; job; start_us; stop_us } :: t.spans;
  id

(* Reserve an id for a span whose children are recorded before it ends. *)
let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add_with_id t ~id ?(parent = -1) ?(job = -1) name ~start_us ~stop_us =
  t.spans <- { id; name; parent; job; start_us; stop_us } :: t.spans

let spans t = List.rev t.spans

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   children cover (overlapping children count once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_us, s.stop_us)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, s.stop_us -. s.start_us -. covered ~lo:s.start_us ~hi:s.stop_us kids))
    spans

(* Total self time per span name, largest first. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, sum = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, sum +. self))
    (self_times spans);
  Hashtbl.fold (fun name (n, sum) acc -> (name, n, sum) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)

let write_json path spans =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i (s, self) ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"job\":%d,\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}"
        (if i = 0 then "" else ",\n")
        s.id s.name s.parent s.job s.start_us s.stop_us self)
    (self_times spans);
  output_string oc "\n]\n";
  close_out oc
