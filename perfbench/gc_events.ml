(* GC phases of this process, read back from the OCaml runtime's own
   event ring ([runtime_events]).  Counts and durations are summed over
   every domain.  The reader polls at span boundaries, so what one poll
   returns happened inside the span it closes: that is how GC time is
   attributed to the enclosing kernel. *)

module RE = Runtime_events

type totals = {
  minor_collections : int;
  major_slices : int;
  minor_ns : int;
  major_ns : int;
  lost_events : int;
}

let zero =
  { minor_collections = 0; major_slices = 0; minor_ns = 0; major_ns = 0; lost_events = 0 }

let diff a b =
  {
    minor_collections = a.minor_collections - b.minor_collections;
    major_slices = a.major_slices - b.major_slices;
    minor_ns = a.minor_ns - b.minor_ns;
    major_ns = a.major_ns - b.major_ns;
    lost_events = a.lost_events - b.lost_events;
  }

type t = { cursor : RE.cursor; callbacks : RE.Callbacks.t; acc : totals ref }

let ts_ns ts = Int64.to_int (RE.Timestamp.to_int64 ts)

let create () =
  RE.start ();
  let acc = ref zero in
  let begins = Hashtbl.create 8 in
  let runtime_begin dom ts phase =
    match phase with
    | RE.EV_MINOR | RE.EV_MAJOR_SLICE -> Hashtbl.replace begins (dom, phase) (ts_ns ts)
    | _ -> ()
  in
  let runtime_end dom ts phase =
    match Hashtbl.find_opt begins (dom, phase) with
    | None -> ()
    | Some t0 ->
      Hashtbl.remove begins (dom, phase);
      let d = ts_ns ts - t0 and a = !acc in
      acc :=
        if phase = RE.EV_MINOR then
          { a with minor_collections = a.minor_collections + 1; minor_ns = a.minor_ns + d }
        else { a with major_slices = a.major_slices + 1; major_ns = a.major_ns + d }
  in
  let lost_events _ n = acc := { !acc with lost_events = !acc.lost_events + n } in
  let callbacks = RE.Callbacks.create ~runtime_begin ~runtime_end ~lost_events () in
  { cursor = RE.create_cursor None; callbacks; acc }

(* Drain the ring and return the running totals. *)
let poll t =
  ignore (RE.read_poll t.cursor t.callbacks None);
  !(t.acc)

(* Stop and restart recording, so untraced passes of the traced run pay
   no ring writes. *)
let pause () = RE.pause ()
let resume () = RE.resume ()
