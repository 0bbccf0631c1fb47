(* Sequential delayed streams — the paper's ML encoding (§4.4), with a
   dual execution representation:

   - [start] is the resumable "trickle" function of the paper
     (`unit -> unit -> 'a`): applying the first [unit] allocates the
     mutable cursor state and returns a stateful function producing one
     element per call.  It supports partial consumption and resumption,
     which [Seq.to_array]'s block-0 allocation witness, [get_region]'s
     mid-subsequence starts and the early-exit searches all need.
   - [fold] is a fused *push* driver: the stream owns the element loop
     and pushes each element into a consumer-supplied step function.
     Sources ([tabulate_at], [of_array_slice]) run a direct [for] loop
     (with [unsafe_get] on arrays); stateless stages compose into the
     source's index function at construction time (see [ixfn]), scans
     over such sources run their own native loop, and the remaining
     combinators wrap the upstream fold once at drive time — so a whole
     [map |> scan |> reduce] pipeline runs as a single loop per block
     instead of re-entering a chain of trickle closures (one indirect
     call + cursor bump per stage) for every element.

   Constructors ([tabulate], [map], [zip], [scan], ...) still cost O(1):
   they compose closures without touching elements.  Only the linear
   consumers ([reduce], [iter], [pack_to_array], [to_array], ...) do
   linear work, and all of them drive the push path.  [fused] records
   whether the fold bottoms out in a native push loop ([true] for every
   stream built from the constructors here) or was derived from a
   trickle function handed to [make] ([false]; e.g. [Seq.get_region]'s
   multi-subsequence blocks) — consumers report the distinction through
   the [fused_folds] / [trickle_fallbacks] telemetry counters.

   Cancellation: the push loops poll the ambient cancellation token once
   per 64-element chunk (sources and the [make] fallback own the loop,
   so the cadence holds for any pipeline over them), matching the
   per-block poll cadence of the Seq layer's drivers — a poisoned scope
   stops a long fold mid-block, within one chunk of the cancel. *)

module Cancel = Bds_runtime.Cancel
module Telemetry = Bds_runtime.Telemetry
module Profile = Bds_runtime.Profile

type 'a t = {
  length : int;
  start : unit -> unit -> 'a;
  fold : 'acc. stop:int -> ('acc -> 'a -> 'acc) -> 'acc -> 'acc;
      (** Push [min stop length] elements, left to right, through the
          step function.  Consumers always pass [~stop:length]; [take]
          relies on every fold honouring a smaller [stop]. *)
  fused : bool;
  off : int;
  ixfn : (int -> 'a) option;
      (** [Some f] when the stream is semantically [tabulate_at off
          length f] with [f] pure per *global* position (sources, and
          stateless combinator chains over them), so a block of a larger
          sequence calls the sequence's own index function.  Lets
          [map]/[mapi]/[zip_with] fuse by *composing element functions
          at construction time* instead of stacking a fold wrapper per
          stage: without cross-module inlining (no flambda), each
          wrapper level costs one extra 2-argument closure call per
          element, which is exactly the dispatch this representation
          exists to avoid.  Stateful stages ([scan], [scan_incl]) and
          [make] break the chain ([None]). *)
}

(* Elements between cancellation polls in a push loop.  Matches the
   [k land 63] cadence of the Seq layer's trickle-driven searches. *)
let poll_chunk = 64

let length s = s.length

let start s = s.start ()

let fold s ~stop f z = s.fold ~stop f z

let is_fused s = s.fused

(* Derive a push fold from a trickle-function factory: the fallback for
   streams built by [make] (no native push loop).  Chunked so the
   cancellation cadence is preserved even though elements arrive one
   trickle call at a time. *)
let fold_of_start (start : unit -> unit -> 'a) =
  fun ~stop g z ->
  let next = start () in
  let acc = ref z in
  let i = ref 0 in
  while !i < stop do
    Cancel.poll ();
    let hi = Int.min stop (!i + poll_chunk) in
    for _ = !i to hi - 1 do
      acc := g !acc (next ())
    done;
    i := hi
  done;
  !acc

let make ~length ~start =
  if length < 0 then invalid_arg "Stream.make";
  {
    length;
    start;
    fold = (fun ~stop g z -> fold_of_start start ~stop g z);
    fused = false;
    off = 0;
    ixfn = None;
  }

(* ------------------------------------------------------------------ *)
(* O(1) constructors                                                   *)

(* Positions [off .. off+n-1] of [f], called directly by the loops. *)
let tabulate_at off n f =
  {
    length = n;
    off;
    ixfn = Some f;
    start =
      (fun () ->
        let i = ref off in
        fun () ->
          let v = f !i in
          incr i;
          v);
    fold =
      (fun ~stop g z ->
        let acc = ref z in
        let stop = off + stop in
        let i = ref off in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          for k = !i to hi - 1 do
            acc := g !acc (f k)
          done;
          i := hi
        done;
        !acc);
    fused = true;
  }

let tabulate n f = tabulate_at 0 n f

let of_array_slice a off len =
  if off < 0 || len < 0 || off + len > Array.length a then
    invalid_arg "Stream.of_array_slice";
  {
    length = len;
    off;
    ixfn = Some (Array.unsafe_get a);
    start =
      (fun () ->
        let i = ref off in
        fun () ->
          let v = Array.unsafe_get a !i in
          incr i;
          v);
    fold =
      (fun ~stop g z ->
        let acc = ref z in
        let i = ref 0 in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          for k = !i to hi - 1 do
            acc := g !acc (Array.unsafe_get a (off + k))
          done;
          i := hi
        done;
        !acc);
    fused = true;
  }

let of_array a = of_array_slice a 0 (Array.length a)

(* Stateless stages over a pure index function fuse at construction
   time: [map g (tabulate_at off f)] *is* [tabulate_at off (g . f)], so
   the whole stage chain collapses into the source's native loop (and
   into a single-stage trickle) instead of adding a dispatch level. *)
let map g s =
  match s.ixfn with
  | Some f -> tabulate_at s.off s.length (fun i -> g (f i))
  | None ->
    {
      s with
      start =
        (fun () ->
          let next = s.start () in
          fun () -> g (next ()));
      fold = (fun ~stop h z -> s.fold ~stop (fun acc v -> h acc (g v)) z);
      ixfn = None;
    }

(* A block driver's [base] is its block's offset, so an indexed block
   composes with no index arithmetic. *)
let mapi ?(base = 0) g s =
  match s.ixfn with
  | Some f when base = s.off -> tabulate_at s.off s.length (fun i -> g i (f i))
  | Some f ->
    let d = base - s.off in
    tabulate_at s.off s.length (fun i -> g (i + d) (f i))
  | None ->
  {
    s with
    start =
      (fun () ->
        let next = s.start () in
        let i = ref base in
        fun () ->
          let v = g !i (next ()) in
          incr i;
          v);
    fold =
      (fun ~stop h z ->
        let i = ref base in
        s.fold ~stop
          (fun acc v ->
            let k = !i in
            i := k + 1;
            h acc (g k v))
          z);
    ixfn = None;
  }

(* Zipping in push mode: a push driver owns its element loop, so only
   the left side pushes.  Two indexed sides at the same offset (blocks
   on one grid) compose directly.  Any other indexed right side is read
   through its index function at the left side's position (a [mapi]
   over the left side, based at the right side's offset), so its
   trickle is never pulled; any other right side is pulled through its
   trickle [start] inside the left side's fold.  Still one loop per
   block; [fused] therefore reports the driving (left) side. *)
let zip_with f s1 s2 =
  if s1.length <> s2.length then invalid_arg "Stream.zip_with: length mismatch";
  match (s1.ixfn, s2.ixfn) with
  | Some f1, Some f2 when s1.off = s2.off ->
    tabulate_at s1.off s1.length (fun i -> f (f1 i) (f2 i))
  | _, Some f2 -> mapi ~base:s2.off (fun k a -> f a (f2 k)) s1
  | _ ->
  {
    s1 with
    start =
      (fun () ->
        let n1 = s1.start () in
        let n2 = s2.start () in
        fun () ->
          let a = n1 () in
          let b = n2 () in
          f a b);
    fold =
      (fun ~stop h z ->
        let n2 = s2.start () in
        s1.fold ~stop (fun acc a -> h acc (f a (n2 ()))) z);
    ixfn = None;
  }

let zip s1 s2 =
  if s1.length <> s2.length then invalid_arg "Stream.zip: length mismatch";
  zip_with (fun a b -> (a, b)) s1 s2

(* Exclusive running fold: element [i] of the output is
   [f (... (f z x0) ...) x(i-1)]; the input is consumed one element per
   output element, so block lengths are preserved. *)
let scan f z s =
  let start () =
    let next = s.start () in
    let acc = ref z in
    fun () ->
      let v = !acc in
      acc := f !acc (next ());
      v
  in
  match s.ixfn with
  | Some fi ->
    (* Native loop over the pure index function: the running state and
       the consumer accumulator advance in the same chunked [for] body,
       with no per-element wrapper call in between. *)
    {
      s with
      start;
      fold =
        (fun ~stop h z0 ->
          let st = ref z in
          let acc = ref z0 in
          let stop = s.off + stop in
          let i = ref s.off in
          while !i < stop do
            Cancel.poll ();
            let hi = Int.min stop (!i + poll_chunk) in
            for k = !i to hi - 1 do
              let cur = !st in
              st := f cur (fi k);
              acc := h !acc cur
            done;
            i := hi
          done;
          !acc);
      ixfn = None;
    }
  | None ->
    {
      s with
      start;
      fold =
        (fun ~stop h z0 ->
          let st = ref z in
          s.fold ~stop
            (fun acc v ->
              let cur = !st in
              st := f cur v;
              h acc cur)
            z0);
      ixfn = None;
    }

(* Inclusive variant: element [i] is [f (... (f z x0) ...) xi]. *)
let scan_incl f z s =
  let start () =
    let next = s.start () in
    let acc = ref z in
    fun () ->
      acc := f !acc (next ());
      !acc
  in
  match s.ixfn with
  | Some fi ->
    {
      s with
      start;
      fold =
        (fun ~stop h z0 ->
          let st = ref z in
          let acc = ref z0 in
          let stop = s.off + stop in
          let i = ref s.off in
          while !i < stop do
            Cancel.poll ();
            let hi = Int.min stop (!i + poll_chunk) in
            for k = !i to hi - 1 do
              let nxt = f !st (fi k) in
              st := nxt;
              acc := h !acc nxt
            done;
            i := hi
          done;
          !acc);
      ixfn = None;
    }
  | None ->
    {
      s with
      start;
      fold =
        (fun ~stop h z0 ->
          let st = ref z in
          s.fold ~stop
            (fun acc v ->
              let nxt = f !st v in
              st := nxt;
              h acc nxt)
            z0);
      ixfn = None;
    }

(* [take n s]: the first [min n (length s)] elements; O(1).  The copied
   fold is driven with the smaller [stop], which every fold honours. *)
let take n s =
  if n < 0 then invalid_arg "Stream.take";
  { s with length = min n s.length }

(* Nested-push concatenation of indexed segments, starting
   mid-subsequence: the region view behind [Seq.flatten] and the packed
   two-level results ([Seq.partition]).  The fold runs an outer loop
   over segments and a native chunked inner loop per segment — the
   nested-push shape of "Fast Collection Operations from Indexed Stream
   Fusion" — so consumers of region blocks count as fused instead of
   falling back to a trickle-derived fold.  [seg j] is segment [j]'s
   index function, fetched once per segment and called directly by the
   inner loop; it and [seg_len] must be pure per position.  The caller
   guarantees at least [length] elements exist from ([start_seg],
   [start_ofs]) onward. *)
let of_segments ~length ~seg_len ~seg ~start_seg ~start_ofs =
  if length < 0 || start_seg < 0 || start_ofs < 0 then
    invalid_arg "Stream.of_segments";
  {
    length;
    off = 0;
    ixfn = None;
    start =
      (fun () ->
        let j = ref start_seg and ofs = ref start_ofs in
        let cur = ref (-1) and get = ref (fun _ -> assert false) in
        fun () ->
          while !ofs >= seg_len !j do
            incr j;
            ofs := 0
          done;
          if !cur <> !j then begin
            cur := !j;
            get := seg !j
          end;
          let v = !get !ofs in
          incr ofs;
          v);
    fold =
      (fun ~stop g z ->
        let acc = ref z in
        let emitted = ref 0 in
        let j = ref start_seg in
        let ofs = ref start_ofs in
        while !emitted < stop do
          let sl = seg_len !j in
          if !ofs >= sl then begin
            (* Empty (or exhausted) segment: skipping costs one loop
               iteration, so keep polling even across a run of empties. *)
            Cancel.poll ();
            incr j;
            ofs := 0
          end
          else begin
            let get = seg !j in
            let base = !ofs in
            let avail = Int.min (sl - base) (stop - !emitted) in
            let hi_all = base + avail in
            let i = ref base in
            while !i < hi_all do
              Cancel.poll ();
              let hi = Int.min hi_all (!i + poll_chunk) in
              for k = !i to hi - 1 do
                acc := g !acc (get k)
              done;
              i := hi
            done;
            ofs := hi_all;
            emitted := !emitted + avail
          end
        done;
        !acc);
    fused = true;
  }

(* Survivor bitmasks: bit [k land 7] of byte [k lsr 3] marks position
   [k] of a block. *)
let[@inline] mask_get mask k =
  Char.code (Bytes.unsafe_get mask (k lsr 3)) land (1 lsl (k land 7)) <> 0

let[@inline] mask_set mask k =
  Bytes.unsafe_set mask (k lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get mask (k lsr 3)) lor (1 lsl (k land 7))))

(* Count of trailing zero bits of each non-zero byte value. *)
let ctz8 =
  String.init 256 (fun b ->
      let rec go i = if i = 7 || b land (1 lsl i) <> 0 then i else go (i + 1) in
      Char.chr (go 0))

(* Smallest set position [k >= p] if one is below [hi], else some
   position [>= hi]: one step per zero byte, never one per position. *)
let rec next_set mask p hi =
  if p >= hi then hi
  else begin
    let byte = Char.code (Bytes.unsafe_get mask (p lsr 3)) lsr (p land 7) in
    if byte = 0 then next_set mask ((p lor 7) + 1) hi
    else p + Char.code (String.unsafe_get ctz8 byte)
  end

(* Masked region: the block view behind [Seq.filter].  Emits, in order,
   the elements of the concatenated input blocks [blocks start_block,
   blocks (start_block+1), ...] whose bit is set in the matching
   [masks j], dropping the first [skip] survivors (so a region can start
   mid-block) and stopping after [length].  Per input block:

   - indexed input (the block carries [ixfn]): seek from set bit to set
     bit through the mask, a zero byte at a time, and evaluate the index
     function only at survivors — O(survivors + length/8) instead of one
     element evaluation per input position;
   - any other input (a scan's output, another region): walk the input
     once inside its own fold loop and test each position's bit.

   The early stop raises an exception created per fold invocation ([let
   exception]): regions nest — a filter-of-filter block drives an inner
   region inside the outer one's step function — and a shared
   constructor would let the inner region's handler swallow the outer
   region's stop.  The indexed seek polls the cancellation token once per
   64 positions whether or not they survive; the walk inherits the input
   loop's cadence.  [fused] mirrors [blocks start_block].  The caller
   guarantees [skip + length] survivors exist in blocks [start_block ..
   num_blocks - 1]; a fold or trickle that reaches block [num_blocks]
   short of them raises instead of asking [blocks] for ever-higher
   indices. *)
let masked_region ~length ~(blocks : int -> 'a t) ~masks ~num_blocks
    ~start_block ~skip =
  let short () = invalid_arg "Stream.masked_region" in
  if length < 0 || start_block < 0 || skip < 0
     || (length > 0 && start_block >= num_blocks)
  then short ();
  {
    length;
    off = 0;
    ixfn = None;
    start =
      (fun () ->
        let blk = ref start_block in
        let mask = ref Bytes.empty in
        let len = ref 0 and off = ref 0 in
        let pos = ref 0 in
        let ix = ref None in
        let next = ref (fun () -> assert false) in
        let to_skip = ref skip in
        let rec go () =
          if !pos >= !len then begin
            if !blk >= num_blocks then short ();
            let s = blocks !blk in
            mask := masks !blk;
            incr blk;
            len := s.length;
            off := s.off;
            pos := 0;
            ix := s.ixfn;
            (match s.ixfn with None -> next := s.start () | Some _ -> ());
            go ()
          end
          else
            match !ix with
            | Some f ->
              let k = next_set !mask !pos !len in
              pos := k + 1;
              if k >= !len then go ()
              else if !to_skip > 0 then begin
                decr to_skip;
                go ()
              end
              else f (!off + k)
            | None ->
              let k = !pos in
              pos := k + 1;
              let v = !next () in
              if not (mask_get !mask k) then go ()
              else if !to_skip > 0 then begin
                decr to_skip;
                go ()
              end
              else v
        in
        go);
    fold =
      (fun ~stop g z ->
        if stop <= 0 then z
        else begin
          let exception Region_filled in
          let acc = ref z in
          let emitted = ref 0 in
          let to_skip = ref skip in
          let emit v =
            acc := g !acc v;
            incr emitted;
            if !emitted >= stop then raise_notrace Region_filled
          in
          let blk = ref start_block in
          (try
             while !emitted < stop do
               if !blk >= num_blocks then short ();
               let s = blocks !blk in
               let mask = masks !blk in
               incr blk;
               let len = s.length in
               match s.ixfn with
               | Some f ->
                 let off = s.off in
                 let p = ref 0 in
                 while !p < len do
                   Cancel.poll ();
                   let hi = Int.min len (!p + poll_chunk) in
                   let k = ref (next_set mask !p hi) in
                   while !k < hi do
                     if !to_skip > 0 then decr to_skip else emit (f (off + !k));
                     k := next_set mask (!k + 1) hi
                   done;
                   p := hi
                 done
               | None ->
                 let _ : int =
                   s.fold ~stop:len
                     (fun k v ->
                       if mask_get mask k then
                         (if !to_skip > 0 then decr to_skip else emit v);
                       k + 1)
                     0
                 in
                 ()
             done
           with Region_filled -> ());
          !acc
        end);
    fused = (if length = 0 then true else (blocks start_block).fused);
  }

(* ------------------------------------------------------------------ *)
(* Linear consumers — all push-driven                                  *)

let[@inline] count_path s =
  if s.fused then Telemetry.incr_fused_folds ()
  else Telemetry.incr_trickle_fallbacks ()

(* Profiled push fold: a consumer driven inside a Seq block leaf is
   already accounted there ([Profile.seq_op] is free in a leaf); a
   consumer driven directly by user code records as op "fold" (work =
   wall, parallelism 1 — streams are sequential by construction). *)
let[@inline] profiled f = Profile.seq_op "fold" f

let reduce f z s =
  count_path s;
  profiled (fun () -> s.fold ~stop:s.length f z)

(* Monomorphic float sum: the stream-lane entry of the unboxed float
   lane (docs/STREAMS.md "Unboxed float lane").  When the stream carries
   a pure index function (sources and stateless combinator chains over
   them), the whole sum runs as one monomorphic loop with unboxed
   accumulators — each element boxes at most once, at the index-function
   call boundary, instead of once per pipeline stage plus once per
   combine — keeping the 64-element poll cadence, and bumps
   [float_fast_path].  Streams with no index function (stateful stages
   like [scan], or [make]-built trickles) fall back to the generic
   polymorphic fold, which boxes every element through the step closure;
   those bump [float_boxed_fallback] so fallen-off chains show up in
   [bds_probe stats]. *)
let sum_floats (s : float t) =
  count_path s;
  match s.ixfn with
  | Some f ->
    Telemetry.incr_float_fast_path ();
    profiled (fun () ->
        let stop = s.off + s.length in
        let s0 = ref 0.0 and s1 = ref 0.0 in
        let i = ref s.off in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          let j = ref !i in
          while !j + 1 < hi do
            s0 := !s0 +. f !j;
            s1 := !s1 +. f (!j + 1);
            j := !j + 2
          done;
          if !j < hi then s0 := !s0 +. f !j;
          i := hi
        done;
        !s0 +. !s1)
  | None ->
    Telemetry.incr_float_boxed_fallback ();
    profiled (fun () -> s.fold ~stop:s.length ( +. ) 0.0)

(* Monomorphic int sum — the int lane's first rung.  Ints are unboxed
   already; the win over the generic [reduce ( + ) 0] is skipping the
   polymorphic step-closure call per element (the PR 7 design rule: a
   fast path must be a monomorphic loop).  Same shape as [sum_floats]
   minus the split accumulators (int adds carry no rounding and the
   dependency chain is a single-cycle add). *)
let sum_ints (s : int t) =
  count_path s;
  match s.ixfn with
  | Some f ->
    profiled (fun () ->
        let stop = s.off + s.length in
        let acc = ref 0 in
        let i = ref s.off in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          let j = ref !i in
          while !j < hi do
            acc := !acc + f !j;
            incr j
          done;
          i := hi
        done;
        !acc)
  | None -> profiled (fun () -> s.fold ~stop:s.length ( + ) 0)

(* Fold of a non-empty stream seeded from its first element; lets parallel
   callers combine a seed exactly once across blocks.  An indexed stream
   is folded by a direct chunked loop over its index function, seeded
   with element 0 (the [sum_ints] shape, with [f] as the one call per
   element).  Otherwise the accumulator cell is allocated when the first
   element arrives (no ['a option] witness per element: later steps
   mutate the one cell in place). *)
let reduce1 f s =
  if s.length = 0 then invalid_arg "Stream.reduce1: empty stream";
  count_path s;
  match s.ixfn with
  | Some g ->
    profiled (fun () ->
        let stop = s.off + s.length in
        let acc = ref (g s.off) in
        let i = ref (s.off + 1) in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          for k = !i to hi - 1 do
            acc := f !acc (g k)
          done;
          i := hi
        done;
        !acc)
  | None ->
    let cell =
      profiled (fun () ->
          s.fold ~stop:s.length
            (fun acc v ->
              match acc with
              | None -> Some (ref v)
              | Some r ->
                r := f !r v;
                acc)
            None)
    in
    (match cell with Some r -> !r | None -> assert false)

let iter f s =
  count_path s;
  profiled (fun () -> s.fold ~stop:s.length (fun () v -> f v) ())

let iteri ?(base = 0) f s =
  count_path s;
  let _ : int =
    profiled (fun () -> s.fold ~stop:s.length (fun i v -> f i v; i + 1) base)
  in
  ()

let pack_to_array p s =
  count_path s;
  profiled (fun () ->
      let buf = Buffer_ext.create () in
      s.fold ~stop:s.length (fun () v -> if p v then Buffer_ext.push buf v) ();
      Buffer_ext.to_array buf)

(* filterOp / mapPartial: keep [Some] images. *)
let pack_op_to_array p s =
  count_path s;
  profiled (fun () ->
      let buf = Buffer_ext.create () in
      s.fold ~stop:s.length
        (fun () v -> match p v with Some w -> Buffer_ext.push buf w | None -> ())
        ();
      Buffer_ext.to_array buf)

(* Phase 1 of [Seq.filter] on one block: run [p] once per element and
   record the survivors as a bitmask for [masked_region], plus their
   count.  An indexed block is read by a direct loop over its index
   function with [keep] written out inline: the fold's step closure, or
   even a call to [keep], costs the sparse filter kernels (tokens,
   grep) about 10%. *)
let select_mask p s =
  count_path s;
  profiled (fun () ->
      let n = s.length in
      let mask = Bytes.make ((n + 7) / 8) '\000' in
      let cnt = ref 0 in
      let keep k v =
        if p v then begin
          mask_set mask k;
          incr cnt
        end
      in
      (match s.ixfn with
       | Some f ->
         let off = s.off in
         let i = ref 0 in
         while !i < n do
           Cancel.poll ();
           let hi = Int.min n (!i + poll_chunk) in
           for k = !i to hi - 1 do
             if p (f (off + k)) then begin
               mask_set mask k;
               incr cnt
             end
           done;
           i := hi
         done
       | None ->
         let _ : int = s.fold ~stop:n (fun k v -> keep k v; k + 1) 0 in
         ());
      (mask, !cnt))

let to_array s =
  if s.length = 0 then [||]
  else begin
    count_path s;
    profiled (fun () ->
        let out = ref [||] in
        let n = s.length in
        let _ : int =
          s.fold ~stop:n
            (fun i v ->
              if i = 0 then out := Array.make n v;
              Array.unsafe_set !out i v;
              i + 1)
            0
        in
        !out)
  end

let to_list s =
  (* The push driver delivers elements strictly left-to-right (streams
     are stateful, so no other order is sound); accumulate reversed and
     flip once. *)
  count_path s;
  profiled (fun () ->
      List.rev (s.fold ~stop:s.length (fun acc v -> v :: acc) []))

let equal eq s1 s2 =
  s1.length = s2.length
  &&
  (* Trickle path on purpose: equality wants lockstep consumption of two
     streams with the possibility of stopping at the first mismatch. *)
  let n1 = s1.start () in
  let n2 = s2.start () in
  let rec go i = i >= s1.length || (eq (n1 ()) (n2 ()) && go (i + 1)) in
  go 0
