(** Sequential delayed streams (the paper's Figure 8 interface).

    A stream of length [n] is a delayed computation: constructing one with
    {!tabulate}, {!map}, {!zip}, {!scan} etc. costs O(1); elements are only
    produced when a linear consumer ({!reduce}, {!iter},
    {!pack_to_array}, ...) drives the stream.  Streams are the per-block
    representation inside BID sequences.

    A stream built from an index function ({!tabulate_at}, or
    stateless stages over one) keeps that function indexed by {e global}
    position: element [k] of [tabulate_at off n f] is [f (off + k)], so
    a block of a larger sequence calls the sequence's own index function
    with no offset wrapper in between.

    Every stream carries two execution representations (see
    docs/STREAMS.md):

    - the resumable {e trickle} function returned by {!start}, which
      supports partial consumption and resumption (needed by
      [Seq.to_array]'s block-0 allocation witness, [get_region]'s
      mid-subsequence starts and the early-exit searches); and
    - the fused {e push} driver {!fold}, where the stream owns the
      element loop and a whole combinator pipeline runs as one loop per
      block.  All linear consumers below drive this path. *)

type 'a t

val length : 'a t -> int

(** Start iteration: returns the stateful "trickle" function producing
    successive elements. Calling it more than [length] times is undefined. *)
val start : 'a t -> unit -> 'a

(** [fold s ~stop f z] pushes the first [min stop (length s)] elements
    through [f], left to right.  This is the fused execution path:
    sources run a direct [for] loop ([unsafe_get] on arrays), stateless
    stages ({!map}/{!mapi}/{!zip_with}) are composed into the source's
    element function at construction time, scans over such sources run
    a native loop, and remaining combinators wrap the upstream fold once
    per drive — no per-element closure chain is re-entered.  The loop
    polls the ambient cancellation token ({!Bds_runtime.Cancel.poll})
    once per 64-element chunk.  See docs/STREAMS.md. *)
val fold : 'a t -> stop:int -> ('acc -> 'a -> 'acc) -> 'acc -> 'acc

(** Whether {!fold} bottoms out in a native push loop ([true] for all
    streams built from the constructors below) rather than in the
    trickle-derived fallback that {!make} installs ([false]).  Combinators
    propagate the flag of the stream whose loop does the driving. *)
val is_fused : 'a t -> bool

(** Low-level constructor from a trickle-function factory: [start ()] must
    return a function that yields the [length] elements in order.  The
    stream's {!fold} is derived from the trickle function (it still
    honours [stop] and the cancellation-poll cadence), so consumers of
    such streams count as [trickle_fallbacks] in the runtime telemetry. *)
val make : length:int -> start:(unit -> unit -> 'a) -> 'a t

(** {1 O(1) constructors} *)

(** [tabulate_at off n f] streams [f off .. f (off+n-1)]: the loop runs
    over global positions and calls [f] directly.  Stateless stages over
    it compose into [f] at the same offset. *)
val tabulate_at : int -> int -> (int -> 'a) -> 'a t

(** [tabulate n f] is [tabulate_at 0 n f]. *)
val tabulate : int -> (int -> 'a) -> 'a t

val of_array : 'a array -> 'a t

(** [of_array_slice a off len] streams [a.(off) .. a.(off+len-1)]; its
    index function is the array read at global position [off + k]. *)
val of_array_slice : 'a array -> int -> int -> 'a t

val map : ('a -> 'b) -> 'a t -> 'b t

(** [mapi ?base g s] maps element [k] to [g (base + k) v]; [base]
    (default 0) lets a caller that knows the block's global offset pass
    it once instead of wrapping [g] in a per-element offset closure.
    Over an indexed stream whose offset is [base] — a block driver's
    case — [g] composes with the index function at the same global
    position, with no index arithmetic. *)
val mapi : ?base:int -> (int -> 'a -> 'b) -> 'a t -> 'b t

val zip : 'a t -> 'b t -> ('a * 'b) t

(** [zip_with f s1 s2] pairs elements by position; the left side
    drives.  Two indexed sides at the same offset compose into one
    index function.  Any other indexed right side (a source, or
    stateless stages over one) is read through its index function, so
    its trickle is never pulled; any other right side is pulled through
    {!start} in lockstep with the left side's fold.  {!is_fused} reports
    the left side.
    Raises [Invalid_argument] on a length mismatch. *)
val zip_with : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t

(** Exclusive running fold: output element [i] combines [z] with inputs
    [0..i-1]. Same length as the input. *)
val scan : ('a -> 'b -> 'a) -> 'a -> 'b t -> 'a t

(** Inclusive running fold: output element [i] combines [z] with inputs
    [0..i]. *)
val scan_incl : ('a -> 'b -> 'a) -> 'a -> 'b t -> 'a t

(** [take n s]: the first [min n (length s)] elements; O(1). *)
val take : int -> 'a t -> 'a t

(** Nested-push concatenation of indexed segments, starting
    mid-subsequence — the region view behind [Seq.flatten] and the
    packed two-level results.  [of_segments ~length ~seg_len ~seg
    ~start_seg ~start_ofs] yields [length] elements by walking segments
    [start_seg, start_seg+1, ...] in order, beginning at offset
    [start_ofs] inside the first; [seg s] is segment [s]'s index
    function (element [i] is [seg s i]) and segment [s] holds
    [seg_len s] elements (both must be pure per position).  [seg s] is
    fetched once per segment and the inner loop calls it directly.  The
    fold is a native outer-loop/inner-loop pair keeping the 64-element
    cancellation cadence, so consumers count as fused.  The caller
    guarantees enough elements exist; O(1). *)
val of_segments :
  length:int ->
  seg_len:(int -> int) ->
  seg:(int -> int -> 'a) ->
  start_seg:int ->
  start_ofs:int ->
  'a t

(** Masked region — the block view behind [Seq.filter].  [masked_region
    ~length ~blocks ~masks ~start_block ~skip] yields the elements of the
    concatenated input blocks [blocks start_block, blocks (start_block+1),
    ...] whose bit is set in the matching mask [masks j] (built by
    {!select_mask}), dropping the first [skip] survivors and stopping
    after [length].  When an input block is indexed (a source, or
    stateless stages over one) both {!fold} and {!start} seek from set
    bit to set bit, a zero mask byte at a time, and evaluate the block's
    element function only at survivors; any other input block is walked
    once inside its own fold loop with a bit test per position.  The
    seek polls the cancellation token every 64 input positions, set or
    not; {!is_fused} mirrors [blocks start_block].  The caller
    guarantees [skip + length] survivors exist in blocks [start_block ..
    num_blocks - 1]; O(1).

    @raise Invalid_argument when built with a negative argument or with
    [length > 0] and [start_block >= num_blocks], and from {!fold} or
    {!start} when they reach block [num_blocks] before emitting
    [length] elements. *)
val masked_region :
  length:int ->
  blocks:(int -> 'a t) ->
  masks:(int -> Bytes.t) ->
  num_blocks:int ->
  start_block:int ->
  skip:int ->
  'a t

(** {1 Linear consumers}

    All of these drive the push path ({!fold}) and bump the
    [fused_folds] / [trickle_fallbacks] telemetry counter matching
    {!is_fused}. *)

val reduce : ('a -> 'b -> 'a) -> 'a -> 'b t -> 'a

(** Unboxed float sum.  A stream that is semantically [tabulate n f]
    (sources and stateless stages over them) is summed by one
    monomorphic loop with unboxed accumulators, split two ways for ILP
    — summation order therefore differs from a left fold by rounding —
    and bumps the [float_fast_path] telemetry counter; anything else
    falls back to the generic boxed {!reduce} and bumps
    [float_boxed_fallback].  See docs/STREAMS.md "Unboxed float
    lane". *)
val sum_floats : float t -> float

(** Monomorphic int sum — the first rung of the int lane.  OCaml ints
    are already unboxed, so unlike {!sum_floats} there is nothing to
    unbox; what the fast path removes is the polymorphic closure
    dispatch per element of the generic {!reduce}.  A stream carrying a
    pure index function is summed by one native [int] loop (keeping the
    64-element poll cadence); anything else falls back to the generic
    fold.  See docs/STREAMS.md "Unboxed float lane" for the shared
    design rule. *)
val sum_ints : int t -> int

(** Fold of a non-empty stream seeded from its first element, left to
    right: [f (... (f x0 x1) ...) x(n-1)].  An indexed stream runs a
    direct chunked loop over its index function (64-element poll
    cadence); any other stream is pushed through {!fold} with the
    accumulator cell allocated at the first element (no option witness
    per element).  Raises [Invalid_argument] on an empty stream. *)
val reduce1 : ('a -> 'a -> 'a) -> 'a t -> 'a

(** The paper's [s.applyStream]. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [iteri ?base f s] calls [f (base + k) v] on element [k], left to
    right; [base] defaults to 0.  Block drivers pass the block's global
    offset here rather than wrapping [f] in a per-element closure. *)
val iteri : ?base:int -> (int -> 'a -> unit) -> 'a t -> unit

(** Sequential filter into a fresh array (the paper's [s.packToArray]);
    allocates only as much as survives (plus geometric slack). *)
val pack_to_array : ('a -> bool) -> 'a t -> 'a array

(** filterOp / mapPartial: keep the [Some] images. *)
val pack_op_to_array : ('a -> 'b option) -> 'a t -> 'b array

(** [select_mask p s] runs [p] once per element and returns the survivor
    bitmask {!masked_region} reads (bit [k land 7] of byte [k lsr 3] is
    set iff element [k] satisfies [p]) and the survivor count. *)
val select_mask : ('a -> bool) -> 'a t -> Bytes.t * int

val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list

(** Element-wise equality (drives both streams). *)
val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
