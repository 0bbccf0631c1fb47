(* Sequential delayed streams: semantics vs list model, laziness. *)

module Stream = Bds_stream.Stream
module Buffer_ext = Bds_stream.Buffer_ext
module Cancel = Bds_runtime.Cancel
open Bds_test_util

let check_ilist = Alcotest.(check (list int))

let trickle_to_list s =
  let next = Stream.start s in
  let n = Stream.length s in
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (next () :: acc) in
  go 0 []

let test_tabulate () =
  check_ilist "tabulate" [ 0; 2; 4; 6 ] (Stream.to_list (Stream.tabulate 4 (fun i -> 2 * i)));
  check_ilist "empty" [] (Stream.to_list (Stream.tabulate 0 (fun _ -> assert false)))

let test_map_zip () =
  let s = Stream.tabulate 5 Fun.id in
  check_ilist "map" [ 1; 2; 3; 4; 5 ] (Stream.to_list (Stream.map (( + ) 1) s));
  let t = Stream.tabulate 5 (fun i -> 10 * i) in
  check_ilist "zip_with" [ 0; 11; 22; 33; 44 ]
    (Stream.to_list (Stream.zip_with ( + ) s t));
  Alcotest.(check (list (pair int int)))
    "zip"
    [ (0, 0); (1, 10); (2, 20) ]
    (Stream.to_list (Stream.zip (Stream.tabulate 3 Fun.id) (Stream.tabulate 3 (fun i -> 10 * i))));
  Alcotest.check_raises "zip length mismatch"
    (Invalid_argument "Stream.zip: length mismatch") (fun () ->
      ignore (Stream.zip (Stream.tabulate 2 Fun.id) (Stream.tabulate 3 Fun.id)))

let test_mapi () =
  check_ilist "mapi" [ 0; 11; 22 ]
    (Stream.to_list (Stream.mapi (fun i v -> i + v) (Stream.tabulate 3 (fun i -> 10 * i))))

let test_scans () =
  let s = Stream.tabulate 5 (fun i -> i + 1) in
  check_ilist "exclusive scan" [ 0; 1; 3; 6; 10 ]
    (Stream.to_list (Stream.scan ( + ) 0 s));
  check_ilist "inclusive scan" [ 1; 3; 6; 10; 15 ]
    (Stream.to_list (Stream.scan_incl ( + ) 0 s));
  (* Non-identity seed: applied exactly once. *)
  check_ilist "seeded scan" [ 100; 101; 103 ]
    (Stream.to_list (Stream.scan ( + ) 100 (Stream.tabulate 3 (fun i -> i + 1))))

let test_reduce () =
  let s = Stream.tabulate 100 Fun.id in
  Alcotest.(check int) "reduce" 4950 (Stream.reduce ( + ) 0 s);
  Alcotest.(check int) "reduce1" 4950 (Stream.reduce1 ( + ) (Stream.tabulate 100 Fun.id));
  Alcotest.(check string) "reduce order" "abc"
    (Stream.reduce ( ^ ) "" (Stream.of_array [| "a"; "b"; "c" |]));
  Alcotest.check_raises "reduce1 empty"
    (Invalid_argument "Stream.reduce1: empty stream") (fun () ->
      ignore (Stream.reduce1 ( + ) (Stream.tabulate 0 (fun _ -> 0))))

let mk_trickle n =
  Stream.make ~length:n ~start:(fun () ->
      let i = ref (-1) in
      fun () ->
        incr i;
        !i)

let test_reduce1_order () =
  (* [reduce1] is seeded from element 0 and combines left to right, with
     [f] called n-1 times: on an indexed stream (direct loop over the
     index function, across several 64-element chunks) and on a stream
     without one (a scan's fold, and a [make] trickle). *)
  let n = 200 in
  let expect = List.init n Fun.id in
  let calls = ref 0 in
  let append acc x =
    incr calls;
    acc @ x
  in
  let check label s =
    calls := 0;
    check_ilist (label ^ ": left to right") expect (Stream.reduce1 append s);
    Alcotest.(check int) (label ^ ": f called n-1 times") (n - 1) !calls
  in
  check "indexed" (Stream.tabulate n (fun i -> [ i ]));
  check "scan" (Stream.scan_incl (fun _ x -> [ x ]) [] (Stream.tabulate n Fun.id));
  check "trickle" (Stream.map (fun i -> [ i ]) (mk_trickle n));
  check_ilist "single element" [ 7 ] (Stream.reduce1 append (Stream.tabulate 1 (fun _ -> [ 7 ])))

let test_pack () =
  let s = Stream.tabulate 10 Fun.id in
  Alcotest.(check int_array) "pack evens" [| 0; 2; 4; 6; 8 |]
    (Stream.pack_to_array (fun x -> x mod 2 = 0) s);
  Alcotest.(check int_array) "pack none" [||]
    (Stream.pack_to_array (fun _ -> false) (Stream.tabulate 10 Fun.id));
  Alcotest.(check int_array) "pack_op" [| 0; 4; 16; 36; 64 |]
    (Stream.pack_op_to_array
       (fun x -> if x mod 2 = 0 then Some (x * x) else None)
       (Stream.tabulate 10 Fun.id))

let test_take () =
  let s () = Stream.tabulate 10 Fun.id in
  check_ilist "take 3" [ 0; 1; 2 ] (Stream.to_list (Stream.take 3 (s ())));
  check_ilist "take over-length" (List.init 10 Fun.id)
    (Stream.to_list (Stream.take 99 (s ())));
  check_ilist "take 0" [] (Stream.to_list (Stream.take 0 (s ())));
  Alcotest.check_raises "take negative" (Invalid_argument "Stream.take")
    (fun () -> ignore (Stream.take (-1) (s ())));
  (* take composes with scan: only the taken prefix is evaluated. *)
  let calls = ref 0 in
  let counted =
    Stream.map
      (fun x ->
        incr calls;
        x)
      (Stream.tabulate 100 Fun.id)
  in
  check_ilist "take of scan" [ 0; 0; 1 ]
    (Stream.to_list (Stream.take 3 (Stream.scan ( + ) 0 counted)));
  Alcotest.(check int) "only prefix evaluated" 3 !calls

let test_to_list_order () =
  (* to_list must pull the trickle function strictly left-to-right:
     streams are stateful, so any other evaluation order (e.g. handing
     the effectful [next] to [List.init], whose order is unspecified)
     permutes — and for scans corrupts — the result.  A scan stream
     makes order violations visible in the values, and a side-channel
     log pins the pull order itself.  The length is large enough that a
     right-to-left [List.init] implementation would also hit its
     non-tail-recursive fallback threshold. *)
  let n = 20_000 in
  let order = ref [] in
  let logged =
    Stream.map
      (fun x ->
        order := x :: !order;
        x)
      (Stream.tabulate n Fun.id)
  in
  let got = Stream.to_list (Stream.scan_incl ( + ) 0 logged) in
  let expect = list_scan_incl ( + ) 0 (List.init n Fun.id) in
  Alcotest.(check bool) "inclusive prefix sums, in order" true (got = expect);
  Alcotest.(check bool) "elements pulled left-to-right" true
    (List.rev !order = List.init n Fun.id)

let test_of_array_slice () =
  let a = [| 10; 11; 12; 13; 14 |] in
  check_ilist "slice" [ 11; 12; 13 ] (Stream.to_list (Stream.of_array_slice a 1 3));
  Alcotest.check_raises "bad slice" (Invalid_argument "Stream.of_array_slice")
    (fun () -> ignore (Stream.of_array_slice a 3 4))

let test_laziness () =
  (* Constructors must not evaluate any element. *)
  let calls = ref 0 in
  let s =
    Stream.tabulate 1000 (fun i ->
        incr calls;
        i)
  in
  let s = Stream.map (( * ) 2) s in
  let s = Stream.scan ( + ) 0 s in
  Alcotest.(check int) "no eager calls" 0 !calls;
  ignore (Stream.reduce ( + ) 0 s);
  Alcotest.(check int) "one pass" 1000 !calls

let test_iter_iteri () =
  let acc = ref [] in
  Stream.iter (fun v -> acc := v :: !acc) (Stream.tabulate 4 Fun.id);
  check_ilist "iter order" [ 3; 2; 1; 0 ] !acc;
  let acc2 = ref [] in
  Stream.iteri (fun i v -> acc2 := (i + v) :: !acc2) (Stream.tabulate 3 (fun i -> 10 * i));
  check_ilist "iteri" [ 22; 11; 0 ] !acc2;
  (* [~base] offsets the index passed to [f] (and to [mapi]'s [g]), on
     indexed and non-indexed streams alike. *)
  let seen s =
    let acc = ref [] in
    Stream.iteri ~base:100 (fun i v -> acc := (i, v) :: !acc) s;
    List.rev !acc
  in
  let expect = [ (100, 0); (101, 10); (102, 20) ] in
  Alcotest.(check (list (pair int int))) "iteri ~base indexed" expect
    (seen (Stream.tabulate 3 (fun i -> 10 * i)));
  Alcotest.(check (list (pair int int))) "iteri ~base scan" expect
    (seen (Stream.scan ( + ) 0 (Stream.tabulate 3 (fun _ -> 10))));
  check_ilist "mapi ~base indexed" [ 100; 111; 122 ]
    (Stream.to_list
       (Stream.mapi ~base:100 (fun i v -> i + v) (Stream.tabulate 3 (fun i -> 10 * i))));
  check_ilist "mapi ~base scan" [ 100; 111; 122 ]
    (Stream.to_list
       (Stream.mapi ~base:100 (fun i v -> i + v)
          (Stream.scan ( + ) 0 (Stream.tabulate 3 (fun _ -> 10)))))

let test_equal () =
  let mk () = Stream.tabulate 5 Fun.id in
  Alcotest.(check bool) "equal" true (Stream.equal ( = ) (mk ()) (mk ()));
  Alcotest.(check bool) "not equal" false
    (Stream.equal ( = ) (mk ()) (Stream.tabulate 5 (fun i -> i + 1)));
  Alcotest.(check bool) "length differs" false
    (Stream.equal ( = ) (mk ()) (Stream.tabulate 4 Fun.id))

let test_fold_stop () =
  let s () = Stream.tabulate 100 Fun.id in
  Alcotest.(check int) "stop 10" 45 (Stream.fold (s ()) ~stop:10 ( + ) 0);
  Alcotest.(check int) "stop 0" 0 (Stream.fold (s ()) ~stop:0 ( + ) 0);
  Alcotest.(check int) "stop = length" 4950 (Stream.fold (s ()) ~stop:100 ( + ) 0);
  (* stop truncates the whole pipeline: upstream elements past it are
     never produced, even through scan state. *)
  let calls = ref 0 in
  let piped =
    Stream.scan_incl ( + ) 0
      (Stream.map
         (fun x ->
           incr calls;
           x)
         (Stream.tabulate 1000 Fun.id))
  in
  let got = Stream.fold piped ~stop:5 (fun acc v -> v :: acc) [] in
  check_ilist "prefix of scan" [ 10; 6; 3; 1; 0 ] got;
  Alcotest.(check int) "only prefix pushed" 5 !calls;
  let sl = Stream.of_array_slice [| 9; 1; 2; 3; 4 |] 1 4 in
  Alcotest.(check int) "slice stop 2" 3 (Stream.fold sl ~stop:2 ( + ) 0)

let test_is_fused () =
  let base = Stream.tabulate 8 Fun.id in
  Alcotest.(check bool) "tabulate" true (Stream.is_fused base);
  Alcotest.(check bool) "of_array_slice" true
    (Stream.is_fused (Stream.of_array_slice [| 1; 2; 3 |] 0 3));
  Alcotest.(check bool) "combinators keep fused" true
    (Stream.is_fused (Stream.take 3 (Stream.scan ( + ) 0 (Stream.map succ base))));
  let trickle = mk_trickle 8 in
  Alcotest.(check bool) "make is a trickle fallback" false (Stream.is_fused trickle);
  Alcotest.(check bool) "map keeps trickle" false
    (Stream.is_fused (Stream.map succ (mk_trickle 8)));
  (* zip_with reports the driving (left) side. *)
  Alcotest.(check bool) "zip: fused left drives" true
    (Stream.is_fused (Stream.zip_with ( + ) base (mk_trickle 8)));
  Alcotest.(check bool) "zip: trickle left drives" false
    (Stream.is_fused (Stream.zip_with ( + ) (mk_trickle 8) base));
  (* The trickle-derived fold still computes the right answer. *)
  Alcotest.(check int) "trickle fold result" 28
    (Stream.reduce ( + ) 0 (mk_trickle 8));
  check_ilist "trickle zip result" [ 0; 2; 4 ]
    (Stream.to_list (Stream.zip_with ( + ) (mk_trickle 3) (Stream.tabulate 3 Fun.id)))

(* A push fold polls the ambient cancellation token once per 64-element
   chunk: a token cancelled mid-stream (here by the map body itself at
   element 1000) stops the fold at the next chunk boundary instead of
   running the remaining 99k elements.  Exercised for both the native
   push loop and the trickle-derived fallback. *)
let poll_cadence_of drive =
  let tok = Cancel.create () in
  let touched = ref 0 in
  Alcotest.check_raises "fold trips mid-stream" Cancel.Cancelled (fun () ->
      Cancel.with_ambient tok (fun () ->
          drive (fun (x : int) ->
              incr touched;
              if x = 1000 then Cancel.cancel tok;
              x)));
  Alcotest.(check bool) "saw the poisoning element" true (!touched >= 1001);
  Alcotest.(check bool)
    (Printf.sprintf "stopped within one poll chunk (touched %d)" !touched)
    true
    (!touched <= 1001 + 64)

let test_fold_poll_cadence () =
  poll_cadence_of (fun poison ->
      ignore
        (Stream.reduce ( + ) 0 (Stream.map poison (Stream.tabulate 100_000 Fun.id))));
  poll_cadence_of (fun poison ->
      ignore (Stream.reduce ( + ) 0 (Stream.map poison (mk_trickle 100_000))))

(* Nested-push segment concatenation: model = the flattened suffix of
   the segment table starting at (start_seg, start_ofs). *)
let test_of_segments () =
  let segs = [| [| 0; 1; 2 |]; [||]; [| 3 |]; [| 4; 5; 6; 7 |]; [| 8 |] |] in
  let seg_len s = Array.length segs.(s) in
  let fetched = ref 0 in
  let seg s =
    incr fetched;
    Array.get segs.(s)
  in
  let mk ~length ~start_seg ~start_ofs =
    Stream.of_segments ~length ~seg_len ~seg ~start_seg ~start_ofs
  in
  let s = mk ~length:9 ~start_seg:0 ~start_ofs:0 in
  Alcotest.(check bool) "fused" true (Stream.is_fused s);
  check_ilist "full" [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] (Stream.to_list s);
  (* One index-function fetch per non-empty segment, on both paths. *)
  Alcotest.(check int) "push: one fetch per segment" 4 !fetched;
  fetched := 0;
  check_ilist "full trickle" [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
    (trickle_to_list (mk ~length:9 ~start_seg:0 ~start_ofs:0));
  Alcotest.(check int) "trickle: one fetch per segment" 4 !fetched;
  (* Mid-segment start, both execution paths. *)
  let mid = mk ~length:4 ~start_seg:3 ~start_ofs:1 in
  check_ilist "mid-segment push" [ 5; 6; 7; 8 ]
    (List.rev (Stream.fold mid ~stop:4 (fun acc v -> v :: acc) []));
  let next = Stream.start (mk ~length:4 ~start_seg:3 ~start_ofs:1) in
  check_ilist "mid-segment trickle" [ 5; 6; 7; 8 ]
    (List.init 4 (fun _ -> next ()));
  (* stop truncates inside a segment; empty segments are skipped. *)
  Alcotest.(check int) "stop mid-segment" 10
    (Stream.fold (mk ~length:9 ~start_seg:0 ~start_ofs:0) ~stop:5 ( + ) 0);
  check_ilist "across empty segment" [ 2; 3; 4 ]
    (Stream.to_list (mk ~length:3 ~start_seg:0 ~start_ofs:2))

(* Masked regions.  Input block [j] holds the values [blen*j ..
   blen*j+blen-1] (so a value is its global position), either indexed (a
   block at offset [blen*j] of the identity: the seek path) or not (a
   scan over one, which carries no index function: the walk path).
   Masks come from [select_mask] over a fresh copy of the block. *)
let region_input ~indexed ~blen j =
  let s = Stream.tabulate_at (blen * j) blen Fun.id in
  if indexed then s else Stream.scan_incl (fun _ v -> v) 0 s

let region ?(num_blocks = 8) ~indexed ~blen ~keep ~length ~start_block ~skip () =
  let blocks = region_input ~indexed ~blen in
  let masks j = fst (Stream.select_mask keep (blocks j)) in
  Stream.masked_region ~length ~blocks ~masks ~num_blocks ~start_block ~skip

(* The survivors of [keep] among positions [blen*start_block ..
   blen*nb-1], minus the first [skip]. *)
let region_model ~blen ~nb ~keep ~start_block ~skip =
  List.init ((nb - start_block) * blen) (fun i -> (blen * start_block) + i)
  |> List.filter keep
  |> List.filteri (fun i _ -> i >= skip)

let test_masked_region () =
  List.iter
    (fun indexed ->
      let path = if indexed then "seek" else "walk" in
      let name s = Printf.sprintf "%s: %s" path s in
      let mk ?(blen = 10) ?(keep = fun v -> v mod 3 = 0) ~length ~start_block
          ~skip () =
        region ~indexed ~blen ~keep ~length ~start_block ~skip ()
      in
      let s = mk ~length:7 ~start_block:0 ~skip:0 () in
      Alcotest.(check bool) (name "fused mirrors input") true (Stream.is_fused s);
      check_ilist (name "from origin") [ 0; 3; 6; 9; 12; 15; 18 ]
        (Stream.to_list s);
      (* skip drops survivors, so a region can start mid-block. *)
      check_ilist (name "with skip") [ 6; 9; 12 ]
        (Stream.to_list (mk ~length:3 ~start_block:0 ~skip:2 ()));
      check_ilist (name "later block + skip") [ 24; 27; 30 ]
        (Stream.to_list (mk ~length:3 ~start_block:2 ~skip:1 ()));
      (* A skip that crosses several mask bytes of a long block. *)
      check_ilist (name "skip across bytes") [ 60; 63 ]
        (Stream.to_list (mk ~blen:100 ~length:2 ~start_block:0 ~skip:20 ()));
      let next = Stream.start (mk ~length:3 ~start_block:2 ~skip:1 ()) in
      check_ilist (name "trickle agrees") [ 24; 27; 30 ]
        (List.init 3 (fun _ -> next ()));
      (* Block lengths that are not a multiple of 8: the last mask byte
         is partial and survivors straddle block boundaries. *)
      let keep v = v mod 4 <> 1 in
      let expect = region_model ~blen:13 ~nb:4 ~keep ~start_block:0 ~skip:5 in
      check_ilist (name "13-element blocks")
        (List.filteri (fun i _ -> i < 20) expect)
        (Stream.to_list (mk ~blen:13 ~keep ~length:20 ~start_block:0 ~skip:5 ()));
      (* Long runs of all-zero mask bytes, including whole empty blocks. *)
      let keep v = v = 7 || v = 1999 || v = 4001 || v = 4002 in
      let sparse = mk ~blen:1000 ~keep ~length:4 ~start_block:0 ~skip:0 () in
      check_ilist (name "sparse") [ 7; 1999; 4001; 4002 ] (Stream.to_list sparse);
      let next = Stream.start (mk ~blen:1000 ~keep ~length:3 ~start_block:0 ~skip:1 ()) in
      check_ilist (name "sparse trickle") [ 1999; 4001; 4002 ]
        (List.init 3 (fun _ -> next ()));
      (* fold ~stop and take truncate the region itself. *)
      Alcotest.(check int) (name "fold stop") 3
        (Stream.fold (mk ~length:7 ~start_block:0 ~skip:0 ()) ~stop:2 ( + ) 0);
      check_ilist (name "take") [ 9; 12 ]
        (Stream.to_list (Stream.take 2 (mk ~length:7 ~start_block:0 ~skip:3 ())));
      check_ilist (name "take to zero") []
        (Stream.to_list (Stream.take 0 (mk ~length:7 ~start_block:0 ~skip:0 ()))))
    [ true; false ];
  (* Regions nest (filter-of-filter): the outer region's inputs are
     inner regions, which carry no index function, so the outer region
     walks them.  The outer region's early-stop exception must not be
     swallowed by the inner region's fold — a shared exception
     constructor made the outer loop undercount and walk past its last
     input block. *)
  let inner j =
    region ~indexed:true ~blen:10 ~keep:(fun v -> v mod 3 = 0) ~length:3
      ~start_block:j ~skip:0 ()
  in
  let outer_masks j = fst (Stream.select_mask (fun v -> v mod 2 = 0) (inner j)) in
  let nested () =
    Stream.masked_region ~length:4 ~blocks:inner ~masks:outer_masks
      ~num_blocks:4 ~start_block:0 ~skip:0
  in
  check_ilist "nested regions" [ 0; 6; 12; 18 ] (Stream.to_list (nested ()));
  let next = Stream.start (nested ()) in
  check_ilist "nested trickle" [ 0; 6; 12; 18 ] (List.init 4 (fun _ -> next ()));
  Alcotest.(check int) "nested fold stop" 6 (Stream.fold (nested ()) ~stop:2 ( + ) 0)

(* Positions [0, 1010] and [1075, ...) survive; cancelling at 1010 must
   stop an indexed region before it reaches 1075, i.e. within 64 input
   positions, although none of them survives. *)
let test_masked_region_zero_bytes_cancel () =
  let tok = Cancel.create () in
  let touched = ref 0 in
  let keep v = v <= 1010 || v >= 1075 in
  let blocks j =
    Stream.tabulate 1_000 (fun k ->
        let v = (1_000 * j) + k in
        incr touched;
        if v = 1010 then Cancel.cancel tok;
        v)
  in
  let masks j =
    fst (Stream.select_mask keep (Stream.tabulate 1_000 (fun k -> (1_000 * j) + k)))
  in
  Alcotest.check_raises "fold trips in the zero run" Cancel.Cancelled (fun () ->
      Cancel.with_ambient tok (fun () ->
          ignore
            (Stream.reduce ( + ) 0
               (Stream.masked_region ~length:50_000 ~blocks ~masks ~num_blocks:100
                  ~start_block:0 ~skip:0))));
  Alcotest.(check int) "no survivor past the zero run evaluated" 1011 !touched

(* A region that asks for more survivors than its [num_blocks] input
   blocks hold raises once it reaches block [num_blocks], on the push
   fold and on the trickle, whether it seeks or walks. *)
let test_masked_region_short () =
  let short = Invalid_argument "Stream.masked_region" in
  List.iter
    (fun indexed ->
      (* 3 blocks of 10: survivors 0, 3, ..., 27 — ten of them. *)
      let mk () =
        region ~num_blocks:3 ~indexed ~blen:10 ~keep:(fun v -> v mod 3 = 0)
          ~length:11 ~start_block:0 ~skip:0 ()
      in
      let path = if indexed then "seek" else "walk" in
      Alcotest.check_raises (path ^ ": fold") short (fun () ->
          ignore (Stream.to_list (mk ())));
      Alcotest.check_raises (path ^ ": trickle") short (fun () ->
          ignore (trickle_to_list (mk ())));
      check_ilist (path ^ ": fold ~stop within the survivors") [ 0; 3; 6 ]
        (List.rev (Stream.fold (mk ()) ~stop:3 (fun acc v -> v :: acc) [])))
    [ true; false ];
  Alcotest.check_raises "start past the last block" short (fun () ->
      ignore
        (region ~num_blocks:3 ~indexed:true ~blen:10 ~keep:(fun _ -> true)
           ~length:1 ~start_block:3 ~skip:0 ()))

(* The nested-push loops keep the 64-element cancellation cadence. *)
let test_region_poll_cadence () =
  poll_cadence_of (fun poison ->
      let seg_len _ = 1_000 in
      let seg s i = poison ((1_000 * s) + i) in
      ignore
        (Stream.reduce ( + ) 0
           (Stream.of_segments ~length:100_000 ~seg_len ~seg ~start_seg:0
              ~start_ofs:0)));
  (* Masked regions: every position survives on the seek path; on the
     walk path nothing survives past 1000, so only the input loop's own
     polls can stop it. *)
  List.iter
    (fun indexed ->
      poll_cadence_of (fun poison ->
          let blocks j = Stream.map poison (region_input ~indexed ~blen:1_000 j) in
          let keep v = indexed || v <= 1_000 || v >= 90_000 in
          let masks j =
            fst (Stream.select_mask keep (region_input ~indexed:true ~blen:1_000 j))
          in
          ignore
            (Stream.reduce ( + ) 0
               (Stream.masked_region ~length:10_000 ~blocks ~masks
                  ~num_blocks:100 ~start_block:0 ~skip:0))))
    [ true; false ]

let test_buffer () =
  let b = Buffer_ext.create () in
  Alcotest.(check int) "empty len" 0 (Buffer_ext.length b);
  for i = 0 to 99 do
    Buffer_ext.push b i
  done;
  Alcotest.(check int) "len" 100 (Buffer_ext.length b);
  Alcotest.(check int) "get" 57 (Buffer_ext.get b 57);
  Alcotest.(check int_array) "to_array" (Array.init 100 Fun.id) (Buffer_ext.to_array b);
  Alcotest.check_raises "get out of range" (Invalid_argument "Buffer_ext.get")
    (fun () -> ignore (Buffer_ext.get b 100));
  Buffer_ext.clear b;
  Alcotest.(check int) "cleared" 0 (Buffer_ext.length b)

(* A per-block pack puts in the major heap only the array it returns:
   the buffer's chunks live and die in the minor heap.  Survivors are
   sparse so the chunks are few and no minor collection runs in mid-pack
   (one would promote the live chunks). *)
let test_pack_major_alloc () =
  let n = 65_536 in
  let keep v = if v mod 10 = 0 then Some v else None in
  let s = Stream.tabulate n Fun.id in
  Gc.minor ();
  let before = (Gc.quick_stat ()).major_words in
  let out = Stream.pack_op_to_array keep s in
  Gc.minor ();
  let words = (Gc.quick_stat ()).major_words -. before in
  let kept = Array.length out in
  Alcotest.(check int) "kept" ((n + 9) / 10) kept;
  if words > float_of_int (kept + 8) then
    Alcotest.failf "pack of %d survivors allocated %.0f major words" kept words

(* QCheck: stream pipeline equals list pipeline. *)
let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"buffer_ext = Array.init across chunk boundaries" ~count:200
      ~print:Print.int
      Gen.(oneof [ oneofl [ 0; 1; 255; 256; 257; 512; 513; 1024 ]; int_range 0 1100 ])
      (fun n ->
        let b = Buffer_ext.create () in
        let fb = Buffer_ext.create () in
        for i = 0 to n - 1 do
          Buffer_ext.push b i;
          Buffer_ext.push fb (float_of_int i)
        done;
        let fa = Buffer_ext.to_array fb in
        Buffer_ext.to_array b = Array.init n Fun.id
        && Buffer_ext.length b = n
        && List.for_all (fun i -> Buffer_ext.get b i = i) (List.init n Fun.id)
        && fa = Array.init n float_of_int
        && (n = 0 || Obj.tag (Obj.repr fa) = Obj.double_array_tag));
    Test.make ~name:"scan matches list model" ~count:200 small_int_array (fun a ->
        let got = Stream.to_list (Stream.scan ( + ) 0 (Stream.of_array a)) in
        let expect, _ = list_scan ( + ) 0 (Array.to_list a) in
        got = expect);
    Test.make ~name:"scan_incl matches list model" ~count:200 small_int_array
      (fun a ->
        let got = Stream.to_list (Stream.scan_incl ( + ) 0 (Stream.of_array a)) in
        got = list_scan_incl ( + ) 0 (Array.to_list a));
    Test.make ~name:"map-pack pipeline" ~count:200 small_int_array (fun a ->
        let got =
          Stream.pack_to_array
            (fun x -> x > 0)
            (Stream.map (fun x -> x - 1) (Stream.of_array a))
        in
        got
        = (Array.to_list a
          |> List.map (fun x -> x - 1)
          |> List.filter (fun x -> x > 0)
          |> Array.of_list));
  ]

(* QCheck: push/pull equivalence.  Arbitrary combinator chains over both
   source kinds must produce the same elements through the fused push
   fold (what every linear consumer drives) as through the resumable
   trickle function (the reference semantics [start] still exposes). *)
type chain_op = OMap of int | OMapi | OZip | OScan of int | OScanIncl of int | OTake of int

let apply_op s = function
  | OMap k -> Stream.map (fun x -> (2 * x) + k) s
  | OMapi -> Stream.mapi (fun i v -> i + v) s
  | OZip ->
    Stream.zip_with ( + ) s (Stream.tabulate (Stream.length s) (fun i -> 3 * i))
  | OScan k -> Stream.scan ( + ) k s
  | OScanIncl k -> Stream.scan_incl ( + ) k s
  | OTake k -> Stream.take (k mod (Stream.length s + 1)) s

(* Streams are single-use once driven, so the property builds a fresh
   chain per consumer. *)
let mk_chain (a, use_slice, ops) () =
  let base =
    if use_slice && Array.length a >= 2 then
      Stream.of_array_slice a 1 (Array.length a - 2)
    else Stream.of_array a
  in
  List.fold_left apply_op base ops

let push_pull_tests =
  let open QCheck2 in
  let gen_op =
    Gen.(
      oneof
        [
          map (fun k -> OMap k) (int_range (-3) 3);
          return OMapi;
          return OZip;
          map (fun k -> OScan k) (int_range (-3) 3);
          map (fun k -> OScanIncl k) (int_range (-3) 3);
          map (fun k -> OTake k) (int_range 0 30);
        ])
  in
  let gen_chain =
    Gen.(
      map3
        (fun a b ops -> (a, b, ops))
        small_int_array bool
        (list_size (int_range 0 5) gen_op))
  in
  [
    Test.make ~name:"push consumers = trickle reference" ~count:500 gen_chain
      (fun c ->
        let mk = mk_chain c in
        let reference = trickle_to_list (mk ()) in
        Stream.to_list (mk ()) = reference
        && Stream.reduce ( + ) 0 (mk ()) = List.fold_left ( + ) 0 reference
        && Array.to_list (Stream.to_array (mk ())) = reference
        && Array.to_list (Stream.pack_to_array (fun x -> x land 1 = 0) (mk ()))
           = List.filter (fun x -> x land 1 = 0) reference);
    Test.make ~name:"fold ~stop = trickle prefix" ~count:500
      QCheck2.Gen.(pair gen_chain (int_range 0 40))
      (fun (c, stop) ->
        let mk = mk_chain c in
        let stop = min stop (Stream.length (mk ())) in
        let prefix = List.filteri (fun i _ -> i < stop) (trickle_to_list (mk ())) in
        List.rev (Stream.fold (mk ()) ~stop (fun acc v -> v :: acc) []) = prefix);
    Test.make ~name:"zip_with push = pull for indexed and non-indexed sides"
      ~count:300
      Gen.(
        small_int_array >>= fun a ->
        map2 (fun l r -> (a, l, r)) (int_bound 2) (int_bound 2))
      (fun (a, l, r) ->
        let n = Array.length a in
        (* 0: indexed source; 1: scan (native fold, no index function);
           2: [make] trickle. *)
        let side kind k =
          match kind with
          | 0 -> Stream.map (fun x -> x + k) (Stream.of_array a)
          | 1 -> Stream.scan ( + ) k (Stream.of_array a)
          | _ -> Stream.map (fun i -> a.(i) + k) (mk_trickle n)
        in
        let model kind k =
          match kind with
          | 1 -> fst (list_scan ( + ) k (Array.to_list a))
          | _ -> List.map (fun x -> x + k) (Array.to_list a)
        in
        let mk () = Stream.zip_with (fun x y -> (31 * x) - y) (side l 1) (side r 2) in
        let expect = List.map2 (fun x y -> (31 * x) - y) (model l 1) (model r 2) in
        trickle_to_list (mk ()) = expect
        && Stream.to_list (mk ()) = expect
        && Stream.reduce ( + ) 0 (mk ()) = List.fold_left ( + ) 0 expect);
    Test.make ~name:"masked_region pull = push for every (start_block, skip)"
      ~count:300
      Gen.(
        pair (int_range 1 24) (int_range 1 4) >>= fun (blen, nb) ->
        int_range 0 9 >>= fun density ->
        map2
          (fun bits indexed -> (blen, nb, bits, indexed))
          (array_repeat (blen * nb) (map (fun r -> r < density) (int_bound 9)))
          bool)
      (fun (blen, nb, bits, indexed) ->
        let keep v = bits.(v) in
        List.for_all
          (fun start_block ->
            let survivors = region_model ~blen ~nb ~keep ~start_block ~skip:0 in
            List.for_all
              (fun skip ->
                let expect = List.filteri (fun i _ -> i >= skip) survivors in
                let mk () =
                  region ~num_blocks:nb ~indexed ~blen ~keep
                    ~length:(List.length expect) ~start_block ~skip ()
                in
                trickle_to_list (mk ()) = expect && Stream.to_list (mk ()) = expect)
              (List.init (List.length survivors) Fun.id))
          (List.init nb Fun.id));
  ]

(* QCheck: offset-indexed blocks.  A stream at offset [off] built from
   [tabulate_at] or [of_array_slice] holds [f (off + k)] at position
   [k]; every stage chain over it, driven by push fold, by trickle pull
   and by each indexed consumer, must equal the list model.  [mapi]
   takes [base = off] (the block driver's case, composed with no index
   arithmetic) or another base; zips pair the chain with indexed sides
   at the same or another offset and with a non-indexed (scan) side, on
   either side of the chain. *)
type zip_side = ZSame | ZOther of int | ZScan

type off_op =
  | FMap of int
  | FMapi of int option  (** [None]: [base = off]; [Some d]: [off + d] *)
  | FZip of zip_side * bool  (** [true]: the chain is the left side *)
  | FScan of int
  | FScanIncl of int
  | FTake of int

let off_src k = (7 * k) - 11

(* The chain and its list model, built together. *)
let off_chain (off, n, use_array, ops) =
  let src =
    if use_array then Stream.of_array_slice (Array.init (off + n + 3) off_src) off n
    else Stream.tabulate_at off n off_src
  in
  let side len = function
    | ZSame -> (Stream.tabulate_at off len (fun i -> 3 * i), List.init len (fun k -> 3 * (off + k)))
    | ZOther d ->
      ( Stream.tabulate_at (off + d) len (fun i -> 3 * i),
        List.init len (fun k -> 3 * (off + d + k)) )
    | ZScan ->
      ( Stream.scan ( + ) 1 (Stream.tabulate_at off len Fun.id),
        fst (list_scan ( + ) 1 (List.init len (fun k -> off + k))) )
  in
  List.fold_left
    (fun (s, m) op ->
      match op with
      | FMap k -> (Stream.map (fun x -> (2 * x) + k) s, List.map (fun x -> (2 * x) + k) m)
      | FMapi d ->
        let base = off + Option.value d ~default:0 in
        let g i v = (5 * i) - v in
        ( (match d with None -> Stream.mapi ~base:off g s | Some _ -> Stream.mapi ~base g s),
          List.mapi (fun k v -> g (base + k) v) m )
      | FZip (kind, left) ->
        let r, rm = side (List.length m) kind in
        let f a b = (31 * a) - b in
        if left then (Stream.zip_with f s r, List.map2 f m rm)
        else (Stream.zip_with f r s, List.map2 f rm m)
      | FScan k -> (Stream.scan ( + ) k s, fst (list_scan ( + ) k m))
      | FScanIncl k -> (Stream.scan_incl ( + ) k s, list_scan_incl ( + ) k m)
      | FTake k ->
        let k = k mod (List.length m + 1) in
        (Stream.take k s, List.filteri (fun i _ -> i < k) m))
    (src, List.init n (fun k -> off_src (off + k)))
    ops

let offset_tests =
  let open QCheck2 in
  let gen_op =
    Gen.(
      oneof
        [
          map (fun k -> FMap k) (int_range (-3) 3);
          return (FMapi None);
          map (fun d -> FMapi (Some d)) (int_range (-5) 5);
          map2 (fun k l -> FZip (k, l))
            (oneof [ return ZSame; map (fun d -> ZOther d) (int_range (-4) 4); return ZScan ])
            bool;
          map (fun k -> FScan k) (int_range (-3) 3);
          map (fun k -> FScanIncl k) (int_range (-3) 3);
          map (fun k -> FTake k) (int_range 0 40);
        ])
  in
  let gen =
    Gen.(
      quad (int_range 0 200) (int_range 0 40) bool (list_size (int_range 0 4) gen_op))
  in
  let print (off, n, arr, ops) =
    Printf.sprintf "off=%d n=%d array=%b ops=%d" off n arr (List.length ops)
  in
  [
    Test.make ~name:"offset blocks: push = pull = list model" ~count:500 ~print gen
      (fun c ->
        let mk () = off_chain c in
        let m = snd (mk ()) in
        let keep x = x land 3 <> 0 in
        let mask, cnt = Stream.select_mask keep (fst (mk ())) in
        let kept = List.filter keep m in
        let step a b = (31 * a) - b in
        Stream.to_list (fst (mk ())) = m
        && trickle_to_list (fst (mk ())) = m
        && Stream.sum_ints (fst (mk ())) = List.fold_left ( + ) 0 m
        && Stream.sum_floats (Stream.map (fun x -> float_of_int (x land 1023)) (fst (mk ())))
           = float_of_int (List.fold_left (fun a x -> a + (x land 1023)) 0 m)
        && (m = []
           || Stream.reduce1 step (fst (mk ()))
              = List.fold_left step (List.hd m) (List.tl m))
        && cnt = List.length kept
        && List.for_all2
             (fun k x ->
               Char.code (Bytes.get mask (k lsr 3)) land (1 lsl (k land 7)) <> 0
               = keep x)
             (List.init (List.length m) Fun.id) m
        &&
        (* Two copies of the chain as the input blocks of a region,
           every skip into their survivors.  A region that reads past
           them raises instead of seeking on forever. *)
        let both = kept @ kept in
        let within j = if j > 1 then invalid_arg "region ran past its input" in
        List.for_all
          (fun skip ->
            let expect = List.filteri (fun i _ -> i >= skip) both in
            let region () =
              Stream.masked_region ~length:(List.length expect)
                ~blocks:(fun j -> within j; fst (mk ()))
                ~masks:(fun j -> within j; mask)
                ~num_blocks:2 ~start_block:0 ~skip
            in
            Stream.to_list (region ()) = expect && trickle_to_list (region ()) = expect)
          (List.init (List.length both + 1) Fun.id));
  ]

(* The alternative pure state-passing encoding must agree with the
   trickle-closure encoding on every operation. *)
module SP = Bds_stream.Stream_pure

let test_pure_encoding () =
  check_ilist "tabulate" [ 0; 2; 4 ] (SP.to_list (SP.tabulate 3 (fun i -> 2 * i)));
  check_ilist "map" [ 1; 2; 3 ] (SP.to_list (SP.map (( + ) 1) (SP.tabulate 3 Fun.id)));
  check_ilist "mapi" [ 0; 11; 22 ]
    (SP.to_list (SP.mapi (fun i v -> i + v) (SP.tabulate 3 (fun i -> 10 * i))));
  check_ilist "scan" [ 0; 1; 3; 6 ]
    (SP.to_list (SP.scan ( + ) 0 (SP.tabulate 4 (fun i -> i + 1))));
  check_ilist "scan_incl" [ 1; 3; 6; 10 ]
    (SP.to_list (SP.scan_incl ( + ) 0 (SP.tabulate 4 (fun i -> i + 1))));
  Alcotest.(check int) "reduce" 4950 (SP.reduce ( + ) 0 (SP.tabulate 100 Fun.id));
  Alcotest.(check int_array) "to_array" [| 5; 6; 7 |]
    (SP.to_array (SP.of_array_slice [| 4; 5; 6; 7; 8 |] 1 3));
  let acc = ref [] in
  SP.iter (fun v -> acc := v :: !acc) (SP.tabulate 3 Fun.id);
  check_ilist "iter" [ 2; 1; 0 ] !acc

let pure_equiv_tests =
  let open QCheck2 in
  [
    Test.make ~name:"pure = trickle on random chains" ~count:300
      Gen.(pair small_int_array (int_range (-5) 5))
      (fun (a, k) ->
        let with_trickle =
          let open Stream in
          to_list (scan_incl ( + ) k (map (fun x -> x - k) (of_array a)))
        in
        let with_pure =
          let open SP in
          to_list (scan_incl ( + ) k (map (fun x -> x - k) (of_array a)))
        in
        with_trickle = with_pure);
    Test.make ~name:"pure zip_with = trickle zip_with" ~count:200 small_int_array
      (fun a ->
        Stream.(to_list (zip_with ( * ) (of_array a) (of_array a)))
        = SP.(to_list (zip_with ( * ) (of_array a) (of_array a))));
  ]

let () =
  Alcotest.run "stream"
    [
      ( "stream",
        [
          Alcotest.test_case "tabulate" `Quick test_tabulate;
          Alcotest.test_case "map/zip" `Quick test_map_zip;
          Alcotest.test_case "mapi" `Quick test_mapi;
          Alcotest.test_case "scans" `Quick test_scans;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "reduce1 order" `Quick test_reduce1_order;
          Alcotest.test_case "pack" `Quick test_pack;
          Alcotest.test_case "take" `Quick test_take;
          Alcotest.test_case "of_array_slice" `Quick test_of_array_slice;
          Alcotest.test_case "to_list order" `Quick test_to_list_order;
          Alcotest.test_case "laziness" `Quick test_laziness;
          Alcotest.test_case "iter/iteri" `Quick test_iter_iteri;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "fold with stop" `Quick test_fold_stop;
          Alcotest.test_case "is_fused flag" `Quick test_is_fused;
          Alcotest.test_case "fold poll cadence" `Quick test_fold_poll_cadence;
          Alcotest.test_case "of_segments" `Quick test_of_segments;
          Alcotest.test_case "masked_region" `Quick test_masked_region;
          Alcotest.test_case "region poll cadence" `Quick test_region_poll_cadence;
          Alcotest.test_case "masked_region cancels in zero bytes" `Quick
            test_masked_region_zero_bytes_cancel;
          Alcotest.test_case "masked_region short of survivors" `Quick
            test_masked_region_short;
          Alcotest.test_case "buffer_ext" `Quick test_buffer;
          Alcotest.test_case "pack allocates only what it keeps" `Quick
            test_pack_major_alloc;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
      ( "push/pull",
        List.map (QCheck_alcotest.to_alcotest ~long:false) push_pull_tests );
      ("offsets", List.map (QCheck_alcotest.to_alcotest ~long:false) offset_tests);
      ( "pure encoding",
        Alcotest.test_case "operations" `Quick test_pure_encoding
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) pure_equiv_tests );
    ]
