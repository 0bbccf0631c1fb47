(* The two kernel workloads: the "Ours" (block-delayed, [Delay_version])
   kernel of each §6 benchmark, at the harness registry's default sizes,
   with inputs generated from the workload seed.

   Sizes are written out here rather than read from the registry, so a
   later change to the registry does not silently change the benchmark. *)

module K = Bds_kernels
module G = Bds_graph

(* One kernel, ready to run.  [run] times nothing itself: it runs the
   kernel once and returns a thunk that checks that run's output against
   the sequential reference, so the caller can keep the check outside
   its timer.  [reference] computes that reference; it is called once,
   after set-up and outside it. *)
type kernel = {
  name : string;
  run : unit -> unit -> bool;
  reference : unit -> unit;
}

let kernel name ~run ~reference ~check =
  let expected = ref None in
  {
    name;
    reference = (fun () -> expected := Some (reference ()));
    run =
      (fun () ->
        let r = run () in
        fun () ->
          match !expected with
          | Some e -> check e r
          | None -> invalid_arg ("reference not computed: " ^ name));
  }

(* Filter-heavy: every kernel builds its block-delayed sequences through
   filter / filter_op / flatten.  Survivors are sparse in tokens and grep
   (word and line starts) and dense in primes; bfs adds many small,
   irregular fork-join rounds. *)
let filter_flatten ~seed =
  let text = K.Tokens.generate ~seed 5_000_000 in
  let gtext = K.Grep.generate ~seed 5_000_000 in
  let pts = K.Quickhull.generate ~seed 200_000 in
  let primes_n = 2_000_000 in
  let edges = 1_000_000 in
  let scale = max 8 (int_of_float (Float.log2 (float_of_int (max 1024 (edges / 8))))) in
  let g = G.Rmat.generate ~seed ~scale ~num_edges:edges () in
  [
    kernel "tokens"
      ~run:(fun () -> K.Tokens.Delay_version.tokens text)
      ~reference:(fun () -> K.Tokens.reference text)
      ~check:( = );
    kernel "grep"
      ~run:(fun () -> K.Grep.Delay_version.grep gtext "needle")
      ~reference:(fun () -> K.Grep.reference gtext "needle")
      ~check:( = );
    kernel "quickhull"
      ~run:(fun () -> K.Quickhull.Delay_version.hull pts)
      ~reference:(fun () -> K.Quickhull.reference pts)
      ~check:Perfbench.Checks.same_point_set;
    kernel "primes"
      ~run:(fun () -> K.Primes.Delay_version.primes primes_n)
      ~reference:(fun () -> K.Primes.reference primes_n)
      ~check:( = );
    (* Parents legitimately differ between runs (CAS races pick among
       equal-depth parents), so bfs is checked for validity, not equality. *)
    kernel "bfs"
      ~run:(fun () -> G.Bfs.Delay_version.bfs g 0)
      ~reference:(fun () -> ())
      ~check:(fun () parents -> G.Bfs.valid_parents g 0 parents);
  ]

(* Index-fused map / zip / reduce, scan-produced sequences and the
   unboxed float lane; no filter and no flatten. *)
let scan_reduce ~seed =
  let close = Perfbench.Checks.float_close ?rel:None in
  let cuts = K.Bestcut.generate ~seed 2_000_000 in
  let a, b = K.Bignum.generate_input ~seed 2_000_000 in
  let xy = K.Linearrec.generate ~seed 2_000_000 in
  let ints = K.Mcss.generate ~seed 5_000_000 in
  let integrate_n = 5_000_000 in
  let line = K.Linefit.generate ~seed 2_000_000 in
  let text = K.Wc.generate ~seed 5_000_000 in
  let m, x = K.Sparse_mxv.generate ~seed ~rows:(1_000_000 / 50) ~nnz_per_row:50 () in
  [
    kernel "bestcut"
      ~run:(fun () -> K.Bestcut.Delay_version.best_cut cuts)
      ~reference:(fun () -> K.Bestcut.reference cuts)
      ~check:close;
    kernel "bignum-add"
      ~run:(fun () -> K.Bignum.Delay_version.add a b)
      ~reference:(fun () -> K.Bignum.reference a b)
      ~check:(fun (d, c) (d', c') -> Bytes.equal d d' && c = c');
    kernel "linearrec"
      ~run:(fun () -> K.Linearrec.Delay_version.solve xy)
      ~reference:(fun () -> K.Linearrec.reference xy)
      ~check:(Perfbench.Checks.float_array_close ?rel:None);
    kernel "mcss"
      ~run:(fun () -> K.Mcss.Delay_version.mcss ints)
      ~reference:(fun () -> K.Mcss.reference ints)
      ~check:( = );
    kernel "integrate"
      ~run:(fun () -> K.Integrate.Delay_version.integrate integrate_n)
      ~reference:(fun () -> K.Integrate.reference integrate_n)
      ~check:close;
    kernel "linefit"
      ~run:(fun () -> K.Linefit.Delay_version.fit line)
      ~reference:(fun () -> K.Linefit.reference line)
      ~check:(fun (s, i) (s', i') -> close s s' && close i i');
    kernel "wc"
      ~run:(fun () -> K.Wc.Delay_version.wc text)
      ~reference:(fun () -> K.Wc.reference text)
      ~check:( = );
    kernel "sparse-mxv"
      ~run:(fun () -> K.Sparse_mxv.Delay_version.mxv m x)
      ~reference:(fun () -> K.Sparse_mxv.reference m x)
      ~check:(Perfbench.Checks.float_array_close ?rel:None);
  ]

let workloads = [ ("filter-flatten", filter_flatten); ("scan-reduce", scan_reduce) ]
