(* Forward BFS with sequences — the paper's Figure 6, written once as a
   functor and instantiated with each of the three libraries.

   Each round flattens the out-neighbours of the frontier into
   (parent, child) pairs and keeps, via filterOp + compare-and-swap, the
   pairs that claim an unvisited child.  With block-delayed sequences the
   flattened pair sequence is never materialised and the filter packs only
   within blocks. *)

module Make (S : Bds_seqs.Sig.S) = struct
  let bfs (g : Csr.t) (source : int) : int array =
    let n = Csr.num_vertices g in
    let parents = Array.init n (fun _ -> Atomic.make (-1)) in
    let out_pairs u =
      S.tabulate (Csr.degree g u) (fun k -> (u, Csr.neighbor g u k))
    in
    (* Read before the CAS: on a hub-heavy graph most edges of a round
       point at vertices that are already claimed, and a failed CAS
       still takes the slot's cache line exclusive, so every domain
       would keep pulling the same hub lines back and forth.  The plain
       read shares the line; exactly one CAS per vertex still wins. *)
    let try_visit (u, v) =
      let p = parents.(v) in
      if Atomic.get p = -1 && Atomic.compare_and_set p (-1) u then Some v
      else None
    in
    let rec search frontier =
      if S.length frontier = 0 then ()
      else begin
        let edges = S.flatten (S.map out_pairs frontier) in
        let next = S.filter_op try_visit edges in
        search next
      end
    in
    (match try_visit (source, source) with
    | Some _ -> ()
    | None -> assert false);
    search (S.tabulate 1 (fun _ -> source));
    Array.map Atomic.get parents
end

module Array_version = Make (Bds_seqs.Impl_array)
module Rad_version = Make (Bds_seqs.Impl_rad)
module Delay_version = Make (Bds_seqs.Impl_delay)

(* Validity check: a parents array is a correct BFS tree iff the set of
   reached vertices matches the reference and every tree edge goes from
   depth d to depth d+1 of the reference distances. *)
let valid_parents (g : Csr.t) (source : int) (parents : int array) =
  let dist = Csr.bfs_distances g source in
  let n = Csr.num_vertices g in
  let ok = ref (parents.(source) = source) in
  for v = 0 to n - 1 do
    if v <> source then begin
      match parents.(v) with
      | -1 -> if dist.(v) >= 0 then ok := false
      | u ->
        if dist.(v) < 0 then ok := false
        else if not (dist.(u) + 1 = dist.(v)) then ok := false
    end
  done;
  !ok
