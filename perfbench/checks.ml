(* Output comparators.  Ints and bytes must match exactly.  Floats may
   differ from the sequential reference by summation order only, so they
   match within a relative tolerance; magnitudes below 1 are compared
   absolutely, so a value near zero does not demand an impossible
   relative precision. *)

let float_rel_tol = 1e-9

let float_close ?(rel = float_rel_tol) a b =
  Float.abs (a -. b) <= rel *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let float_array_close ?rel a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (float_close ?rel x b.(i)) then ok := false) a;
  !ok

(* A convex hull is a set of input points: the order and the starting
   vertex of the listing are the algorithm's choice.  Points are input
   coordinates, never computed ones, so they compare exactly. *)
let same_point_set (a : (float * float) list) (b : (float * float) list) =
  List.sort compare a = List.sort compare b
