(* Growable buffer (OCaml 5.1 predates stdlib Dynarray): a list of
   fixed chunks of [chunk] elements, each filled in place.  [chunk] is
   [Max_young_wosize] (256 words), so every chunk — a flat float chunk
   included — is allocated in the minor heap, and growth never copies.
   [to_array] gathers the chunks into one exact-size array, the only
   allocation made in the major heap (a chunk gets there only when a
   minor collection runs while it is live).  Every per-block pack
   ([Stream.pack_to_array], [Seq.partition], the A and R filters) goes
   through this type, so a block-local filter allocates, in the major
   heap, exactly what it keeps. *)

let chunk = 256

type 'a t = {
  mutable cur : 'a array;  (* chunk being filled; [[||]] before the first push *)
  mutable fill : int;  (* elements in [cur] *)
  mutable full : 'a array list;  (* filled chunks, newest first *)
  mutable len : int;
}

let create () = { cur = [||]; fill = 0; full = []; len = 0 }

let length b = b.len

let push b v =
  if b.fill = Array.length b.cur then begin
    if b.len > 0 then b.full <- b.cur :: b.full;
    (* [v] as the filler: a float makes the chunk a flat float array. *)
    b.cur <- Array.make chunk v;
    b.fill <- 0
  end;
  Array.unsafe_set b.cur b.fill v;
  b.fill <- b.fill + 1;
  b.len <- b.len + 1

(* [Array.concat] allocates its result at exact size, flat when the
   chunks are float arrays, and initializes it in place.  Unlike
   [Array.make] with a young boxed filler, it never forces a minor
   collection, which would promote the live chunks. *)
let to_array b =
  if b.len = 0 then [||]
  else Array.concat (List.rev (Array.sub b.cur 0 b.fill :: b.full))

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Buffer_ext.get";
  let base = b.len - b.fill in
  if i >= base then b.cur.(i - base)
  else (List.nth b.full ((base - 1 - i) / chunk)).(i mod chunk)

let clear b =
  b.cur <- [||];
  b.fill <- 0;
  b.full <- [];
  b.len <- 0
