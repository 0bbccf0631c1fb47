(** Growable buffer: fixed 256-element chunks, each allocated in the
    minor heap and filled in place, so growth never copies. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

(** Walks the chunk list: O(length / 256). *)
val get : 'a t -> int -> 'a

(** Fresh array of exactly [length] elements (a flat float array when
    the elements are floats): the buffer's only allocation made in the
    major heap. *)
val to_array : 'a t -> 'a array

val clear : 'a t -> unit
