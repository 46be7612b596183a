(** Growable LIFO stack of non-negative ints (frame numbers, node
    indices). Push and pop allocate nothing except when the backing
    array doubles. *)

type t

val create : unit -> t
val push : t -> int -> unit

val pop : t -> int
(** The most recently pushed value, removed; [-1] when empty. *)
