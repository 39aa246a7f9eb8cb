(** Work-stealing deque of {!Tpool}, its only user: the owning worker
    pushes and pops LIFO at the bottom, thieves steal FIFO from the top.
    Safe for concurrent use from any number of domains. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
val steal : 'a t -> 'a option
