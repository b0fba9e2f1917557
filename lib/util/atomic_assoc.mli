(** An association list behind an [Atomic.t]: a few bindings that
    domains share without a lock. A binding, once added, is never
    replaced or removed, so a value read from the list stays the one
    bound. Keys compare with [=]. *)

type ('k, 'v) t = ('k * 'v) list Atomic.t

val find : ('k, 'v) t -> 'k -> 'v option

val add : ('k, 'v) t -> 'k -> 'v -> 'v * bool
(** [add t key v] binds [key] to [v] unless it is bound already, and
    returns the value bound now, with [true] when it is [v]. A caller
    that loses a race to bind [key] gets the winner's value. *)
