(** The library's one wall clock: monotonic, so an interval never goes
    negative or jumps when the system clock is stepped. *)

val now_ns : unit -> float
(** Nanoseconds since an arbitrary fixed origin; only differences are
    meaningful. *)

val elapsed_ms : float -> float
(** [elapsed_ms t0] is the milliseconds since [t0 = now_ns ()]. *)
