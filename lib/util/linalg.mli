(** Small dense linear algebra used for transport-coefficient fitting.

    Sizes here are tiny (order 4-10), so numerical sophistication beyond
    partial pivoting is unnecessary. *)

exception Singular
(** Raised when a solve encounters a (numerically) singular matrix. *)

val solve : float array array -> float array -> float array
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting. [a] and [b] are not modified. Raises {!Singular} if no pivot
    exceeds 1e-300 in magnitude. *)
