(** Scalar expressions: the bodies of dataflow operations.

    An expression computes one double per grid point from the operation's
    input values ([In i] is the i-th input), compile-time constants, and
    literal immediates. The distinction between [C] and [Imm] matters for
    code generation: [C] constants are {e bankable} — different warps
    executing overlaid code may hold different values for the same constant
    position (§5.2) — while [Imm] immediates are part of the instruction
    encoding and must be identical for two expressions to share shape. *)

type t =
  | Imm of float
  | C of float  (** symbolic constant, materialized per §5.2's policies *)
  | In of int  (** operation input by position *)
  | Un of Gpusim.Isa.fop * t
  | Bin of Gpusim.Isa.fop * t * t
  | Fma3 of t * t * t  (** a*b + c *)
  | Let of t * t
      (** [Let (def, body)]: evaluate [def] once; [Var 0] in [body] refers
          to it (de Bruijn indexing, [Var (i+1)] reaches enclosing lets).
          The only sharing mechanism — expressions are trees, so common
          subexpressions must be bound explicitly. *)
  | Var of int

val let_ : t -> t -> t
(** [let_ def body] binds [def] as [Var 0] within [body]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val fma : t -> t -> t -> t
val div : t -> t -> t
val exp_ : t -> t
val log_ : t -> t
val max_ : t -> t -> t
val min_ : t -> t -> t
val neg : t -> t

val poly3 : t -> c0:float -> c1:float -> c2:float -> c3:float -> t
(** Horner-form cubic with bankable coefficients (the transport fits). *)

val sum : t list -> t
(** Balanced-tree sum; [Imm 0.] for the empty list. *)

val dot : (float * t) list -> t
(** FMA chain [sum_i c_i * x_i] with bankable coefficients. *)

val n_inputs : t -> int
(** 1 + the largest input index mentioned (0 if none). *)

val constants : t -> float list
(** The [C] values in a canonical (left-to-right) traversal order — the
    order in which code generation assigns constant-array slots, identical
    for two expressions of equal shape. *)

val n_constants : t -> int

val canonical_bits : float -> int64
(** The bits an immediate compares by: exact, but all NaNs of one sign
    agree; [-0.0] stays apart from [0.0]. *)

val same_shape : t -> t -> bool
(** Structural shape equality: equal shapes mean the expressions lower to
    identical instruction sequences up to constant values, and can be
    overlaid across warps (§5.1). [C] nodes are wildcards; [Imm] values
    compare by {!canonical_bits}; [In]/[Var] indices and operators must
    match exactly. *)

val shape_hash : t -> int
(** A hash consistent with {!same_shape}, which keys [Shape_tbl]. *)

module Shape_tbl : Hashtbl.S with type key = t

val flops : t -> int
(** Per-point FLOPs, counted like {!Gpusim.Isa.fop_flops}. *)

val depth : t -> int

val eval : t -> consts:float array -> input:(int -> float) -> float
(** Reference evaluation; [consts] must be [constants e] (used by tests to
    validate lowering). *)

val pp : Format.formatter -> t -> unit
