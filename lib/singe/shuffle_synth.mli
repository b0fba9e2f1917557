(** Shuffle-exchange superoptimizer (DESIGN §14).

    Shared-memory exchange round-trips — a [St_shared] by the producing
    warp, a barrier, and lane-striped [Ld_shared]/[Sshared] reads by the
    consumers — are the §5 codegen's only mechanism for moving values
    between registers. Whenever the reader is the warp that wrote the
    value, the round-trip is a warp-internal lane permutation in disguise,
    and a short register-only shuffle program (in the style of
    swizzle-inventor's sketch search) can replace it.

    This module is the search core: a tiny swizzle language (lane
    rotations, butterflies, single-lane broadcasts — exactly the
    {!Gpusim.Isa.Shfl_rot} / {!Gpusim.Isa.Shfl_bfly} / {!Gpusim.Isa.Shfl}
    instructions), a symbolic lane evaluator over it, a canonicalizer that
    collapses the sketch space so equivalent programs are enumerated once,
    a bounded-depth enumeration indexed by lane-permutation signature, and
    an {!Gpusim.Arch}-parameterized cost model mirroring
    {!Perf_model}'s per-instruction accounting. {!Lower} extracts each
    exchange's lane-communication pattern and calls {!synthesize}; the
    caller keeps a rewrite only when {!cost} beats
    {!shared_read_cost}. *)

type step =
  | Rot of int  (** lane [l] reads lane [(l + delta) mod 32] *)
  | Bfly of int  (** lane [l] reads lane [l lxor mask] *)
  | Bcast of int  (** every lane reads lane [k] *)

type prog = step list
(** Applied left to right: the value vector flows through each step. *)

val signature : prog -> int array
(** The symbolic lane evaluator: element [l] is the lane of the
    {e original} vector whose value lane [l] holds after running [p]. *)

val apply : prog -> 'a array -> 'a array
(** Run the program on a concrete 32-lane value vector (the functional
    semantics the simulator must agree with). *)

val canonicalize : prog -> prog
(** Zero steps dropped, adjacent same-kind steps merged, any program whose
    signature is constant collapsed to a single [Bcast], identity to []. *)

val enumerate : ?max_depth:int -> unit -> prog list
(** Every canonical program up to [max_depth] (default 3) steps, one per
    distinct lane-permutation signature (cheapest representative kept).
    The result is memoized process-wide for the default depth. *)

val synthesize : int array -> prog option
(** [synthesize pattern] finds the cheapest enumerated program whose
    signature equals [pattern] (where [pattern.(l)] is the source lane
    feeding destination lane [l]); [Some []] for the identity. The result
    is re-verified against the pattern on all 32 lanes before being
    returned — the enumeration-level equivalence oracle. *)

val cost : Gpusim.Arch.t -> prog -> float
(** Issue + dependence-latency cycles of the shuffle program: each step is
    two 32-bit shuffles on the ALU pipe plus an [arith_latency] hop,
    matching {!Perf_model}'s charge for {!Gpusim.Isa.Shfl}. *)

val shared_read_cost : Gpusim.Arch.t -> float
(** What one lane-striped shared read costs the reader in the same units:
    a shared-pipe slot (free under an operand collector) plus the
    [shared_latency] dependence hop. The store side and the freed shared
    footprint make the rewrite strictly better when [cost <=
    shared_read_cost], so that is the arbitration test. *)

type report = {
  sites_seen : int;  (** shared-read sites examined *)
  sites_rewritten : int;  (** sites replaced by a swizzle program *)
  round_trips_removed : int;  (** shared reads eliminated (per warp) *)
  stores_removed : int;  (** dead shared stores eliminated *)
  shuffle_steps : int;  (** swizzle instructions inserted *)
  shared_bytes_freed : int;  (** per-CTA shared footprint shrink *)
}

val empty_report : report

val report_stats : report -> (string * float) list
(** The pass-manager stat list ([--timings] row) for a synthesis run. *)
