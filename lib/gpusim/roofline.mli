(** Static roofline analysis: upper bounds on a program's throughput from
    each machine resource, and the binding one.

    Bounds are computed from the static per-batch instruction counts of
    {!Isa_stats} and the architecture's issue/bandwidth parameters — no
    simulation. The simulator should never beat a bound by more than its
    timing noise; the bound/achieved ratio says which resource a kernel is
    actually limited by (the §6 arguments: viscosity math-bound, baseline
    chemistry spill-bandwidth-bound, warp-specialized chemistry
    synchronization-bound). *)

type bound = {
  resource : string;  (** e.g. "DP pipe", "local-memory path" *)
  points_per_sec : float;  (** throughput ceiling from this resource alone *)
}

type t = {
  bounds : bound list;  (** sorted, tightest first *)
  binding : bound;  (** the minimum *)
  occupancy : Chip.occupancy;
}

val analyze : Arch.t -> Isa.program -> t
(** Per-SM ceilings from: warp-instruction issue, the DP pipe (counting
    multi-slot special functions and constant-operand penalties), the
    shared-memory pipe, and each global/local bandwidth path, scaled by
    occupancy-resident CTAs and SM count. *)

val pp : Format.formatter -> t -> unit
