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

type demand = {
  mutable warp_instrs : float;  (** issue slots *)
  mutable dp_slots : float;  (** DFMA-equivalent DP issue slots *)
  mutable shared_slots : float;  (** warp shared-access slots *)
  mutable tex_bytes : float;
  mutable global_bytes : float;
  mutable local_bytes : float;
}
(** Per-CTA-batch demand on each machine resource, from one walk of the
    body with warp masks. Exposed so the performance model
    ([Singe.Perf_model]) can turn the same accounting into cycles. *)

val demand_of : Arch.t -> Isa.program -> demand

val demand_cycles : Arch.t -> demand -> (string * float) list
(** [(resource, cycles)] — SM cycles one CTA-batch of demand occupies on
    each issue pipe / bandwidth path ([demand / rate]; resources with no
    demand report 0). The maximum entry is the throughput-side floor on
    per-batch execution time; {!analyze}'s bounds are the same ratios
    expressed as points/s ceilings. *)

val analyze : Arch.t -> Isa.program -> t
(** Per-SM ceilings from: warp-instruction issue, the DP pipe (counting
    multi-slot special functions and constant-operand penalties), the
    shared-memory pipe, and each global/local bandwidth path, scaled by
    occupancy-resident CTAs and SM count. *)

val pp : Format.formatter -> t -> unit
