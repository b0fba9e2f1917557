(** GPU architecture descriptors.

    Parameters for the two machines of the paper's evaluation (§6): an
    NVIDIA Tesla C2070 (Fermi) and a Tesla K20c (Kepler). Clocks, SM
    counts, and capacity limits are the published values; pipeline and
    memory-path parameters are calibrated so the simulator reproduces the
    first-order numbers the paper reports (≈300 GFLOPS practical DP peak on
    Fermi, ≈1173 theoretical on Kepler, 85-100 GB/s local-memory spill
    bandwidth, 30-cycle shared-memory latency, 16 named barriers per SM). *)

type broadcast_style =
  | Shared_mirror  (** Fermi: write to a shared-memory mirror, lanes read (Listing 2) *)
  | Shuffle  (** Kepler: two 32-bit shuffles reassemble the double (Listing 3) *)

type t = {
  name : string;
  n_sms : int;
  clock_mhz : float;  (** SM clock *)
  (* capacity limits *)
  regfile_per_sm : int;  (** 32-bit registers per SM *)
  max_regs_per_thread : int;  (** 32-bit registers *)
  shared_bytes_per_sm : int;
  max_warps_per_sm : int;
  max_ctas_per_sm : int;
  named_barriers_per_sm : int;  (** 16 on both Fermi and Kepler *)
  (* issue model *)
  schedulers : int;  (** warp instructions issued per cycle, any pipe *)
  dp_issue_per_cycle : float;
      (** DP warp-instructions per cycle: 0.5 on Fermi (one per two
          cycles), 2.0 on Kepler (one per quad per two cycles, 4 quads) *)
  const_operand_penalty : float;
      (** multiplier on DP pipe occupancy when a DFMA's operand streams
          from the constant cache (the Kepler effect of §6.1) *)
  alu_issue_per_cycle : float;  (** integer/branch/logic pipe *)
  (* latencies, in SM cycles *)
  arith_latency : int;
  shared_latency : int;  (** ≈30 (§6.3) *)
  global_latency : int;
  icache_miss_latency : int;
  (* memory paths: bandwidth in bytes per SM-cycle per SM *)
  tex_bytes_per_cycle : float;  (** texture/LDG read path *)
  global_bytes_per_cycle : float;  (** plain global loads/stores *)
  local_bytes_per_cycle : float;
      (** register-spill (local memory) path through the L1 — the
          85-100 GB/s the paper measured *)
  (* shared memory *)
  shared_banks : int;
  shared_issue_per_cycle : float;  (** warp shared accesses per cycle *)
  (* caches *)
  const_cache_bytes : int;  (** 8 KB *)
  const_line_bytes : int;
  icache_bytes : int;
  icache_line_instrs : int;  (** instructions per line *)
  icache_assoc : int;
  instr_bytes : int;  (** static code footprint per instruction *)
  (* code generation *)
  broadcast : broadcast_style;
  has_ldg : bool;  (** texture loads for global reads *)
  shared_operand_collector : bool;
      (** arithmetic reads shared operands through the operand collector
          (Fermi), costing latency but no LD/ST issue slot *)
  (* chip-level memory system (the Chip layer's shared-resource model) *)
  l2_bytes : int;
      (** L2 capacity: 768 KB on Fermi, 1.5 MB on Kepler. Per-SM spill
          working sets that fit collectively in L2 are served without
          touching DRAM in the chip-level arbiter. *)
  dram_gbs_peak : float;
      (** aggregate DRAM bandwidth shared by all SMs, in GB/s — the
          ceiling the chip-level arbiter enforces when summed per-SM
          streaming demand exceeds it *)
  sm_clock_skew : float;
      (** relative clock spread across SMs (0.0 = all SMs identical).
          A skew [s] ramps per-SM clock factors linearly over
          [1 - s/2 .. 1 + s/2]; models boot-time binning/boost variance. *)
}

val fermi_c2070 : t
val kepler_k20c : t

val by_name : string -> t option
(** ["fermi"] or ["kepler"] (case-insensitive). *)

val peak_dp_gflops : t -> float
(** Theoretical DP peak: [dp_issue_per_cycle * 64 flops * clock * SMs]
    (513 for the C2070, 1173 for the K20c). *)

val icache_line_bytes : t -> int
(** Instruction-cache line size in bytes
    ([icache_line_instrs * instr_bytes]). *)

val dram_bytes_per_chip_cycle : t -> float
(** [dram_gbs_peak] expressed in bytes per reference SM clock — the
    chip-wide budget the Chip arbiter divides among active SMs. *)

val pp : Format.formatter -> t -> unit
