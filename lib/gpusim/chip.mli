(** Full-chip kernel launches: N per-SM simulations under a chip-level
    scheduler.

    The single-SM event-heap core ({!Sm.run}) is reused unchanged as the
    per-SM engine. This layer adds what the old wave arithmetic could
    not express:

    - a {b CTA dispatcher}: greedy, deterministic and seed-stable — a
      draining SM pulls the next [resident] CTAs (ties resolve to the
      lowest SM id), so partial tail waves and dispatch imbalance are
      simulated rather than averaged away;
    - a {b shared L2/DRAM arbiter}: when the summed streaming demand of
      the active SMs exceeds [Arch.dram_gbs_peak], every SM's progress
      is stretched by a common throttle factor (spill traffic whose
      aggregate working set fits in [Arch.l2_bytes] is served by L2 and
      exempt);
    - {b per-SM clock skew}: [Arch.sm_clock_skew] (or the [?skew]
      override) ramps per-SM clock factors linearly over
      [1 - s/2 .. 1 + s/2].

    Because every SM executes identical code on identically-shaped data
    (simulated cycles and counters never depend on float memory
    contents), only the distinct round shapes are simulated
    cycle-accurately — a full round of [resident] CTAs and, when the
    grid does not divide evenly, one genuine tail round of
    [ctas mod resident] CTAs — and the scheduler replays those shapes
    across SMs. Each {!run} simulates its own shapes and keeps nothing
    for a later one. The profiler rides the main round simulation, so
    its exact cycle conservation per simulated SM is preserved. *)

type launch = {
  program : Isa.program;
  total_points : int;  (** logical problem size, e.g. 128^3 *)
  ctas : int;  (** CTAs in the launch grid *)
}

type occupancy = {
  resident_ctas : int;
  limited_by : string;  (** which resource capped residency *)
  warps_per_sm : int;
}

(** Structured occupancy rejection: why a program cannot be resident at
    all. Replaces the old [Failure] strings so the CLI can map
    rejections onto its compile-rejection exit code. *)
type reject_kind =
  | Regs_per_thread of { regs32 : int; limit : int }
      (** per-thread register demand above the hardware maximum — the
          spilling warning of §4.1 should have fired instead *)
  | Does_not_fit of { limited_by : string }
      (** zero CTAs fit; [limited_by] names the exhausted resource *)

type reject = { program : string; arch : string; kind : reject_kind }

exception Occupancy_rejected of reject

val reject_message : reject -> string
(** Human-readable one-line rendering (also installed as the
    [Printexc] printer for {!Occupancy_rejected}). *)

val occupancy : Arch.t -> Isa.program -> occupancy
(** Resident CTAs per SM, limited as on the hardware by register-file
    capacity (the {e maximum} per-warp register demand governs the whole
    kernel, hence §4.1's register-balance metric), shared memory, warp
    slots, CTA slots and named barriers (16 per SM divided by barriers
    per CTA, the footnote of §4.2). Raises {!Occupancy_rejected} if even
    a single CTA does not fit. *)

val points_per_cta : launch -> int

val batches_per_cta : launch -> int
(** A CTA's points over {!Isa.points_per_batch}. *)

(** {1 Chip-level scheduler} *)

type sm_stat = {
  sm_ctas : int;  (** CTAs this SM executed *)
  sm_rounds : int;  (** dispatch rounds this SM executed *)
  sm_finish : float;  (** reference cycle at which this SM drained *)
  sm_busy : float;  (** reference cycles this SM had work *)
}

type contention = {
  dram_peak_bpc : float;  (** DRAM budget, bytes per reference cycle *)
  demand_peak_bpc : float;  (** peak instantaneous aggregate demand *)
  throttle_max : float;  (** worst stretch factor applied (>= 1.0) *)
  dram_util : float;  (** delivered DRAM bytes / (makespan * peak) *)
  spill_in_l2 : bool;
      (** the aggregate spill working set fit in L2, exempting local
          traffic from the DRAM budget *)
}

type schedule = {
  sms : sm_stat array;
  contention : contention;
  makespan_cycles : float;  (** reference cycles until the last SM drains *)
  tail_ctas : int;  (** [ctas mod resident], 0 when the grid divides *)
  rounds_total : int;
  n_sms : int;
  skew : float;
}

val clock_factor : n_sms:int -> skew:float -> int -> float
(** Per-SM clock multiplier: a linear ramp over [1 - s/2 .. 1 + s/2]
    (1.0 everywhere when [skew = 0] or [n_sms = 1]). *)

val schedule :
  n_sms:int ->
  skew:float ->
  resident:int ->
  ctas:int ->
  round_cycles:(int -> float) ->
  round_dram_bytes:(int -> float) ->
  dram_peak_bpc:float ->
  spill_in_l2:bool ->
  schedule
(** Pure fluid simulation of the dispatcher + arbiter; deterministic in
    its arguments (no randomness, no parallelism). [round_cycles k] and
    [round_dram_bytes k] give the nominal cost and DRAM traffic of one
    round of [k] resident CTAs; they are only consulted for
    [k = resident] and [k = ctas mod resident]. Also the analytic
    mirror used by [Perf_model], which supplies model-derived round
    costs instead of simulated ones. *)

val cycle_spread : schedule -> float
(** Max minus min [sm_finish] over SMs that received work. *)

val dispatch_imbalance : schedule -> float
(** [max sm_ctas / mean sm_ctas - 1] over all scheduled SMs (0 =
    perfectly balanced). *)

(** {1 Whole-launch simulation} *)

type result = {
  occ : occupancy;
  waves : float;  (** legacy wave count, informational only *)
  sm_cycles : int;  (** simulated cycles for one full SM-round *)
  time_s : float;  (** whole-launch wall time (scheduler makespan) *)
  points_per_sec : float;
  gflops : float;  (** SASS-style DP GFLOPS actually sustained *)
  dram_gbs : float;  (** tex+global+local traffic *)
  local_gbs : float;  (** spill traffic alone *)
  sim : Sm.result;  (** the full-round simulation *)
  tail_sim : Sm.result option;  (** the tail-round simulation, if any *)
  max_round_cycles : int;
      (** the most cycles any round took, main, pin or tail (a tail
          round can outlast the main one): the launch completes under
          every [max_cycles] at least this *)
  mem : Memstate.t;  (** post-run memory (outputs of the simulated CTAs) *)
  simulated_points : int;  (** grid points with valid outputs in [mem] *)
  chip : schedule;  (** dispatcher/arbiter outcome *)
}

val copy : result -> result
(** A copy of a result sharing none of its mutable parts: the memory, the
    simulations' counters and cache stats, and [chip.sms]. A profile is
    shared. *)

val run :
  ?fill_inputs:(Memstate.t -> int -> unit) ->
  ?max_sim_batches:int ->
  ?faults:Fault.t list ->
  ?max_cycles:int ->
  ?profile:Sm.profile_spec ->
  ?n_sms:int ->
  ?skew:float ->
  Arch.t ->
  launch ->
  result
(** [fill_inputs mem n_points] populates the input field groups and is
    called exactly once. The program is flattened ({!Trace.flatten})
    once per call. Every simulation ({!Sm.run}) is timing only; the main
    round's issue order is then replayed into [mem] ({!Sm.replay}), and
    the pin and tail runs' orders are dropped: their outputs would be
    discarded.
    Launches streaming more than [max_sim_batches] batches per CTA
    (default 6, clamped to at least 2) are extrapolated from two runs
    two batches apart: their difference is one full period of the
    steady-state body cost, so once the per-batch cost has settled the
    extrapolation reproduces a full simulation exactly (the tail round
    gets its own pin pair).

    [n_sms] (default [arch.n_sms]) and [skew] (default
    [arch.sm_clock_skew]) control the chip the scheduler sees. With
    [n_sms = 1] and zero skew the full-round cycles and counters are
    bit-identical to a single-SM run: the same {!Sm.run} calls execute
    on the same inputs, and the scheduler reduces to one round after
    another on SM 0.

    [faults] are applied to the flattened trace before simulation
    ({!Fault.apply}, with barrier ids range-checked against the
    architecture's named-barrier count); [max_cycles] is forwarded to
    {!Sm.run} as the per-simulation watchdog budget. Both default to the
    clean, unlimited run. [profile] is forwarded to {!Sm.run} for the
    main simulation only; the ledger is [result.sim.profile]. May raise
    {!Occupancy_rejected} or {!Sm.Simulation_fault}. *)
