(** Reproduction harness: one entry point per table and figure of the
    paper (see DESIGN.md's experiment index). Each prints the same rows or
    series the paper reports, on stdout.

    Simulated numbers are deterministic, so the paper's twenty-iteration
    harmonic mean collapses to a single run. Absolute magnitudes depend on
    the simulator calibration (see {!Gpusim.Arch}); the comparisons the
    paper argues from — who wins, by what factor, where crossovers fall —
    are the reproduction target (EXPERIMENTS.md records both sides). *)

val fast : unit -> bool
(** True when the [SINGE_FAST] environment variable is set: smaller sweeps
    for CI-style runs. *)

val fig3 : unit -> unit
(** Mechanism characteristics table (reactions / species / QSSA / stiff). *)

val fig9 : unit -> unit
(** Naive vs overlaid warp-specialized code generation: DME viscosity on
    Kepler over a range of warps per CTA (the instruction-cache cliff). *)

val fig10 : unit -> unit
(** Constant registers per thread on Kepler, per mechanism and kernel. *)

val perf_figure :
  Chem.Mechanism.t -> Singe.Kernel_abi.kernel -> unit
(** Figures 11-16: throughput of the autotuned baseline and
    warp-specialized kernels on both architectures at 32^3 / 64^3 / 128^3,
    with the sustained GFLOPS (§6.1/6.2) and spill bytes (§6.3) the paper
    quotes in the text. *)

val fig11 : unit -> unit
(** DME viscosity *)

val fig12 : unit -> unit
(** heptane viscosity *)

val fig13 : unit -> unit
(** DME diffusion *)

val fig14 : unit -> unit
(** heptane diffusion *)

val fig15 : unit -> unit
(** DME chemistry *)

val fig16 : unit -> unit
(** heptane chemistry *)

val stall_breakdown : unit -> unit
(** Fig.-11-style cycle-attribution table: the profiler's per-bucket
    shares (issue / arith / memory / barriers / caches / idle) for DME
    viscosity on Kepler, baseline vs warp-specialized. *)

val ablation_barriers : unit -> unit
(** §6.2: cost of named-barrier synchronization in the diffusion kernel —
    grouped sync points vs one barrier per edge, and the CTA-barrier
    epochs' share of runtime. *)

val ablation_exp_constants : unit -> unit
(** §6.1: the constant-cache-fed DFMA ceiling — viscosity with the
    exponential's polynomial constants read from the constant cache vs
    held in registers (the paper's deliberately-incorrect probe, here
    implemented losslessly). *)

val ablation_chem_comm : unit -> unit
(** Chemistry communication-policy ablation: species vectors staged through
    shared memory vs redundantly recomputed per consumer warp vs the mixed
    policy — throughput, shared footprint and spill bytes. *)

val ablation_weights : unit -> unit
(** Mapping-weight sweep: how the FLOP / register / locality weights of the
    greedy warp assignment trade balance for locality. *)

val ablation_batches : unit -> unit
(** §6.2: constant-load amortization — throughput versus grid size as the
    per-CTA constant-loading prologue is amortized over more streaming
    batches. *)

val ablation_exchange : unit -> unit
(** Shuffle-exchange superoptimizer ablation ({!Singe.Shuffle_synth}):
    per-kernel simulated cycles with the exchange rewrite off vs on, the
    rewrite counts (sites, round trips removed, shuffle steps) and the
    shared-memory footprint freed — DME warp-specialized on Kepler. *)

val model_accuracy : unit -> unit
(** Predicted-vs-simulated SM cycles for {!Singe.Perf_model} on every
    kernel x version (both mechanisms on Kepler), with the per-row
    relative error and the worst case — the accuracy table DESIGN §12
    quotes. *)

val chip_scaling : unit -> unit
(** Throughput vs SM count for DME viscosity on Kepler at a fixed grid:
    the {!Gpusim.Chip} dispatcher/arbiter's wave, tail and DRAM-contention
    behavior as the chip grows — speedup over one SM, aggregate DRAM
    utilization, peak arbiter throttle and dispatch imbalance per row. *)

val partition_search : unit -> unit
(** Automatic partition search vs the hand mapping ({!Singe.Partition_search},
    DESIGN §16): hand vs searched cycles, the search/gate/reject funnel and
    the winning spec for every warp-specialized kernel of both mechanisms on
    Kepler. Winners are confirmed by simulation (model-only under
    [SINGE_FAST]). *)

val stencil_overlap : unit -> unit
(** Warp-overlapped vs non-overlapped stencil tiling ({!Singe.Stencil_dfg},
    DESIGN §17): simulated SM cycles for every stencil pipeline on Kepler
    under both tiling modes, each with the hand band mapping and the
    searched partition ([--partition auto], model-resolved). *)

val registry : (string * (unit -> unit)) list
(** Every table, figure and ablation under its command-line name
    ([singe figures NAME], [bench/main.exe NAME]), in order. *)

val all : unit -> unit
(** Every entry of {!registry} in order. *)
