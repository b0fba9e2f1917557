(** Brute-force exhaustive autotuning (§4), optionally pruned by the
    analytic performance model.

    The paper: "we used a brute-force exhaustive autotuning script to drive
    Singe"; the searchable dimensions are deliberately coarse (warps per
    CTA, target CTAs per SM, mapping weights, shared-memory strategy), so
    the space stays at a few hundred points. Configurations that do not
    compile or fit (register file, shared memory, barrier budget) are
    skipped, exactly as a failing [nvcc] invocation would be.

    {!Perf_model} makes a cheaper sweep possible: every candidate is
    scored analytically first (static prediction, no simulation), and in
    {!Pruned} mode only the model's top picks are actually simulated. The
    exhaustive mode stays the default and the reference.

    Every search over a candidate population goes through the same two
    steps: {!rank} compiles and predicts the population and orders it by
    a caller-given key, and {!confirm} simulates a chosen list of scored
    candidates and picks the measured winner. {!tune} is rank, select
    (every candidate, or the top [k]), confirm; {!Partition_search} ranks
    its structural partitions by model cycles and confirms the hand
    mapping plus the gated top picks; serve's degraded tune answers with
    the head of {!rank}. *)

type mode =
  | Exhaustive  (** simulate every candidate (the paper's sweep) *)
  | Pruned of int
      (** score the whole grid with {!Perf_model.predict}, simulate only
          the top-[k] predicted candidates ({!default_prune_keep} is the
          conventional [k]) *)

type candidate = {
  options : Compile.options;
  throughput : float;  (** points per second at the tuning problem size *)
  compiled : Compile.t;
  result : Compile.run_result;
  predicted : Perf_model.prediction;
      (** the model's static score for this configuration — recorded in
          both modes so sweeps can report predicted-vs-measured *)
}

type failure = {
  failed_options : Compile.options;
  reason : string;  (** one-line cause, e.g. the diagnostic or fault *)
  fault : Gpusim.Sm.fault_kind option;
      (** [Some _] when the candidate died in a contained simulation
          fault (deadlock, livelock, watchdog budget) *)
}

type outcome = {
  best : candidate;
  tried : int;
  skipped : int;  (** configurations that failed to compile, fit or run *)
  failures : failure list;
      (** the skipped candidates' causes, in candidate order *)
  mode : mode;  (** the mode this sweep actually ran under *)
  candidates_pruned : int;
      (** compilable candidates the model excluded from simulation
          (always 0 when exhaustive) *)
  model_rank_of_winner : int;
      (** 1-based rank {!Perf_model} gave the measured winner over the
          compilable grid (1 = the model's own first pick) *)
}

val classify_exn : exn -> string * Gpusim.Sm.fault_kind option
(** Render a per-candidate failure one-line ([Simulation_fault]s keep
    their structured kind); shared with {!Partition_search}'s rejection
    bookkeeping. *)

val default_prune_keep : int
(** How many model-ranked candidates a pruned sweep simulates by default
    (8) — the [--tune-mode pruned] default when no [--top-k] is given. *)

val default_warp_candidates :
  Chem.Mechanism.t -> Kernel_abi.kernel -> Compile.version -> int list
(** Warp counts worth trying: divisors and near-divisors of the computed
    species count for warp-specialized kernels (Fig. 9's peaks), powers of
    two for the data-parallel baseline. *)

val candidate_options :
  ?synth_exchange:bool ->
  ?stencil_overlap:bool ->
  points:int ->
  Kernel_abi.kernel ->
  Compile.version ->
  Gpusim.Arch.t ->
  int list ->
  int list ->
  Compile.options list
(** [candidate_options ~points kernel version arch warp_candidates
    cta_targets] is the exact candidate grid {!tune} sweeps, in
    evaluation order — exposed so tests can address individual candidates
    (e.g. to poison one by index). [synth_exchange] forces the
    {!Shuffle_synth} exchange rewrite on or off for every candidate
    (default: each candidate keeps the per-architecture auto setting).
    [stencil_overlap] fixes the stencil tiling mode across the grid
    (default: the overlapped default; ignored by combustion kernels). *)

type scored = {
  s_index : int;
      (** position in the list given to {!rank} (a caller confirming a
          candidate from outside a ranked population picks its own) *)
  s_options : Compile.options;
  s_compiled : Compile.t;
  s_prediction : Perf_model.prediction;
}
(** A compiled candidate with the model's static score. *)

val rank :
  ?jobs:int ->
  ?n_sms:int ->
  ?skew:float ->
  points:int ->
  key:(Perf_model.prediction -> float) ->
  (Compile.options -> Compile.t) ->
  Compile.options list ->
  scored list * (int * Compile.options * exn) list
(** [rank ~points ~key compile candidates] compiles every candidate with
    [compile] — an already-bound [Compile.compile_cached mech kernel
    version], so a search digests the mechanism once — and predicts it at
    [points] with {!Perf_model.predict} ([n_sms]/[skew] forwarded), on up
    to [jobs] domains. Returns the compilable candidates sorted ascending
    by [key] of their prediction, ties to the lower index, and the
    candidates whose compile or prediction raised, with the raw
    exception, in index order. Deterministic under any [jobs]. *)

val confirm :
  ?jobs:int ->
  ?max_cycles:int ->
  ?inject:(int -> Gpusim.Fault.t list) ->
  ?n_sms:int ->
  ?skew:float ->
  points:int ->
  scored list ->
  (scored * (candidate, exn) result) list * (int * candidate) option
(** Simulate each scored candidate at [points] with {!Compile.run}, on up
    to [jobs] domains, under the watchdog [max_cycles] (default 2e8) and
    the faults [inject] maps its [s_index] to (default none). Returns
    every entry with its result, in list order — a simulation fault,
    wrong results (max relative error above 1e-6) or any other exception
    is that entry's [Error] — and the winner with its [s_index]: the
    highest measured throughput, the earliest entry on a tie, [None] if
    nothing ran. Deterministic under any [jobs]. *)

val tune :
  ?points:int ->
  ?warp_candidates:int list ->
  ?cta_targets:int list ->
  ?jobs:int ->
  ?max_cycles:int ->
  ?inject:(int -> Gpusim.Fault.t list) ->
  ?mode:mode ->
  ?n_sms:int ->
  ?skew:float ->
  ?synth_exchange:bool ->
  ?stencil_overlap:bool ->
  Chem.Mechanism.t ->
  Kernel_abi.kernel ->
  Compile.version ->
  Gpusim.Arch.t ->
  outcome
(** Evaluates the candidate grid ({!candidate_options}) at the (small)
    tuning size (default 32768 points = 32^3) and returns the fastest
    configuration. Raises [Failure] if no candidate ran.

    [n_sms]/[skew] are forwarded to both {!Perf_model.predict} (model
    scoring) and {!Compile.run} (simulation), so a sweep tunes for the
    chip configuration it will actually run on. [synth_exchange] forces
    the exchange rewrite on or off across the whole grid (default: the
    per-architecture auto setting).

    The whole grid is {!rank}ed by predicted throughput (compiled through
    {!Compile.compile_cached}, so a configuration revisited across
    kernels/figures compiles once). Under [?mode] (default {!Exhaustive})
    either every ranked candidate or only the model's top-[k] picks are
    then {!confirm}ed in candidate-index order; [candidates_pruned] and
    [model_rank_of_winner] record what the model did either way.

    Both steps run on up to [jobs] domains
    ({!Sutil.Domain_pool.default_jobs} when omitted);
    [tried]/[skipped]/[failures] are folded in candidate order, so the
    outcome is identical to the serial sweep's. The winner tie-break is
    pinned: on equal measured throughput the lowest candidate index
    wins, independent of [jobs].

    {b Fault containment.} Every candidate runs under the simulator
    watchdog ([max_cycles], default 2e8 — far beyond any legitimate
    tuning-size simulation), and any per-candidate exception — a
    compile/fit failure, a {!Gpusim.Sm.Simulation_fault}, wrong results —
    is captured as a {!failure} and the candidate skipped, so one bad
    configuration can neither hang nor abort the sweep. [inject] maps a
    candidate's index in the grid to trace faults for its simulation
    (default none); used by the containment tests. *)
