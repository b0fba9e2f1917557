(** End-to-end compilation driver: mechanism x kernel x architecture x
    options -> executable program (Fig. 8's pipeline), plus launch and
    verification helpers.

    The driver is structured as an explicit pass pipeline run through
    {!Pass}: [dfg-build], [mapping], [schedule] and [lower] transform
    passes (the latter two may run several times inside the register- and
    shared-memory fitting loops), interleaved with validation passes
    ([dfg-validate], [mapping-validate], [schedule-validate],
    [deadlock-check], [lower-validate]) that re-check each stage's
    invariants on the artifact actually handed to the next stage
    ([deadlock-check] is {!Deadlock_check.check}, the executable form of
    the §4.4 deadlock-freedom theorem). {!compile_checked} returns the
    resulting per-pass timings and artifact statistics; {!compile} runs
    the same pipeline without validation and discards them.

    Three code-generation versions reproduce the paper's comparisons:
    {ul
    {- [Warp_specialized]: the full Singe pipeline — domain partitioning,
       greedy mapping, named-barrier scheduling, overlaid code with
       constant banks;}
    {- [Baseline]: the optimized data-parallel version of §6 — one thread
       per point, constants through the constant cache, LDG texture loads
       on Kepler, spilling to local memory;}
    {- [Naive_warp_specialized]: warp specialization without overlaying
       (top-level warp switch, inline constants) — Fig. 9's strawman.}} *)

type version = Warp_specialized | Baseline | Naive_warp_specialized

val version_name : version -> string
(** ["ws"], ["baseline"] or ["naive"]. *)

val version_of_string : string -> version option

type chem_comm = Chem_staged | Chem_recompute | Chem_mixed
(** How chemistry's species vectors reach their consumer warps: staged
    through shared memory ([Chem_staged]), redundantly recomputed per warp
    ([Chem_recompute]), or concentrations staged with Gibbs energies
    recomputed ([Chem_mixed]). *)

type partition = Partition_hand | Partition_auto of Mapping.auto_spec
(** Where the warp assignment comes from: the partitioner's domain hints
    ([Partition_hand], the paper's §4.1 mapping, the default) or a
    structure-derived candidate ({!Mapping.map_auto}) proposed by
    {!Partition_search}. The data-parallel [Baseline] version maps onto a
    single warp either way and ignores this knob. *)

val partition_name : partition -> string
(** ["hand"] or ["auto"]. *)

type options = {
  arch : Gpusim.Arch.t;
  n_warps : int;  (** warps per CTA *)
  weights : Mapping.weights;
  respect_hints : bool;
  group_syncs : bool;
  buffer_slots : int;
  exp_consts_in_registers : bool;  (** §6.1 ablation *)
  freg_budget : int option;
      (** double registers per thread; [None]: the architecture maximum *)
  list_schedule : bool;
      (** list-schedule each straight-line segment of the lowered code
          (default [true]); [false] is the scheduling ablation *)
  max_barriers : int;
      (** named-barrier ids per CTA (16 / target CTAs-per-SM, §4.2
          footnote) *)
  ctas_per_sm_target : int;
      (** desired occupancy; bounds the default register budget (§4.1's
          "command line flag specifies the target number of CTAs per SM") *)
  chem_comm : chem_comm option;
      (** chemistry only — communication policy for the species vectors;
          [None] (default) stages everything through shared memory, which
          measured fastest end-to-end (kept as a knob for the ablation
          benchmark) *)
  full_range_thermo : bool;
      (** chemistry only — evaluate both NASA-7 ranges with branchless
          selection on T vs t_mid, so grids below the polynomial mid
          temperature are handled (default [false]: single high range, the
          combustion regime) *)
  synth_exchange : bool option;
      (** the {!Shuffle_synth} exchange rewrite ([--synth-exchange]):
          same-warp shared round-trips become register forwards / shuffle
          swizzles and freed store-region slots leave the shared footprint.
          [None] (default) resolves per architecture — on exactly when the
          broadcast style is {!Gpusim.Arch.Shuffle}, since non-identity
          swizzle programs are shuffle instructions *)
  stencil_overlap : bool;
      (** stencil kernels only ([--stencil-overlap]) — overlapped tiling:
          upstream warps recompute halo columns so each downstream warp
          reads its whole tile from exactly one upstream warp (default
          [true]); [false] computes every column once and exchanges halos
          cross-warp through shared memory *)
  partition : partition;
      (** [--partition hand|auto]: hand (domain-hint) mapping or a
          searched {!Mapping.auto_spec}; part of the memo key like every
          other option *)
}

val default_options : Gpusim.Arch.t -> options

val check_options :
  Chem.Mechanism.t -> Kernel_abi.kernel -> version -> options ->
  (unit, Diagnostics.t) result
(** Typed rejection of out-of-range options before the pipeline runs:
    [n_warps] below the version's minimum (warp specialization needs at
    least a producer and a consumer warp) or beyond what the architecture
    can host in one CTA, an empty transport ring ([buffer_slots = 0]), a
    barrier budget outside the 16 hardware ids, a zero occupancy target,
    mapping [weights] that are negative, non-finite or all zero, or a
    register budget too small to lower any expression. *)

val default_strategy : Kernel_abi.kernel -> Mapping.strategy
(** Store for viscosity, Mixed for diffusion, Buffer for chemistry: its
    reaction rates stay in registers and exchange through the shared
    buffer; only the explicitly staged species vectors (Listing 4's
    [scratch]) live in shared memory (§4.1). Stencil kernels use Store:
    tile handoffs are static single-writer values read at known offsets. *)

val build_dfg :
  ?chem_comm:chem_comm -> ?full_range_thermo:bool -> ?stencil_overlap:bool ->
  Chem.Mechanism.t -> Kernel_abi.kernel -> n_warps:int -> Dfg.t
(** The [dfg-build] pass, the kernel's partitioner. Defaults: [Chem_staged],
    no full-range thermodynamics, overlapped stencil tiles. *)

type t = {
  mech : Chem.Mechanism.t;
  kernel : Kernel_abi.kernel;
  version : version;
  options : options;
  dfg : Dfg.t;
  mapping : Mapping.t;
  schedule : Schedule.t;
  lowered : Lower.output;
  facts : Model_facts.t;
      (** what {!Perf_model.predict} needs of [lowered]'s program alone
          (DESIGN §12.5), computed once per compile on the final lowered
          program of every version, with its scoreboard walk at the
          program's own occupancy, so a prediction keeps only the
          launch-dependent work. A compile output, not a cache: no key,
          no eviction, it lives and dies with the artifact. Its walk
          holds per-warp arrays, so a {!compile_cached} hit re-verifies
          that each is the one stored. It adds no pass record. *)
  safety : (unit, string * string list) result;
      (** the safety verdict on [mapping] and [schedule]: [Error (check,
          problems)] from the first of {!Mapping.validate} and
          {!Deadlock_check.check} (["mapping-validate"] or
          ["deadlock-check"]) that fails; the second runs only if the
          first passes. Computed once per compile, with or without
          validation: the [mapping-validate] and [deadlock-check] pass
          records of {!compile_checked} time and raise this same
          computation. {!Partition_search.gate} reads it. *)
}

val compile :
  Chem.Mechanism.t -> Kernel_abi.kernel -> version -> options -> t
(** The pass pipeline without validation passes, report discarded.
    Raises {!Diagnostics.Fail} on invalid options and [Failure] when a
    stage cannot fit the configuration (as before the pass refactor). *)

val compile_checked :
  ?validate:bool ->
  Chem.Mechanism.t -> Kernel_abi.kernel -> version -> options ->
  (t * Pass.report, Diagnostics.t) result
(** Run the pipeline under the pass manager and return the artifact
    together with per-pass wall-clock timings and artifact statistics.
    With [validate] (default [true]) the inter-pass validation passes run
    after their producing stage. Every user-reachable failure — invalid
    options, validation-pass rejections, and a stage's inability to fit
    the configuration — is returned as a typed diagnostic (a failed
    validation carries the pass name) instead of an exception. The entry
    point drivers should use. *)

val compile_cached :
  Chem.Mechanism.t -> Kernel_abi.kernel -> version -> options -> t
(** {!compile} through a process-wide memo table keyed by the digest of
    the entire (mechanism, kernel, version, options) configuration, which
    is everything a compile reads. The pipeline is deterministic, so
    identical configurations compile once per process no matter how many
    sweep workers ask. Thread-safe; only successful compiles are cached
    (failures re-raise every time). A hit re-verifies the artifact in
    O(warps): the arrays that hold its code (each [Switch_warp] arm
    array) and its stored walk (the per-warp streams) must still hold,
    slot for slot and by identity, what they held at insertion;
    otherwise the entry is dropped, counted as a corruption and
    recompiled.

    Partial application digests the target once: a sweep binds
    [let compile = compile_cached mech kernel version] and each
    [compile options] lookup then marshals only the options. *)

val memo_clear : unit -> unit
(** Drop every memoized compilation (for tests and long-lived servers). *)

type memo_stats = {
  size : int;  (** entries currently cached *)
  limit : int;  (** the bound {!set_memo_limit} installed (default 512) *)
  hits : int;  (** lookups served from the cache (re-verified) *)
  misses : int;  (** lookups that had to compile *)
  evictions : int;  (** entries dropped by the LRU bound *)
  corruptions : int;
      (** hits whose stored artifact failed re-verification against its
          insertion snapshot and were dropped + recompiled instead of
          served *)
}

val memo_stats : unit -> memo_stats
(** Counter snapshot for perf JSON and the serve [stats] endpoint.
    Counters are process-lifetime and survive {!memo_clear} (only the
    entries are dropped). *)

val memo_stats_to_json : memo_stats -> Sutil.Json.t
(** The six counters as one JSON object, keyed by field name: bench
    perf's and serve's ["compile_cache"]. *)

val memo_limit : unit -> int

val set_memo_limit : int -> unit
(** Install a new entry bound (clamped to at least 1), evicting LRU
    entries immediately if the table is over it. A long-lived daemon
    would otherwise leak one lowered program per distinct configuration
    it ever saw. *)

val memo_poison_for_test : unit -> bool
(** Corrupt the stored snapshot of one cached entry (test hook for the
    re-verification path); [false] when the cache is empty. *)

type ir_stage = Ir_dfg | Ir_mapping | Ir_schedule | Ir_lower

val ir_stage_of_string : string -> ir_stage option
(** ["dfg"], ["mapping"], ["schedule"] or ["lower"]. *)

val ir_stage_name : ir_stage -> string

val dump_ir : Format.formatter -> t -> ir_stage -> unit
(** Print the intermediate artifact a pass produced ([--dump-ir]): the
    dataflow graph with its expressions, the warp mapping, the per-warp
    action schedule, or the lowered program. *)

val check_launch :
  Kernel_abi.kernel -> version -> n_warps:int -> total_points:int ->
  (unit, Diagnostics.t) result
(** The one launch rule behind {!default_ctas}, O(1) arithmetic. The
    baseline launches one thread per point, so [total_points] must divide
    into whole [n_warps] x 32-thread CTAs. The warp-specialized versions
    launch [min 1024 (total_points / 32)] CTAs, and [total_points] must
    split evenly into them in whole 32-point batches (any positive
    multiple of 32 up to 32768, or a multiple of 32768). Otherwise a
    positioned diagnostic (pass ["launch"]). *)

val default_ctas : t -> total_points:int -> int
(** Launch-grid size: warp-specialized kernels use a fixed CTA grid (1024,
    capped so each CTA gets at least one 32-point batch) so larger problems
    amortize the constant-loading prologue over more batches (§6.2);
    the baseline launches one thread per point. Raises {!check_launch}'s
    diagnostic as {!Diagnostics.Fail} when the point count does not
    divide into the grid. *)

type run_result = {
  machine : Gpusim.Chip.result;
  max_rel_err : float;
      (** worst relative error of the simulated points' outputs against the
          host reference *)
  outputs : float array array;
}

val run :
  ?ctas:int ->
  ?check:bool ->
  ?seed:int64 ->
  ?t_range:float * float ->
  ?faults:Gpusim.Fault.t list ->
  ?max_cycles:int ->
  ?profile:Gpusim.Sm.profile_spec ->
  ?n_sms:int ->
  ?skew:float ->
  t ->
  total_points:int ->
  run_result
(** Simulates the kernel on a reproducible random grid; when [check] (the
    default) the functional outputs of all simulated points are compared
    against {!Chem.Ref_kernels}. [t_range] overrides the grid's temperature
    interval (pair it with {!options.full_range_thermo} when going below
    the NASA mid temperature).

    [faults] injects trace-level faults ({!Gpusim.Fault}) and
    [max_cycles] arms the simulator watchdog; a fault-containing run may
    then raise {!Gpusim.Sm.Simulation_fault} instead of returning.

    [profile] turns on the per-warp cycle-attribution ledger
    ({!Gpusim.Profile}); the result lands in
    [machine.sim.Gpusim.Sm.profile].

    [n_sms] and [skew] override the architecture's SM count and per-SM
    clock skew for the chip-level scheduler ({!Gpusim.Chip}); the
    per-SM simulation and functional outputs are unaffected. *)
