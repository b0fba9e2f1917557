(** End-to-end compilation driver: mechanism x kernel x architecture x
    options -> executable program (Fig. 8's pipeline), plus launch and
    verification helpers.

    The driver is structured as an explicit pass pipeline run through
    {!Pass}, in two stages. The {!frontend} ([dfg-build]) builds the
    dataflow graph; the one {!backend} runs [mapping], [schedule] and
    [lower] (the latter two may run several times inside the register-
    and shared-memory fitting loops) for every version, interleaved with
    validation passes ([dfg-validate], [mapping-validate],
    [schedule-validate], [deadlock-check], [lower-validate]) that
    re-check each stage's invariants on the artifact actually handed to
    the next stage ([deadlock-check] is {!Deadlock_check.check}, the
    executable form of the §4.4 deadlock-freedom theorem). {!compile} is
    the one entry point, and returns every failure as a typed diagnostic.

    Three code-generation versions reproduce the paper's comparisons:
    {ul
    {- [Warp_specialized]: the full Singe pipeline — domain partitioning,
       greedy mapping, named-barrier scheduling, overlaid code with
       constant banks;}
    {- [Baseline]: the optimized data-parallel version of §6 — the same
       backend with fixed settings: the graph mapped onto one warp, one
       thread per point, constants through the constant cache, LDG
       texture loads on Kepler, spilling to local memory, no refits;}
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
    register budget below {!Lower.min_fregs}. *)

val frontend :
  Chem.Mechanism.t -> Kernel_abi.kernel -> version -> options -> Dfg.t
(** The [dfg-build] pass: the kernel's partitioner at the mapped warp
    count (one for [Baseline], which also ignores [chem_comm]). It reads
    only [chem_comm], [full_range_thermo], [stencil_overlap] and
    [n_warps]. *)

type backend_output = {
  mapping : Mapping.t;
  schedule : Schedule.t;
  lowered : Lower.output;
  facts : Model_facts.t;
  verdict : (unit, string * string list) result;  (** as in {!t} *)
}

val backend :
  ?validate:bool -> name:string -> groups:Gpusim.Isa.group_info array ->
  strategy:Mapping.strategy -> version -> options -> Dfg.t ->
  (backend_output, Diagnostics.t) result
(** {!compile}'s passes after the frontend, on any graph: [name] names the
    program, [groups] its field groups and [strategy] the hand mapping's
    placement (the baseline's fixed settings choose their own). The
    options are not checked ({!check_options}). *)

type launch
(** What a memoized artifact has learnt about its launches: the shapes
    {!run} simulated and the answers {!Perf_model.predict} computed
    ({!shape_store_stats}). It holds no lock, so an artifact marshals. *)

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
          holds per-warp arrays, so a memo hit of {!compile} re-verifies
          that each is the one stored. It adds no pass record. *)
  verdict : (unit, string * string list) result;
      (** the verdict on [mapping], [schedule] and [lowered]:
          [Error (check, problems)] from the first of {!Mapping.validate},
          {!Deadlock_check.check} and the shared-memory fit
          (["mapping-validate"], ["deadlock-check"] or ["lower"]) that
          fails, in that order; the deadlock check runs only if the
          mapping passes. The fit fails when one CTA's shared footprint is
          over the architecture's [shared_bytes_per_sm] even after the
          buffer ring has shrunk, so not one CTA could be resident; its
          problem names the footprint and that limit. Computed once per
          compile, with or without validation: a validating {!compile}'s
          [mapping-validate] and [deadlock-check] pass records time and
          reject this same computation, and it fails on the fit's
          diagnostic. {!Partition_search.gate} reads it, and {!run}
          refuses to simulate an artifact whose verdict is an [Error]. *)
  launch : launch option;
      (** [None] from every fresh compile; the compile memo inserts an
          artifact with a fresh state, [Some], and {!run} and
          {!Perf_model.predict} read and fill it. The state is the
          artifact's: it lives as long as the artifact, after the memo
          evicts it too, and a [{ c with ... }] copy shares [c]'s. So
          build a copy only with [c]'s program and options, or set
          [launch = None]. *)
}

val compile :
  ?memo:bool ->
  ?validate:bool ->
  ?report:(Pass.report -> unit) ->
  Chem.Mechanism.t -> Kernel_abi.kernel -> version -> options ->
  (t, Diagnostics.t) result
(** The one compile entry point. Every user-reachable failure is a
    diagnostic: invalid options, a validation pass's rejection (carrying
    the pass name), and a stage that cannot fit the configuration (pass
    ["pipeline"], or ["lower"] when no register budget fits the cap).

    [validate] (default [false]) runs the inter-pass validation passes; a
    validating compile always compiles afresh, touching neither the memo
    nor its counters. [report] receives the pass report (per-pass
    timings and artifact statistics) of a successful fresh compile; a
    memo hit reports nothing.

    [memo] (default [false]) serves the compile from a process-wide,
    thread-safe, LRU-bounded table keyed by everything a compile reads:
    the mechanism's content digest, the kernel, the version and the
    options, held as they are. Failures are cached too, as their
    diagnostic, and a hit returns the same [Error]; only options
    {!check_options} rejects are checked afresh each time, uncached (a
    miss, with nothing inserted). Keys compare
    field by field, every float by its bits: options equal field by
    field hit whichever physical records carry them, and a [-0.0]
    weight or clock skew is another key than [0.0]. The mechanism's
    digest (the MD5 of its marshalled bytes, name included) is taken
    once per physical mechanism and kept for the 16 most recently keyed
    ones, matched by identity (a mechanism is never mutated after
    {!Chem.Mechanism.make}); equal contents give equal keys whichever
    physical value carries them. A hit re-verifies the artifact in
    O(warps): each [Switch_warp] arm array of its code and each per-warp
    stream of its stored walk must still hold, by identity, what it held
    at insertion, or the entry is dropped, counted as a corruption and
    recompiled. Partial application looks the mechanism's digest up
    once: a sweep binds [let compile = compile ~memo:true mech kernel
    version] and each lookup then hashes and compares the key, marshalling
    nothing. *)

val compile_checked :
  ?validate:bool ->
  Chem.Mechanism.t -> Kernel_abi.kernel -> version -> options ->
  (t * Pass.report, Diagnostics.t) result
(** [compile ~validate] (default [true]) paired with its report. *)

val compile_cached :
  Chem.Mechanism.t -> Kernel_abi.kernel -> version -> options -> t
(** [compile ~memo:true], raising {!Diagnostics.Fail}. Both shims are
    kept for the benchmark driver alone, which names them. *)

val memo_clear : unit -> unit
(** Drop every memoized compilation with its key, every kept mechanism
    digest and every memoized launch input, for tests and long-lived
    servers. The next lookup of any target misses and compiles afresh,
    with a fresh launch state; an artifact a caller still holds keeps
    its own. *)

val memo_stats : unit -> Sutil.Cache.stats
(** The compile memo's stats, as in {!cache_stats}; kept because
    [perfbench/perfbench.ml] reads its [hits], [misses] and
    [evictions]. *)

val cache_stats : unit -> (string * Sutil.Cache.stats) list
(** Every process-wide cache, by name: ["compile_cache"], the compile
    memo; ["mech_digests"], the 16 most recently keyed mechanisms'
    digests; ["launch_inputs"], {!run}'s input grids (one per mechanism,
    point count, seed and temperature range) with their references,
    costed in doubles: its misses count the grids built. *)

val set_memo_limit : int -> unit
(** Install a new entry bound (clamped to at least 1), evicting LRU
    entries immediately if the table is over it. A long-lived daemon
    would otherwise leak one lowered program per distinct configuration
    it ever saw. *)

type shape_store_stats = {
  shapes_stored : int;  (** shapes simulated and stored *)
  order_bytes_stored : int;
      (** bytes of issue order stored, one order per shape *)
  runs_served : int;
      (** main, pin and tail simulations answered from a store *)
  traces_flattened : int;
      (** programs flattened by {!run}: only to simulate a round, or for
          the first replay of a program, whose view its store then keeps;
          faulted and profiled runs flatten every time *)
  predictions_stored : int;
      (** launches {!Perf_model.predict} computed and stored *)
  predictions_served : int;
      (** predictions answered from a launch state *)
}

val shape_store_stats : unit -> shape_store_stats
(** The counters of every artifact's launch state ([t.launch]). A state
    holds the launch-shape store {!run} keeps ({!Gpusim.Chip.store}):
    each shape's result and issue order, whether a main, pin or tail
    round first simulated it, so any later round of that shape is served
    from it, and the program's replay view, so a run whose shapes are all
    stored flattens nothing. And it holds {!Perf_model.predict}'s answer
    per launch, keyed by the resolved CTAs, points, SM count and the bits
    of the clock skew, so a repeated prediction is a lookup and a copy,
    bit-identical to a fresh one. Each shape and answer is stored once,
    also when domains race to store it. An artifact compiled outside the
    memo has no state: a caller launches it once, and it stores nothing.
    The six counters are process-lifetime and survive {!memo_clear}. *)

val launch_prediction :
  t ->
  ctas:int ->
  total_points:int ->
  n_sms:int ->
  skew:float ->
  (unit -> Model_facts.prediction) ->
  Model_facts.prediction
(** [launch_prediction t ~ctas ~total_points ~n_sms ~skew predict] is
    the answer [t]'s launch state holds for that resolved launch, copied;
    else [predict ()], stored when [t] has a launch state and returned as
    a copy. Only {!Perf_model.predict} calls it. An exception from
    [predict] propagates and stores nothing. *)

type ir_stage = Ir_dfg | Ir_mapping | Ir_schedule | Ir_lower

val ir_stage_of_string : string -> ir_stage option
(** ["dfg"], ["mapping"], ["schedule"] or ["lower"]. *)

val ir_stage_name : ir_stage -> string

val dump_ir : Format.formatter -> t -> ir_stage -> unit
(** Print the intermediate artifact a pass produced ([--dump-ir]): the
    dataflow graph with its expressions, the warp mapping, the per-warp
    action schedule, or the lowered program as {!Gpusim.Isa_text.emit}
    prints it. *)

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
    against {!Chem.Ref_kernels}. The grid and the reference come from the
    launch-inputs memo (in {!cache_stats}), so a warm run generates
    neither; the comparison runs every time. The simulation runs once per
    launch shape: a clean, unprofiled run takes the artifact's stored
    cycles, counters and cache stats ({!shape_store_stats}) and replays
    the stored issue order into its memory, with results bit-identical
    to a fresh simulation's; a run with [faults] or [profile], or whose
    [max_cycles] is below the stored cycles, simulates as without a
    store. An artifact whose [verdict] is an
    [Error] is refused before anything is simulated: [run] raises that
    verdict as {!Diagnostics.Fail} (pass ["mapping-validate"],
    ["deadlock-check"] or ["lower"], the same diagnostic a validating
    {!compile} returns), as it raises a launch that {!check_launch}
    rejects.
    [t_range] overrides the grid's temperature
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
