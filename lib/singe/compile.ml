type version = Warp_specialized | Baseline | Naive_warp_specialized

let version_name = function
  | Warp_specialized -> "ws"
  | Baseline -> "baseline"
  | Naive_warp_specialized -> "naive"

let version_of_string s =
  match String.lowercase_ascii s with
  | "ws" | "warp-specialized" -> Some Warp_specialized
  | "baseline" | "base" -> Some Baseline
  | "naive" -> Some Naive_warp_specialized
  | _ -> None

type chem_comm = Chem_staged | Chem_recompute | Chem_mixed

type partition = Partition_hand | Partition_auto of Mapping.auto_spec

let partition_name = function
  | Partition_hand -> "hand"
  | Partition_auto _ -> "auto"

type options = {
  arch : Gpusim.Arch.t;
  n_warps : int;
  weights : Mapping.weights;
  respect_hints : bool;
  group_syncs : bool;
  buffer_slots : int;
  exp_consts_in_registers : bool;
  freg_budget : int option;
  list_schedule : bool;
  max_barriers : int;
  ctas_per_sm_target : int;
  chem_comm : chem_comm option;
  full_range_thermo : bool;
  synth_exchange : bool option;
      (** [None] resolves per architecture: on when the broadcast style is
          [Shuffle] (the swizzles are shuffle instructions) *)
  stencil_overlap : bool;
      (** stencil kernels only — overlapped tiling: upstream warps
          recompute halo columns so each downstream warp reads from
          exactly one upstream warp; [false] computes every column once
          and exchanges halos cross-warp through shared memory *)
  partition : partition;
      (** where the warp assignment comes from: the partitioner's domain
          hints ([Partition_hand], the paper's §4.1 mapping) or a
          structure-derived {!Mapping.auto_spec} proposed by
          {!Partition_search} *)
}

let default_options arch =
  {
    arch;
    n_warps = 8;
    weights = Mapping.default_weights;
    respect_hints = true;
    group_syncs = true;
    buffer_slots = 48;
    exp_consts_in_registers = false;
    freg_budget = None;
    list_schedule = true;
    max_barriers = 8;
    ctas_per_sm_target = 2;
    chem_comm = None;
    full_range_thermo = false;
    synth_exchange = None;
    stencil_overlap = true;
    partition = Partition_hand;
  }

(* The hand mapping's placement: chemistry's reaction rates stay in
   registers and exchange through the buffer ring, and only its staged
   species vectors (Listing 4's [scratch]) live in shared memory (§4.1). *)
let default_strategy = function
  | Kernel_abi.Viscosity | Kernel_abi.Conductivity -> Mapping.Store
  | Kernel_abi.Diffusion -> Mapping.Mixed
  | Kernel_abi.Chemistry -> Mapping.Buffer
  (* Stencil tile handoffs are static single-writer values read at known
     offsets: the store region (plus the scheduler's named-barrier
     handshakes) carries them; the transport ring adds nothing. *)
  | Kernel_abi.Stencil _ -> Mapping.Store

type backend_output = {
  mapping : Mapping.t;
  schedule : Schedule.t;
  lowered : Lower.output;
  facts : Model_facts.t;
  verdict : (unit, string * string list) result;
}

(* A launch as the model resolves it. The skew is kept as its bits:
   [Chip.schedule] echoes it, and structural equality would take [-0.0]
   for [0.0]. *)
type launch_key = {
  k_ctas : int;
  k_points : int;
  k_sms : int;
  k_skew : int64;
}

let launch_key ~ctas ~total_points ~n_sms ~skew =
  {
    k_ctas = ctas;
    k_points = total_points;
    k_sms = n_sms;
    k_skew = Int64.bits_of_float skew;
  }

(* A run as its result depends on it: the resolved launch and the input
   grid's seed and temperature range, by their bits. *)
type run_key = {
  r_launch : launch_key;
  r_seed : int64;
  r_t_range : (int64 * int64) option;
}

(* What a memoized artifact has learnt about its launches: the result
   of its first clean run (DESIGN §9.1) and the model's answer per
   resolved launch (DESIGN §12.6). It holds no lock, so the artifact
   still marshals. *)
type launch = {
  run : (run_key * Gpusim.Chip.result) option Atomic.t;
  predictions : (launch_key, Model_facts.prediction) Sutil.Atomic_assoc.t;
}

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
  verdict : (unit, string * string list) result;
  launch : launch option;
}

(* ---- typed option checking (the [options] pseudo-pass) ---- *)

let check_options_exn mech kernel version o =
  let fail fmt = Diagnostics.failf ~pass:"options" fmt in
  let min_warps = match version with Baseline -> 1 | _ -> 2 in
  if o.n_warps < min_warps then
    fail
      "%s %s of %s needs at least %d warp(s) per CTA, got %d (warp \
       specialization pairs producer and consumer warps)"
      (version_name version)
      (Kernel_abi.kernel_name kernel)
      mech.Chem.Mechanism.name min_warps o.n_warps;
  let warp_cap = min 32 o.arch.Gpusim.Arch.max_warps_per_sm in
  if o.n_warps > warp_cap then
    fail "%d warps per CTA, but %s hosts at most %d" o.n_warps
      o.arch.Gpusim.Arch.name warp_cap;
  if o.buffer_slots < 1 then
    fail "buffer_slots = %d: the transport ring needs at least one slot"
      o.buffer_slots;
  if o.max_barriers < 1 || o.max_barriers > 16 then
    fail "max_barriers = %d outside the hardware's [1, 16]" o.max_barriers;
  if o.ctas_per_sm_target < 1 then
    fail "ctas_per_sm_target = %d: need at least one resident CTA"
      o.ctas_per_sm_target;
  (let w = o.weights in
   let ws = [ w.Mapping.w_flops; w.Mapping.w_regs; w.Mapping.w_locality ] in
   if not (List.for_all (fun x -> Float.is_finite x && x >= 0.0) ws) then
     fail
       "mapping weights (flops %g, regs %g, locality %g) must be finite and \
        non-negative"
       w.Mapping.w_flops w.Mapping.w_regs w.Mapping.w_locality;
   if List.for_all (fun x -> x = 0.0) ws then
     fail "mapping weights are all zero: the mapping would balance nothing");
  (match o.partition with
  | Partition_hand -> ()
  | Partition_auto s ->
      if s.Mapping.producer_warps < 1 || s.Mapping.producer_warps >= o.n_warps
      then
        fail
          "partition: producer_warps = %d outside [1, %d] — specialization \
           needs at least one consumer warp"
          s.Mapping.producer_warps (o.n_warps - 1);
      if s.Mapping.hub_threshold < 2 then
        fail "partition: hub_threshold = %d — a hub needs at least 2 consumers"
          s.Mapping.hub_threshold;
      if not (s.Mapping.chain_weight > 0.0) then
        fail "partition: chain_weight = %g must be positive"
          s.Mapping.chain_weight);
  match o.freg_budget with
  | Some b when b < Lower.min_fregs ->
      fail "freg_budget = %d: lowering needs at least %d double registers" b
        Lower.min_fregs
  | Some _ | None -> ()

(* The [--synth-exchange] default: non-identity swizzle programs are
   shuffle instructions, so the rewrite is on by default exactly where the
   broadcast mechanism already assumes shuffle hardware. *)
let synth_exchange_enabled o =
  match o.synth_exchange with
  | Some b -> b
  | None -> o.arch.Gpusim.Arch.broadcast = Gpusim.Arch.Shuffle

(* Every failure a diagnostic: a validation pass raises [Diagnostics.Fail];
   a stage that cannot fit the configuration raises [Failure] or
   [Invalid_argument]. *)
let diagnose f =
  match f () with
  | v -> Ok v
  | exception Diagnostics.Fail d -> Error d
  | exception (Failure msg | Invalid_argument msg) ->
      Error (Diagnostics.error ~pass:"pipeline" msg)

let check_options mech kernel version o =
  diagnose (fun () -> check_options_exn mech kernel version o)

(* ---- the settings a version makes of the options ----
   The data-parallel baseline (§6) is the warp-specialized pipeline run
   with these fixed: the graph mapped onto one logical warp, one thread
   per point, constants through the constant cache, no refits. They
   follow from the version, never from an option: a baseline honouring
   hints, a searched partition or a ring refit would no longer be §6's. *)
type settings = {
  mapped_warps : int;
  partition : partition;
  strategy : Mapping.strategy;  (** the hand mapping's *)
  respect_hints : bool;
  group_syncs : bool;
  chem_comm : chem_comm;
  overlay : bool;
  const_policy : Lower.const_policy;
  point_map : Gpusim.Isa.point_map;
  refits : int;  (** retries of each fit loop *)
}

let settings ~strategy version o =
  match version with
  | Baseline ->
      {
        mapped_warps = 1;
        partition = Partition_hand;
        strategy = Mapping.Buffer;
        respect_hints = false;
        group_syncs = true;
        chem_comm = Chem_staged;
        overlay = true;
        const_policy = Lower.Const_mem;
        point_map = Gpusim.Isa.Thread_per_point;
        refits = 0;
      }
  | Warp_specialized | Naive_warp_specialized ->
      {
        mapped_warps = o.n_warps;
        partition = o.partition;
        strategy;
        respect_hints = o.respect_hints;
        group_syncs = o.group_syncs;
        (* Staging measured fastest end to end; recomputation trades the
           staged vectors for registers and FLOPs (GFLOPS over points/s). *)
        chem_comm = Option.value o.chem_comm ~default:Chem_staged;
        overlay = version = Warp_specialized;
        const_policy =
          (if version = Warp_specialized then Lower.Bank else Lower.Immediate);
        point_map = Gpusim.Isa.Coop;
        refits = 3;
      }

(* ---- the frontend: a mechanism or stencil pipeline to its graph ---- *)

let build_dfg s mech kernel o =
  let n_warps = s.mapped_warps in
  match kernel with
  | Kernel_abi.Viscosity -> Viscosity_dfg.build mech ~n_warps
  | Kernel_abi.Conductivity -> Conductivity_dfg.build mech ~n_warps
  | Kernel_abi.Diffusion -> Diffusion_dfg.build mech ~n_warps
  | Kernel_abi.Chemistry ->
      let recompute_conc, recompute_gibbs =
        match s.chem_comm with
        | Chem_staged -> (false, false)
        | Chem_recompute -> (true, true)
        | Chem_mixed -> (false, true)
      in
      Chemistry_dfg.build ~recompute_conc ~recompute_gibbs
        ~full_range_thermo:o.full_range_thermo mech ~n_warps
  | Kernel_abi.Stencil id ->
      Stencil_dfg.build (Stencil_pipe.get id) ~n_warps
        ~overlap:o.stencil_overlap

let frontend mech kernel version o =
  build_dfg (settings ~strategy:(default_strategy kernel) version o) mech kernel o

(* The 32-bit registers per thread that keep the target CTAs per SM
   resident: the register file over the resident threads, capped by the
   per-thread maximum. *)
let regs32_cap o =
  min o.arch.Gpusim.Arch.max_regs_per_thread
    (o.arch.Gpusim.Arch.regfile_per_sm / (o.ctas_per_sm_target * o.n_warps * 32))

(* The default double budget leaves headroom under that cap for integer
   parameter registers and addressing. *)
let freg_budget o =
  match o.freg_budget with Some b -> b | None -> max 8 ((regs32_cap o - 16) / 2)

(* ---- artifact statistics attached to each pass record ---- *)

let dfg_stats (dfg : Dfg.t) =
  [
    ("ops", float_of_int (Array.length dfg.Dfg.ops));
    ("values", float_of_int (Array.length dfg.Dfg.values));
    ("flops", float_of_int (Dfg.total_flops dfg));
  ]

let mapping_stats dfg (m : Mapping.t) =
  let flops = Mapping.warp_flops dfg m in
  [
    ("warps", float_of_int m.Mapping.n_warps);
    ("store_slots", float_of_int m.Mapping.store_slots);
    ("cross_warp_edges", float_of_int (Mapping.cross_warp_edges dfg m));
    ("max_warp_flops", float_of_int (Array.fold_left max 0 flops));
  ]

let schedule_stats (s : Schedule.t) =
  [
    ("sync_points", float_of_int s.Schedule.n_sync_points);
    ("barriers", float_of_int s.Schedule.barriers_used);
    ("ring_slots", float_of_int s.Schedule.buffer_slots);
    ( "actions",
      float_of_int
        (Array.fold_left (fun a l -> a + Array.length l) 0 s.Schedule.per_warp)
    );
  ]

let lower_stats (l : Lower.output) =
  let p = l.Lower.program in
  [
    ("instrs", float_of_int (Gpusim.Isa.static_instr_count p.Gpusim.Isa.body));
    ("fregs", float_of_int p.Gpusim.Isa.n_fregs);
    ("iregs", float_of_int p.Gpusim.Isa.n_iregs);
    ("shared_doubles", float_of_int p.Gpusim.Isa.shared_doubles);
    ("spill_bytes", float_of_int l.Lower.spill_bytes_per_thread);
    ("bank_regs", float_of_int l.Lower.n_bank_regs);
    ("params", float_of_int l.Lower.n_params);
  ]

(* ---- the backend: a graph to its mapping, schedule and program ---- *)

(* One part of a compile's verdict ([t.verdict]): [check] runs once,
   whatever [validate] says. Under [validate] it runs inside its pass
   record, which times it and raises its failure. *)
let verdict_check pm ~validate ~name check =
  let v = ref (Ok ()) in
  let run () = v := check (); !v in
  if validate then Pass.validate pm ~name run else ignore (run ());
  Result.map_error (fun msgs -> (name, msgs)) !v

(* The passes after the frontend, one sequence for every version: the
   mapping, schedule and lowered program of [dfg], the model's facts, and
   the verdict: [Mapping.validate], then, only if that passes,
   [Deadlock_check.check] on the final schedule, then whether one CTA's
   shared memory fits an SM. *)
let run_backend pm ~validate s ~name ~groups o dfg =
  if validate then
    Pass.validate pm ~name:"dfg-validate" (fun () ->
        Dfg.validate ~n_warps:s.mapped_warps dfg);
  let mapping =
    Pass.run pm ~name:"mapping" ~stats:(mapping_stats dfg) (fun () ->
        match s.partition with
        | Partition_hand ->
            Mapping.map dfg ~n_warps:s.mapped_warps ~weights:o.weights
              ~strategy:s.strategy ~respect_hints:s.respect_hints
        | Partition_auto spec ->
            Mapping.map_auto dfg ~n_warps:s.mapped_warps ~weights:o.weights
              ~spec)
  in
  let mapping_ok =
    verdict_check pm ~validate ~name:"mapping-validate" (fun () ->
        Mapping.validate dfg mapping)
  in
  let cfg =
    {
      Lower.arch = o.arch;
      overlay = s.overlay;
      const_policy = s.const_policy;
      exp_consts_in_registers = o.exp_consts_in_registers;
      param_stripe_threshold = 8;
      freg_budget = freg_budget o;
      synth_exchange = synth_exchange_enabled o;
      list_schedule = o.list_schedule;
    }
  in
  (* The integer-parameter register demand is only known after
     lowering; shrink the floating budget and retry if the 32-bit
     total overshoots the architectural cap. *)
  let cap32 = regs32_cap o in
  let rec fit schedule cfg tries =
    let lowered =
      Pass.run pm ~name:"lower" ~stats:lower_stats (fun () ->
          Lower.lower cfg ~point_map:s.point_map ~name ~out_warps:o.n_warps
            ~groups dfg mapping schedule)
    in
    let used = Gpusim.Isa.regs32_per_thread lowered.Lower.program in
    if used <= cap32 || tries = 0 then lowered
    else
      let budget = cfg.Lower.freg_budget - (((used - cap32) + 1) / 2) - 1 in
      let cfg' = { cfg with Lower.freg_budget = budget } in
      let floor =
        Lower.freg_floor cfg' ~n_logical_consts:lowered.Lower.n_logical_consts
      in
      if budget < floor then
        Diagnostics.failf ~pass:"lower"
          "%s needs %d 32-bit registers per thread at %d double registers, \
           over the per-thread cap of %d at %d warps x %d CTA(s) per SM on \
           %s, and shrinking the budget to %d would fall below the register \
           allocator's floor of %d (constant-bank registers + %d)"
          name used cfg.Lower.freg_budget cap32 o.n_warps o.ctas_per_sm_target
          o.arch.Gpusim.Arch.name budget floor Lower.min_fregs
      else fit schedule cfg' (tries - 1)
  in
  (* Shared memory must leave room for the target CTAs per SM. If the
     store slots plus the buffer ring overshoot, rebuild the schedule
     with a smaller ring (more ring reuse costs barrier waits, not
     correctness) before giving up. A retry whose request is no smaller
     than the ring the last schedule used would rebuild that schedule
     and program as they are, so it keeps them instead. *)
  let shared_cap =
    o.arch.Gpusim.Arch.shared_bytes_per_sm / max 1 o.ctas_per_sm_target
  in
  let rec fit_shared buffer_slots tries last =
    let schedule, lowered =
      match last with
      | Some ((sched, _) as kept) when sched.Schedule.buffer_slots <= buffer_slots
        ->
          kept
      | Some _ | None ->
          let schedule =
            Pass.run pm ~name:"schedule" ~stats:schedule_stats (fun () ->
                Schedule.build ~buffer_slots ~group_syncs:s.group_syncs
                  ~max_barriers:o.max_barriers dfg mapping)
          in
          (schedule, fit schedule cfg s.refits)
    in
    let bytes = lowered.Lower.program.Gpusim.Isa.shared_doubles * 8 in
    if bytes <= shared_cap || tries = 0 || buffer_slots <= 8 then
      (schedule, lowered)
    else
      let overshoot_slots = ((bytes - shared_cap) + 255) / 256 in
      fit_shared
        (max 8 (buffer_slots - overshoot_slots))
        (tries - 1)
        (Some (schedule, lowered))
  in
  let schedule, lowered = fit_shared o.buffer_slots s.refits None in
  (* The loop gives up after its retries or once the ring cannot shrink;
     a program still over one SM's shared memory cannot launch at all.
     That verdict joins [verdict], and a validating compile fails on it. *)
  let bytes = lowered.Lower.program.Gpusim.Isa.shared_doubles * 8
  and per_sm = o.arch.Gpusim.Arch.shared_bytes_per_sm in
  let shared_fit =
    if bytes <= per_sm then Ok ()
    else
      Error
        ( "lower",
          [ Printf.sprintf "%s needs %d bytes of shared memory per CTA, over \
               the %d bytes (shared_bytes_per_sm) of one SM on %s: not even \
               one CTA fits" name bytes per_sm o.arch.Gpusim.Arch.name ] )
  in
  if validate then
    Result.iter_error
      (fun (pass, problems) ->
        raise (Diagnostics.Fail (Diagnostics.of_problems ~pass problems)))
      shared_fit;
  (* Surface the rewrite's work as its own [--timings] row (the wall time
     is folded into the lower pass; the statistics are what matter here).
     [Lower] runs it only where the emitted warps are the mapped ones. *)
  if cfg.Lower.synth_exchange && o.n_warps = s.mapped_warps then
    ignore
      (Pass.run pm ~name:"synth-exchange" ~stats:Shuffle_synth.report_stats
         (fun () -> lowered.Lower.exchange));
  if validate then
    Pass.validate pm ~name:"schedule-validate" (fun () ->
        Schedule.validate ~max_barriers:o.max_barriers schedule dfg mapping);
  let verdict =
    Result.bind mapping_ok (fun () ->
        Result.bind
          (verdict_check pm ~validate ~name:"deadlock-check" (fun () ->
               Deadlock_check.check schedule))
          (fun () -> shared_fit))
  in
  if validate then
    Pass.validate pm ~name:"lower-validate" (fun () ->
        Lower.validate_output ~arch:o.arch ~max_barriers:o.max_barriers
          lowered);
  (* The model's program-only facts, and its scoreboard walk at the
     program's occupancy, are an output like the lowered program they
     describe: computed once here, eagerly (a [Lazy.t] forced by two
     sweep workers at once raises), with no pass record of their own. *)
  let facts = Model_facts.of_layout o.arch lowered.Lower.program in
  ({ mapping; schedule; lowered; facts; verdict } : backend_output)

let backend ?(validate = false) ~name ~groups ~strategy version o dfg =
  diagnose (fun () ->
      run_backend (Pass.create name) ~validate
        (settings ~strategy version o)
        ~name ~groups o dfg)

let pipeline_name mech kernel version options =
  Printf.sprintf "%s/%s/%s/%s/ws%d" mech.Chem.Mechanism.name
    (Kernel_abi.kernel_name kernel)
    (version_name version) options.arch.Gpusim.Arch.name options.n_warps

let program_name mech kernel version o =
  let target = mech.Chem.Mechanism.name ^ "-" ^ Kernel_abi.kernel_name kernel in
  match version with
  | Baseline -> target ^ "-baseline"
  | Warp_specialized | Naive_warp_specialized ->
      Printf.sprintf "%s-ws%d" target o.n_warps

(* The frontend, then the backend, under one pass manager, for options
   [check_options] accepted. *)
let compile_accepted ?report ~validate mech kernel version options =
  diagnose (fun () ->
      let pm = Pass.create (pipeline_name mech kernel version options) in
      let s = settings ~strategy:(default_strategy kernel) version options in
      let dfg =
        Pass.run pm ~name:"dfg-build" ~stats:dfg_stats (fun () ->
            build_dfg s mech kernel options)
      in
      let ({ mapping; schedule; lowered; facts; verdict } : backend_output) =
        run_backend pm ~validate s
          ~name:(program_name mech kernel version options)
          ~groups:(Kernel_abi.groups mech kernel) options dfg
      in
      Option.iter (fun f -> f (Pass.report pm)) report;
      { mech; kernel; version; options; dfg; mapping; schedule; lowered;
        facts; verdict; launch = None })

(* A fresh compile: the options checked, then compiled. *)
let compile_fresh ?report ~validate mech kernel version options =
  Result.bind (check_options mech kernel version options) (fun () ->
      compile_accepted ?report ~validate mech kernel version options)

(* ---- compile memoization -------------------------------------------

   A sweep (autotuner, figures, bench) revisits the same configuration
   many times; the pipeline is deterministic in (mechanism, kernel,
   version, options), so identical configurations compile once per
   process. The key ([Memo_key]) holds the mechanism's content digest,
   not just its name, so synthetic test mechanisms sharing a name cannot
   alias; each mechanism is digested once ([mech_digest]). Compiled
   artifacts are immutable
   after the pipeline returns (simulation state lives in [Memstate.t] /
   trace cursors), making a shared [t] safe to hand to concurrent sweep
   workers. A compile that fails after its options are accepted is
   cached too, as its typed diagnostic: a search proposes the same
   failing candidates every time it runs, and a hit returns the same
   [Error]. Options [check_options] rejects are not cached; they cost
   nothing to reject again.

   The table is a bounded [Sutil.Cache]: each entry holds a whole
   lowered program. Every hit re-verifies the stored artifact against
   the snapshot taken at insertion, so a bug mutating an "immutable"
   artifact is counted as a corruption and recompiled, not served.
   Only the memo gives an artifact a launch state, when it inserts it: a
   one-shot artifact, which a caller launches once, stores nothing. The
   state is the artifact's, so it lives and dies with it, after an
   eviction too. *)

(* A mutable array of a stored artifact, with the shallow copy taken at
   insertion. Only arrays of boxed values (blocks, item streams), whose
   slots [==] compares by identity. *)
type slots = Slots : 'a array * 'a array -> slots

type memo_entry = { value : (t, Diagnostics.t) result; snapshot : slots list }

(* The memo key: the mechanism's digest, the kernel, the version and
   the options as they are, so a lookup marshals nothing. The hash reads
   the target and the fields that tell a search's candidates apart (warp
   count, ring depth, weights, the partition spec): [Hashtbl.hash] stops
   after ten meaningful words, before the spec. Equality is the relation
   the marshalled digest drew, every float compared by its bits ([=]
   takes [-0.0] for [0.0]), and names every field of each record it
   reads, so a new field does not compile until it is given a
   comparison here. *)
module Memo_key = struct
  type t = {
    mech : Digest.t;
    kernel : Kernel_abi.kernel;
    version : version;
    options : options;
  }

  let same_float a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let same_arch (a : Gpusim.Arch.t) (b : Gpusim.Arch.t) =
    a == b
    ||
    let {
      Gpusim.Arch.name; n_sms; clock_mhz; regfile_per_sm;
      max_regs_per_thread; shared_bytes_per_sm; max_warps_per_sm;
      max_ctas_per_sm; named_barriers_per_sm; schedulers;
      dp_issue_per_cycle; const_operand_penalty; alu_issue_per_cycle;
      arith_latency; shared_latency; global_latency; icache_miss_latency;
      tex_bytes_per_cycle; global_bytes_per_cycle; local_bytes_per_cycle;
      shared_banks; shared_issue_per_cycle; const_cache_bytes;
      const_line_bytes; icache_bytes; icache_line_instrs; icache_assoc;
      instr_bytes; broadcast; has_ldg; shared_operand_collector; l2_bytes;
      dram_gbs_peak; sm_clock_skew;
    } =
      a
    in
    String.equal name b.name && n_sms = b.n_sms
    && same_float clock_mhz b.clock_mhz
    && regfile_per_sm = b.regfile_per_sm
    && max_regs_per_thread = b.max_regs_per_thread
    && shared_bytes_per_sm = b.shared_bytes_per_sm
    && max_warps_per_sm = b.max_warps_per_sm
    && max_ctas_per_sm = b.max_ctas_per_sm
    && named_barriers_per_sm = b.named_barriers_per_sm
    && schedulers = b.schedulers
    && same_float dp_issue_per_cycle b.dp_issue_per_cycle
    && same_float const_operand_penalty b.const_operand_penalty
    && same_float alu_issue_per_cycle b.alu_issue_per_cycle
    && arith_latency = b.arith_latency
    && shared_latency = b.shared_latency
    && global_latency = b.global_latency
    && icache_miss_latency = b.icache_miss_latency
    && same_float tex_bytes_per_cycle b.tex_bytes_per_cycle
    && same_float global_bytes_per_cycle b.global_bytes_per_cycle
    && same_float local_bytes_per_cycle b.local_bytes_per_cycle
    && shared_banks = b.shared_banks
    && same_float shared_issue_per_cycle b.shared_issue_per_cycle
    && const_cache_bytes = b.const_cache_bytes
    && const_line_bytes = b.const_line_bytes
    && icache_bytes = b.icache_bytes
    && icache_line_instrs = b.icache_line_instrs
    && icache_assoc = b.icache_assoc && instr_bytes = b.instr_bytes
    && broadcast = b.broadcast && Bool.equal has_ldg b.has_ldg
    && Bool.equal shared_operand_collector b.shared_operand_collector
    && l2_bytes = b.l2_bytes
    && same_float dram_gbs_peak b.dram_gbs_peak
    && same_float sm_clock_skew b.sm_clock_skew

  let same_weights { Mapping.w_flops; w_regs; w_locality } (b : Mapping.weights)
      =
    same_float w_flops b.w_flops && same_float w_regs b.w_regs
    && same_float w_locality b.w_locality

  let same_partition a b =
    match (a, b) with
    | Partition_hand, Partition_hand -> true
    | ( Partition_auto
          {
            Mapping.producer_warps; hub_threshold; chain_weight; auto_strategy;
          },
        Partition_auto s ) ->
        producer_warps = s.producer_warps
        && hub_threshold = s.hub_threshold
        && same_float chain_weight s.chain_weight
        && auto_strategy = s.auto_strategy
    | (Partition_hand | Partition_auto _), _ -> false

  let same_options
      {
        arch; n_warps; weights; respect_hints; group_syncs; buffer_slots;
        exp_consts_in_registers; freg_budget; list_schedule; max_barriers;
        ctas_per_sm_target; chem_comm; full_range_thermo; synth_exchange;
        stencil_overlap; partition;
      } o =
    n_warps = o.n_warps
    && buffer_slots = o.buffer_slots
    && same_partition partition o.partition
    && same_weights weights o.weights
    && Bool.equal respect_hints o.respect_hints
    && Bool.equal group_syncs o.group_syncs
    && Bool.equal exp_consts_in_registers o.exp_consts_in_registers
    && Option.equal Int.equal freg_budget o.freg_budget
    && Bool.equal list_schedule o.list_schedule
    && max_barriers = o.max_barriers
    && ctas_per_sm_target = o.ctas_per_sm_target
    && chem_comm = o.chem_comm
    && Bool.equal full_range_thermo o.full_range_thermo
    && Option.equal Bool.equal synth_exchange o.synth_exchange
    && Bool.equal stencil_overlap o.stencil_overlap
    && same_arch arch o.arch

  let equal { mech; kernel; version; options } b =
    same_options options b.options
    && String.equal mech b.mech && kernel = b.kernel && version = b.version

  let hash { mech; kernel; version; options = o } =
    Hashtbl.hash_param 16 32
      (mech, kernel, version, o.n_warps, o.buffer_slots, o.weights, o.partition)
end

(* What a hit re-verifies: each [Switch_warp] arm array of the lowered
   program (naive programs have one; [Instrs], [Seq] and [If_warps] are
   immutable, so these arrays are the only place its code can be
   rewritten in place) and the per-warp item-stream arrays of the
   model's stored walk. A hit compares each slot with [==], O(warps):
   replacing an arm or a warp's stream is caught, whatever its size.
   The artifact's other arrays (constant banks, graph, mapping and
   schedule tables) are not covered. *)
let snapshot_artifact (t : t) =
  let p = t.lowered.Lower.program in
  let rec arms acc = function
    | Gpusim.Isa.Instrs _ -> acc
    | Gpusim.Isa.Seq bs -> List.fold_left arms acc bs
    | Gpusim.Isa.If_warps { body; _ } -> arms acc body
    | Gpusim.Isa.Switch_warp bodies ->
        Array.fold_left arms (Slots (bodies, Array.copy bodies) :: acc) bodies
  in
  let program = arms (arms [] p.Gpusim.Isa.prologue) p.Gpusim.Isa.body in
  match t.facts.Model_facts.own_walk with
  | None -> program
  | Some w ->
      Slots (w.Model_facts.prologue, Array.copy w.Model_facts.prologue)
      :: Slots (w.Model_facts.body, Array.copy w.Model_facts.body)
      :: program

let snapshot = function Ok t -> snapshot_artifact t | Error _ -> []

let intact snapshot =
  List.for_all
    (fun (Slots (live, copy)) -> Array.for_all2 ( == ) live copy)
    snapshot

module Memo = Sutil.Cache.Make (Memo_key)

let memo : memo_entry Memo.t =
  Memo.create ~verify:(fun e -> intact e.snapshot) 512

let set_memo_limit n = Memo.set_capacity memo (max 1 n)
let memo_stats () = Memo.stats memo

(* Serve [key] from the memo, or compile and insert it: an artifact, or
   the diagnostic of a compile whose options were accepted. *)
let memo_find_or_compile ?report key mech =
  let { Memo_key.kernel; version; options; _ } = key in
  match Memo.find memo key with
  | Some e -> e.value
  | None -> (
      match check_options mech kernel version options with
      | Error _ as rejected -> rejected
      | Ok () ->
          (* Compile outside the lock: concurrent workers may duplicate
             the work for the same key (deterministic, so either result
             is the same), but never serialize on each other. *)
          let r =
            Result.map
              (fun t ->
                let launch =
                  {
                    run = Atomic.make None;
                    predictions = Atomic.make [];
                  }
                in
                { t with launch = Some launch })
              (compile_accepted ?report ~validate:false mech kernel version
                 options)
          in
          (Memo.add memo key { value = r; snapshot = snapshot r }).value)

(* ---- mechanism digests ----
   A mechanism's content digest is the MD5 of its marshalled bytes, tens
   of kilobytes (heptane: 121 KB), so it is taken once per physical
   mechanism and kept for 16 mechanisms matched by identity, as the
   launch-inputs memo matches them: a mechanism is never mutated after
   [Mechanism.make]. A miss digests outside the lock. The bytes go to a per-domain buffer that is reused (and grown
   on overflow): as a fresh string they would go straight to the major
   heap, which moves the collector's pacing for a whole process. *)
let marshal_buffer = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let rec digest_of (mech : Chem.Mechanism.t) =
  let buf = Domain.DLS.get marshal_buffer in
  match Marshal.to_buffer buf 0 (Bytes.length buf) mech [] with
  | len -> Digest.subbytes buf 0 len
  | exception Failure _ ->
      Domain.DLS.set marshal_buffer (Bytes.create (2 * Bytes.length buf));
      digest_of mech

module Mech_digests = Sutil.Cache.Make (struct
  type t = Chem.Mechanism.t

  let equal = ( == )
  let hash (m : t) = Hashtbl.hash m.Chem.Mechanism.name
end)

let mech_digests : Digest.t Mech_digests.t = Mech_digests.create 16

let mech_digest mech =
  match Mech_digests.find mech_digests mech with
  | Some d -> d
  | None -> Mech_digests.add mech_digests mech (digest_of mech)

(* The memo key is everything a compile reads: the mechanism's digest,
   kernel, version and options. *)
let compile ?(memo = false) ?(validate = false) ?report mech kernel version =
  if memo && not validate then
    let mech_key = mech_digest mech in
    fun options ->
      memo_find_or_compile ?report
        { Memo_key.mech = mech_key; kernel; version; options }
        mech
  else compile_fresh ?report ~validate mech kernel version

(* Kept only for the benchmark driver, which names them. *)
let compile_checked ?(validate = true) m k v o = let r = ref None in Result.map (fun t -> (t, Option.get !r)) (compile ~validate ~report:(fun p -> r := Some p) m k v o)
let compile_cached m k v = let c = compile ~memo:true m k v in fun o -> Diagnostics.ok_exn (c o)

(* ---- launch-inputs memo ----
   A launch's input grid is a pure function of the mechanism, the point
   count, the seed and the temperature range, and the oracle's reference
   outputs are a pure function of that grid and the kernel; a server
   re-runs the same targets again and again. An entry holds one grid and
   the references computed from it, matches the mechanism by identity
   (a memoized compile keeps its own) and costs its doubles. Both are
   read-only: every run copies the grid into its own memory, simulates,
   and compares with the reference. *)
module Inputs = Sutil.Cache.Make (struct
  type t = Chem.Mechanism.t * int * int64 * (float * float) option

  let equal (m, points, seed, t_range) (m', points', seed', t_range') =
    m == m' && points = points' && Int64.equal seed seed' && t_range = t_range'

  let hash (_, points, seed, t_range) = Hashtbl.hash (points, seed, t_range)
end)

type inputs_entry = {
  i_key : Inputs.key;
  i_grid : Chem.Grid.t;
  i_refs : (Kernel_abi.kernel * float array array) list Atomic.t;
  mutable i_doubles : int;
}

let inputs_memo_budget = 1 lsl 18

let inputs_memo : inputs_entry Inputs.t =
  Inputs.create ~cost:(fun e -> e.i_doubles) inputs_memo_budget

let n_doubles rows = Array.fold_left (fun n r -> n + Array.length r) 0 rows

let launch_inputs mech ~seed ~t_range ~points =
  let key = (mech, points, seed, t_range) in
  match Inputs.find inputs_memo key with
  | Some e -> e
  | None ->
      let g = Chem.Grid.create ?t_range mech ~points ~seed in
      Inputs.add inputs_memo key
        {
          i_key = key;
          i_grid = g;
          i_refs = Atomic.make [];
          i_doubles =
            points * 2 + n_doubles g.Chem.Grid.mole_frac
            + n_doubles g.Chem.Grid.diffusion_in;
        }

(* A reference joins its grid's entry, growing its cost, when the two
   fit the budget together. *)
let reference_outputs e kernel =
  match List.assoc_opt kernel (Atomic.get e.i_refs) with
  | Some r -> r
  | None ->
      let mech, _, _, _ = e.i_key and g = e.i_grid in
      let r =
        Kernel_abi.reference_outputs mech g kernel ~points:g.Chem.Grid.points
      in
      Inputs.update inputs_memo e.i_key (fun e ->
          let refs = Atomic.get e.i_refs in
          if
            (not (List.mem_assoc kernel refs))
            && e.i_doubles + n_doubles r <= inputs_memo_budget
          then begin
            Atomic.set e.i_refs ((kernel, r) :: refs);
            e.i_doubles <- e.i_doubles + n_doubles r
          end);
      r

(* A prediction's one mutable part is its [chip.sms] array. *)
let copy_prediction (p : Model_facts.prediction) =
  let chip = p.Model_facts.chip in
  {
    p with
    Model_facts.chip =
      { chip with Gpusim.Chip.sms = Array.copy chip.Gpusim.Chip.sms };
  }

let predictions_stored = Atomic.make 0
let predictions_served = Atomic.make 0

(* The model's answer for [t] at a resolved launch: a copy of the one
   its launch state holds, else [predict ()], stored when [t] has a
   launch state. *)
let launch_prediction t ~ctas ~total_points ~n_sms ~skew predict =
  match t.launch with
  | None -> predict ()
  | Some s -> (
      let key = launch_key ~ctas ~total_points ~n_sms ~skew in
      match Sutil.Atomic_assoc.find s.predictions key with
      | Some p ->
          Atomic.incr predictions_served;
          copy_prediction p
      | None ->
          let p = predict () in
          if snd (Sutil.Atomic_assoc.add s.predictions key p) then
            Atomic.incr predictions_stored;
          copy_prediction p)

let launches_stored = Atomic.make 0
let launches_served = Atomic.make 0

type launch_state_stats = {
  launches_stored : int;
  launches_served : int;
  predictions_stored : int;
  predictions_served : int;
}

let launch_state_stats () =
  {
    launches_stored = Atomic.get launches_stored;
    launches_served = Atomic.get launches_served;
    predictions_stored = Atomic.get predictions_stored;
    predictions_served = Atomic.get predictions_served;
  }

let memo_clear () =
  Memo.clear memo;
  Mech_digests.clear mech_digests;
  Inputs.clear inputs_memo

let cache_stats () =
  [
    ("compile_cache", Memo.stats memo);
    ("mech_digests", Mech_digests.stats mech_digests);
    ("launch_inputs", Inputs.stats inputs_memo);
  ]

(* ---- IR dumping (the CLI's --dump-ir) ---- *)

type ir_stage = Ir_dfg | Ir_mapping | Ir_schedule | Ir_lower

let ir_stage_of_string s =
  match String.lowercase_ascii s with
  | "dfg" | "dfg-build" -> Some Ir_dfg
  | "mapping" | "map" -> Some Ir_mapping
  | "schedule" | "sched" -> Some Ir_schedule
  | "lower" | "isa" -> Some Ir_lower
  | _ -> None

let ir_stage_name = function
  | Ir_dfg -> "dfg"
  | Ir_mapping -> "mapping"
  | Ir_schedule -> "schedule"
  | Ir_lower -> "lower"

let dump_ir ppf t stage =
  let boxed pp x = Format.fprintf ppf "@[<v>%a@]@." pp x in
  match stage with
  | Ir_dfg -> boxed Dfg.pp_dump t.dfg
  | Ir_mapping -> boxed (Mapping.pp_dump t.dfg) t.mapping
  | Ir_schedule -> boxed (Schedule.pp_dump t.dfg) t.schedule
  | Ir_lower ->
      Format.fprintf ppf "%s%!" (Gpusim.Isa_text.emit t.lowered.Lower.program)

(* The default grid: the baseline launches one thread per point; the
   warp-specialized versions use a fixed grid of up to 1024 CTAs, each
   stepping through whole 32-point batches. *)
let launch_ctas version ~n_warps ~total_points =
  match version with
  | Baseline -> total_points / (n_warps * 32)
  | Warp_specialized | Naive_warp_specialized -> min 1024 (total_points / 32)

let check_launch kernel version ~n_warps ~total_points =
  let name = Kernel_abi.kernel_name kernel in
  let ctas = launch_ctas version ~n_warps ~total_points in
  match version with
  | Baseline when total_points mod (n_warps * 32) <> 0 || ctas < 1 ->
      Error
        (Diagnostics.errorf ~pass:"launch" ~loc:name
           "baseline %s launches one thread per point: %d points do not \
            divide into %d-thread CTAs (%d warps x 32); pick a multiple or \
            pass an explicit CTA count"
           name total_points (n_warps * 32) n_warps)
  | (Warp_specialized | Naive_warp_specialized)
    when ctas < 1 || total_points mod ctas <> 0
         || total_points / ctas mod 32 <> 0 ->
      Error
        (Diagnostics.errorf ~pass:"launch" ~loc:name
           "%s %s launches min 1024 (points / 32) = %d CTAs of whole \
            32-point batches: %d points do not split into them; pick a \
            positive multiple of 32 up to 32768, a multiple of 32768, or pass \
            an explicit CTA count"
           (version_name version) name ctas total_points)
  | Baseline | Warp_specialized | Naive_warp_specialized -> Ok ()

let default_ctas t ~total_points =
  let n_warps = t.options.n_warps in
  Diagnostics.ok_exn (check_launch t.kernel t.version ~n_warps ~total_points);
  launch_ctas t.version ~n_warps ~total_points

type run_result = {
  machine : Gpusim.Chip.result;
  max_rel_err : float;
  outputs : float array array;
}

let run ?ctas ?(check = true) ?(seed = 0x5EEDL) ?t_range ?(faults = [])
    ?max_cycles ?profile ?n_sms ?skew t ~total_points =
  Diagnostics.ok_exn
    (Result.map_error (fun (pass, p) -> Diagnostics.of_problems ~pass p) t.verdict);
  let ctas =
    match ctas with Some c -> c | None -> default_ctas t ~total_points
  in
  let arch = t.options.arch in
  let n_sms = match n_sms with Some n -> n | None -> arch.Gpusim.Arch.n_sms in
  let skew =
    match skew with Some s -> s | None -> arch.Gpusim.Arch.sm_clock_skew
  in
  (* The first clean, unprofiled run of a memoized artifact keeps its
     result in the launch state, and a later run of the same launch gets
     a copy of it when it finishes within the budget: the result is a
     pure function of the key (DESIGN §9.1). *)
  let stored =
    match t.launch with
    | Some s when faults = [] && profile = None ->
        let key =
          {
            r_launch = launch_key ~ctas ~total_points ~n_sms ~skew;
            r_seed = seed;
            r_t_range =
              Option.map
                (fun (lo, hi) -> (Int64.bits_of_float lo, Int64.bits_of_float hi))
                t_range;
          }
        in
        Some (s, key)
    | Some _ | None -> None
  in
  let within (m : Gpusim.Chip.result) =
    match max_cycles with None -> true | Some b -> m.max_round_cycles <= b
  in
  let hit =
    match stored with
    | None -> None
    | Some (s, key) -> (
        match Atomic.get s.run with
        | Some (k, m) when k = key && within m -> Some m
        | Some _ | None -> None)
  in
  (* The launch-inputs entry is looked up once per run, served or not: a
     simulation fills the memory its main round's order is replayed
     into, for [simulated_points]. *)
  let inputs = ref None in
  let lookup_inputs n =
    let e = launch_inputs t.mech ~seed ~t_range ~points:n in
    inputs := Some e;
    e
  in
  let machine =
    match hit with
    | Some m ->
        Atomic.incr launches_served;
        ignore (lookup_inputs m.simulated_points);
        Gpusim.Chip.copy m
    | None -> (
        let fill mem n =
          Kernel_abi.fill_inputs t.mech (lookup_inputs n).i_grid t.kernel
            t.lowered.Lower.program mem n
        in
        let m =
          Gpusim.Chip.run ~fill_inputs:fill ~faults ?max_cycles ?profile
            ~n_sms ~skew arch
            { Gpusim.Chip.program = t.lowered.Lower.program; total_points; ctas }
        in
        (* A result larger than the whole launch-inputs memo (a heptane
           baseline's spill arrays) is not kept: each memo entry holds
           at most that many doubles of stored run. *)
        match stored with
        | Some (s, key)
          when Gpusim.Memstate.doubles m.mem <= inputs_memo_budget
               && Atomic.compare_and_set s.run None (Some (key, m)) ->
            Atomic.incr launches_stored;
            Gpusim.Chip.copy m
        | Some _ | None -> m)
  in
  let outputs =
    Kernel_abi.read_outputs t.lowered.Lower.program machine.Gpusim.Chip.mem
  in
  let max_rel_err =
    if not check then nan
    else begin
      let reference = reference_outputs (Option.get !inputs) t.kernel in
      let worst = ref 0.0 in
      (* Output sums can cancel (wdot is a difference of large rates), so
         the tolerance floor scales with the field's magnitude. *)
      let field_max =
        Array.fold_left
          (fun acc f ->
            Array.fold_left (fun a v -> Float.max a (abs_float v)) acc f)
          1e-300 reference
      in
      Array.iteri
        (fun f expect ->
          Array.iteri
            (fun p e ->
              let got = outputs.(f).(p) in
              let denom = Float.max (abs_float e) (1e-9 *. field_max) in
              let err = abs_float (got -. e) /. denom in
              if err > !worst then worst := err)
            expect)
        reference;
      !worst
    end
  in
  { machine; max_rel_err; outputs }
