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

let default_strategy = function
  | Kernel_abi.Viscosity | Kernel_abi.Conductivity -> Mapping.Store
  | Kernel_abi.Diffusion -> Mapping.Mixed
  | Kernel_abi.Chemistry -> Mapping.Buffer
  (* Stencil tile handoffs are static single-writer values read at known
     offsets: the store region (plus the scheduler's named-barrier
     handshakes) carries them; the transport ring adds nothing. *)
  | Kernel_abi.Stencil _ -> Mapping.Store

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
  safety : (unit, string * string list) result;
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

let check_options mech kernel version o =
  match check_options_exn mech kernel version o with
  | () -> Ok ()
  | exception Diagnostics.Fail d -> Error d

(* ---- transform passes ---- *)

let build_dfg ?(chem_comm = Chem_staged) ?(full_range_thermo = false)
    ?(stencil_overlap = true) mech kernel ~n_warps =
  match kernel with
  | Kernel_abi.Viscosity -> Viscosity_dfg.build mech ~n_warps
  | Kernel_abi.Conductivity -> Conductivity_dfg.build mech ~n_warps
  | Kernel_abi.Diffusion -> Diffusion_dfg.build mech ~n_warps
  | Kernel_abi.Chemistry ->
      let recompute_conc, recompute_gibbs =
        match chem_comm with
        | Chem_staged -> (false, false)
        | Chem_recompute -> (true, true)
        | Chem_mixed -> (false, true)
      in
      Chemistry_dfg.build ~recompute_conc ~recompute_gibbs ~full_range_thermo
        mech ~n_warps
  | Kernel_abi.Stencil id ->
      Stencil_dfg.build (Stencil_pipe.get id) ~n_warps
        ~overlap:stencil_overlap

let freg_budget options =
  match options.freg_budget with
  | Some b -> b
  | None ->
      (* Per-thread 32-bit budget so the target CTAs per SM stay resident:
         the register file divided over the resident threads, capped by the
         per-thread architectural maximum, minus headroom for integer
         parameter registers and addressing overhead. *)
      let threads =
        options.ctas_per_sm_target * options.n_warps * 32
      in
      let budget32 =
        min options.arch.Gpusim.Arch.max_regs_per_thread
          (options.arch.Gpusim.Arch.regfile_per_sm / threads)
      in
      max 8 ((budget32 - 16) / 2)

(* The lowering configuration of a compile: [options] decide everything
   but the version's code shape ([overlay], [const_policy]). *)
let lower_config options ~overlay ~const_policy =
  {
    Lower.arch = options.arch;
    overlay;
    const_policy;
    exp_consts_in_registers = options.exp_consts_in_registers;
    param_stripe_threshold = 8;
    freg_budget = freg_budget options;
    synth_exchange = synth_exchange_enabled options;
    list_schedule = options.list_schedule;
  }

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

(* ---- the pipeline ---- *)

(* One half of a compile's safety verdict ([t.safety]): [check] runs once,
   whatever [validate] says. Under [validate] it runs inside its pass
   record, which times it and raises its failure. *)
let safety_check pm ~validate ~name check =
  let verdict =
    if validate then begin
      let v = ref (Ok ()) in
      Pass.validate pm ~name (fun () ->
          v := check ();
          !v);
      !v
    end
    else check ()
  in
  Result.map_error (fun msgs -> (name, msgs)) verdict

(* The passes proper: the dataflow graph, mapping, schedule and lowered
   program of a compile, and its safety verdict: [Mapping.validate], then,
   only if that passes, [Deadlock_check.check] on the final schedule. *)
let run_passes pm ~validate mech kernel version options =
  let groups = Kernel_abi.groups mech kernel in
  match version with
  | Warp_specialized | Naive_warp_specialized ->
      (* Staging through shared memory wins on end-to-end throughput in
         most measured configurations; redundant recomputation trades the
         staged vectors for registers and FLOPs, raising achieved GFLOPS
         more than points per second. The explicit knob remains for the
         ablation benchmark and for shared-memory-starved configurations. *)
      let chem_comm = Option.value options.chem_comm ~default:Chem_staged in
      let dfg =
        Pass.run pm ~name:"dfg-build" ~stats:dfg_stats (fun () ->
            build_dfg ~chem_comm ~full_range_thermo:options.full_range_thermo
              ~stencil_overlap:options.stencil_overlap mech kernel
              ~n_warps:options.n_warps)
      in
      if validate then
        Pass.validate pm ~name:"dfg-validate" (fun () ->
            Dfg.validate ~n_warps:options.n_warps dfg);
      let mapping =
        Pass.run pm ~name:"mapping" ~stats:(mapping_stats dfg) (fun () ->
            match options.partition with
            | Partition_hand ->
                Mapping.map dfg ~n_warps:options.n_warps
                  ~weights:options.weights ~strategy:(default_strategy kernel)
                  ~respect_hints:options.respect_hints
            | Partition_auto spec ->
                Mapping.map_auto dfg ~n_warps:options.n_warps
                  ~weights:options.weights ~spec)
      in
      let mapping_safe =
        safety_check pm ~validate ~name:"mapping-validate" (fun () ->
            Mapping.validate dfg mapping)
      in
      let cfg =
        lower_config options ~overlay:(version = Warp_specialized)
          ~const_policy:
            (if version = Warp_specialized then Lower.Bank else Lower.Immediate)
      in
      let name =
        Printf.sprintf "%s-%s-ws%d" mech.Chem.Mechanism.name
          (Kernel_abi.kernel_name kernel) options.n_warps
      in
      (* The integer-parameter register demand is only known after
         lowering; shrink the floating budget and retry if the 32-bit
         total overshoots the architectural cap. *)
      let cap32 =
        min options.arch.Gpusim.Arch.max_regs_per_thread
          (options.arch.Gpusim.Arch.regfile_per_sm
          / (options.ctas_per_sm_target * options.n_warps * 32))
      in
      let rec fit schedule cfg tries =
        let lowered =
          Pass.run pm ~name:"lower" ~stats:lower_stats (fun () ->
              Lower.lower cfg ~point_map:Gpusim.Isa.Coop ~name
                ~out_warps:options.n_warps ~groups dfg mapping schedule)
        in
        let used = Gpusim.Isa.regs32_per_thread lowered.Lower.program in
        if used <= cap32 || tries = 0 then lowered
        else
          let budget = cfg.Lower.freg_budget - (((used - cap32) + 1) / 2) - 1 in
          let cfg' = { cfg with Lower.freg_budget = budget } in
          let floor =
            Lower.freg_floor cfg'
              ~n_logical_consts:lowered.Lower.n_logical_consts
          in
          if budget < floor then
            Diagnostics.failf ~pass:"lower"
              "%s needs %d 32-bit registers per thread at %d double \
               registers, over the per-thread cap of %d at %d warps x %d \
               CTA(s) per SM on %s, and shrinking the budget to %d would \
               fall below the register allocator's floor of %d \
               (constant-bank registers + %d)"
              name used cfg.Lower.freg_budget cap32 options.n_warps
              options.ctas_per_sm_target options.arch.Gpusim.Arch.name budget
              floor Lower.min_fregs
          else fit schedule cfg' (tries - 1)
      in
      (* Shared memory must leave room for the target CTAs per SM. If the
         store slots plus the buffer ring overshoot, rebuild the schedule
         with a smaller ring (more ring reuse costs barrier waits, not
         correctness) before giving up. *)
      let shared_cap =
        options.arch.Gpusim.Arch.shared_bytes_per_sm
        / max 1 options.ctas_per_sm_target
      in
      let rec fit_shared buffer_slots tries =
        let schedule =
          Pass.run pm ~name:"schedule" ~stats:schedule_stats (fun () ->
              Schedule.build ~buffer_slots ~group_syncs:options.group_syncs
                ~max_barriers:options.max_barriers dfg mapping)
        in
        let lowered = fit schedule cfg 3 in
        let bytes = lowered.Lower.program.Gpusim.Isa.shared_doubles * 8 in
        if bytes <= shared_cap || tries = 0 || buffer_slots <= 8 then
          (schedule, lowered)
        else
          let overshoot_slots = ((bytes - shared_cap) + 255) / 256 in
          fit_shared (max 8 (buffer_slots - overshoot_slots)) (tries - 1)
      in
      let schedule, lowered = fit_shared options.buffer_slots 3 in
      (* Surface the rewrite's work as its own [--timings] row (the wall
         time is folded into the lower pass; the statistics are what
         matter here). *)
      if cfg.Lower.synth_exchange then
        ignore
          (Pass.run pm ~name:"synth-exchange" ~stats:Shuffle_synth.report_stats
             (fun () -> lowered.Lower.exchange));
      if validate then
        Pass.validate pm ~name:"schedule-validate" (fun () ->
            Schedule.validate ~max_barriers:options.max_barriers schedule dfg
              mapping);
      let safety =
        Result.bind mapping_safe (fun () ->
            safety_check pm ~validate ~name:"deadlock-check" (fun () ->
                Deadlock_check.check schedule))
      in
      if validate then
        Pass.validate pm ~name:"lower-validate" (fun () ->
            Lower.validate_output ~arch:options.arch
              ~max_barriers:options.max_barriers lowered);
      (dfg, mapping, schedule, lowered, safety)
  | Baseline ->
      (* One thread per point: every thread runs the whole dataflow graph,
         so map onto a single logical warp and emit warp-independent code. *)
      let dfg =
        Pass.run pm ~name:"dfg-build" ~stats:dfg_stats (fun () ->
            build_dfg ~full_range_thermo:options.full_range_thermo
              ~stencil_overlap:options.stencil_overlap mech kernel ~n_warps:1)
      in
      if validate then
        Pass.validate pm ~name:"dfg-validate" (fun () ->
            Dfg.validate ~n_warps:1 dfg);
      let mapping =
        Pass.run pm ~name:"mapping" ~stats:(mapping_stats dfg) (fun () ->
            Mapping.map dfg ~n_warps:1 ~weights:options.weights
              ~strategy:Mapping.Buffer ~respect_hints:false)
      in
      let mapping_safe =
        safety_check pm ~validate ~name:"mapping-validate" (fun () ->
            Mapping.validate dfg mapping)
      in
      let schedule =
        Pass.run pm ~name:"schedule" ~stats:schedule_stats (fun () ->
            Schedule.build ~buffer_slots:options.buffer_slots ~group_syncs:true
              dfg mapping)
      in
      if validate then
        Pass.validate pm ~name:"schedule-validate" (fun () ->
            Schedule.validate ~max_barriers:options.max_barriers schedule dfg
              mapping);
      let safety =
        Result.bind mapping_safe (fun () ->
            safety_check pm ~validate ~name:"deadlock-check" (fun () ->
                Deadlock_check.check schedule))
      in
      let cfg =
        lower_config options ~overlay:true ~const_policy:Lower.Const_mem
      in
      let lowered =
        Pass.run pm ~name:"lower" ~stats:lower_stats (fun () ->
            Lower.lower cfg
              ~name:
                (Printf.sprintf "%s-%s-baseline" mech.Chem.Mechanism.name
                   (Kernel_abi.kernel_name kernel))
              ~point_map:Gpusim.Isa.Thread_per_point ~out_warps:options.n_warps
              ~groups dfg mapping schedule)
      in
      if validate then
        Pass.validate pm ~name:"lower-validate" (fun () ->
            Lower.validate_output ~arch:options.arch
              ~max_barriers:options.max_barriers lowered);
      (dfg, mapping, schedule, lowered, safety)

(* The model's program-only facts, and its scoreboard walk at the
   program's occupancy, are a compile output like the lowered program
   they describe: computed once here, eagerly (a [Lazy.t] forced by two
   sweep workers at once raises), with no pass record of their own, so
   the pass report is unchanged. *)
let run_pipeline pm ~validate mech kernel version options =
  let dfg, mapping, schedule, lowered, safety =
    run_passes pm ~validate mech kernel version options
  in
  let facts = Model_facts.of_layout options.arch lowered.Lower.program in
  {
    mech;
    kernel;
    version;
    options;
    dfg;
    mapping;
    schedule;
    lowered;
    facts;
    safety;
  }

let pipeline_name mech kernel version options =
  Printf.sprintf "%s/%s/%s/%s/ws%d" mech.Chem.Mechanism.name
    (Kernel_abi.kernel_name kernel)
    (version_name version) options.arch.Gpusim.Arch.name options.n_warps

(* A fresh compile, every failure a diagnostic: invalid options and
   validation passes raise [Diagnostics.Fail]; a stage that cannot fit the
   configuration raises [Failure] or [Invalid_argument]. *)
let compile_fresh ?report ~validate mech kernel version options =
  match
    check_options_exn mech kernel version options;
    let pm = Pass.create (pipeline_name mech kernel version options) in
    let t = run_pipeline pm ~validate mech kernel version options in
    (t, Pass.report pm)
  with
  | t, r ->
      Option.iter (fun f -> f r) report;
      Ok t
  | exception Diagnostics.Fail d -> Error d
  | exception (Failure msg | Invalid_argument msg) ->
      Error (Diagnostics.error ~pass:"pipeline" msg)

(* ---- compile memoization -------------------------------------------

   A sweep (autotuner, figures, bench) revisits the same configuration
   many times; the pipeline is deterministic in (mechanism, kernel,
   version, options), so identical configurations compile once per
   process. The key digests the whole mechanism, not just its name, so
   synthetic test mechanisms sharing a name cannot alias. Compiled
   artifacts are immutable after the pipeline returns (simulation state
   lives in [Memstate.t] / trace cursors), making a shared [t] safe to
   hand to concurrent sweep workers. Only successful compiles are
   cached; a failure is compiled, and returned, every time.

   The table is bounded: a long-lived server streaming distinct
   configurations would otherwise grow it without limit (each entry
   holds a whole lowered program). Eviction is LRU on a logical clock
   bumped at every hit, and every hit re-verifies the stored artifact
   against the snapshot taken at insertion — a mismatch (a bug
   mutating an "immutable" artifact) drops the entry, recompiles, and is
   counted rather than silently served. *)

type memo_stats = {
  size : int;
  limit : int;
  hits : int;
  misses : int;
  evictions : int;
  corruptions : int;
}

(* A mutable array of a stored artifact, with the shallow copy taken at
   insertion. Only arrays of boxed values (blocks, item streams), whose
   slots [==] compares by identity. *)
type slots = Slots : 'a array * 'a array -> slots

type memo_entry = {
  value : t;
  mutable snapshot : slots list;
      (* mutable only so tests can poison an entry to exercise the
         corruption path; the cache itself never writes it after insert *)
  mutable last_use : int;
}

let memo : (string, memo_entry) Hashtbl.t = Hashtbl.create 64
let memo_mutex = Mutex.create ()
let memo_tick = ref 0
let memo_max = ref 512
let memo_hits = ref 0
let memo_misses = ref 0
let memo_evictions = ref 0
let memo_corruptions = ref 0

(* What a hit re-verifies: each [Switch_warp] arm array of the lowered
   program (naive programs have one; [Instrs], [Seq] and [If_warps] are
   immutable, so these arrays are the only place its code can be
   rewritten in place) and the per-warp item-stream arrays of the
   model's stored walk. A hit compares each slot with [==], O(warps):
   replacing an arm or a warp's stream is caught, whatever its size.
   The artifact's other arrays (constant banks, graph, mapping and
   schedule tables) are not covered. *)
let snapshot (t : t) =
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

let intact snapshot =
  List.for_all
    (fun (Slots (live, copy)) -> Array.for_all2 ( == ) live copy)
    snapshot

(* Callers hold [memo_mutex]. *)
let evict_down_to limit =
  while Hashtbl.length memo > limit do
    let oldest = ref None in
    Hashtbl.iter
      (fun key e ->
        match !oldest with
        | Some (_, lru) when lru <= e.last_use -> ()
        | _ -> oldest := Some (key, e.last_use))
      memo;
    match !oldest with
    | None -> ()
    | Some (key, _) ->
        Hashtbl.remove memo key;
        incr memo_evictions
  done

let memo_limit () = !memo_max

let set_memo_limit n =
  let n = max 1 n in
  Mutex.lock memo_mutex;
  memo_max := n;
  evict_down_to n;
  Mutex.unlock memo_mutex

let memo_stats () =
  Mutex.lock memo_mutex;
  let s =
    {
      size = Hashtbl.length memo;
      limit = !memo_max;
      hits = !memo_hits;
      misses = !memo_misses;
      evictions = !memo_evictions;
      corruptions = !memo_corruptions;
    }
  in
  Mutex.unlock memo_mutex;
  s

let memo_stats_to_json s =
  let open Sutil.Json in
  Obj
    [
      ("size", of_int s.size);
      ("limit", of_int s.limit);
      ("hits", of_int s.hits);
      ("misses", of_int s.misses);
      ("evictions", of_int s.evictions);
      ("corruptions", of_int s.corruptions);
    ]

(* Digest of a value's marshalled bytes, marshalled into a per-domain
   buffer that is reused (and grown on overflow): a mechanism marshals to
   tens of kilobytes, which as a fresh string would go straight to the
   major heap on every lookup. *)
let marshal_buffer = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let rec digest_of v =
  let buf = Domain.DLS.get marshal_buffer in
  match Marshal.to_buffer buf 0 (Bytes.length buf) v [] with
  | len -> Digest.subbytes buf 0 len
  | exception Failure _ ->
      Domain.DLS.set marshal_buffer (Bytes.create (2 * Bytes.length buf));
      digest_of v

(* Serve [key] from the memo, or compile and insert it. *)
let memo_find_or_compile ?report key mech kernel version options =
  let cached =
    Mutex.lock memo_mutex;
    let v =
      match Hashtbl.find_opt memo key with
      | None ->
          incr memo_misses;
          None
      | Some e when intact e.snapshot ->
          incr memo_hits;
          incr memo_tick;
          e.last_use <- !memo_tick;
          Some e.value
      | Some _ ->
          (* Re-verification failed: the artifact no longer matches what
             was inserted. Drop it and recompile below. *)
          Hashtbl.remove memo key;
          incr memo_corruptions;
          incr memo_misses;
          None
    in
    Mutex.unlock memo_mutex;
    v
  in
  match cached with
  | Some t -> Ok t
  | None ->
      (* Compile outside the lock: concurrent workers may duplicate the
         work for the same key (deterministic, so either result is the
         same), but never serialize on each other. *)
      let r = compile_fresh ?report ~validate:false mech kernel version options in
      Result.iter
        (fun t ->
          Mutex.lock memo_mutex;
          if not (Hashtbl.mem memo key) then begin
            incr memo_tick;
            Hashtbl.add memo key
              { value = t; snapshot = snapshot t; last_use = !memo_tick };
            evict_down_to !memo_max
          end;
          Mutex.unlock memo_mutex)
        r;
      r

(* The memo key is the digest of everything a compile reads: the target
   (mechanism, kernel, version), digested once per partial application
   so a sweep over one target marshals its mechanism once, then the
   options. *)
let compile ?(memo = false) ?(validate = false) ?report mech kernel version =
  if memo && not validate then
    let target = digest_of (mech, kernel, version) in
    fun options ->
      memo_find_or_compile ?report (digest_of (target, options)) mech kernel
        version options
  else compile_fresh ?report ~validate mech kernel version

(* Kept only for the benchmark driver, which names them. *)
let compile_checked ?(validate = true) m k v o = let r = ref None in Result.map (fun t -> (t, Option.get !r)) (compile ~validate ~report:(fun p -> r := Some p) m k v o)
let compile_cached m k v = let c = compile ~memo:true m k v in fun o -> Diagnostics.ok_exn (c o)

let memo_poison_for_test () =
  Mutex.lock memo_mutex;
  let victim = Hashtbl.fold (fun _ e _ -> Some e) memo None in
  (match victim with
  | Some e -> e.snapshot <- Slots ([| 0 |], [| 1 |]) :: e.snapshot
  | None -> ());
  Mutex.unlock memo_mutex;
  victim <> None

(* ---- launch-inputs memo ----
   A launch's input grid is a pure function of the mechanism, the point
   count, the seed and the temperature range, and the oracle's reference
   outputs are a pure function of that grid and the kernel; a server
   re-runs the same targets again and again. An entry holds one grid and
   the references computed from it. Entries match the mechanism by
   physical identity (a memoized compile keeps its own), hold at most
   [inputs_memo_budget] doubles in all (grids and references), and leave
   least recently used first. Both are read-only: every run copies the
   grid into its own memory, simulates, and compares with the reference. *)
type inputs_entry = {
  i_mech : Chem.Mechanism.t;
  i_key : int * int64 * (float * float) option;
  i_grid : Chem.Grid.t;
  mutable i_refs : (Kernel_abi.kernel * float array array) list;
  mutable i_doubles : int;
  mutable i_last_use : int;
}

let inputs_memo_budget = 1 lsl 18
let inputs_memo : inputs_entry list ref = ref []
let inputs_memo_mutex = Mutex.create ()
let inputs_memo_tick = ref 0
let grids_built = Atomic.make 0
let n_doubles rows = Array.fold_left (fun n r -> n + Array.length r) 0 rows

(* Keep the most recently used entries that fit the budget. Callers hold
   [inputs_memo_mutex]. *)
let inputs_evict () =
  let used = ref 0 in
  inputs_memo :=
    List.filter
      (fun e ->
        used := !used + e.i_doubles;
        !used <= inputs_memo_budget)
      (List.sort (fun a b -> compare b.i_last_use a.i_last_use) !inputs_memo)

let with_inputs_memo f =
  Mutex.lock inputs_memo_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock inputs_memo_mutex) f

let launch_inputs mech ~seed ~t_range ~points =
  let key = (points, seed, t_range) in
  let same e = e.i_mech == mech && e.i_key = key in
  let hit =
    with_inputs_memo (fun () ->
        incr inputs_memo_tick;
        let hit = List.find_opt same !inputs_memo in
        Option.iter (fun e -> e.i_last_use <- !inputs_memo_tick) hit;
        hit)
  in
  match hit with
  | Some e -> e
  | None ->
      let g = Chem.Grid.create ?t_range mech ~points ~seed in
      Atomic.incr grids_built;
      let e =
        {
          i_mech = mech;
          i_key = key;
          i_grid = g;
          i_refs = [];
          i_doubles =
            points * 2 + n_doubles g.Chem.Grid.mole_frac
            + n_doubles g.Chem.Grid.diffusion_in;
          i_last_use = 0;
        }
      in
      if e.i_doubles > inputs_memo_budget then e
      else
        with_inputs_memo (fun () ->
            match List.find_opt same !inputs_memo with
            | Some winner -> winner
            | None ->
                incr inputs_memo_tick;
                e.i_last_use <- !inputs_memo_tick;
                inputs_memo := e :: !inputs_memo;
                inputs_evict ();
                e)

let reference_outputs e kernel =
  match with_inputs_memo (fun () -> List.assoc_opt kernel e.i_refs) with
  | Some r -> r
  | None ->
      let g = e.i_grid in
      let r =
        Kernel_abi.reference_outputs e.i_mech g kernel ~points:g.Chem.Grid.points
      in
      with_inputs_memo (fun () ->
          if
            (not (List.mem_assoc kernel e.i_refs))
            && e.i_doubles + n_doubles r <= inputs_memo_budget
          then begin
            e.i_refs <- (kernel, r) :: e.i_refs;
            e.i_doubles <- e.i_doubles + n_doubles r;
            inputs_evict ()
          end);
      r

type inputs_memo_stats = {
  entries : int;
  doubles : int;
  budget : int;
  grids_built : int;
}

let inputs_memo_stats () =
  with_inputs_memo (fun () ->
      {
        entries = List.length !inputs_memo;
        doubles = List.fold_left (fun n e -> n + e.i_doubles) 0 !inputs_memo;
        budget = inputs_memo_budget;
        grids_built = Atomic.get grids_built;
      })

(* ---- launch-shape stores ----
   Each compiled program gets one [Gpusim.Chip.store], kept in an
   ephemeron table keyed by the program itself: the store lives exactly
   as long as the artifact that holds the program, memoized or not, and
   an artifact evicted from the compile memo takes its store with it.
   The hash reads the name and three sizes only, not the code; keys
   compare by identity. *)
module Program_table = Ephemeron.K1.Make (struct
  type t = Gpusim.Isa.program

  let equal = ( == )

  let hash (p : t) =
    Hashtbl.hash
      (p.Gpusim.Isa.name, p.Gpusim.Isa.n_warps, p.Gpusim.Isa.n_fregs,
       p.Gpusim.Isa.shared_doubles)
end)

let shape_stores : Gpusim.Chip.store Program_table.t = Program_table.create 64
let shape_stores_mutex = Mutex.create ()
let shape_counters = Gpusim.Chip.store_counters ()

let with_shape_stores f =
  Mutex.lock shape_stores_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock shape_stores_mutex) f

let shape_store (t : t) =
  let p = t.lowered.Lower.program in
  with_shape_stores (fun () ->
      match Program_table.find_opt shape_stores p with
      | Some s -> s
      | None ->
          let s = Gpusim.Chip.create_store shape_counters in
          Program_table.add shape_stores p s;
          s)

type shape_store_stats = {
  stores : int;
  shapes_stored : int;
  order_bytes_stored : int;
  runs_served : int;
}

let shape_store_stats () =
  let stores =
    with_shape_stores (fun () ->
        Program_table.clean shape_stores;
        Program_table.length shape_stores)
  in
  let c = shape_counters in
  {
    stores;
    shapes_stored = Atomic.get c.Gpusim.Chip.shapes_stored;
    order_bytes_stored = Atomic.get c.Gpusim.Chip.order_bytes_stored;
    runs_served = Atomic.get c.Gpusim.Chip.runs_served;
  }

let memo_clear () =
  Mutex.lock memo_mutex;
  Hashtbl.reset memo;
  Mutex.unlock memo_mutex;
  with_inputs_memo (fun () -> inputs_memo := []);
  with_shape_stores (fun () -> Program_table.reset shape_stores)

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
  Format.pp_open_vbox ppf 0;
  (match stage with
  | Ir_dfg -> Dfg.pp_dump ppf t.dfg
  | Ir_mapping -> Mapping.pp_dump t.dfg ppf t.mapping
  | Ir_schedule -> Schedule.pp_dump t.dfg ppf t.schedule
  | Ir_lower ->
      let p = t.lowered.Lower.program in
      Format.fprintf ppf "== prologue ==@,%a== body ==@,%a"
        Gpusim.Isa.pp_block p.Gpusim.Isa.prologue
        Gpusim.Isa.pp_block p.Gpusim.Isa.body);
  Format.pp_close_box ppf ();
  Format.pp_print_newline ppf ()

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
    (Result.map_error (fun (pass, p) -> Diagnostics.of_problems ~pass p) t.safety);
  let ctas =
    match ctas with Some c -> c | None -> default_ctas t ~total_points
  in
  let launch =
    {
      Gpusim.Chip.program = t.lowered.Lower.program;
      total_points;
      ctas;
    }
  in
  (* [Chip.run] fills the memory its main round's order is replayed
     into, whose outputs are checked: one call, for [simulated_points]. *)
  let inputs = ref None in
  let fill mem n =
    let e = launch_inputs t.mech ~seed ~t_range ~points:n in
    inputs := Some e;
    Kernel_abi.fill_inputs t.mech e.i_grid t.kernel t.lowered.Lower.program
      mem n
  in
  let machine =
    Gpusim.Chip.run ~fill_inputs:fill ~faults ?max_cycles ?profile ?n_sms
      ?skew ~store:(shape_store t) t.options.arch launch
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
