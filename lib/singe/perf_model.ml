module A = Gpusim.Arch
module I = Gpusim.Isa
module C = Gpusim.Chip
module F = Model_facts

(* Calibration constants. Structure comes from the machine model (pipe
   rates, latencies, cache geometry); six scalars absorb what a static
   walk cannot know — how much dependence latency the lowered code's ILP
   and the warp scheduler actually hide. Calibrated once against the
   simulator on the shipped kernels (DESIGN §12 records the measured
   accuracy); they are not per-kernel knobs. The four below shape a
   prediction from the walk; the two the scoreboard walk itself reads,
   [ccache_exposure] (the per-access stall once the constant cache
   thrashes) and [cross_cta_overlap] (how much co-resident CTAs' traffic
   collides on a memory path), live in model_facts.ml next to the walk.
   A recalibration after a simulator change edits them where they live;
   editing either of the two moves every compile's stored walk. *)

(* Cold-start fills, paid once per CTA on its first batch: every warp
   marches through the same line sequence together, so each stalls for
   roughly every fill it touches (followers wait on in-flight lines). *)
let ccache_cold = 0.5
let icache_cold = 1.0

(* How much of the smaller of the throughput/critical-path terms still
   shows when the other binds: pipes drain while warps sit at barriers,
   so a latency-bound batch hides most (not all) of its pipe work; a
   throughput-bound batch hides none of its per-warp stalls (all warps
   stall together between their turns at the saturated pipe). *)
let sync_overlap = 0.3

(* Fraction of code-refetch fill time that lands on the critical path
   (fills overlap with other warps' execution). *)
let icache_exposure = 0.5

type prediction = F.prediction = {
  occ : C.occupancy;
  resident : int;
  batches : int;
  sim_batches : int;
  prologue_cycles : float;
  batch_cycles : float;
  throughput_cycles : float;
  sync_cycles : float;
  icache_cycles : float;
  binding : string;
  cycles : float;
  floor_cycles : float;
  chip : C.schedule;
  time_s : float;
  points_per_sec : float;
}

(* [Float.max], bit for bit. A strict comparison settles distinct
   non-NaN operands as the stdlib does; only ties (where the sign of zero
   decides) and NaNs reach the stdlib's out-of-line sign-bit tests. Local
   and [@inline]: a dev build compiles with [-opaque], so a helper in
   another module is called boxed, not inlined. *)
let[@inline] float_max (x : float) (y : float) =
  if x > y then x else if y > x then y else Float.max x y

(* Abstract rendezvous execution over [reps] back-to-back repetitions of
   every warp's stream: every warp accumulates its segment costs; named
   and CTA barriers propagate the latest arrival time to their waiters
   (the simulator's barrier semantics, without cycles). Warps left
   blocked at the end (their producer's arrival lies beyond the walked
   batches) simply keep their arrival time. Returns the latest per-warp
   finish time. *)
let rendezvous ?(reps = 1) n_warps (streams : F.item array array) =
  let t = Array.make n_warps 0.0 in
  let pos = Array.make n_warps 0 in
  let blocked = Array.make n_warps false in
  let nbars = 17 in
  let bar_arrived = Array.make nbars 0 in
  let bar_time = Array.make nbars 0.0 in
  let bar_waiters = Array.make nbars [] in
  let cta_arrived = ref 0 in
  let cta_time = ref 0.0 in
  let cta_waiters = ref [] in
  let release waiters tm =
    List.iter
      (fun ww ->
        t.(ww) <- float_max t.(ww) tm;
        blocked.(ww) <- false)
      waiters
  in
  let progress = ref true in
  while !progress do
    progress := false;
    for w = 0 to n_warps - 1 do
      let stream = streams.(w) in
      let len = Array.length stream in
      while (not blocked.(w)) && pos.(w) < reps * len do
        progress := true;
        (match stream.(pos.(w) mod len) with
        | F.Cost c -> t.(w) <- t.(w) +. c
        | F.Arrive (b, count) ->
            bar_time.(b) <- float_max bar_time.(b) t.(w);
            bar_arrived.(b) <- bar_arrived.(b) + 1;
            if bar_arrived.(b) >= count then begin
              bar_arrived.(b) <- bar_arrived.(b) - count;
              release bar_waiters.(b) bar_time.(b);
              bar_waiters.(b) <- [];
              bar_time.(b) <- 0.0
            end
        | F.Syncb (b, count) ->
            bar_time.(b) <- float_max bar_time.(b) t.(w);
            bar_arrived.(b) <- bar_arrived.(b) + 1;
            if bar_arrived.(b) >= count then begin
              bar_arrived.(b) <- bar_arrived.(b) - count;
              t.(w) <- float_max t.(w) bar_time.(b);
              release bar_waiters.(b) bar_time.(b);
              bar_waiters.(b) <- [];
              bar_time.(b) <- 0.0
            end
            else begin
              blocked.(w) <- true;
              bar_waiters.(b) <- w :: bar_waiters.(b)
            end
        | F.Cta ->
            cta_time := float_max !cta_time t.(w);
            incr cta_arrived;
            if !cta_arrived >= n_warps then begin
              cta_arrived := 0;
              t.(w) <- float_max t.(w) !cta_time;
              release !cta_waiters !cta_time;
              cta_waiters := [];
              cta_time := 0.0
            end
            else begin
              blocked.(w) <- true;
              cta_waiters := w :: !cta_waiters
            end);
        pos.(w) <- pos.(w) + 1
      done
    done
  done;
  Array.fold_left float_max 0.0 t

(* Per-CTA-batch demand over the shared pipes and paths, as SM cycles;
   the largest entry is the throughput floor on a batch. *)
let demand_terms (arch : A.t) (s : F.seg) =
  [
    ("warp-instruction issue", s.F.instrs /. float_of_int arch.A.schedulers);
    ("DP pipe", s.F.dp /. arch.A.dp_issue_per_cycle);
    ("integer/branch pipe", s.F.alu /. arch.A.alu_issue_per_cycle);
    ("LSU issue", s.F.lsu);
    ("shared-memory pipe", s.F.shared /. arch.A.shared_issue_per_cycle);
    ("texture path", s.F.tex_b /. arch.A.tex_bytes_per_cycle);
    ("global-memory path", s.F.glob_b /. arch.A.global_bytes_per_cycle);
    ("local-memory (spill) path", s.F.loc_b /. arch.A.local_bytes_per_cycle);
  ]

let max_term terms =
  List.fold_left
    (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
    ("none", 0.0) terms

(* A program's per-resource throughput ceilings, points/s, from one
   batch of its stored demand: the terms behind [floor_cycles] and a
   throughput-bound [binding]. Sorting the terms largest first keeps ties
   in [demand_terms]' order, so the head is [max_term]'s pick. *)
let bounds (t : Compile.t) =
  match t.Compile.facts.F.own_walk with
  | None -> []
  | Some w ->
      let p = t.Compile.lowered.Lower.program in
      let arch = t.Compile.options.Compile.arch in
      let points = float_of_int (I.points_per_batch p) in
      let clock = arch.A.clock_mhz *. 1e6 in
      let sms = float_of_int arch.A.n_sms in
      demand_terms arch w.F.body_demand
      |> List.filter (fun (_, term) -> term > 0.0)
      |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
      |> List.map (fun (r, term) -> (r, points /. term *. clock *. sms))

(* The model at one resolved launch. *)
let predict_launch (t : Compile.t) ~ctas ~total_points ~n_sms ~skew =
  let p = t.Compile.lowered.Lower.program in
  let arch = t.Compile.options.Compile.arch in
  let launch = { C.program = p; total_points; ctas } in
  let occ = C.occupancy arch p in
  let resident = min occ.C.resident_ctas ctas in
  let batches = C.batches_per_cta launch in
  let sim_batches = min batches 6 in
  let n_warps = p.I.n_warps in
  let f = t.Compile.facts in
  (* The walk at the program's own occupancy is a compile output; a
     launch with fewer CTAs than that walks at its own residency. *)
  let w =
    match f.F.own_walk with
    | Some w when w.F.resident = resident -> w
    | _ -> F.walk arch p f ~resident
  in
  (* Prologue: rendezvous over the prologue streams, plus the cold fill
     of the code both phases touch. *)
  let pro_walk = rendezvous n_warps w.F.prologue in
  let pro_thr =
    float_of_int resident
    *. snd (max_term (demand_terms arch w.F.prologue_demand))
  in
  let lat = float_of_int arch.A.global_latency in
  (* Cold code fetch: on its first pass every warp misses each line of
     its own path. Straight-line code costs only the prefetcher's
     catch-up per line; once the divergent regions outnumber the
     prefetch streams, each line costs a full miss. *)
  let line_bytes = A.icache_line_bytes arch in
  let per_line_cold =
    if f.F.n_long_paths > Gpusim.Caches.Icache.max_streams then
      arch.A.icache_miss_latency
    else Gpusim.Caches.Icache.prefetch_fill
  in
  let cold_fill =
    icache_cold *. float_of_int (f.F.ic_cold_lines * per_line_cold)
  in
  (* Cold constant fills: the first batch misses once per constant line a
     warp touches (when the working set thrashes, the recurring per-access
     term below already charges every batch, the first included). *)
  let cc_cold_lines = if f.F.thrash then 0 else f.F.cc_cold_lines in
  let cold_const = ccache_cold *. float_of_int cc_cold_lines *. lat in
  let prologue_cycles =
    Float.max pro_walk pro_thr +. cold_fill +. cold_const
  in
  (* Body: critical path from walking exactly the simulated batches
     (cold barrier ramp included), steady state from differencing a
     multi-batch walk, and the per-batch demand aggregated over one
     batch of every warp. *)
  let body_streams = w.F.body and agg_body = w.F.body_demand in
  let walk k =
    if k = 0 then 0.0 else rendezvous ~reps:k n_warps body_streams
  in
  let sync_sim = walk sim_batches in
  (* The steady-state per-batch critical path needs two extra multi-batch
     walks; it only matters for the [(batches - sim_batches)]
     extrapolation, so when the launch has no batches beyond the
     simulated ones (the common tuning shape) skip the walks — predict
     stays much cheaper than one simulation, which is the whole point of
     model-guided pruning. *)
  let sync_cycles =
    if batches = sim_batches then
      sync_sim /. float_of_int (max 1 sim_batches)
    else
      let t2 = if sim_batches = 2 then sync_sim else walk 2 in
      let t4 = if sim_batches = 4 then sync_sim else walk 4 in
      Float.max 0.0 ((t4 -. t2) /. 2.0)
  in
  let thr_resource, thr_batch = max_term (demand_terms arch agg_body) in
  let throughput_cycles = float_of_int resident *. thr_batch in
  (* Body-code refetch on later batches, once the united footprint
     overflows the cache. *)
  let body_lines = f.F.body_lines in
  let footprint = body_lines * line_bytes in
  let icache_cycles =
    if footprint <= arch.A.icache_bytes then 0.0
    else icache_exposure *. float_of_int (body_lines * per_line_cold)
  in
  (* Combining the two sides is asymmetric: a throughput-bound batch
     hides none of its per-warp stalls (all warps stall together between
     turns at the saturated pipe), while a latency-bound batch drains
     most of its pipe work during the stalls. *)
  let combine thr sync =
    if thr >= sync then (thr_resource, thr +. sync)
    else ("synchronization", sync +. (sync_overlap *. thr))
  in
  let binding, body_sim =
    combine (float_of_int sim_batches *. throughput_cycles) sync_sim
  in
  let body_sim =
    body_sim +. (float_of_int (sim_batches - 1) *. icache_cycles)
  in
  let _, batch_steady = combine throughput_cycles sync_cycles in
  let batch_cycles = batch_steady +. icache_cycles in
  let cycles = prologue_cycles +. body_sim in
  let floor_cycles =
    float_of_int sim_batches *. float_of_int resident *. thr_batch
  in
  (* End-to-end: mirror Chip.run's extrapolation, then feed the same
     dispatcher/arbiter (Chip.schedule) with model-derived round costs
     instead of simulated ones, so predicted wall time carries the same
     tail-wave and bandwidth-contention semantics as the simulator. *)
  let cycles_full =
    cycles +. (float_of_int (batches - sim_batches) *. batch_cycles)
  in
  (* Round cost for k resident CTAs: the throughput term scales with k
     (k CTAs share the pipes), the critical-path and prologue terms do
     not. k = resident reproduces [cycles_full] exactly. *)
  let cycles_full_of k =
    let thr_b = float_of_int k *. thr_batch in
    let _, b_sim = combine (float_of_int sim_batches *. thr_b) sync_sim in
    let b_sim = b_sim +. (float_of_int (sim_batches - 1) *. icache_cycles) in
    let _, b_steady = combine thr_b sync_cycles in
    prologue_cycles +. b_sim
    +. (float_of_int (batches - sim_batches) *. (b_steady +. icache_cycles))
  in
  let spill_working_set =
    n_sms * resident * n_warps * 32 * p.I.local_doubles * 8
  in
  let spill_in_l2 =
    p.I.local_doubles > 0 && spill_working_set <= arch.A.l2_bytes
  in
  (* [agg_body] holds one batch of every warp in one CTA; spill traffic
     whose aggregate working set fits in L2 never reaches DRAM. *)
  let batch_dram_b =
    agg_body.F.tex_b +. agg_body.F.glob_b
    +. (if spill_in_l2 then 0.0 else agg_body.F.loc_b)
  in
  let round_cycles k =
    if k = resident then cycles_full else cycles_full_of k
  in
  let round_dram_bytes k =
    float_of_int batches *. float_of_int k *. batch_dram_b
  in
  let chip =
    C.schedule ~n_sms ~skew ~resident ~ctas ~round_cycles ~round_dram_bytes
      ~dram_peak_bpc:(A.dram_bytes_per_chip_cycle arch) ~spill_in_l2
  in
  let time_s = chip.C.makespan_cycles /. (arch.A.clock_mhz *. 1e6) in
  let points_per_sec = float_of_int total_points /. time_s in
  {
    occ;
    resident;
    batches;
    sim_batches;
    prologue_cycles;
    batch_cycles;
    throughput_cycles;
    sync_cycles;
    icache_cycles;
    binding;
    cycles;
    floor_cycles;
    chip;
    time_s;
    points_per_sec;
  }

(* A repeated launch of an artifact is answered from its launch state
   (DESIGN §12.6), keyed by the launch resolved here. *)
let predict ?ctas ?n_sms ?skew (t : Compile.t) ~total_points =
  let arch = t.Compile.options.Compile.arch in
  let ctas =
    match ctas with Some c -> c | None -> Compile.default_ctas t ~total_points
  in
  let n_sms = match n_sms with Some n -> n | None -> arch.A.n_sms in
  let skew = match skew with Some s -> s | None -> arch.A.sm_clock_skew in
  Compile.launch_prediction t ~ctas ~total_points ~n_sms ~skew (fun () ->
      predict_launch t ~ctas ~total_points ~n_sms ~skew)

let rel_err ~predicted ~measured =
  if measured = 0.0 then infinity
  else abs_float (predicted -. measured) /. measured
