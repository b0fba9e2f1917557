(** Warp-specialization-aware analytic cycle predictor.

    Extends the static per-resource ceilings ({!bounds}) with the two
    effects a roofline cannot see but warp specialization lives or dies by:
    named-barrier synchronization (a per-warp critical path over the
    schedule's produce/consume epochs, walked on the lowered per-warp
    instruction streams with {!Gpusim.Arch} latencies and issue widths) and
    instruction-cache pressure (the Fig. 9 cliff). The prediction is fully
    static — no simulation — so {!Autotune.tune} can score an entire
    candidate grid in the time one simulation takes and only simulate the
    model's top candidates ([--tune-mode pruned]).

    The model (DESIGN §12 derives it):

    - {b throughput term}: per-CTA-batch resource demand (DP slots with
      constant-operand penalties, issue slots, integer/branch and LSU
      slots, shared-pipe slots, bytes per memory path, charged as the
      simulator's issue path charges them and aggregated from the
      per-warp traces) divided by the pipe rates; with [R] resident CTAs
      sharing the pipes, a batch step costs [R * max_r demand_r / rate_r].
      The same terms give {!bounds}.
    - {b synchronization term}: abstract rendezvous execution of the
      per-warp streams — each warp accumulates segment costs
      ([max(1-IPC issue floor, pipe-serial time, exposed dependence
      latency)]) and named/CTA barriers propagate the maximum arrival time
      to their waiters; the steady-state per-batch critical path comes from
      differencing a multi-batch walk, so cross-batch pipelining through
      the barrier ring is captured.
    - {b i-cache term}: when the body's united line footprint exceeds the
      cache, every line is refetched each batch — at the prefetch catch-up
      cost while few long divergent paths exist, at the full miss latency
      beyond {!Gpusim.Caches.Icache.max_streams} of them.

    Per-batch predicted cycles are [max(sync, R * throughput) + icache];
    the prologue is walked separately (cold constant loads, cold code).

    What depends on the program alone (the constant-cache thrash verdict,
    cold code and constant lines, the body's united footprint, memory-path
    users, the long-path count) is a compile output, {!Compile.t}'s
    [facts] field ({!Model_facts}), computed once per compile, and so is
    the per-warp scoreboard walk at the program's own occupancy, which
    every launch of at least that many CTAs runs resident. A prediction
    reads both and does only the launch-dependent work: the rendezvous
    walks, the demand terms and {!Gpusim.Chip.schedule}. A launch with
    fewer CTAs than the occupancy walks the program at its own resident
    count. And that work is done once per memoized artifact and launch:
    {!predict} answers a repeat from the artifact's launch state. *)

type prediction = Model_facts.prediction = {
  occ : Gpusim.Chip.occupancy;
  resident : int;  (** CTAs actually resident: [min occ ctas] *)
  batches : int;  (** full batches per CTA at this launch *)
  sim_batches : int;  (** batches the simulator would run (≤ 6) *)
  prologue_cycles : float;
  batch_cycles : float;  (** steady-state SM cycles per batch step *)
  throughput_cycles : float;
      (** resource side of [batch_cycles]: [resident * max_r demand/rate] *)
  sync_cycles : float;  (** critical-path side of [batch_cycles] *)
  icache_cycles : float;  (** per-batch code-refetch cycles *)
  binding : string;
      (** what binds the batch: a resource name, or ["synchronization"] *)
  cycles : float;
      (** predicted SM cycles for the simulated round — directly comparable
          to [Chip.result.sm_cycles] *)
  floor_cycles : float;
      (** provable throughput-only lower bound on the simulated round (the
          simulator never beats it: body demand over pipe rates, no
          latency, no prologue) *)
  chip : Gpusim.Chip.schedule;
      (** the {!Gpusim.Chip.schedule} dispatcher/arbiter outcome on
          model-derived round costs — the bandwidth-contention term of
          the end-to-end prediction *)
  time_s : float;
      (** predicted end-to-end time (the chip schedule's makespan, same
          semantics as [Chip.run]) *)
  points_per_sec : float;  (** predicted end-to-end throughput *)
}

val predict :
  ?ctas:int -> ?n_sms:int -> ?skew:float -> Compile.t ->
  total_points:int -> prediction
(** Predict the launch {!Compile.run} would simulate for the same
    [?ctas]/[~total_points] (default grid from {!Compile.default_ctas}).
    [n_sms]/[skew] mirror {!Compile.run}'s chip overrides: the
    end-to-end terms feed the same deterministic {!Gpusim.Chip.schedule}
    the simulator uses, with analytically derived round costs and DRAM
    traffic. Pure static analysis of the compiled artifact; safe to call
    from several domains at once.

    The answer for an artifact at one launch, resolved to its CTAs,
    points, SM count and the bits of its skew, is computed once and kept
    in the artifact's launch state ({!Compile.launch_prediction}); a
    repeat is a lookup and a copy of [chip.sms], bit-identical to a fresh
    prediction. Only the compile memo gives an artifact a launch state,
    when it inserts it; a [{ c with ... }] copy shares [c]'s. A one-shot
    compile has none: it is predicted afresh every time and stores
    nothing. Raises what the model raises (a launch
    {!Compile.default_ctas} rejects, a program no CTA of which fits); a
    failed prediction stores nothing. *)

val bounds : Compile.t -> (string * float) list
(** The program's static throughput ceilings, points/s, tightest first:
    for each resource with nonzero demand,
    [points_per_batch / term * clock * SMs], where [term] is the SM
    cycles one batch of every warp of one CTA needs on that resource
    alone, read from the demand the compile stored
    ([facts.own_walk.body_demand]). These are the terms that set
    [floor_cycles] and a throughput-bound [binding], so when
    {!predict}'s batch is throughput-bound its [binding] names the head.
    Resident CTAs share the pipes, so the ceilings do not depend on
    occupancy. Empty for a program no CTA of which fits (its facts hold
    no walk). *)

val rel_err : predicted:float -> measured:float -> float
(** [|predicted - measured| / measured] — the accuracy figure `singe
    predict`, {!Experiments}' model-accuracy rows and the tests report. *)
