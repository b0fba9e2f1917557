(** Automatic partition search: derive the producer/consumer warp split
    instead of hardcoding it (ROADMAP item 2, DESIGN §16).

    Candidates are structure-derived partitions ({!Mapping.auto_spec} —
    fan-out hubs and loads pinned as producers, arithmetic chains gluing
    onto consumer warps by locality) crossed with pipeline depths (the
    transport ring's slot count). The search runs in three phases:

    {ol
    {- {b score}: {!Autotune.rank} compiles every candidate through the
       shared memo and orders it by {!Perf_model.predict}'s cycles —
       static, cheap, no simulation;}
    {- {b gate}: the model's top picks pass {!Mapping.validate} and
       {!Deadlock_check.check}. The memoized compile path runs with
       validation off, so this gate is what keeps an unsound searched
       partition away from the simulator — failures surface as
       [partition-rejected] diagnostics;}
    {- {b confirm}: {!Autotune.confirm} simulates the hand mapping and
       then the survivors in model order, each once (hand first, so ties
       keep the paper's partition) — the returned winner is never worse
       than the hand mapping, whose cycles are read from its own entry.}}

    Without simulation the answer is the model's: the first survivor
    when its predicted cycles beat the hand mapping's, else the hand. *)

type rejection = {
  rej_options : Compile.options;  (** the rejected candidate *)
  rej_diag : Diagnostics.t;
      (** pass ["partition-search"], message prefixed [partition-rejected] *)
}

type outcome = {
  base : Compile.options;  (** the hand baseline the search ran against *)
  winner : Compile.options;  (** best options found (never worse than hand) *)
  winner_spec : Mapping.auto_spec option;
      (** [None] when the hand partition won *)
  hand_cycles : float;  (** the hand mapping's cycles at the search size *)
  winner_cycles : float;  (** the winner's cycles ([<= hand_cycles]) *)
  searched : int;  (** candidates proposed and model-scored *)
  gated : int;  (** candidates that reached the safety gate *)
  rejections : rejection list;
      (** compile and gate rejections, in candidate order (deterministic
          under any [jobs]) *)
  simulated : int;  (** grid entries simulation confirmed (incl. hand) *)
  confirmed : bool;
      (** [true]: cycles are simulated; [false]: analytic model only *)
}

val default_top_k : int
(** How many model-ranked candidates reach the gate/simulation phases by
    default (5). *)

val propose : ?max_candidates:int -> Dfg.t -> n_warps:int -> Mapping.auto_spec list
(** The structure-derived candidate specs for a graph: producer-warp
    counts (1, n/4, n/2), hub thresholds (3 and the graph's own
    90th-percentile fan-out), chain weights, and all three shared-memory
    strategies — deterministic, truncated to [max_candidates] (48). *)

val candidate_options : Compile.options -> Dfg.t -> Compile.options list
(** {!propose} crossed with pipeline depths, as full option records (the
    exact population {!search} scores, in evaluation order). *)

val gate : Compile.t -> (unit, Diagnostics.t) result
(** The phase-2 safety gate: {!Mapping.validate} then
    {!Deadlock_check.check} on a compiled candidate. *)

val gate_schedule : Schedule.t -> (unit, Diagnostics.t) result
(** The deadlock half of {!gate} alone — what the seeded mutation tests
    drive against {!Deadlock_check.mutants}. *)

val search :
  ?points:int ->
  ?jobs:int ->
  ?top_k:int ->
  ?max_cycles:int ->
  ?simulate:bool ->
  ?n_sms:int ->
  ?skew:float ->
  Chem.Mechanism.t ->
  Kernel_abi.kernel ->
  Compile.version ->
  base:Compile.options ->
  unit ->
  (outcome, Diagnostics.t) result
(** Run the three-phase search against [base] (its [partition] field is
    forced to hand for the baseline comparison; all other fields — warps,
    architecture, occupancy target — frame the search space). [top_k]
    (default {!default_top_k}) model picks reach the gate. With
    [simulate] (default) the hand mapping and the gate's survivors are
    confirmed through {!Autotune.confirm} under the watchdog
    [max_cycles]; [simulate:false] stops at the analytic ranking (the
    cheap mode {!resolve_target} uses) and reports model cycles with
    [confirmed = false].

    Deterministic under any [jobs]: candidates are folded in index order
    and every tie-break is pinned. The [Baseline] version has nothing to
    partition and returns a hand-only outcome. A failure of the hand
    mapping itself — its compile, or, when simulating, its run (a
    fault, or wrong results) — is returned as a diagnostic. *)

val resolve_target :
  ?points:int -> Target.resolved -> (Compile.options, Diagnostics.t) result
(** The options the CLI and serve compile for a target: with [points]
    the launch is first checked at that many points; then
    [r.options] for a hand partition, or the model-only {!search}'s
    winner for auto. *)

val pp_candidate : Format.formatter -> Compile.options -> unit
(** A candidate's label, [<spec> (slots N)] ([hand] for the hand
    partition): {!candidate_options} crosses each spec with several
    pipeline depths, so the spec alone does not name a candidate. *)

val pp_outcome : Format.formatter -> outcome -> unit
