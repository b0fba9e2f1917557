(** Cycle-level simulation of one streaming multiprocessor.

    Executes the per-warp traces of every resident CTA under a
    greedy-then-oldest multi-warp scheduler with:
    {ul
    {- a register scoreboard (per-register availability cycles);}
    {- throughput-limited pipes: double-precision (0.5 or 2 warp
       instructions per cycle), ALU/branch/shuffle, load-store, shared
       memory with bank-conflict serialization;}
    {- bandwidth-limited memory paths (texture, global, local/spill), each
       a drain-rate queue plus latency;}
    {- the instruction cache and constant cache of {!Caches};}
    {- 16 named barriers per CTA with arrive/sync semantics and exact
       deadlock detection (a cycle in which every live warp waits on a
       barrier raises {!Simulation_fault}).}}

    The simulation computes timing only: no float value reaches control
    flow, an address, a pipe, a cache or a barrier, so {!run} computes,
    loads and stores none. It executes only the integer effects
    ([Ld_param], [Ishfl]), which feed shared addresses and field
    selectors, and returns the order in which it issued. Every value
    effect happens at issue and the scoreboard prevents premature reads,
    so a launch's memory is a function of that order alone: {!replay}
    recomputes it without the timing model.

    {b Fault containment.} The scheduler never loops forever: a barrier
    deadlock, a no-progress livelock, or an exhausted [max_cycles] budget
    each abort the run with a structured {!Simulation_fault} carrying the
    per-warp positions and the nonzero barrier counters at the moment of
    the fault. *)

type fault_kind =
  | Barrier_deadlock
      (** every live warp waits on a barrier and no stall event is
          pending — the exact-deadlock criterion *)
  | No_progress
      (** the issue loop visited 1M consecutive cycles without issuing a
          single instruction (a livelock that is not a barrier wait) *)
  | Cycle_budget  (** the [max_cycles] watchdog budget ran out *)

type warp_dump = {
  d_cta : int;
  d_wid : int;
  d_state : string;  (** ["ready"], ["stalled"], ["waiting barN"], ... *)
  d_phase : string;  (** ["prologue"], ["body"] or ["done"] *)
  d_pos : int;  (** position in the current phase's trace *)
  d_len : int;  (** length of that trace *)
  d_batch : int;
  d_stall_until : int;
}

type barrier_dump = {
  b_cta : int;
  b_bar : int;  (** named barrier id, or [-1] for the CTA-wide barrier *)
  b_arrived : int;
  b_waiters : int;
}

type fault_report = {
  fault_kind : fault_kind;
  fault_cycle : int;
  detail : string;
  warp_dumps : warp_dump list;  (** one per resident warp *)
  barrier_dumps : barrier_dump list;  (** barriers with nonzero state *)
}

exception Simulation_fault of fault_report
(** Raised by {!run} instead of looping forever; see {!fault_kind}. *)

val fault_kind_name : fault_kind -> string

val pp_fault : Format.formatter -> fault_report -> unit
(** Multi-line rendering: the fault line followed by one line per warp
    and one per barrier with pending state. *)

type counters = {
  mutable issued : int;
  mutable branch_instrs : int;
  mutable flops : int;  (** per-lane FLOPs, SASS-style counting *)
  mutable dp_warp_instrs : int;
  mutable tex_bytes : int;
  mutable global_bytes : int;
  mutable local_bytes : int;  (** spill traffic *)
  mutable shared_accesses : int;
  mutable bank_conflict_slots : int;
  mutable barrier_stalls : int;  (** warp-cycles blocked on named barriers *)
  mutable cta_barrier_stalls : int;
  mutable icache_stall_cycles : int;
      (** fill latency counted once per initiated i-cache fill (equals
          {!Caches.Icache.stats.fill_stall_cycles}); warps joining an
          in-flight fill do not re-count it — per-warp wait time is in
          {!Profile} buckets *)
  mutable ccache_stall_cycles : int;  (** likewise, for the constant cache *)
}

type profile_spec = {
  timeline_capacity : int;
      (** ring-buffer capacity (in spans) for the Chrome-trace timeline;
          0 keeps buckets and barrier histograms but records no spans *)
}

val default_profile : profile_spec
(** [{ timeline_capacity = 65536 }] *)

type result = {
  cycles : int;
  counters : counters;
  icache : Caches.Icache.stats;
  ccache : Caches.Ccache.stats;
  profile : Profile.t option;  (** present iff {!run} was given [?profile] *)
}

type job = {
  arch : Arch.t;
  program : Isa.program;
  resident_ctas : int;
  batches : int;  (** point batches per CTA *)
  cta_point_base : int array;  (** first grid point of each resident CTA *)
}
(** One SM round. It carries neither code nor memory: {!run} takes the
    flattened trace it simulates, and {!replay} takes that trace and the
    memory the round's values go to. *)

type order
(** The order in which a run issued its instructions: one byte per issue,
    holding the issuing warp's index. *)

val run :
  ?max_cycles:int -> ?profile:profile_spec -> job -> Trace.t -> result * order
(** [run job trace] simulates [trace] on the job's resident CTAs until
    every warp of every resident CTA retires, and returns the result
    with the run's issue order, one byte per [counters.issued]. Raises [Invalid_argument] when the job has
    more than 256 resident warps.

    [max_cycles] is the watchdog budget: if the simulated clock reaches it
    with warps still live, the run aborts with a {!Simulation_fault} of
    kind {!Cycle_budget} (default: unlimited — deadlocks and livelocks are
    still detected without a budget). Raises [Invalid_argument] when the
    budget is not positive.

    [profile] turns on the per-warp cycle-attribution ledger described in
    {!Profile}: the result's [profile] field then holds buckets that sum
    exactly to [cycles] for every warp, per-barrier wait histograms, and
    (when [timeline_capacity > 0]) a span timeline for Chrome trace
    export. Profiling never perturbs the simulation — cycles, counters
    and the issue order are identical with and without it. Raises
    [Invalid_argument] when [timeline_capacity] is negative. *)

val replay : job -> Trace.t -> Memstate.t -> order -> unit
(** [replay job trace mem order] executes the instructions' value
    semantics, in [order], on [mem], with no scoreboard, pipe, cache or
    barrier. It reads the trace's id streams and each entry's
    instruction only. The float register files are its own. Given the
    job {!run} ran and the trace it ran, it leaves [mem] holding the
    kernel's stores: the launch's memory. Raises [Invalid_argument] when
    the order does not fit the job. *)
