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

    Instructions are executed functionally at issue; the scoreboard
    prevents premature reads, so results equal a sequential execution.
    A job without memory is timing-only: it computes, loads and stores no
    float value, and its result is identical to the run with memory.
    Since every value effect happens at issue, a run's memory is a
    function of its issue order alone: {!record} returns that order, and
    {!replay} recomputes the memory from it without the timing model.

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
  trace : Trace.t;
  mem : Memstate.t option;
      (** [None] runs timing-only: integer registers (parameter loads,
          [Ishfl]) still execute, since they feed shared addresses and
          field selectors *)
  resident_ctas : int;
  batches : int;  (** point batches per CTA *)
  cta_point_base : int array;  (** first grid point of each resident CTA *)
}

val run : ?max_cycles:int -> ?profile:profile_spec -> job -> result
(** Simulates until every warp of every resident CTA retires; [job.mem],
    when present, is mutated with the kernel's stores. Cycles, counters,
    cache stats, the profile and any {!Simulation_fault} are the same
    with [job.mem = None]: no float value reaches control flow, an
    address, a pipe, a cache or a barrier.

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
    and memory effects are identical with and without it. Raises
    [Invalid_argument] when [timeline_capacity] is negative. *)

type order
(** The order in which a run issued its instructions: one byte per issue,
    holding the issuing warp's index. *)

val record : ?max_cycles:int -> job -> result * order
(** [record job] is [run job] (no profiler) together with its issue
    order; [order_bytes] of the order equals [counters.issued]. Raises
    [Invalid_argument] when the job has more than 256 resident warps. *)

val order_bytes : order -> int

val replay : job -> order -> unit
(** [replay job order] runs only the value semantics of the instructions,
    in [order], on [job.mem]: the same function {!run} executes at issue,
    with no scoreboard, pipe, cache or barrier. Given a job equal to the
    one {!record} ran, on memory filled the same way, it leaves the
    memory bit-identical to what that run left. Raises [Invalid_argument]
    when [job.mem] is [None] or the order does not fit the job. *)
