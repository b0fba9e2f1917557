(** Warp-specialized code generation (§5, the final compiler stage).

    The per-warp schedules form a forest of per-warp instruction streams;
    lowering traverses all of them simultaneously ({e overlaying}, §5.1):
    at each step the warps whose next statements share a structural shape
    are emitted as a single instruction sequence, guarded by a bit-mask
    warp filter when the group is partial. Statement shapes differ only in
    constant values and addresses, which are abstracted by:

    {ul
    {- {e constant arrays} (§5.2): bankable constants become slots in a
       per-(warp, lane) constant bank loaded into registers by prologue
       code and broadcast from the owning lane at each use — shuffles on
       Kepler (Listing 3), a shared-memory mirror on Fermi (Listing 2).
       Constant vectors equal across all warps collapse to immediates, and
       repeated vectors share one slot (deduplication);}
    {- {e warp indexing} (§5.3): per-warp shared-memory bases, buffer
       slots, and global field selectors become integer parameters; when a
       kernel needs many, they are striped across lanes and shuffled at
       use (Listing 4).}}

    Registers are allocated per thread over the overlaid stream with
    Belady's furthest-next-use policy; demand beyond the budget spills to
    local memory (the paper's spill-byte statistics come from here).

    With [overlay = false] the generator instead emits the naive top-level
    warp switch with inline immediate constants — the code Fig. 9 shows
    thrashing the instruction cache. *)

type const_policy =
  | Bank  (** §5.2 constant arrays + lane striping (warp-specialized path) *)
  | Const_mem  (** constant memory through the 8 KB cache (baseline path) *)
  | Immediate  (** constants inline in the instruction stream (naive path) *)

type config = {
  arch : Gpusim.Arch.t;
  overlay : bool;
  const_policy : const_policy;
  exp_consts_in_registers : bool;
  param_stripe_threshold : int;
      (** replicate warp parameters across lanes when at most this many;
          stripe + shuffle beyond (Listing 4) *)
  freg_budget : int;  (** double registers per thread before spilling *)
  synth_exchange : bool;
      (** run the {!Shuffle_synth} exchange rewrite over the overlaid
          stream (DESIGN §14): same-warp shared round-trips become register
          forwards or shuffle swizzle chains, fully-forwarded stores are
          deleted, and untouched store-region slots are compacted out of
          the shared footprint. Applies only to the overlay path whose
          emitted code is not replicated across warps. *)
  list_schedule : bool;
      (** list-schedule each straight-line segment (the ptxas role);
          [false] is the scheduling ablation
          ({!Compile.options.list_schedule}) *)
}

type output = {
  program : Gpusim.Isa.program;
  n_spill_slots : int;
  spill_bytes_per_thread : int;
  n_bank_regs : int;  (** constant registers per thread (Fig. 10) *)
  n_params : int;
  n_logical_consts : int;
  exchange : Shuffle_synth.report;
      (** what the [synth_exchange] rewrite did ({!Shuffle_synth.empty_report}
          when disabled or inapplicable) *)
}

val const_key : float array -> string
(** The dedup key of a per-warp constant vector: two vectors share one
    constant-bank slot iff their keys are equal, which holds iff their
    ["%h"] renderings are equal — bit patterns, except that all NaNs of
    one sign agree ("nan" / "-nan") and [-0.0] differs from [0.0]. *)

val derived_live_slack : freg_budget:int -> Dfg.t -> Mapping.t -> int
(** The exchange rewrite's live-range pressure gate, in stream positions:
    how far a register forward may extend a value's live range past its
    original last use. Derived from the allocator's headroom — the
    per-thread double budget minus the mapping's steady per-warp demand
    (the busiest warp of {!Mapping.warp_values}, spread over the graph's
    fence segments) — so a kernel whose demand saturates the budget
    (spill-bound chemistry) gets zero slack while one with headroom keeps
    a window proportional to it. Replaces the fixed 200-position constant
    the gate shipped with. *)

val lower :
  config ->
  name:string ->
  point_map:Gpusim.Isa.point_map ->
  out_warps:int ->
  groups:Gpusim.Isa.group_info array ->
  Dfg.t ->
  Mapping.t ->
  Schedule.t ->
  output
(** [out_warps] is the warp count of the emitted program; it equals the
    mapping's warp count for warp-specialized kernels and is free for the
    single-"warp" baseline mapping (whose code is warp-independent). *)

val validate_output :
  arch:Gpusim.Arch.t -> ?max_barriers:int -> output -> (unit, string list) result
(** The lower-consistency validation pass: the program passes
    {!Gpusim.Isa.validate}; 32-bit register demand and shared-memory bytes
    fit the architecture's hard per-thread / per-SM caps; named-barrier ids
    stay within [max_barriers]; the constant/parameter bank tables cover
    every warp with full 32-lane stripes; and the spill statistics agree
    with the program's local-memory footprint. *)
