(** Computation and data mapping (§4.1, the second compiler stage).

    Operations are assigned to warps by a greedy algorithm that weighs
    three (often conflicting) metrics — FLOP balance, register balance,
    and locality — with autotunable weights. Values are then placed in
    registers or shared memory according to one of the three shared-memory
    strategies the paper identifies:

    {ul
    {- [Store] (viscosity): every cross-warp value lives in shared memory;}
    {- [Buffer] (chemistry): values stay in the producing warp's registers
       and shared memory is only a communication buffer, except where the
       partitioner explicitly stages a vector there (the mole-fraction /
       concentration scratch of Listing 4);}
    {- [Mixed] (diffusion): widely shared values go to shared memory, the
       rest communicate through the buffer.}} *)

type strategy = Store | Buffer | Mixed

val strategy_name : strategy -> string
(** ["store"], ["buffer"] or ["mixed"]. *)

type weights = {
  w_flops : float;
  w_regs : float;
  w_locality : float;
}

val default_weights : weights

type placement = P_reg | P_shared

type t = {
  n_warps : int;
  op_warp : int array;  (** op id -> warp *)
  value_place : placement array;
  shared_slot : int array;
      (** value id -> slot index in the store region (slot = 32 doubles),
          or -1 *)
  store_slots : int;  (** size of the store region, in 32-double slots *)
  strategy : strategy;
}

val map :
  Dfg.t ->
  n_warps:int ->
  weights:weights ->
  strategy:strategy ->
  respect_hints:bool ->
  t
(** Hints (from domain-specific partitioning) are honored when
    [respect_hints]; remaining operations are placed greedily in order of
    decreasing cost.

    Raises {!Diagnostics.Fail} (pass ["mapping"], positioned at the graph
    name) when [n_warps < 1]. Degenerate graphs — empty, or with fewer
    operations than warps — yield a valid trivial mapping with the surplus
    warps left empty. *)

type auto_spec = {
  producer_warps : int;
      (** warps the structural producer side (loads, fan-out hubs) is
          pinned to, round-robin *)
  hub_threshold : int;
      (** fan-out (consumer count) at which a computed value's producer
          counts as a hub and joins the producer side *)
  chain_weight : float;
      (** multiplier on {!weights}' locality term: higher values glue long
          single-consumer arithmetic chains onto one consumer warp *)
  auto_strategy : strategy;  (** shared-memory strategy for the candidate *)
}
(** A structure-derived partition candidate, proposed by
    {!Partition_search} instead of the paper's domain knowledge. *)

val pp_auto_spec : Format.formatter -> auto_spec -> unit

val map_auto : Dfg.t -> n_warps:int -> weights:weights -> spec:auto_spec -> t
(** Like {!map}, but the warp assignment is seeded from graph structure
    (per [spec]) rather than from the partitioner's domain hints: loads
    and hubs become producers, chains follow locality onto consumer warps.
    Raises {!Diagnostics.Fail} like {!map} on degenerate warp counts. *)

val warp_flops : Dfg.t -> t -> int array
(** Per-warp FLOP totals (balance diagnostics). *)

val warp_values : Dfg.t -> t -> int array
(** Values produced (and so registers demanded) per warp. *)

val cross_warp_edges : Dfg.t -> t -> int
(** Dataflow edges whose producer and consumer warps differ (the locality
    metric). *)

val store_addr : t -> int -> int
(** Shared-memory base address (in doubles) of a [P_shared] value: its slot
    times 32. *)

type exchange = {
  ex_value : int;  (** value id *)
  ex_slot : int;  (** store-region slot *)
  ex_producer_warp : int;
  ex_consumer_warps : int list;  (** sorted, unique *)
  ex_same_warp_reads : int;
      (** consuming ops mapped to the producing warp — each is a shared
          round-trip the exchange synthesizer can forward in registers *)
  ex_pattern : int array;
      (** lane-communication pattern: [ex_pattern.(l)] is the producer
          lane whose value consumer lane [l] reads. The §5 lane-aligned
          striping makes this the identity for every store-region
          exchange. *)
}

val exchanges : Dfg.t -> t -> exchange list
(** One record per [P_shared] value — the per-exchange communication
    structure {!Lower}'s [--synth-exchange] pass and the exchange-ablation
    figure consume. *)

val validate :
  ?max_imbalance:float -> Dfg.t -> t -> (unit, string list) result
(** Inter-pass invariants of a computed mapping:
    {ul
    {- every operation is mapped to a warp in [\[0, n_warps)];}
    {- placements and store slots are consistent ([P_shared] iff a slot is
       assigned, slots within [store_slots]);}
    {- two values sharing a recycled store slot live in disjoint fence
       segments (the CTA barrier between them orders the reuse);}
    {- FLOP and register-demand budgets: no warp carries more than
       [max_imbalance] (default 8) times the mean per-warp load, with slack
       of one largest operation — the greedy mapper with any positive
       {!weights} never concentrates work beyond this.}} *)

val pp_dump : Dfg.t -> Format.formatter -> t -> unit
(** Per-warp operation assignment, FLOP/register balance, and shared-memory
    placements — the [--dump-ir mapping] output. *)
