(** Static program analysis: instruction mix, code footprint, and per-warp
    breakdowns of a lowered {!Isa.program}.

    Everything here is static (no simulation): counts are per executed-path
    occurrence in the block tree, with [Switch_warp] and [If_warps] arms
    attributed to the warps that execute them. Used by the [singe_cli
    stats] command, the roofline report, and the instruction-mix tests. *)

type mix = {
  dp_arith : int;  (** Add/Sub/Mul/Fma/Neg/Max/Min *)
  dp_special : int;  (** Div/Sqrt/Exp/Log (multi-slot) *)
  global_mem : int;  (** global loads + stores *)
  shared_mem : int;  (** shared loads + stores *)
  local_mem : int;  (** spill stores + reloads *)
  const_loads : int;  (** prologue bank/param loads *)
  shuffles : int;
  barriers : int;  (** named arrive/sync + CTA barriers *)
  moves : int;
  total : int;
}

val mix_of_block : Isa.block -> mix
(** Whole-tree static mix (every instruction once, regardless of mask). *)

val shared_bytes_of_program : Isa.program -> int
(** Shared-traffic bytes per body pass, summed across the warps that
    execute each instruction (mask-aware): 8 bytes per active lane for
    lane-striped loads/stores, 8 for a uniform broadcast, and the same
    accounting for [Sshared] operands embedded in arithmetic/moves/stores
    (the collector-less shared-pipe traffic the exchange synthesizer
    removes). *)

type per_warp = {
  warp : int;
  instrs : int;  (** instructions this warp executes per body pass *)
  flops : int;  (** per-lane FLOPs this warp contributes *)
  code_bytes : int;  (** static footprint of the blocks it fetches *)
}

val per_warp_of_program : Arch.t -> Isa.program -> per_warp array
(** Per-warp execution and fetch footprint. A warp {e fetches} every block
    it reaches, including [If_warps] bodies it skips (the branch itself);
    the [instrs]/[flops] columns count only what it executes. *)

type t = {
  mix : mix;
  body_bytes : int;  (** static code bytes of the body *)
  prologue_bytes : int;
  flops_per_point : float;  (** per grid point, SASS-style counting *)
  shared_bytes : int;  (** shared-traffic bytes per body pass (all warps) *)
  warps : per_warp array;
  imbalance : float;  (** max/min executed instructions across warps *)
}

val of_program : Arch.t -> Isa.program -> t

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report. *)
