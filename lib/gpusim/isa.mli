(** The virtual warp-level ISA that Singe lowers kernels to.

    Programs are executed both {e functionally} (IEEE doubles, exact) and
    under the cycle-level timing model of {!Sm}. All control flow is
    structured and static: warp-ID branches ({!If_warps}, {!Switch_warp})
    and the per-CTA streaming batch loop; there are no data-dependent
    branches (combustion kernels have none — [max] handles the clamps).

    A thread's double-precision registers are modelled as an array of
    64-bit values; each consumes two 32-bit hardware registers when
    computing occupancy. Integer registers hold warp-indexing constants
    (§5.3).

    Memory spaces:
    {ul
    {- {e global}: named field groups in structure-of-arrays layout,
       addressed by the lane's current grid point;}
    {- {e shared}: per-CTA scratch addressed in doubles;}
    {- {e local}: per-thread spill slots, backed by DRAM through the slow
       local path;}
    {- {e constant}: read-only slots reached through the 8 KB constant
       cache;}
    {- {e const bank / param bank}: the per-(warp, lane) striped constant
       and index arrays of §5.2/5.3, materialized by the compiler and
       loaded into registers by prologue code.}} *)

type fop =
  | Add
  | Sub
  | Mul
  | Fma  (** dst = s0 * s1 + s2 *)
  | Div
  | Sqrt
  | Exp
  | Log
  | Max
  | Min
  | Neg

val fop_flops : fop -> int
(** FLOPs counted per lane (Exp/Log count their polynomial-expansion DFMAs,
    matching how SASS-level FLOP counting sees them: 24). *)

val fop_dp_slots : fop -> float
(** DP-pipe occupancy in equivalent DFMA issue slots (Exp = 17: 12-14
    polynomial DFMAs plus range reduction). *)

val fop_lat_mult : fop -> int
(** Result-latency multiplier over [Arch.arith_latency] (Div/Sqrt 3,
    Exp/Log 5) — the same figure the simulator's trace metadata carries. *)

type pred =
  | Lane_eq of int
  | Lane_lt of int
      (** Lane predicates (within-warp masking, e.g. Listing 2's
          [if (lane_id == 3)]). *)

type saddr = {
  s_base : int;
  s_warp_mul : int;  (** coefficient on the warp id *)
  s_lane_mul : int;  (** coefficient on the lane id *)
  s_ireg : int option;  (** optional integer register *)
  s_ireg_mul : int;
}
(** Shared-memory address in doubles:
    [base + warp_mul*warp + lane_mul*lane + ireg_mul*iregs.(ireg)]. *)

val sh : int -> saddr
(** Uniform address (broadcast read / single write). *)

val sh_lane : ?mul:int -> int -> saddr
(** [base + mul*lane] (default stride 1). *)

val sh_ireg : ?lane_mul:int -> base:int -> ireg:int -> mul:int -> unit -> saddr

type src =
  | Sreg of int  (** double register *)
  | Simm of float
  | Sconst of int  (** constant-memory slot, through the constant cache *)
  | Sconst_warp of int
      (** constant memory at [base + warp_id]: dynamic constant addressing
          holding per-warp values (the overflow home for constants beyond
          the register banks) *)
  | Sshared of saddr  (** shared-memory operand *)

type field_sel =
  | F_static of int
  | F_ireg of int  (** field chosen by an integer register: warp indexing *)

type instr =
  | Arith of { op : fop; dst : int; srcs : src array; pred : pred option }
  | Mov of { dst : int; src : src; pred : pred option }
  | Ld_global of {
      dst : int;
      group : int;
      field : field_sel;
      via_tex : bool;
      pred : pred option;
    }  (** loads the lane's current point of the selected field *)
  | St_global of {
      src : src;
      group : int;
      field : field_sel;
      pred : pred option;
    }
  | Ld_shared of { dst : int; addr : saddr; pred : pred option }
  | St_shared of { src : src; addr : saddr; pred : pred option }
  | Ld_local of { dst : int; slot : int }  (** register spill reload *)
  | St_local of { src : int; slot : int }  (** register spill *)
  | Ld_const_bank of { dst : int; slot : int }
      (** prologue load of a striped constant: dst.(lane) =
          const_bank.(warp).(lane).(slot) *)
  | Ld_param of { dst_i : int; slot : int }
      (** prologue load of a striped warp-index constant *)
  | Shfl of { dst : int; src : int; lane : int }
      (** double broadcast from a lane (two 32-bit shuffles on Kepler,
          Listing 3) *)
  | Ishfl of { dst_i : int; src_i : int; lane : int }
  | Shfl_rot of { dst : int; src : int; delta : int }
      (** lane rotation: lane [l] receives [src] from lane
          [(l + delta) mod 32] — PTX [shfl.idx] with wraparound, the
          synthesized-exchange workhorse (two 32-bit shuffles per double) *)
  | Shfl_bfly of { dst : int; src : int; xor_mask : int }
      (** butterfly exchange: lane [l] receives [src] from lane
          [l lxor xor_mask] — PTX [shfl.bfly] *)
  | Bar_arrive of { bar : int; count : int }
      (** non-blocking named-barrier arrival *)
  | Bar_sync of { bar : int; count : int }  (** blocking named-barrier wait *)
  | Bar_cta  (** classic CTA-wide __syncthreads *)

type block =
  | Instrs of instr list
  | Seq of block list
  | If_warps of { mask : int; body : block }
      (** §5.1 bit-mask warp filter: warps whose bit is set execute the
          body; the others skip (but fetch the branch) *)
  | Switch_warp of block array
      (** §5.1 indirect branch on warp id; length = warps per CTA *)

type point_map =
  | Coop  (** all warps of a CTA cooperate on the same 32 points per batch *)
  | Thread_per_point  (** data-parallel: lane of warp w owns point w*32+lane *)

type group_info = { group_name : string; fields : int }

type program = {
  name : string;
  n_warps : int;
  n_fregs : int;  (** allocated double registers per thread *)
  n_iregs : int;
  shared_doubles : int;
  local_doubles : int;  (** per-thread spill slots *)
  barriers_used : int;
  point_map : point_map;
  prologue : block;  (** once per CTA (constant / index loading) *)
  body : block;  (** once per point batch *)
  const_bank : float array array array;  (** warp -> lane -> slot *)
  param_bank : int array array array;
  const_mem : float array;
  groups : group_info array;
  exp_consts_in_registers : bool;
      (** ablation of §6.1: feed Exp's polynomial from registers instead of
          the constant cache *)
}

val points_per_batch : program -> int
(** Grid points one CTA covers per body pass: 32 for [Coop],
    [n_warps * 32] for [Thread_per_point]. *)

val iter_instrs : block -> (instr -> unit) -> unit

val static_instr_count : block -> int
(** The instructions {!iter_instrs} visits, counted per [Instrs] list. *)

val static_bytes : Arch.t -> instr -> int
(** Code footprint: multi-slot ops (Exp, Div...) occupy their expanded
    sequence length. *)

val regs32_per_thread : program -> int
(** 32-bit registers per thread for occupancy: two per double register, one
    per integer register, plus a fixed overhead for pointers/indices. *)

val validate : program -> (unit, string list) result
(** Static checks: register/shared/local/barrier indices in range, predicate
    and shuffle lanes (and rotation deltas / butterfly masks) within
    [\[0, 32)], Switch_warp arity, bank dimensions. Per-instruction
    problems are positioned ("body[17]: shfl: lane 33 outside [0, 32)"). *)
