(** Static program analysis: instruction mix, code size and per-warp
    breakdowns of a lowered {!Isa.program}.

    Everything here is static (no simulation) and read off one pass over
    the program's layout, {!Trace.iter}: a warp's counts are over the
    entries whose warp set holds it, so [If_warps] bodies and
    [Switch_warp] arms count for the warps that execute them. Used by
    [singe stats], perfbench's code-size metric ([mix.total]) and the
    tests. *)

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

type per_warp = {
  warp : int;
  instrs : int;  (** instructions this warp executes per body pass *)
  flops : int;  (** per-lane FLOPs this warp contributes *)
  code_lines : int;
      (** i-cache lines of the code it executes, prologue and synthetic
          branches included: the per-warp line set whose maximum is the
          model's cold-fetch line count ([Model_facts.ic_cold_lines]) *)
}

type t = {
  mix : mix;  (** the whole body, every instruction once regardless of mask *)
  body_bytes : int;  (** static code bytes of the body *)
  prologue_bytes : int;
  flops_per_point : float;  (** per grid point, SASS-style counting *)
  shared_bytes : int;
      (** shared-traffic bytes per body pass, summed over the warps that
          execute each instruction: 8 bytes per active lane for
          lane-striped loads/stores, 8 for a uniform broadcast, and the
          same for [Sshared] operands of arithmetic, moves and stores (the
          collector-less shared-pipe traffic the exchange synthesizer
          removes) *)
  warps : per_warp array;
  imbalance : float;  (** max/min executed instructions across warps *)
  line_bytes : int;  (** the architecture's i-cache line size *)
}

val of_program : Arch.t -> Isa.program -> t

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report. *)
