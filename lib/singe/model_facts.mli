(** The program-only half of {!Perf_model.predict}: what the model needs
    of a lowered program independently of any launch, and the per-warp
    scoreboard walk at the program's own occupancy (DESIGN §12.5).

    {!Compile} computes one value per compile on the final lowered
    program and stores it in {!Compile.t}'s [facts] field; a prediction
    reads that field and keeps only the launch-dependent work. Nothing
    writes the value after {!of_layout} returns. Its walk holds arrays,
    so a memo hit of {!Compile.compile} checks, by identity, that each
    warp's item streams are still the ones stored.

    The module also defines {!prediction}, the model's answer for one
    launch, so that {!Compile}'s per-artifact launch state can keep the
    answers {!Perf_model.predict} computes. *)

type path_users = { on_tex : int; on_glob : int; on_loc : int }
(** One CTA's warps using each memory path in one phase. *)

type seg = private {
  mutable instrs : float;  (** issue slots *)
  mutable dp : float;  (** DP slots, constant-operand penalty applied *)
  mutable alu : float;  (** integer/branch pipe slots *)
  mutable lsu : float;  (** load/store unit slots *)
  mutable shared : float;  (** shared-pipe slots *)
  mutable tex_b : float;  (** bytes on the texture path *)
  mutable glob_b : float;  (** bytes on the global-memory path *)
  mutable loc_b : float;  (** bytes on the local-memory (spill) path *)
}
(** The summed cost of a run of instructions; summed over one batch of
    every warp, a phase's per-batch resource demand. Flat floats, so the
    walk's per-entry updates allocate nothing; [private], so only this
    module writes them. *)

(** One warp's stream of one phase, segmented at barrier operations. *)
type item =
  | Cost of float  (** cycles the warp's scoreboard spends on a segment *)
  | Arrive of int * int  (** [bar.arrive] on a named barrier, with count *)
  | Syncb of int * int  (** [bar.sync] on a named barrier, with count *)
  | Cta  (** CTA-wide barrier *)

type walk = {
  resident : int;  (** the resident CTA count the walk was made at *)
  prologue : item array array;  (** per warp, the prologue's items *)
  body : item array array;  (** per warp, one batch of the body's items *)
  prologue_demand : seg;
  body_demand : seg;  (** one batch of every warp of one CTA *)
}
(** Every warp's scoreboard walk through both phases at one resident CTA
    count, the only way a launch reaches the walk: each memory path's
    queueing pressure grows with the CTAs sharing it. *)

type t = {
  prologue_users : path_users;
  body_users : path_users;
  ic_cold_lines : int;  (** most code lines one warp touches *)
  body_lines : int;  (** code lines of the body, united over warps *)
  thrash : bool;
      (** the body's constant lines, united over warps, overflow the
          constant cache: every constant-operand access then re-misses *)
  cc_cold_lines : int;  (** most constant lines one warp's body touches *)
  n_long_paths : int;
      (** divergent body regions long enough to need their own
          instruction-prefetch stream *)
  own_walk : walk option;
      (** the walk at the program's own occupancy
          ({!Gpusim.Chip.occupancy}), which every launch of at least that
          many CTAs runs resident; [None] for a program that fits no CTA *)
}

val of_layout : Gpusim.Arch.t -> Gpusim.Isa.program -> t
(** The facts of a program on an architecture, from one
    {!Gpusim.Trace.iter} pass over its layout plus one walk of the body's
    block tree, and its walk at its own occupancy. Never raises
    {!Gpusim.Chip.Occupancy_rejected}. Only the pipeline (and the tests)
    call it. *)

val walk : Gpusim.Arch.t -> Gpusim.Isa.program -> t -> resident:int -> walk
(** The scoreboard walk of a program whose facts are given at [resident]
    co-resident CTAs: one {!Gpusim.Trace.iter} pass stepping every warp's
    streams. {!of_layout} calls it at the program's occupancy; only
    {!Perf_model.predict} calls it otherwise, for a launch with fewer
    CTAs than that. *)

type prediction = {
  occ : Gpusim.Chip.occupancy;
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
  chip : Gpusim.Chip.schedule;
  time_s : float;
  points_per_sec : float;
}
(** One launch's prediction, {!Perf_model.prediction} (which documents
    the fields and re-exports this type unchanged). It is defined here,
    below {!Compile}, so that an artifact's launch state can keep the
    answers {!Perf_model.predict} computed for it: numbers and gpusim
    records only. Its one mutable part is [chip.sms], an array, so every
    answer served from a launch state is a copy of that array. *)
