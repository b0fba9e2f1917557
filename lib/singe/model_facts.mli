(** The program-only half of {!Perf_model.predict}: what the model needs
    of a lowered program independently of any launch (DESIGN §12.5).

    {!Compile} computes one value per compile on the final lowered
    program and stores it in {!Compile.t}'s [facts] field; a prediction
    reads that field and keeps only the launch-dependent work. The value
    is immutable (ints and a bool, no arrays), so a memoized artifact
    shared across sweep workers cannot drift from the program it
    describes. *)

(** The memory paths (texture, global, local spill), as indexes into the
    model's per-path arrays. *)

val tex : int
val glob : int
val loc : int

type path_users = { on_tex : int; on_glob : int; on_loc : int }
(** One CTA's warps using each memory path in one phase. *)

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
}

val of_layout : Gpusim.Arch.t -> Gpusim.Isa.program -> t
(** The facts of a program on an architecture, from one
    {!Gpusim.Trace.iter} pass over its layout plus one walk of the body's
    block tree. Only the pipeline (and the tests) call it. *)
