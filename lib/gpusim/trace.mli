(** Static flattening of a structured program into per-warp instruction
    traces.

    Because all control flow depends only on the warp id (and the implicit
    batch loop), each warp's dynamic instruction sequence is statically
    known. The flattener lays code out in program order, assigning every
    instruction a byte address for the instruction-cache model, and emits a
    synthetic {e branch} entry (executed by every warp that reaches it) for
    each [If_warps] / [Switch_warp] construct — the "warp-specific branch
    instructions" whose cost §2 mentions. *)

type entry = {
  instr : Isa.instr option;  (** [None] for a synthetic branch *)
  addr : int;  (** code byte address *)
  srcs : Isa.src array;
      (** scoreboard source operands (Mov/St singletons prebuilt, so the
          simulator's issue path allocates nothing per attempt) *)
  shared_srcs : Isa.saddr array;  (** shared-memory operands among [srcs] *)
  has_const : bool;  (** any operand reads the constant cache *)
  lat_mult : int;  (** arith latency multiplier (Div/Sqrt 3, Exp/Log 5) *)
  dp_slots : float;  (** [Isa.fop_dp_slots] of the arith op, else 0 *)
  flops : int;  (** [Isa.fop_flops] of the arith op, else 0 *)
}
(** Per-entry issue metadata precomputed by {!flatten}: everything
    {!Sm.run}'s issue path would otherwise re-derive from the instruction
    on every attempt. *)

type t = {
  entries : entry array;
  prologue : int array array;  (** per warp: entry indices *)
  body : int array array;  (** per warp: entry indices, one batch *)
  code_bytes : int;
}

val flatten : Arch.t -> Isa.program -> t

type phase = Prologue | Body

val iter : Arch.t -> Isa.program -> (phase -> int -> entry -> unit) -> int
(** [iter arch p f] calls [f phase warps e] for every entry of
    [flatten arch p], in address order, where [warps] is the bit set of
    warps that execute [e] (bit [w] for warp [w]; empty for the code of
    an absent [Switch_warp] arm). Each entry is built afresh and not
    kept, so a consumer that drops it leaves only short-lived garbage.
    Returns the code size in bytes. Programs of more than 62 warps are
    rejected with [Invalid_argument], as by {!flatten}. *)

(** {1 Cursors} *)

type cursor = {
  mutable phase : int;  (** 0 = prologue, 1 = body, 2 = done *)
  mutable pos : int;
  mutable batch : int;
}

val cursor : unit -> cursor

val peek : t -> warp:int -> batches:int -> cursor -> int
(** Entry index the cursor points at, or [-1] when the warp is done.
    Moves the cursor past finished phases and batches, so a repeated
    [peek] returns the same entry. *)

val advance : cursor -> unit
(** Step past the entry the last {!peek} returned (which must not have
    been [-1]). *)
