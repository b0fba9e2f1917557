(** Deterministic trace-level fault injection.

    The containment story of this repository is only credible if the
    detectors can be shown to fire: these faults corrupt a flattened
    {!Trace.t} in precisely controlled ways — a dropped barrier arrival,
    a barrier op retargeted to the wrong id, a duplicated arrival, a
    latency perturbation — so tests and the CLI can demonstrate that an
    injected hang terminates in a structured {!Sm.Simulation_fault} and
    that functional corruption is caught by the output check.

    Stream positions ([nth]) count the targeted warp's matching
    instructions over its prologue followed by one body batch, in trace
    order, starting at 0. *)

type t =
  | Drop_arrive of { warp : int; nth : int }
      (** delete the warp's [nth] named-barrier arrival: its consumer
          waits forever — the canonical injected deadlock *)
  | Swap_barrier of { warp : int; nth : int; bar : int }
      (** retarget the warp's [nth] named-barrier op (arrive or sync) to
          id [bar]: starves the original barrier and may prematurely
          release [bar]'s waiters *)
  | Extra_arrive of { warp : int; nth : int }
      (** duplicate the warp's [nth] arrival — a premature release that
          typically surfaces as corrupted outputs or a later deadlock *)
  | Latency of { warp : int; mult : int }
      (** multiply the arithmetic latency of every arith instruction the
          warp issues by [mult] (schedule perturbation; must stay
          functionally correct — barrier schedules are order-independent) *)
  | Corrupt_shfl of { warp : int; nth : int }
      (** perturb the lane selector of the warp's [nth] shuffle
          instruction ([Shfl]/[Ishfl] broadcasts read the next lane over,
          [Shfl_rot] rotates one lane further, [Shfl_bfly] flips the low
          mask bit): silent data-movement corruption across the PR 7
          synthesized-exchange instructions, caught by the functional
          output check rather than the deadlock detectors *)

val to_string : t -> string
(** Round-trips with {!of_string}: e.g. ["drop-arrive:warp=1,nth=0"]. *)

val of_string : string -> (t, string) result
(** Parse a [--fault] specification, [KIND:key=value,...] with kinds
    [drop-arrive], [swap-bar], [extra-arrive], [latency],
    [corrupt-shfl]. Strict: every
    expected field exactly once, values plain decimal naturals; unknown
    or duplicate fields, trailing garbage and non-decimal values are
    [Error] rather than silently ignored. [to_string] output always
    parses back to the same fault. *)

val describe : t -> string
(** Human-oriented one-line description. *)

val apply : ?named_barriers:int -> t list -> Trace.t -> Trace.t
(** Apply the faults left to right, returning a fresh trace (unmodified
    entries are shared). Raises [Invalid_argument] when a fault matches
    nothing — the targeted warp is out of range, has fewer than [nth + 1]
    matching instructions (barrier ops, or shuffles for
    [Corrupt_shfl]), or issues no arithmetic for [Latency] — or,
    when [named_barriers] is given, when a [Swap_barrier] id falls
    outside [\[0, named_barriers)] (instead of silently indexing past
    the SM's barrier file). {!Chip.run} always passes the
    architecture's count. *)
