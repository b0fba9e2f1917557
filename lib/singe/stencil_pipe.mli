(** Multi-stage 1-D stencil pipeline descriptions (ROADMAP item 4,
    warp-overlapped tiling per arXiv 1909.07190).

    The image is [width] columns wide; each simulated grid point is an
    independent scanline, so columns map to fields of the ["image"] global
    group and halo taps are static field offsets. This module is
    [Chem]-independent: pipelines are pure {!Sexpr} stage descriptions plus
    a host reference evaluator. *)

type stage = {
  stage_name : string;
  radius : int;  (** halo radius; taps are columns [c-r .. c+r], clamped *)
  uses_source : bool;
      (** skip connection: input [2r+1] is the source pixel at column [c] *)
  expr : Sexpr.t;
      (** inputs [In 0 .. In 2r] are the previous stage's taps in column
          order; [In (2r+1)] the source pixel when [uses_source] *)
}

type t = { pipe_name : string; width : int; stages : stage list }

type id = Edge3 | Unsharp2
(** [Edge3]: blur -> gradient-energy -> soft threshold (radii 1,1,0).
    [Unsharp2]: blur -> sharpen-with-source-skip (radii 1,1). *)

val all_ids : id list
val id_name : id -> string
val id_of_string : string -> id option

val get : id -> t

val width : int
(** Columns in every bundled pipeline (= fields of the ["image"] group). *)

val source_value : temp:float -> col:int -> float
(** Deterministic source pixel for a scanline whose grid temperature is
    [temp]. Used by both the device-side input fill and {!reference}, so
    oracle comparisons start from identical inputs. *)

val clamp_col : w:int -> int -> int
(** Clamp-to-edge column replication. *)

val reference : t -> source:float array -> float array
(** Evaluate the whole pipeline on one scanline with the same [Sexpr]
    trees the DFG carries — bit-identical to the simulated kernel, since
    lowering never reassociates. Raises [Invalid_argument] if the source
    row width mismatches. *)

val pp : Format.formatter -> t -> unit
