(** Direct (scalar, host-side) interpretation of a dataflow graph for one
    grid point. This gives a third, independent evaluation of every kernel
    — used by tests to pin the DFG-construction stage against
    {!Chem.Ref_kernels} (combustion) or {!Stencil_pipe.reference}
    (stencil), separating partitioning bugs from code-generation bugs.

    One interpreter core, input-layout agnostic, serves both; layout
    knowledge lives in the load environments. Unknown groups raise
    positioned {!Diagnostics.Fail} (pass ["dfg-interp"]) naming the
    graph, never bare [Invalid_argument]. *)

type inputs = {
  temp : float;
  pressure : float;
  mole_frac : float array;  (** indexed by computed-species position *)
  diffusion : float array;  (** indexed by computed-species position *)
}

val point_inputs : Chem.Mechanism.t -> Chem.Grid.t -> int -> inputs

val eval : Dfg.t -> inputs -> (int, float) Hashtbl.t
(** Evaluates every operation in topological order, reading the
    chemistry input groups; the result maps the [out] group's field index
    to the stored value. *)

val eval_stencil : Dfg.t -> source:float array -> (int, float) Hashtbl.t
(** Like {!eval}, with the stencil ["image"] group read from one source
    scanline (indexed by column). *)

val eval_field : Dfg.t -> inputs -> int -> float
(** Value stored to [out] field [f]. Raises [Not_found] if the graph never
    stores it. *)
