(** The memory interface shared by all generated kernels.

    Global field groups (SoA, §3.1). Combustion kernels:
    {ul
    {- ["temperature"], ["pressure"]: one field each;}
    {- ["mole_frac"]: one field per {e computed} species, indexed by
       position in [Mechanism.computed_species];}
    {- ["diffusion_in"]: per computed species, the diffusion outputs
       consumed by the chemistry stiffness phase (Listing 4);}
    {- ["out"]: kernel outputs — 1 field for viscosity and conductivity,
       N for diffusion (Delta_i), N for chemistry (wdot).}}

    Stencil kernels (ROADMAP item 4) use an image-shaped space instead:
    ["image"] with one field per column (each grid point is an independent
    scanline) and ["out"] with the same width. The chemistry groups are
    deliberately absent there. *)

type kernel =
  | Viscosity
  | Conductivity
  | Diffusion
  | Chemistry
  | Stencil of Stencil_pipe.id
(** [Conductivity] is the transport-suite extension kernel (Mathur mixture
    conductivity) — not one of the paper's three evaluation kernels, but
    S3D's getcoeffs computes it alongside viscosity and diffusion.
    [Stencil] kernels are the image-processing workload family; the grid
    temperature seeds their source rows deterministically. *)

val kernel_name : kernel -> string
val kernel_of_string : string -> kernel option

val all_kernels : kernel list
(** Every kernel the driver can compile, chemistry first. *)

val groups : Chem.Mechanism.t -> kernel -> Gpusim.Isa.group_info array

val fill_inputs :
  Chem.Mechanism.t -> Chem.Grid.t -> kernel -> Gpusim.Isa.program ->
  Gpusim.Memstate.t -> int -> unit
(** Copies the first [n] points of the grid straight into the input
    groups (for stencil kernels: writes the ["image"] columns in place
    with per-point source rows derived from the grid temperature, the
    image {!reference_outputs} starts from). Requires the grid to hold at
    least [n] points and the memory exactly [n]. *)

val read_outputs : Gpusim.Isa.program -> Gpusim.Memstate.t -> float array array
(** [out] group contents, one array per field: the memory's own
    columns, not copies. *)

val reference_outputs :
  Chem.Mechanism.t -> Chem.Grid.t -> kernel -> points:int -> float array array
(** Host-reference results in the same field layout, for comparison.
    Combustion kernels compare against {!Chem.Ref_kernels} (tolerance
    applies); stencil kernels evaluate the pipeline's own [Sexpr] trees
    and match the simulator bit for bit. *)
