(** How a compile target is named and defaulted, shared by the CLI,
    [serve], the bench harness, the figures, the examples and the tests.

    Each name table rejects a bad name with one message listing the valid
    choices, so the CLI's argument error and serve's [bad-request] message
    are the same text. {!options} is the paper's per-kernel launch
    contract (§4.2). *)

val mech_of_string : string -> (Chem.Mechanism.t, string) result
(** A bundled mechanism ({!Chem.Mech_gen.bundled}), case-insensitive.
    Generators are memoized: a repeat lookup does not regenerate. *)

val kernel_of_string : string -> (Kernel_abi.kernel, string) result
val arch_of_string : string -> (Gpusim.Arch.t, string) result

val arch_name : Gpusim.Arch.t -> string
(** The short name {!arch_of_string} accepts: ["fermi"] or ["kepler"]. *)

val version_of_string : string -> (Compile.version, string) result

type partition_mode = Hand | Auto
(** [--partition hand|auto]: keep the hand mapping, or resolve one through
    {!Partition_search}. *)

val partition_of_string : string -> (partition_mode, string) result
val partition_mode_name : partition_mode -> string

(** The default target: dme viscosity, warp-specialized, on Kepler, with
    {!Compile.default_options}' 8 warps. *)

val default_mech : string
val default_kernel : Kernel_abi.kernel
val default_arch : Gpusim.Arch.t
val default_version : Compile.version
val default_warps : int

val options :
  ?n_warps:int ->
  ?ctas_per_sm:int ->
  Gpusim.Arch.t ->
  Kernel_abi.kernel ->
  Compile.options
(** [Compile.default_options arch] with [n_warps] (default
    {!default_warps}), the CTAs-per-SM target [ctas_per_sm] (default 1
    for chemistry, 2 for every other kernel) and the named-barrier budget
    it implies: [16 / ctas_per_sm] for chemistry, 8 for every other
    kernel. A caller that departs from the rule overrides the result:
    [{ (Target.options arch kernel) with ... }]. *)
