(** The one description of a compile target: the record {!t} that the
    CLI builds from its flags and serve decodes from a request
    ({!of_json}), and the {!resolve} both front ends turn it into a
    compile-ready value with. The name tables and the bounds
    ({!at_least}, {!sms_in_range}, {!skew_in_range}) reject bad input
    with one message each, so a CLI argument error and serve's
    [bad-request] message are the same text. {!options} is the paper's
    per-kernel launch contract (§4.2), shared with the bench harness, the
    figures, the examples and the tests. *)

val mech_of_string : string -> (Chem.Mechanism.t, string) result
(** A bundled mechanism ({!Chem.Mech_gen.bundled}), case-insensitive.
    Generators are memoized: a repeat lookup does not regenerate. *)

val kernel_of_string : string -> (Kernel_abi.kernel, string) result
val arch_of_string : string -> (Gpusim.Arch.t, string) result
val version_of_string : string -> (Compile.version, string) result

type partition_mode = Hand | Auto
(** [--partition hand|auto]: keep the hand mapping, or resolve one through
    {!Partition_search}. *)

val partition_of_string : string -> (partition_mode, string) result

val options :
  ?n_warps:int ->
  ?ctas_per_sm:int ->
  Gpusim.Arch.t ->
  Kernel_abi.kernel ->
  Compile.options
(** [Compile.default_options arch] with [n_warps] (default: its 8), the
    CTAs-per-SM target [ctas_per_sm] (default 1 for chemistry, 2 for
    every other kernel) and the named-barrier budget it implies:
    [16 / ctas_per_sm] for chemistry, 8 for every other kernel. A caller
    that departs from the rule overrides the result:
    [{ (Target.options arch kernel) with ... }]. *)

val at_least : int -> int -> (int, string) result
(** [at_least min n] accepts [n >= min], else [must be >= min, got n]
    (the CLI prefixes [--flag], serve [field "key"]). *)

val sms_in_range : int -> (int, string) result
(** Accepts an SM count in [1, 1024], else [at_least]'s message or [must
    be <= 1024, got n]: the chip scheduler and the model allocate per-SM
    arrays, so no request may size them without limit. *)

val skew_in_range : float -> (float, string) result
(** Accepts a clock skew with [|S| < 2], else [must satisfy |S| < 2, got
    S]. *)

type t = {
  t_mech : string;
  t_kernel : string;
  t_arch : string;
  t_version : string;
  t_warps : int;
  t_points : int;
  t_synth : bool option;  (** [--synth-exchange] override *)
  t_overlap : bool;  (** [--stencil-overlap] *)
  t_partition : string;
  t_sms : int option;  (** [--sms] chip override *)
  t_skew : float option;  (** [--skew] chip override *)
}
(** A target by name. Bounds are checked where the record is built
    ({!of_json}, the CLI's flags), names by {!resolve}. *)

val default : t
(** dme viscosity on kepler, ws, 8 warps, 8192 points, hand partition,
    overlapped tiling, no overrides. The CLI's [--points] defaults to
    32768 instead. *)

val keys : string list
(** The JSON members of a target, in wire order. *)

val of_json : Sutil.Json.t -> (t, string) result
(** The target members of a JSON object, strictly typed and bounded; an
    absent member keeps its {!default}, other members are ignored. *)

val to_json : t -> (string * Sutil.Json.t) list
(** The members {!of_json} reads back to the same record: mech, kernel,
    arch, version, warps and points always, the rest only when they
    differ from {!default}. *)

type resolved = {
  mech : Chem.Mechanism.t;
  kernel : Kernel_abi.kernel;
  arch : Gpusim.Arch.t;
  version : Compile.version;
  options : Compile.options;
      (** {!options} with the warps, exchange and tiling fields, and the
          hand partition *)
  partition : partition_mode;
}
(** The typed names of a target; its points and chip overrides are read
    from the {!t} it came from. *)

val resolve : ?mech:Chem.Mechanism.t -> t -> (resolved, string) result
(** Look the names up in the order mechanism, kernel, architecture,
    version, partition; the first unknown one is the error. [mech]
    replaces the named mechanism (the CLI's CHEMKIN file set). *)
