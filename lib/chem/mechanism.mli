(** A chemical mechanism: the complete input to the Singe compiler
    (CHEMKIN + THERMO + TRANSPORT (+ QSSA/stiff) files, Fig. 3).

    A mechanism is never mutated after {!make}: nothing writes its arrays
    or tables. Caches that match a mechanism by physical identity rely on
    this (the compiler's mechanism digests and its launch-inputs memo). *)

type t = {
  name : string;
  species : Species.t array;
  reactions : Reaction.t array;
  thermo : Thermo.table;
  transport : Transport.t;
  qssa : int array;  (** indices of quasi-steady-state species, sorted *)
  stiff : int array;  (** indices of stiffness-corrected species, sorted *)
}

val make :
  name:string ->
  species:Species.t array ->
  reactions:Reaction.t array ->
  thermo:Thermo.table ->
  ?qssa:int array ->
  ?stiff:int array ->
  unit ->
  t
(** Sorts and deduplicates the QSSA/stiff sets. Raises [Invalid_argument] on
    out-of-range indices or QSSA/stiff overlap. *)

val n_species : t -> int
val n_reactions : t -> int
val n_qssa : t -> int
val n_stiff : t -> int

val is_qssa : t -> int -> bool

val computed_species : t -> int array
(** Species actually carried by the simulation, i.e. all species minus the
    QSSA set (52 for heptane in the paper). *)

val molecular_masses : t -> float array

val species_index : t -> string -> int
(** Index by (case-insensitive) name. Raises [Not_found]. *)

val validate : t -> (unit, string list) result
(** Structural validation: table sizes, index ranges, thermo ranges,
    element balance of every reaction. Returns all problems found. *)

val summary : t -> string
(** One-line "Fig. 3 row": reactions / species / QSSA / stiff counts. *)

val pp : Format.formatter -> t -> unit
