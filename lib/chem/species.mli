(** Chemical species: name, elemental composition, molecular mass, and the
    Lennard-Jones-style transport parameters carried by CHEMKIN TRANSPORT
    files. *)

type element = H | C | O | N | Ar | He

val element_of_string : string -> element option
(** Case-insensitive element symbol parser. *)

val element_symbol : element -> string

type transport_params = {
  geometry : int;  (** 0 atom, 1 linear, 2 non-linear (CHEMKIN convention) *)
  well_depth : float;  (** Lennard-Jones epsilon/k_B, Kelvin *)
  diameter : float;  (** Lennard-Jones collision diameter, Angstrom *)
  dipole : float;  (** dipole moment, Debye *)
  polarizability : float;  (** Angstrom^3 *)
  rot_relax : float;  (** rotational relaxation collision number at 298 K *)
}

val default_transport : transport_params
(** Placeholder parameters used when a TRANSPORT entry is missing; chosen in
    the middle of typical small-hydrocarbon ranges. *)

type t = {
  name : string;
  composition : (element * int) list;  (** each element listed once, count > 0 *)
  transport : transport_params;
}

val make :
  ?transport:transport_params -> name:string -> (element * int) list -> t
(** [make ~name comp] builds a species; duplicate elements in [comp] are
    merged and zero counts dropped. *)

val parse_formula : string -> ((element * int) list, string) result
(** [parse_formula "C2H5O2"] is [Ok [(H, 5); (C, 2); (O, 2)]]. Element
    symbols may be upper or lower case; counts default to 1. *)

val of_formula :
  ?transport:transport_params -> name:string -> string -> t
(** [of_formula ~name f] builds a species from a formula string. Raises
    [Invalid_argument] on a malformed formula. *)

val molecular_mass : t -> float
(** Molecular mass in g/mol, from composition. *)

val atom_count : t -> element -> int

val total_atoms : t -> int

val composition_vector : t -> int array
(** Counts indexed in the fixed order [H; C; O; N; Ar; He]. *)

val formula : t -> string
(** Conventional formula string, e.g. ["C2H6O"]. *)

val pp : Format.formatter -> t -> unit
