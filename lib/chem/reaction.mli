(** Elementary reactions and their rate-model descriptions (CHEMKIN
    semantics, Fig. 4 of the paper). *)

type arrhenius = {
  pre_exp : float;  (** A, pre-exponential factor *)
  temp_exp : float;  (** beta, temperature exponent *)
  activation : float;  (** E, activation energy in cal/mol *)
}
(** Modified Arrhenius form [k(T) = A T^beta exp(-E / (R_cal T))]. *)

type troe_params = {
  alpha : float;
  t3 : float;
  t1 : float;
  t2 : float;  (** 0. when the optional fourth Troe parameter is absent *)
}

type sri_params = {
  sa : float;
  sb : float;
  sc : float;
  sd : float;  (** 1.0 when the optional fourth parameter is absent *)
  se : float;  (** 0.0 when the optional fifth parameter is absent *)
}
(** SRI falloff form:
    [F = d (a exp(-b/T) + exp(-T/c))^X T^e], [X = 1/(1 + log10(Pr)^2)]. *)

type falloff_kind = Lindemann | Troe of troe_params | Sri of sri_params

type rate_model =
  | Simple of arrhenius
      (** ordinary Arrhenius, possibly with a "+M" third body *)
  | Falloff of { high : arrhenius; low : arrhenius; kind : falloff_kind }
      (** pressure-dependent "(+M)" reaction: blend of high- and
          low-pressure limits *)
  | Landau_teller of { arr : arrhenius; b : float; c : float }
      (** [k = A T^beta exp(-E/(R T) + B/T^(1/3) + C/T^(2/3))] *)
  | Plog of (float * arrhenius) list
      (** pressure-log interpolation: Arrhenius fits at discrete pressures
          (in atm, sorted ascending); [ln k] interpolates linearly in
          [ln P] between them and clamps outside the table *)

type reverse_spec =
  | Irreversible
  | From_equilibrium  (** reverse rate from thermodynamic equilibrium *)
  | Explicit of arrhenius  (** CHEMKIN "REV /.../" line *)

type third_body = {
  enhanced : (int * float) list;
      (** species index -> efficiency; all other species have efficiency 1 *)
}

type t = {
  label : string;  (** source text or synthetic id, for diagnostics *)
  reactants : (int * int) list;  (** (species index, stoichiometric coeff) *)
  products : (int * int) list;
  rate : rate_model;
  reverse : reverse_spec;
  third_body : third_body option;
      (** present for "+M" and all falloff reactions *)
}

val make :
  ?label:string ->
  ?reverse:reverse_spec ->
  ?third_body:third_body ->
  reactants:(int * int) list ->
  products:(int * int) list ->
  rate_model ->
  t
(** Builds a reaction, merging duplicate species mentions on each side.
    Default [reverse] is [From_equilibrium], the CHEMKIN default for
    reversible reactions. *)

val delta_stoich : t -> int -> int
(** Net stoichiometric coefficient of species [i]: products minus
    reactants. *)

val involves : t -> int -> bool
(** Does species [i] appear on either side? *)

val species_involved : t -> int list
(** Sorted, deduplicated indices of all species on either side. *)

val net_molecularity : t -> int
(** Sum of product coefficients minus sum of reactant coefficients
    (the [delta nu] used in equilibrium-constant pressure scaling). *)

val is_falloff : t -> bool

val element_balance :
  Species.t array -> t -> (unit, string) result
(** Verifies atom conservation between the two sides. *)

val pp : Format.formatter -> t -> unit
