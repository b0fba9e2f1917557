(** Scalar host implementations of the three combustion kernels (§3.2-3.4).

    These are the numerical ground truth: the warp-specialized and baseline
    GPU programs emitted by the compiler must reproduce these outputs (up to
    floating-point reassociation) when executed functionally on the
    simulator. All per-species loops range over the mechanism's *computed*
    (non-QSSA) species, the N of the paper's formulas (52 for heptane).

    Conventions frozen here and mirrored by the DFG builders:
    {ul
    {- viscosity pair constants: [a_kj = 0.25 (ln m_j - ln m_k)] and
       [b_kj = 1 / sqrt (1 + m_k/m_j)] (the paper's "2 double precision
       constants" per pair);}
    {- diffusion mole-fraction clamp epsilon {!eps_mole_frac};}
    {- chemistry: QSSA species enter rate products with effective
       concentration 1.0 (their magnitude is restored by the QSSA scaling
       phase).}} *)

val eps_mole_frac : float
(** Minimum molar fraction used by the diffusion clamp, 1e-12. *)

val pair_constants : Mechanism.t -> float array array * float array array
(** [(a, b)] where [a.(k).(j) = 0.25 (ln m_j - ln m_k)] and
    [b.(k).(j) = 1/sqrt(1 + m_k/m_j)], indexed by computed-species
    position — the per-pair constants the viscosity kernel banks. *)

val conductivity_point :
  Mechanism.t -> temp:float -> mole_frac:float array -> float
(** Mixture thermal conductivity of one grid point (Mathur's
    combination-averaging formula — the transport-suite extension kernel,
    not one of the paper's three). *)

val viscosity_point :
  Mechanism.t -> temp:float -> mole_frac:float array -> float
(** Mixture viscosity nu of one grid point (the paper's Wilke-form double
    sum, evaluated in log space). [mole_frac] is indexed by full species
    index. *)

val diffusion_point :
  Mechanism.t ->
  temp:float ->
  pressure:float ->
  mole_frac:float array ->
  float array
(** Per-computed-species diffusion outputs Delta_i, indexed like
    [Mechanism.computed_species]. *)

type chemistry_result = {
  rr_f : float array;  (** forward rate of progress per reaction, post-scaling *)
  rr_r : float array;
  qssa_scales : float array;  (** per QSSA node *)
  stiff_gammas : float array;  (** per stiff node *)
  wdot : float array;  (** net production rate per computed species *)
}

val chemistry_point :
  Mechanism.t ->
  temp:float ->
  pressure:float ->
  mole_frac:float array ->
  diffusion:float array ->
  chemistry_result
(** All four chemistry phases of §3.4: rates, QSSA, stiffness, output.
    [diffusion] is the full per-species diffusion input vector. *)
