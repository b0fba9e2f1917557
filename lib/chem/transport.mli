(** Transport-coefficient fits.

    CHEMKIN-style preprocessing: from each species' Lennard-Jones parameters
    we evaluate kinetic-theory viscosities and binary diffusion coefficients
    over a temperature range and least-squares fit cubic polynomials of the
    *logarithm*, exactly the form consumed by the paper's kernels:

    {ul
    {- [vis_i(T)  = exp (eta_i0  + eta_i1 T  + eta_i2 T^2  + eta_i3 T^3)]}
    {- [d_ij(T)   = exp (delta_ij0 + delta_ij1 T + delta_ij2 T^2 + delta_ij3 T^3)]}}

    The [d] matrix is symmetric with zeros on the diagonal (§3.3). *)

type t = {
  visc_fit : float array array;  (** N x 4: per-species eta coefficients *)
  cond_fit : float array array;  (** N x 4: per-species log-conductivity fits *)
  diff_fit : float array array array;
      (** N x N x 4: per-pair delta coefficients; [diff_fit.(i).(i)] is all
          zeros and never evaluated *)
}

val t_fit_low : float
val t_fit_high : float
(** Temperature range of the fit sample points (300 K .. 3000 K). *)

val kinetic_viscosity : Species.t -> float -> float
(** Chapman-Enskog pure-species viscosity (with Neufeld's Omega(2,2)
    collision-integral approximation), arbitrary consistent units.
    [kinetic_viscosity sp] computes the species' constants once and
    returns the curve over temperature; so does [kinetic_conductivity]. *)

val kinetic_conductivity : Species.t -> float -> float
(** Modified-Eucken thermal conductivity from the kinetic viscosity. *)

val fit : Species.t array -> t
(** Build the fit tables for a species set. O(N^2) cubic fits. *)

val viscosity : t -> int -> float -> float
(** [viscosity t i temp] evaluates the fitted per-species viscosity. *)

val conductivity : t -> int -> float -> float
(** Fitted per-species thermal conductivity. *)

val diffusion : t -> int -> int -> float -> float
(** [diffusion t i j temp] evaluates the fitted pair coefficient; requires
    [i <> j]. *)

val constant_bytes : n:int -> int
(** Bytes of double-precision pair constants the *viscosity* kernel loads
    for [n] computed species: 2 per off-diagonal pair. Reproduces the
    paper's 13.9 KB (DME, N=30) and 42.4 KB (heptane, N=52) figures
    exactly (decimal KB). *)

val diffusion_constant_bytes : n:int -> int
(** Bytes of delta fit constants the *diffusion* kernel loads (4 per
    strict-upper-triangle pair). *)
