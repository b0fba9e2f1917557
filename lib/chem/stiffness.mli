(** Stiffness correction (third chemistry phase, §3.4).

    For each stiff species [i] a damping factor

    {[ gamma_i = x_i / (x_i + tau * (cons_i + d_i)) ]}

    is computed from the molar fraction [x_i], the species' forward
    consumption rate [cons_i], and the per-species diffusion output [d_i]
    loaded from global memory (this is the load Listing 4 performs with warp
    indexing). The factor damps the reactions consuming [i] (forward) and
    producing [i] (reverse), allowing longer stable time steps.

    Unlike QSSA, stiffness nodes are mutually independent: they read rates
    produced by earlier phases and each scales a disjoint "ownership" of its
    own factor, applied after all factors are computed. *)

type node = {
  species : int;
  produced_by : (int * int) list;
  consumed_by : (int * int) list;
}

val tau : float
(** Pseudo-time-step constant, 1e-3. *)

val build : Mechanism.t -> node array

val eval :
  node array ->
  mole_frac:float array ->
  diffusion:float array ->
  rr_f:float array ->
  rr_r:float array ->
  float array
(** Computes all gammas first (reading unmodified rates), then applies them;
    returns the factors in node order. *)
