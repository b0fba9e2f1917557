type t = {
  visc_fit : float array array;
  cond_fit : float array array;
  diff_fit : float array array array;
}

let t_fit_low = 300.0
let t_fit_high = 3000.0
let n_fit_points = 20

(* Neufeld's empirical approximations to the reduced collision integrals. *)
let omega22 t_star =
  (1.16145 *. (t_star ** -0.14874))
  +. (0.52487 *. exp (-0.7732 *. t_star))
  +. (2.16178 *. exp (-2.43787 *. t_star))

let[@inline] omega11 t_star =
  (1.06036 *. (t_star ** -0.15610))
  +. (0.19300 *. exp (-0.47635 *. t_star))
  +. (1.03587 *. exp (-1.52996 *. t_star))
  +. (1.76474 *. exp (-3.89411 *. t_star))

(* Each kinetic formula takes its species (or pair) first and returns the
   curve over temperature, so a caller that samples many temperatures
   computes the species constants once. Hoisting re-associates nothing:
   each constant is a subexpression the formula evaluates first anyway
   ([d *. d *. omega] is [(d *. d) *. omega]). *)
let kinetic_viscosity (sp : Species.t) =
  let p = sp.Species.transport in
  let mass = Species.molecular_mass sp in
  let d2 = p.Species.diameter *. p.Species.diameter in
  fun temp ->
    (* 5/16 sqrt(pi m k T) / (pi sigma^2 Omega22); constants folded since
       only relative magnitudes matter for the kernels. *)
    2.6693e-6 *. sqrt (mass *. temp)
    /. (d2 *. omega22 (temp /. p.Species.well_depth))

(* Modified Eucken correction: lambda = eta (cp/W + 5/4 R/W); cp/R is
   approximated by the translational+rotational value for the species'
   atom count (monatomic 5/2, otherwise 7/2), which keeps the fit
   independent of the thermodynamic tables. *)
let kinetic_conductivity (sp : Species.t) =
  let eta = kinetic_viscosity sp in
  let mass = Species.molecular_mass sp in
  let cp_over_r = if Species.total_atoms sp <= 1 then 2.5 else 3.5 in
  let eucken = cp_over_r +. 1.25 in
  fun temp -> eta temp /. mass *. eucken

(* Chapman-Enskog binary diffusion coefficient at 1 atm (Neufeld
   Omega(1,1)): 0.00266 T^1.5 / (sqrt mu sigma^2 Omega11 (T / eps)). Only
   [fit] evaluates it, on the grid below, so the formula is split where
   the fit hoists it: the temperature-only numerator is one value per
   grid point, and this returns the pair constants [sqrt mu *. sigma *.
   sigma] and the combined well depth. *)
let diffusion_pair (a : Species.t) (b : Species.t) =
  let pa = a.Species.transport and pb = b.Species.transport in
  let sigma = 0.5 *. (pa.Species.diameter +. pb.Species.diameter) in
  let eps = sqrt (pa.Species.well_depth *. pb.Species.well_depth) in
  let ma = Species.molecular_mass a and mb = Species.molecular_mass b in
  let reduced_mass = ma *. mb /. (ma +. mb) in
  (sqrt reduced_mass *. sigma *. sigma, eps)

(* Every fit samples the same temperature grid, so the grid, its powers
   and the least-squares normal matrix V^T V are module constants; only
   V^T y depends on the species. Keep every sum accumulated point by
   point in grid order: the tests pin the fits bit for bit to a frozen
   reference that sums in that order. *)
let n_coeffs = 4

let fit_temps =
  Array.init n_fit_points (fun k ->
      t_fit_low
      +. (float_of_int k /. float_of_int (n_fit_points - 1))
         *. (t_fit_high -. t_fit_low))

let fit_powers =
  Array.map
    (fun x ->
      let powers = Array.make n_coeffs 1.0 in
      for i = 1 to n_coeffs - 1 do
        powers.(i) <- powers.(i - 1) *. x
      done;
      powers)
    fit_temps

let fit_normal =
  let ata = Array.make_matrix n_coeffs n_coeffs 0.0 in
  Array.iter
    (fun powers ->
      for i = 0 to n_coeffs - 1 do
        for j = 0 to n_coeffs - 1 do
          ata.(i).(j) <- ata.(i).(j) +. (powers.(i) *. powers.(j))
        done
      done)
    fit_powers;
  ata

let fit_numerators = Array.map (fun temp -> 0.00266 *. (temp ** 1.5)) fit_temps

(* Least-squares cubic through [(fit_temps.(k), log_samples.(k))]. *)
let fit_log_samples log_samples =
  let atb = Array.make n_coeffs 0.0 in
  Array.iteri
    (fun k powers ->
      let y = log_samples.(k) in
      for i = 0 to n_coeffs - 1 do
        atb.(i) <- atb.(i) +. (powers.(i) *. y)
      done)
    fit_powers;
  Sutil.Linalg.solve fit_normal atb

let fit_curve f = fit_log_samples (Array.map (fun temp -> log (f temp)) fit_temps)

let fit species =
  let n = Array.length species in
  let visc_fit = Array.map (fun sp -> fit_curve (kinetic_viscosity sp)) species in
  let cond_fit =
    Array.map (fun sp -> fit_curve (kinetic_conductivity sp)) species
  in
  (* The diffusion fits are most of the work. The sampling loop is
     written out, with [omega11] inlined, so its floats stay unboxed. *)
  let samples = Array.make n_fit_points 0.0 in
  let diff_fit =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if j <= i then Array.make n_coeffs 0.0 (* j < i: filled below *)
            else begin
              let scale, eps = diffusion_pair species.(i) species.(j) in
              for k = 0 to n_fit_points - 1 do
                samples.(k) <-
                  log
                    (fit_numerators.(k)
                    /. (scale *. omega11 (fit_temps.(k) /. eps)))
              done;
              fit_log_samples samples
            end))
  in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      diff_fit.(i).(j) <- diff_fit.(j).(i)
    done
  done;
  { visc_fit; cond_fit; diff_fit }

let eval_fit c temp =
  exp (c.(0) +. (temp *. (c.(1) +. (temp *. (c.(2) +. (temp *. c.(3)))))))

let viscosity t i temp = eval_fit t.visc_fit.(i) temp
let conductivity t i temp = eval_fit t.cond_fit.(i) temp

let diffusion t i j temp =
  assert (i <> j);
  eval_fit t.diff_fit.(i).(j) temp

let constant_bytes ~n =
  (* Two combination constants for each of the N(N-1) off-diagonal pairs
     (the k=j pair needs none: both fold to known values). This reproduces
     the paper's 13.9 KB (N=30) and 42.4 KB (N=52) exactly, in decimal KB. *)
  n * (n - 1) * 2 * 8

let diffusion_constant_bytes ~n =
  (* Four delta coefficients per strict-upper-triangle pair. *)
  n * (n - 1) / 2 * 4 * 8
