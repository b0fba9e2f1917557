let eps_mole_frac = 1e-12

(* Log-viscosity of computed species k at temperature t: the cubic fit is of
   log viscosity, so no exp is needed until the pair interactions. *)
let log_viscosities mech ~temp =
  let computed = Mechanism.computed_species mech in
  Array.map
    (fun sp ->
      let c = mech.Mechanism.transport.Transport.visc_fit.(sp) in
      c.(0) +. (temp *. (c.(1) +. (temp *. (c.(2) +. (temp *. c.(3)))))))
    computed

let pair_constants mech =
  let computed = Mechanism.computed_species mech in
  let masses = Mechanism.molecular_masses mech in
  let n = Array.length computed in
  let a = Array.make_matrix n n 0.0 and b = Array.make_matrix n n 0.0 in
  for k = 0 to n - 1 do
    for j = 0 to n - 1 do
      let mk = masses.(computed.(k)) and mj = masses.(computed.(j)) in
      a.(k).(j) <- 0.25 *. (log mj -. log mk);
      b.(k).(j) <- 1.0 /. sqrt (1.0 +. (mk /. mj))
    done
  done;
  (a, b)

let log_conductivities mech ~temp =
  let computed = Mechanism.computed_species mech in
  Array.map
    (fun sp ->
      let c = mech.Mechanism.transport.Transport.cond_fit.(sp) in
      c.(0) +. (temp *. (c.(1) +. (temp *. (c.(2) +. (temp *. c.(3)))))))
    computed

let conductivity_point mech ~temp ~mole_frac =
  (* Mathur's combination-averaging formula:
     lambda = 1/2 (sum_k x_k lambda_k + 1 / sum_k (x_k / lambda_k)). *)
  let computed = Mechanism.computed_species mech in
  let n = Array.length computed in
  let lam = Array.map exp (log_conductivities mech ~temp) in
  let x = Array.map (fun sp -> mole_frac.(sp)) computed in
  let s1 = ref 0.0 and s2 = ref 0.0 in
  for k = 0 to n - 1 do
    s1 := !s1 +. (x.(k) *. lam.(k));
    s2 := !s2 +. (x.(k) /. lam.(k))
  done;
  0.5 *. (!s1 +. (1.0 /. !s2))

let viscosity_point mech ~temp ~mole_frac =
  let computed = Mechanism.computed_species mech in
  let n = Array.length computed in
  let lvis = log_viscosities mech ~temp in
  let vis = Array.map exp lvis in
  let a, b = pair_constants mech in
  let x = Array.map (fun sp -> mole_frac.(sp)) computed in
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    let inner = ref 0.0 in
    for j = 0 to n - 1 do
      let t = exp ((0.5 *. (lvis.(k) -. lvis.(j))) +. a.(k).(j)) in
      let phi = (1.0 +. t) *. (1.0 +. t) *. b.(k).(j) in
      inner := !inner +. (x.(j) *. phi)
    done;
    total := !total +. (x.(k) *. vis.(k) /. !inner)
  done;
  sqrt 8.0 *. !total

let diffusion_point mech ~temp ~pressure ~mole_frac =
  let computed = Mechanism.computed_species mech in
  let n = Array.length computed in
  let masses = Mechanism.molecular_masses mech in
  let x = Array.map (fun sp -> mole_frac.(sp)) computed in
  let m = Array.map (fun sp -> masses.(sp)) computed in
  let clamp = Array.map (fun xi -> Float.max eps_mole_frac xi) x in
  let mass = ref 0.0 and clamped_mass = ref 0.0 in
  for j = 0 to n - 1 do
    mass := !mass +. (m.(j) *. x.(j));
    clamped_mass := !clamped_mass +. (clamp.(j) *. m.(j))
  done;
  let scale = Rates.p_atm /. pressure in
  Array.init n (fun i ->
      let denom_sum = ref 0.0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          let d =
            Transport.diffusion mech.Mechanism.transport computed.(i)
              computed.(j) temp
          in
          denom_sum := !denom_sum +. (clamp.(j) *. d)
        end
      done;
      let numer = (-.clamp.(i) *. m.(i)) +. !clamped_mass in
      scale *. numer /. (!mass *. !denom_sum))

type chemistry_result = {
  rr_f : float array;
  rr_r : float array;
  qssa_scales : float array;
  stiff_gammas : float array;
  wdot : float array;
}

let effective_concentrations mech ~temp ~pressure ~mole_frac =
  let n = Mechanism.n_species mech in
  let ctot = pressure /. (Thermo.gas_constant *. temp) in
  Array.init n (fun sp ->
      if Mechanism.is_qssa mech sp then 1.0 else mole_frac.(sp) *. ctot)

let chemistry_point mech ~temp ~pressure ~mole_frac ~diffusion =
  let reactions = mech.Mechanism.reactions in
  let nr = Array.length reactions in
  let conc = effective_concentrations mech ~temp ~pressure ~mole_frac in
  (* Phase 1: forward and reverse rates of progress for every reaction. *)
  let rr_f = Array.make nr 0.0 and rr_r = Array.make nr 0.0 in
  Array.iteri
    (fun ri r ->
      let qf, qr = Rates.progress ~pressure mech.Mechanism.thermo r ~temp ~conc in
      rr_f.(ri) <- qf;
      rr_r.(ri) <- qr)
    reactions;
  (* Phase 2: QSSA scaling. *)
  let qssa_graph = Qssa.build mech in
  let qssa_scales = Qssa.eval qssa_graph ~rr_f ~rr_r in
  (* Phase 3: stiffness damping. *)
  let stiff_nodes = Stiffness.build mech in
  let stiff_gammas =
    Stiffness.eval stiff_nodes ~mole_frac ~diffusion ~rr_f ~rr_r
  in
  (* Output phase: per-computed-species net production rates. *)
  let computed = Mechanism.computed_species mech in
  let wdot =
    Array.map
      (fun sp ->
        let acc = ref 0.0 in
        Array.iteri
          (fun ri r ->
            let d = Reaction.delta_stoich r sp in
            if d <> 0 then
              acc := !acc +. (float_of_int d *. (rr_f.(ri) -. rr_r.(ri))))
          reactions;
        !acc)
      computed
  in
  { rr_f; rr_r; qssa_scales; stiff_gammas; wdot }
