(* A frozen copy of the transport fitting code as it stood before
   [Chem.Transport.fit] shared its temperature grid and normal matrix
   across fits: the kinetic formulas, the 20-point sampler, the
   list-based least-squares fit and the per-fit loop, verbatim. Tests
   compare the library's fits against it bit for bit, so edit nothing
   here. *)

let t_fit_low = 300.0
let t_fit_high = 3000.0
let n_fit_points = 20

let omega22 t_star =
  (1.16145 *. (t_star ** -0.14874))
  +. (0.52487 *. exp (-0.7732 *. t_star))
  +. (2.16178 *. exp (-2.43787 *. t_star))

let omega11 t_star =
  (1.06036 *. (t_star ** -0.15610))
  +. (0.19300 *. exp (-0.47635 *. t_star))
  +. (1.03587 *. exp (-1.52996 *. t_star))
  +. (1.76474 *. exp (-3.89411 *. t_star))

let kinetic_viscosity (sp : Chem.Species.t) temp =
  let p = sp.Chem.Species.transport in
  let t_star = temp /. p.Chem.Species.well_depth in
  let mass = Chem.Species.molecular_mass sp in
  2.6693e-6 *. sqrt (mass *. temp)
  /. (p.Chem.Species.diameter *. p.Chem.Species.diameter *. omega22 t_star)

let kinetic_conductivity (sp : Chem.Species.t) temp =
  let eta = kinetic_viscosity sp temp in
  let mass = Chem.Species.molecular_mass sp in
  let cp_over_r = if Chem.Species.total_atoms sp <= 1 then 2.5 else 3.5 in
  eta /. mass *. (cp_over_r +. 1.25)

let kinetic_diffusion (a : Chem.Species.t) (b : Chem.Species.t) temp =
  let pa = a.Chem.Species.transport and pb = b.Chem.Species.transport in
  let sigma = 0.5 *. (pa.Chem.Species.diameter +. pb.Chem.Species.diameter) in
  let eps = sqrt (pa.Chem.Species.well_depth *. pb.Chem.Species.well_depth) in
  let t_star = temp /. eps in
  let ma = Chem.Species.molecular_mass a
  and mb = Chem.Species.molecular_mass b in
  let reduced_mass = ma *. mb /. (ma +. mb) in
  0.00266 *. (temp ** 1.5)
  /. (sqrt reduced_mass *. sigma *. sigma *. omega11 t_star)

let sample_points f =
  let pts = ref [] in
  for k = n_fit_points - 1 downto 0 do
    let temp =
      t_fit_low
      +. (float_of_int k /. float_of_int (n_fit_points - 1))
         *. (t_fit_high -. t_fit_low)
    in
    pts := (temp, log (f temp)) :: !pts
  done;
  !pts

let polyfit ~degree pts =
  let n = degree + 1 in
  assert (List.length pts >= n);
  let ata = Array.make_matrix n n 0.0 in
  let atb = Array.make n 0.0 in
  let add_point (x, y) =
    let powers = Array.make n 1.0 in
    for i = 1 to n - 1 do
      powers.(i) <- powers.(i - 1) *. x
    done;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        ata.(i).(j) <- ata.(i).(j) +. (powers.(i) *. powers.(j))
      done;
      atb.(i) <- atb.(i) +. (powers.(i) *. y)
    done
  in
  List.iter add_point pts;
  Sutil.Linalg.solve ata atb

let fit species =
  let n = Array.length species in
  let visc_fit =
    Array.map
      (fun sp -> polyfit ~degree:3 (sample_points (kinetic_viscosity sp)))
      species
  in
  let cond_fit =
    Array.map
      (fun sp -> polyfit ~degree:3 (sample_points (kinetic_conductivity sp)))
      species
  in
  let diff_fit =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then Array.make 4 0.0
            else if j < i then Array.make 4 0.0
            else
              polyfit ~degree:3
                (sample_points (kinetic_diffusion species.(i) species.(j)))))
  in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      diff_fit.(i).(j) <- diff_fit.(j).(i)
    done
  done;
  { Chem.Transport.visc_fit; cond_fit; diff_fit }
