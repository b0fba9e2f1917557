(* Chemistry-substrate tests: species, thermo, transport fits, rate
   models, mechanisms, parsers, QSSA/stiffness structure, and reference
   kernels. *)

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme
let heptane = Chem.Mech_gen.heptane

let test_formula_parse () =
  match Chem.Species.parse_formula "C2H5O2" with
  | Ok comp ->
      let sp = Chem.Species.make ~name:"t" comp in
      Alcotest.(check int) "C" 2 (Chem.Species.atom_count sp Chem.Species.C);
      Alcotest.(check int) "H" 5 (Chem.Species.atom_count sp Chem.Species.H);
      Alcotest.(check int) "O" 2 (Chem.Species.atom_count sp Chem.Species.O)
  | Error e -> Alcotest.fail e

let test_formula_reject () =
  match Chem.Species.parse_formula "C2Q5" with
  | Ok _ -> Alcotest.fail "accepted bad formula"
  | Error _ -> ()

let test_molecular_mass () =
  let water = Chem.Species.of_formula ~name:"H2O" "H2O" in
  Alcotest.(check (float 1e-3)) "water mass" 18.015
    (Chem.Species.molecular_mass water)

let test_thermo_consistency () =
  (* g = h - T s must hold by construction at every temperature. *)
  let mech = dme () in
  Array.iter
    (fun e ->
      List.iter
        (fun t ->
          let g = Chem.Thermo.gibbs_over_rt e t in
          let h = Chem.Thermo.h_over_rt e t in
          let s = Chem.Thermo.s_over_r e t in
          Alcotest.(check (float 1e-9)) "g = h - s" (h -. s) g)
        [ 400.0; 1000.0; 1500.0; 2500.0 ])
    mech.Chem.Mechanism.thermo

let test_transport_fit_quality () =
  (* The cubic log-space fit tracks the kinetic-theory curve within a few
     percent across the fitted range. *)
  let mech = hydrogen () in
  Array.iteri
    (fun i sp ->
      List.iter
        (fun t ->
          let exact = Chem.Transport.kinetic_viscosity sp t in
          let fitted = Chem.Transport.viscosity mech.Chem.Mechanism.transport i t in
          let rel = abs_float (fitted -. exact) /. exact in
          Alcotest.(check bool)
            (Printf.sprintf "viscosity fit %s at %g" sp.Chem.Species.name t)
            true (rel < 0.05))
        [ 400.0; 800.0; 1600.0; 2800.0 ])
    mech.Chem.Mechanism.species

let test_diffusion_fit_symmetric () =
  let mech = hydrogen () in
  let tr = mech.Chem.Mechanism.transport in
  let n = Array.length mech.Chem.Mechanism.species in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        Alcotest.(check (float 1e-12))
          "d_ij = d_ji"
          (Chem.Transport.diffusion tr i j 1500.0)
          (Chem.Transport.diffusion tr j i 1500.0)
    done
  done

let test_constant_bytes () =
  (* The paper's Fig. for constant footprints: 13.9 KB (DME) and 42.4 KB
     (heptane), decimal kilobytes. *)
  let n mech = Array.length (Chem.Mechanism.computed_species mech) in
  Alcotest.(check int) "dme viscosity constants" 13920
    (Chem.Transport.constant_bytes ~n:(n (dme ())));
  Alcotest.(check int) "heptane viscosity constants" 42432
    (Chem.Transport.constant_bytes ~n:(n (heptane ())))

let test_arrhenius_monotone () =
  let a = { Chem.Reaction.pre_exp = 1e10; temp_exp = 0.0; activation = 20000.0 } in
  let k1 = Chem.Rates.arrhenius a 1000.0 and k2 = Chem.Rates.arrhenius a 2000.0 in
  Alcotest.(check bool) "activated rate grows with T" true (k2 > k1)

let test_third_body_default () =
  let mech = hydrogen () in
  let r = Chem.Reaction.make ~reactants:[ (0, 1) ] ~products:[ (1, 2) ]
      (Chem.Reaction.Simple { Chem.Reaction.pre_exp = 1.0; temp_exp = 0.0; activation = 0.0 }) in
  ignore mech;
  let conc = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-12)) "[M] = total" 6.0
    (Chem.Rates.third_body_conc r conc)

let test_irreversible_reverse_zero () =
  let mech = hydrogen () in
  let r = Chem.Reaction.make ~reverse:Chem.Reaction.Irreversible
      ~reactants:[ (0, 1) ] ~products:[ (1, 1) ]
      (Chem.Reaction.Simple { Chem.Reaction.pre_exp = 1e5; temp_exp = 0.0; activation = 0.0 }) in
  let kr = Chem.Rates.reverse_coeff mech.Chem.Mechanism.thermo r ~temp:1500.0
      ~forward:1.0 ~conc:[| 1.0; 1.0 |] in
  Alcotest.(check (float 0.0)) "kr = 0" 0.0 kr

let test_element_conservation () =
  (* Net production rates conserve every element exactly (balanced
     reactions), up to floating-point cancellation noise. *)
  let mech = hydrogen () in
  let n = Chem.Mechanism.n_species mech in
  let conc = Array.init n (fun i -> 0.1 +. (0.05 *. float_of_int i)) in
  let wdot =
    Chem.Rates.production_rates mech.Chem.Mechanism.thermo
      mech.Chem.Mechanism.reactions ~temp:1400.0 ~conc ~n
  in
  let wmax = Array.fold_left (fun a v -> Float.max a (abs_float v)) 0.0 wdot in
  for e = 0 to 5 do
    let total = ref 0.0 in
    Array.iteri
      (fun i w ->
        let comp = Chem.Species.composition_vector mech.Chem.Mechanism.species.(i) in
        total := !total +. (w *. float_of_int comp.(e)))
      wdot;
    Alcotest.(check bool) "element conserved" true
      (abs_float !total <= 1e-10 *. wmax)
  done

let test_mech_counts () =
  let check mech (nr, ns, nq, nst) =
    Alcotest.(check int) "reactions" nr (Chem.Mechanism.n_reactions mech);
    Alcotest.(check int) "species" ns (Chem.Mechanism.n_species mech);
    Alcotest.(check int) "qssa" nq (Chem.Mechanism.n_qssa mech);
    Alcotest.(check int) "stiff" nst (Chem.Mechanism.n_stiff mech)
  in
  check (dme ()) (175, 39, 9, 22);
  check (heptane ()) (283, 68, 16, 27)

let test_mech_validate () =
  List.iter
    (fun mech ->
      match Chem.Mechanism.validate mech with
      | Ok () -> ()
      | Error l -> Alcotest.fail (String.concat "; " l))
    [ hydrogen (); dme (); heptane () ]

let test_computed_species () =
  Alcotest.(check int) "heptane computes 52 species" 52
    (Array.length (Chem.Mechanism.computed_species (heptane ())));
  Alcotest.(check int) "dme computes 30 species" 30
    (Array.length (Chem.Mechanism.computed_species (dme ())))

let test_roundtrip mechf () =
  (* Write the four input files and load them back: structure must
     survive. *)
  let mech = mechf () in
  let chemkin = Chem.Mech_io.chemkin_of_mechanism mech in
  let thermo = Chem.Mech_io.thermo_of_mechanism mech in
  let transport = Chem.Mech_io.transport_of_mechanism mech in
  let sets = Chem.Mech_io.species_sets_of_mechanism mech in
  match
    Chem.Mech_io.load_strings ~species_sets:sets ~chemkin ~thermo ~transport
      ~name:mech.Chem.Mechanism.name ()
  with
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  | Ok m2 ->
      Alcotest.(check int) "species" (Chem.Mechanism.n_species mech)
        (Chem.Mechanism.n_species m2);
      Alcotest.(check int) "reactions" (Chem.Mechanism.n_reactions mech)
        (Chem.Mechanism.n_reactions m2);
      Alcotest.(check int) "qssa" (Chem.Mechanism.n_qssa mech)
        (Chem.Mechanism.n_qssa m2);
      Alcotest.(check int) "stiff" (Chem.Mechanism.n_stiff mech)
        (Chem.Mechanism.n_stiff m2);
      (* a couple of random spot checks of parsed rate data *)
      Array.iteri
        (fun i (r : Chem.Reaction.t) ->
          let r2 = m2.Chem.Mechanism.reactions.(i) in
          Alcotest.(check bool) "same reactants" true
            (r.Chem.Reaction.reactants = r2.Chem.Reaction.reactants);
          Alcotest.(check bool) "same falloffness" true
            (Chem.Reaction.is_falloff r = Chem.Reaction.is_falloff r2))
        mech.Chem.Mechanism.reactions

let test_parse_figure4 () =
  (* The paper's Fig. 4 sample, lightly completed. *)
  let text = {|
ELEMENTS
H C O N
END
SPECIES
CH3 H CH4 H2 OH H2O M2
END
REACTIONS
!1
ch3+h(+m) = ch4(+m)   2.138e+15  -0.40  0.000E+00
  low / 3.310E+30 -4.00 2108. /
  troe/0.0 1.E-15 1.E-15 40./
  h2/2/ h2o/5/
!2
ch4+h = ch3+h2        1.727E+04  3.00   8.224E+03
  rev / 6.610E+02 3.00 7.744E+03 /
!3
ch4+oh = ch3+h2o      1.930E+05  2.40   2.106E+03
  rev / 3.199E+04 2.40 1.678E+04 /
END
|} in
  match Chem.Chemkin_parser.parse text with
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  | Ok parsed ->
      Alcotest.(check int) "3 reactions" 3
        (List.length parsed.Chem.Chemkin_parser.raw_reactions);
      let r1 = List.hd parsed.Chem.Chemkin_parser.raw_reactions in
      Alcotest.(check bool) "falloff" true r1.Chem.Chemkin_parser.falloff;
      Alcotest.(check bool) "troe present" true (r1.Chem.Chemkin_parser.troe <> None);
      Alcotest.(check int) "efficiencies" 2
        (List.length r1.Chem.Chemkin_parser.efficiencies);
      (match Chem.Chemkin_parser.rate_model_of_raw r1 with
      | Ok (Chem.Reaction.Falloff { kind = Chem.Reaction.Troe _; _ }) -> ()
      | Ok _ -> Alcotest.fail "expected troe falloff"
      | Error e -> Alcotest.fail (Chem.Srcloc.to_string e));
      let r2 = List.nth parsed.Chem.Chemkin_parser.raw_reactions 1 in
      Alcotest.(check bool) "rev" true (r2.Chem.Chemkin_parser.rev <> None)

let test_parser_errors () =
  (match Chem.Chemkin_parser.parse "REACTIONS\n???\nEND" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match Chem.Chemkin_parser.parse "REACTIONS\n  low / 1 2 3 /\nEND" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted auxiliary before reaction"

let test_qssa_structure () =
  List.iter
    (fun mechf ->
      let mech = mechf () in
      let g = Chem.Qssa.build mech in
      Alcotest.(check bool) "well ordered" true (Chem.Qssa.well_ordered g);
      let frac =
        float_of_int (List.length (Chem.Qssa.reactions_touched g))
        /. float_of_int (Chem.Mechanism.n_reactions mech)
      in
      (* the paper: QSSA needs between half and two-thirds of the rates *)
      Alcotest.(check bool) "touched fraction plausible" true
        (frac > 0.3 && frac < 0.85))
    [ dme; heptane ]

let test_ref_kernels_sane () =
  let mech = hydrogen () in
  let grid = Chem.Grid.create mech ~points:8 ~seed:3L in
  for p = 0 to 7 do
    let temp = Chem.Grid.point_temperature grid p in
    let x = Chem.Grid.point_mole_fracs grid mech p in
    let visc = Chem.Ref_kernels.viscosity_point mech ~temp ~mole_frac:x in
    Alcotest.(check bool) "viscosity positive" true (visc > 0.0 && Float.is_finite visc);
    let d =
      Chem.Ref_kernels.diffusion_point mech ~temp
        ~pressure:(Chem.Grid.point_pressure grid p) ~mole_frac:x
    in
    Array.iter
      (fun v -> Alcotest.(check bool) "diffusion positive" true (v > 0.0 && Float.is_finite v))
      d;
    let r =
      Chem.Ref_kernels.chemistry_point mech ~temp
        ~pressure:(Chem.Grid.point_pressure grid p) ~mole_frac:x
        ~diffusion:(Chem.Grid.point_diffusion grid p)
    in
    Array.iter
      (fun v -> Alcotest.(check bool) "wdot finite" true (Float.is_finite v))
      r.Chem.Ref_kernels.wdot;
    Array.iter
      (fun g -> Alcotest.(check bool) "gamma in (0,1]" true (g > 0.0 && g <= 1.0))
      r.Chem.Ref_kernels.stiff_gammas
  done

let test_grid_normalized () =
  let mech = dme () in
  let grid = Chem.Grid.create mech ~points:16 ~seed:5L in
  for p = 0 to 15 do
    let x = Chem.Grid.point_mole_fracs grid mech p in
    let total = Array.fold_left ( +. ) 0.0 x in
    Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0 total;
    Array.iter (fun sp -> Alcotest.(check (float 0.0)) "qssa zero" 0.0 x.(sp))
      mech.Chem.Mechanism.qssa;
    Alcotest.(check bool) "T in thermo high range" true
      (Chem.Grid.point_temperature grid p >= 1000.0)
  done

let qcheck_troe_positive =
  QCheck.Test.make ~count:300 ~name:"troe blending positive and finite"
    QCheck.(
      quad (float_range 0.01 0.99) (float_range 50.0 3000.0)
        (float_range 50.0 3000.0) (float_range 1e-6 1e6))
    (fun (alpha, t3, t1, pr) ->
      let p = { Chem.Reaction.alpha; t3; t1; t2 = 0.0 } in
      let f = Chem.Rates.troe_blending p ~temp:1500.0 ~pr in
      Float.is_finite f && f > 0.0)

let tests =
  [
    Alcotest.test_case "formula parse" `Quick test_formula_parse;
    Alcotest.test_case "formula reject" `Quick test_formula_reject;
    Alcotest.test_case "molecular mass" `Quick test_molecular_mass;
    Alcotest.test_case "thermo g=h-Ts" `Quick test_thermo_consistency;
    Alcotest.test_case "transport fit quality" `Quick test_transport_fit_quality;
    Alcotest.test_case "diffusion fit symmetric" `Quick test_diffusion_fit_symmetric;
    Alcotest.test_case "constant footprints (13.9/42.4 KB)" `Quick test_constant_bytes;
    Alcotest.test_case "arrhenius monotone" `Quick test_arrhenius_monotone;
    Alcotest.test_case "third body default" `Quick test_third_body_default;
    Alcotest.test_case "irreversible kr=0" `Quick test_irreversible_reverse_zero;
    Alcotest.test_case "element conservation" `Quick test_element_conservation;
    Alcotest.test_case "mechanism counts (Fig 3)" `Quick test_mech_counts;
    Alcotest.test_case "mechanism validation" `Quick test_mech_validate;
    Alcotest.test_case "computed species counts" `Quick test_computed_species;
    Alcotest.test_case "round trip hydrogen" `Quick (test_roundtrip hydrogen);
    Alcotest.test_case "round trip dme" `Quick (test_roundtrip dme);
    Alcotest.test_case "round trip heptane" `Quick (test_roundtrip heptane);
    Alcotest.test_case "parse Fig 4 sample" `Quick test_parse_figure4;
    Alcotest.test_case "parser rejects garbage" `Quick test_parser_errors;
    Alcotest.test_case "qssa structure" `Quick test_qssa_structure;
    Alcotest.test_case "reference kernels sane" `Quick test_ref_kernels_sane;
    Alcotest.test_case "grid fields" `Quick test_grid_normalized;
    QCheck_alcotest.to_alcotest qcheck_troe_positive;
  ]
