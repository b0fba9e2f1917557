(* Building a mechanism programmatically — the API a downstream user
   would script against instead of CHEMKIN files — and running all three
   kernels on it.

   Run with: dune exec examples/custom_mechanism.exe *)

let () =
  (* A toy H2/O2 system. *)
  let sp name f = Chem.Species.of_formula ~name f in
  let species = [| sp "H2" "H2"; sp "H" "H"; sp "O2" "O2"; sp "O" "O";
                   sp "OH" "OH"; sp "H2O" "H2O" |] in
  let arr a b e = { Chem.Reaction.pre_exp = a; temp_exp = b; activation = e } in
  let reactions =
    [|
      Chem.Reaction.make ~label:"h2+o=oh+h" ~reactants:[ (0, 1); (3, 1) ]
        ~products:[ (4, 1); (1, 1) ]
        (Chem.Reaction.Simple (arr 5.1e4 2.67 6290.0));
      Chem.Reaction.make ~label:"h+o2=oh+o" ~reactants:[ (1, 1); (2, 1) ]
        ~products:[ (4, 1); (3, 1) ]
        (Chem.Reaction.Simple (arr 1.9e11 0.0 16440.0));
      Chem.Reaction.make ~label:"oh+h2=h2o+h" ~reactants:[ (4, 1); (0, 1) ]
        ~products:[ (5, 1); (1, 1) ]
        (Chem.Reaction.Simple (arr 2.1e5 1.51 3430.0));
      Chem.Reaction.make ~label:"h+oh(+m)=h2o(+m)" ~reactants:[ (1, 1); (4, 1) ]
        ~products:[ (5, 1) ]
        ~third_body:{ Chem.Reaction.enhanced = [ (5, 6.0) ] }
        (Chem.Reaction.Falloff
           { high = arr 1.0e12 0.2 0.0; low = arr 1.0e14 0.0 0.0;
             kind = Chem.Reaction.Lindemann });
    |]
  in
  (* Synthetic thermodynamics for the example (a real user parses a THERMO
     file instead). *)
  let rng = Sutil.Prng.create 11L in
  let thermo =
    Array.map
      (fun s ->
        let atoms = float_of_int (Chem.Species.total_atoms s) in
        let a1 = 2.5 +. (0.4 *. atoms) in
        let low = [| a1; 1e-4; 0.0; 0.0; 0.0;
                     -2000.0 *. atoms +. Sutil.Prng.range rng (-500.) 500.;
                     3.0 +. atoms |] in
        { Chem.Thermo.t_low = 300.0; t_mid = 1000.0; t_high = 5000.0;
          low; high = Array.copy low })
      species
  in
  let mech =
    Chem.Mechanism.make ~name:"toy-h2" ~species ~reactions ~thermo
      ~qssa:[| 3 |] ~stiff:[| 1 |] ()
  in
  (match Chem.Mechanism.validate mech with
  | Ok () -> Format.printf "built %a@." Chem.Mechanism.pp mech
  | Error l -> failwith (String.concat "; " l));
  let arch = Gpusim.Arch.fermi_c2070 in
  let options =
    { (Singe.Compile.default_options arch) with Singe.Compile.n_warps = 2 }
  in
  List.iter
    (fun kernel ->
      let c =
        Singe.Diagnostics.ok_exn
          (Singe.Compile.compile mech kernel Singe.Compile.Warp_specialized
             options)
      in
      let r = Singe.Compile.run c ~total_points:8192 in
      Printf.printf "%-10s: %.3g points/s, rel. error %.2g\n"
        (Singe.Kernel_abi.kernel_name kernel)
        r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
        r.Singe.Compile.max_rel_err)
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion; Singe.Kernel_abi.Chemistry ]
