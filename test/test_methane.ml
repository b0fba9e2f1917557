(* The methane (GRI-3.0-footprint) mechanism: structure, chemistry
   integrity, and end-to-end compilation of all four kernels. *)

let methane = Chem.Mech_gen.methane

let test_footprint () =
  let m = methane () in
  Alcotest.(check int) "species" 53 (Chem.Mechanism.n_species m);
  Alcotest.(check int) "reactions" 325 (Chem.Mechanism.n_reactions m);
  Alcotest.(check int) "qssa" 6 (Chem.Mechanism.n_qssa m);
  Alcotest.(check int) "stiff" 12 (Chem.Mechanism.n_stiff m)

let test_element_conservation () =
  let m = methane () in
  Array.iter
    (fun (r : Chem.Reaction.t) ->
      match Chem.Reaction.element_balance m.Chem.Mechanism.species r with
      | Ok () -> ()
      | Error e -> Alcotest.fail (r.Chem.Reaction.label ^ ": " ^ e))
    m.Chem.Mechanism.reactions

let test_nitrogen_species_react () =
  (* The nitrogen sub-mechanism must actually participate: at least a few
     N-containing species appear in reactions. *)
  let m = methane () in
  let nitrogenous = ref 0 in
  Array.iteri
    (fun i sp ->
      if
        Chem.Species.atom_count sp Chem.Species.N > 0
        && Chem.Species.atom_count sp Chem.Species.H
           + Chem.Species.atom_count sp Chem.Species.C
           + Chem.Species.atom_count sp Chem.Species.O
           > 0
        && Array.exists
             (fun r -> Chem.Reaction.involves r i)
             m.Chem.Mechanism.reactions
      then incr nitrogenous)
    m.Chem.Mechanism.species;
  Alcotest.(check bool)
    (Printf.sprintf "%d nitrogenous species react" !nitrogenous)
    true (!nitrogenous >= 5)

let test_roundtrip_files () =
  let m = methane () in
  let chemkin = Chem.Mech_io.chemkin_of_mechanism m in
  let thermo = Chem.Mech_io.thermo_of_mechanism m in
  let transport = Chem.Mech_io.transport_of_mechanism m in
  let sets = Chem.Mech_io.species_sets_of_mechanism m in
  match Chem.Mech_io.load_strings ~species_sets:sets ~chemkin ~thermo ~transport ~name:"methane" () with
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  | Ok m2 ->
      Alcotest.(check int) "species survive" (Chem.Mechanism.n_species m)
        (Chem.Mechanism.n_species m2);
      Alcotest.(check int) "reactions survive" (Chem.Mechanism.n_reactions m)
        (Chem.Mechanism.n_reactions m2);
      Alcotest.(check int) "qssa survive" (Chem.Mechanism.n_qssa m)
        (Chem.Mechanism.n_qssa m2)

let test_all_kernels_slow () =
  let m = methane () in
  List.iter
    (fun (kernel, nw) ->
      let opts =
        { (Singe.Target.options ~n_warps:nw Gpusim.Arch.kepler_k20c kernel) with
          Singe.Compile.ctas_per_sm_target = 1 }
      in
      let c =
        Singe.Diagnostics.ok_exn
          (Singe.Compile.compile m kernel Singe.Compile.Warp_specialized opts)
      in
      let r = Singe.Compile.run c ~total_points:(32 * 32) in
      Alcotest.(check bool)
        (Printf.sprintf "%s correct (%.2g)"
           (Singe.Kernel_abi.kernel_name kernel)
           r.Singe.Compile.max_rel_err)
        true
        (r.Singe.Compile.max_rel_err < 1e-8))
    [
      (Singe.Kernel_abi.Viscosity, 6);
      (Singe.Kernel_abi.Conductivity, 6);
      (Singe.Kernel_abi.Diffusion, 4);
      (Singe.Kernel_abi.Chemistry, 8);
    ]

let tests =
  [
    Alcotest.test_case "GRI-3.0 footprint" `Quick test_footprint;
    Alcotest.test_case "elements conserved" `Quick test_element_conservation;
    Alcotest.test_case "nitrogen chemistry present" `Quick test_nitrogen_species_react;
    Alcotest.test_case "file round-trip" `Quick test_roundtrip_files;
    Alcotest.test_case "all kernels (slow)" `Slow test_all_kernels_slow;
  ]
