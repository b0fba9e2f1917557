(* The thermal-conductivity extension kernel: reference behaviour, DFG
   correctness across versions and architectures, and its transport fits. *)

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme
let heptane = Chem.Mech_gen.heptane

let run mech version arch nw =
  let opts =
    { (Singe.Compile.default_options arch) with Singe.Compile.n_warps = nw }
  in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile mech Singe.Kernel_abi.Conductivity version opts)
  in
  Singe.Compile.run c ~total_points:(32 * 32)

let test_fit_tracks_kinetic () =
  (* The cubic log fit must track the kinetic-theory values within a few
     percent over the fit range. *)
  let mech = dme () in
  let sp = mech.Chem.Mechanism.species in
  Array.iteri
    (fun i s ->
      List.iter
        (fun t ->
          let exact = Chem.Transport.kinetic_conductivity s t in
          let fitted =
            Chem.Transport.conductivity mech.Chem.Mechanism.transport i t
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s at %.0fK: %.3g vs %.3g" s.Chem.Species.name t
               exact fitted)
            true
            (Float.abs (fitted -. exact) /. exact < 0.05))
        [ 400.0; 1000.0; 1800.0; 2600.0 ])
    sp

let test_pure_species_limit () =
  (* A mixture that is overwhelmingly one species has (approximately) that
     species' conductivity: both Mathur sums collapse to x lambda and
     x / lambda. *)
  let mech = hydrogen () in
  let computed = Chem.Mechanism.computed_species mech in
  let n_all = Chem.Mechanism.n_species mech in
  let x = Array.make n_all 1e-12 in
  let k0 = computed.(0) in
  x.(k0) <- 1.0;
  let lam_mix = Chem.Ref_kernels.conductivity_point mech ~temp:1500.0 ~mole_frac:x in
  let lam_pure =
    Chem.Transport.conductivity mech.Chem.Mechanism.transport k0 1500.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "mixture %.4g ~ pure %.4g" lam_mix lam_pure)
    true
    (Float.abs (lam_mix -. lam_pure) /. lam_pure < 0.05)

let test_conductivity_positive_monotone_t () =
  (* Gas conductivity grows with temperature. *)
  let mech = dme () in
  let computed = Chem.Mechanism.computed_species mech in
  let n_all = Chem.Mechanism.n_species mech in
  let x = Array.make n_all 0.0 in
  Array.iter (fun sp -> x.(sp) <- 1.0 /. float_of_int (Array.length computed)) computed;
  let v t = Chem.Ref_kernels.conductivity_point mech ~temp:t ~mole_frac:x in
  Alcotest.(check bool) "positive" true (v 1000.0 > 0.0);
  Alcotest.(check bool) "monotone in T" true (v 2200.0 > v 1200.0)

let test_end_to_end () =
  List.iter
    (fun (mech, nw, version, arch) ->
      let r = run (mech ()) version arch nw in
      Alcotest.(check bool)
        (Printf.sprintf "correct (%.2g)" r.Singe.Compile.max_rel_err)
        true
        (r.Singe.Compile.max_rel_err < 1e-12))
    [
      (hydrogen, 3, Singe.Compile.Warp_specialized, Gpusim.Arch.kepler_k20c);
      (hydrogen, 4, Singe.Compile.Baseline, Gpusim.Arch.kepler_k20c);
      (hydrogen, 3, Singe.Compile.Naive_warp_specialized, Gpusim.Arch.kepler_k20c);
      (dme, 6, Singe.Compile.Warp_specialized, Gpusim.Arch.kepler_k20c);
      (dme, 6, Singe.Compile.Warp_specialized, Gpusim.Arch.fermi_c2070);
      (heptane, 8, Singe.Compile.Warp_specialized, Gpusim.Arch.kepler_k20c);
    ]

let test_naive_equals_overlay () =
  (* Pin the launch to one CTA: the two versions have different register
     demand (the overlay deduplicates constants), so a free launch picks
     different occupancies and the simulated round covers different
     points — the outputs would be individually correct but not
     pointwise comparable. *)
  let run_pinned mech version arch nw =
    let opts =
      { (Singe.Compile.default_options arch) with Singe.Compile.n_warps = nw }
    in
    let c =
      Singe.Diagnostics.ok_exn
        (Singe.Compile.compile mech Singe.Kernel_abi.Conductivity version opts)
    in
    Singe.Compile.run c ~ctas:1 ~total_points:(32 * 32)
  in
  let a =
    run_pinned (dme ()) Singe.Compile.Warp_specialized Gpusim.Arch.kepler_k20c 6
  in
  let b =
    run_pinned (dme ())
      Singe.Compile.Naive_warp_specialized Gpusim.Arch.kepler_k20c 6
  in
  Array.iteri
    (fun f fa ->
      Array.iteri
        (fun p v ->
          Alcotest.(check (float 0.0)) "bit-identical" v
            b.Singe.Compile.outputs.(f).(p))
        fa)
    a.Singe.Compile.outputs

let test_partition_covers_species () =
  let n = 52 and n_warps = 7 in
  let owned = Array.make n false in
  for k = 0 to n - 1 do
    let w = Singe.Conductivity_dfg.species_warp ~n ~n_warps k in
    Alcotest.(check bool) "warp in range" true (w >= 0 && w < n_warps);
    owned.(k) <- true
  done;
  Alcotest.(check bool) "every species owned" true (Array.for_all Fun.id owned)

let test_autotune_conductivity () =
  let o =
    Singe.Autotune.tune ~points:(32 * 32) ~warp_candidates:[ 2; 3 ]
      ~cta_targets:[ 1 ] (hydrogen ()) Singe.Kernel_abi.Conductivity
      Singe.Compile.Warp_specialized Gpusim.Arch.kepler_k20c
  in
  Alcotest.(check bool) "winner verified" true
    (o.Singe.Autotune.best.Singe.Autotune.result.Singe.Compile.max_rel_err < 1e-6)

let tests =
  [
    Alcotest.test_case "fit tracks kinetic theory" `Quick test_fit_tracks_kinetic;
    Alcotest.test_case "pure-species limit" `Quick test_pure_species_limit;
    Alcotest.test_case "positive, monotone in T" `Quick test_conductivity_positive_monotone_t;
    Alcotest.test_case "end-to-end" `Quick test_end_to_end;
    Alcotest.test_case "naive == overlay" `Quick test_naive_equals_overlay;
    Alcotest.test_case "partition covers species" `Quick test_partition_covers_species;
    Alcotest.test_case "autotune" `Quick test_autotune_conductivity;
  ]
