(* Full-range NASA-7 thermodynamics: the branchless two-range Gibbs
   selection must match the (branching) host reference on grids spanning
   the polynomial mid temperature. *)

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme

let run ?(full = true) ?(t_range = (300.0, 2500.0)) mech version nw arch =
  let opts =
    { (Singe.Target.options ~n_warps:nw arch Singe.Kernel_abi.Chemistry) with
      Singe.Compile.full_range_thermo = full }
  in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile mech Singe.Kernel_abi.Chemistry version opts)
  in
  Singe.Compile.run c ~t_range ~total_points:(32 * 32)

let test_cold_grid_matches_reference () =
  let r = run (hydrogen ()) Singe.Compile.Warp_specialized 4 Gpusim.Arch.kepler_k20c in
  Alcotest.(check bool)
    (Printf.sprintf "full-range matches reference (%.2g)" r.Singe.Compile.max_rel_err)
    true
    (r.Singe.Compile.max_rel_err < 1e-9)

let test_single_range_fails_cold () =
  (* The guard rail: with full_range_thermo off, a grid below t_mid must
     NOT match — otherwise the feature tests nothing. *)
  let r =
    run ~full:false (hydrogen ()) Singe.Compile.Warp_specialized 4
      Gpusim.Arch.kepler_k20c
  in
  Alcotest.(check bool)
    (Printf.sprintf "high-range-only is wrong below t_mid (%.2g)"
       r.Singe.Compile.max_rel_err)
    true
    (r.Singe.Compile.max_rel_err > 1e-9)

let test_hot_grid_agrees_both_ways () =
  (* Above t_mid the two compilations select the same polynomial; the
     select is exact at sel=1, so outputs are bit-identical. *)
  let a =
    run ~full:true ~t_range:(1000.0, 2500.0) (hydrogen ())
      Singe.Compile.Warp_specialized 4 Gpusim.Arch.kepler_k20c
  in
  let b =
    run ~full:false ~t_range:(1000.0, 2500.0) (hydrogen ())
      Singe.Compile.Warp_specialized 4 Gpusim.Arch.kepler_k20c
  in
  Array.iteri
    (fun f fa ->
      Array.iteri
        (fun p v ->
          Alcotest.(check (float 0.0)) "bit-identical above t_mid" v
            b.Singe.Compile.outputs.(f).(p))
        fa)
    a.Singe.Compile.outputs

let test_full_range_baseline () =
  let r = run (hydrogen ()) Singe.Compile.Baseline 4 Gpusim.Arch.kepler_k20c in
  Alcotest.(check bool) "baseline full-range correct" true
    (r.Singe.Compile.max_rel_err < 1e-9)

let test_full_range_fermi () =
  let r = run (hydrogen ()) Singe.Compile.Warp_specialized 4 Gpusim.Arch.fermi_c2070 in
  Alcotest.(check bool) "fermi full-range correct" true
    (r.Singe.Compile.max_rel_err < 1e-9)

let test_thermo_reference_continuity () =
  (* The NASA tables themselves: cp and g are (by construction of the
     generated mechanisms) continuous at t_mid to a loose tolerance. *)
  let mech = dme () in
  Array.iter
    (fun (e : Chem.Thermo.entry) ->
      let below = Chem.Thermo.gibbs_over_rt e (e.Chem.Thermo.t_mid -. 1e-9) in
      let above = Chem.Thermo.gibbs_over_rt e (e.Chem.Thermo.t_mid +. 1e-9) in
      Alcotest.(check bool) "gibbs continuous at t_mid" true
        (Float.abs (below -. above) /. Float.max 1.0 (Float.abs above) < 1e-3))
    mech.Chem.Mechanism.thermo

let test_full_range_dme_slow () =
  let r = run (dme ()) Singe.Compile.Warp_specialized 8 Gpusim.Arch.kepler_k20c in
  Alcotest.(check bool) "dme full-range correct" true
    (r.Singe.Compile.max_rel_err < 1e-8)

let tests =
  [
    Alcotest.test_case "cold grid matches reference" `Quick test_cold_grid_matches_reference;
    Alcotest.test_case "single-range wrong below t_mid" `Quick test_single_range_fails_cold;
    Alcotest.test_case "bit-identical above t_mid" `Quick test_hot_grid_agrees_both_ways;
    Alcotest.test_case "baseline full-range" `Quick test_full_range_baseline;
    Alcotest.test_case "fermi full-range" `Quick test_full_range_fermi;
    Alcotest.test_case "tables continuous at t_mid" `Quick test_thermo_reference_continuity;
    Alcotest.test_case "dme full-range (slow)" `Slow test_full_range_dme_slow;
  ]
