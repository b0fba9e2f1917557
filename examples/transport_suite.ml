(* The full transport-coefficient suite: viscosity, thermal conductivity,
   and species diffusion — S3D's getcoeffs in miniature. Autotunes each
   kernel, runs it, and prints the resulting coefficient magnitudes for a
   sample point alongside throughput.

   (Conductivity is the repository's extension kernel: the paper evaluates
   viscosity and diffusion; the production code computes all three.)

   Run with: dune exec examples/transport_suite.exe *)

let () =
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  Printf.printf "%s on %s\n\n" mech.Chem.Mechanism.name arch.Gpusim.Arch.name;
  let sample_grid = Chem.Grid.create mech ~points:1 ~seed:7L in
  let temp = Chem.Grid.point_temperature sample_grid 0 in
  let x = Chem.Grid.point_mole_fracs sample_grid mech 0 in
  Printf.printf "sample point: T = %.0f K\n" temp;
  Printf.printf "  mixture viscosity     nu     = %.6g\n"
    (Chem.Ref_kernels.viscosity_point mech ~temp ~mole_frac:x);
  Printf.printf "  mixture conductivity  lambda = %.6g\n"
    (Chem.Ref_kernels.conductivity_point mech ~temp ~mole_frac:x);
  let d =
    Chem.Ref_kernels.diffusion_point mech ~temp
      ~pressure:(Chem.Grid.point_pressure sample_grid 0)
      ~mole_frac:x
  in
  Printf.printf "  diffusion Delta_0     D      = %.6g  (of %d species)\n\n"
    d.(0) (Array.length d);
  List.iter
    (fun kernel ->
      let o =
        Singe.Autotune.tune mech kernel Singe.Compile.Warp_specialized arch
      in
      let best = o.Singe.Autotune.best in
      Printf.printf
        "%-13s autotuned to %2d warps/CTA: %.3e points/s, %.1f GFLOPS \
         (rel err %.1e)\n%!"
        (Singe.Kernel_abi.kernel_name kernel)
        best.Singe.Autotune.options.Singe.Compile.n_warps
        best.Singe.Autotune.throughput
        best.Singe.Autotune.result.Singe.Compile.machine.Gpusim.Chip.gflops
        best.Singe.Autotune.result.Singe.Compile.max_rel_err)
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Conductivity;
      Singe.Kernel_abi.Diffusion ]
