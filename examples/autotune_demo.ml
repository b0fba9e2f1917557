(* Autotuning (§4): brute-force exhaustive search over the coarse design
   dimensions Singe exposes, exactly like the paper's tuning script.

   Run with: dune exec examples/autotune_demo.exe *)

let () =
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let outcome =
    Singe.Autotune.tune mech Singe.Kernel_abi.Diffusion
      Singe.Compile.Warp_specialized arch
  in
  Printf.printf "tried %d configurations (%d skipped as unbuildable)\n"
    outcome.Singe.Autotune.tried outcome.Singe.Autotune.skipped;
  let best = outcome.Singe.Autotune.best in
  Printf.printf "best: %d warps/CTA, %d target CTAs/SM -> %.3g points/s (%.0f GFLOPS)\n"
    best.Singe.Autotune.options.Singe.Compile.n_warps
    best.Singe.Autotune.options.Singe.Compile.ctas_per_sm_target
    best.Singe.Autotune.throughput
    best.Singe.Autotune.result.Singe.Compile.machine.Gpusim.Chip.gflops
