(* Full-range thermodynamics: chemistry on a grid spanning 300-2500 K.

   The NASA-7 standard fits two polynomial ranges per species split at
   t_mid (1000 K). The default kernels evaluate only the high range — the
   combustion-relevant regime — but with
   [Compile.options.full_range_thermo] the compiler emits both ranges and
   a branchless select (the ISA has no data-dependent branches), so cold
   inflow regions of a simulation domain are handled too.

   Run with: dune exec examples/full_range_combustion.exe *)

let () =
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let compile ~full =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile mech Singe.Kernel_abi.Chemistry
         Singe.Compile.Warp_specialized
         { (Singe.Target.options ~n_warps:4 arch Singe.Kernel_abi.Chemistry) with
           Singe.Compile.full_range_thermo = full })
  in
  let hot = (1000.0, 2500.0) and cold = (300.0, 2500.0) in
  let show label c t_range =
    match Singe.Compile.run c ~t_range ~total_points:(32 * 32) with
    | r ->
        Printf.printf "  %-34s rel. error vs reference %.2e  (%.3e points/s)\n"
          label r.Singe.Compile.max_rel_err
          r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
    | exception Failure msg -> Printf.printf "  %-34s %s\n" label msg
  in
  let single = compile ~full:false in
  let full = compile ~full:true in
  Printf.printf "grid T in [1000, 2500] K (all points above t_mid):\n";
  show "single-range kernel" single hot;
  show "full-range kernel" full hot;
  Printf.printf "grid T in [300, 2500] K (cold inflow present):\n";
  show "single-range kernel (wrong!)" single cold;
  show "full-range kernel" full cold;
  let instrs c =
    Gpusim.Isa.static_instr_count
      c.Singe.Compile.lowered.Singe.Lower.program.Gpusim.Isa.body
  in
  Printf.printf "code size: %d instructions single-range, %d full-range\n"
    (instrs single) (instrs full)
