(* Fig. 9 in miniature: how warp count and code-generation strategy affect
   the DME viscosity kernel. Naive per-warp code thrashes the instruction
   cache once enough divergent paths exist; Singe's overlaid code keeps
   one shared instruction stream and peaks at warp counts that divide the
   30 computed species.

   Run with: dune exec examples/viscosity_study.exe *)

let () =
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  Printf.printf "%-10s %14s %14s %12s\n" "warps/CTA" "naive pts/s" "singe pts/s"
    "icache miss";
  List.iter
    (fun n_warps ->
      let run version =
        let options =
          Singe.Target.options ~n_warps arch Singe.Kernel_abi.Viscosity
        in
        let c =
          Singe.Diagnostics.ok_exn
            (Singe.Compile.compile mech Singe.Kernel_abi.Viscosity version
               options)
        in
        Singe.Compile.run c ~total_points:32768 ~ctas:128
      in
      match (run Singe.Compile.Naive_warp_specialized, run Singe.Compile.Warp_specialized) with
      | naive, singe ->
          Printf.printf "%-10d %14.3g %14.3g %12d\n%!" n_warps
            naive.Singe.Compile.machine.Gpusim.Chip.points_per_sec
            singe.Singe.Compile.machine.Gpusim.Chip.points_per_sec
            naive.Singe.Compile.machine.Gpusim.Chip.sim.Gpusim.Sm.icache
              .Gpusim.Caches.Icache.misses
      | exception Singe.Diagnostics.Fail d ->
          Printf.printf "%-10d (%s)\n%!" n_warps (Singe.Diagnostics.to_string d))
    [ 2; 3; 5; 6; 10; 15 ]
