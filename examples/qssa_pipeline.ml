(* The heptane chemistry kernel: QSSA warp siphoning (Fig. 6/7).

   Shows the partitioning Singe chooses — which warps run reaction rates,
   which are siphoned off for the quasi-steady-state computation, how much
   of the rate work the QSSA phase consumes — then compiles and verifies
   the kernel.

   Run with: dune exec examples/qssa_pipeline.exe *)

let () =
  let mech = Chem.Mech_gen.heptane () in
  let g = Chem.Qssa.build mech in
  Printf.printf "heptane: %d QSSA species; the QSSA phase reads %d of %d reactions (%.0f%%)\n"
    (Array.length g.Chem.Qssa.nodes)
    (List.length (Chem.Qssa.reactions_touched g))
    (Chem.Mechanism.n_reactions mech)
    (100.
    *. float_of_int (List.length (Chem.Qssa.reactions_touched g))
    /. float_of_int (Chem.Mechanism.n_reactions mech));
  Array.iteri
    (fun k (node : Chem.Qssa.node) ->
      if k < 5 then
        Printf.printf "  QSSA node %-12s: %3d rate terms, depends on nodes [%s]\n"
          mech.Chem.Mechanism.species.(node.Chem.Qssa.species).Chem.Species.name
          (List.length node.Chem.Qssa.produced_by + List.length node.Chem.Qssa.consumed_by)
          (String.concat "," (List.map string_of_int node.Chem.Qssa.deps)))
    g.Chem.Qssa.nodes;
  let n_warps = 16 in
  Printf.printf "\nwith %d warps per CTA, %d are siphoned off for QSSA\n" n_warps
    (Singe.Chemistry_dfg.n_qssa_warps ~n_warps ~n_qssa:(Array.length g.Chem.Qssa.nodes));
  let arch = Gpusim.Arch.kepler_k20c in
  let options = Singe.Target.options ~n_warps arch Singe.Kernel_abi.Chemistry in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile mech Singe.Kernel_abi.Chemistry
         Singe.Compile.Warp_specialized options)
  in
  Printf.printf "compiled: %d named barriers, %d sync points, %d buffer slots, %d B spilled/thread\n"
    c.Singe.Compile.schedule.Singe.Schedule.barriers_used
    c.Singe.Compile.schedule.Singe.Schedule.n_sync_points
    c.Singe.Compile.schedule.Singe.Schedule.buffer_slots
    c.Singe.Compile.lowered.Singe.Lower.spill_bytes_per_thread;
  let r = Singe.Compile.run c ~total_points:32768 in
  Printf.printf "ran: %.3g points/s, %.0f GFLOPS, worst rel. error %.2g\n"
    r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
    r.Singe.Compile.machine.Gpusim.Chip.gflops
    r.Singe.Compile.max_rel_err
