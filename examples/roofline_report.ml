(* Bound analysis across the whole evaluation matrix.

   For every kernel x version x architecture, prints the tightest static
   throughput ceiling (Perf_model.bounds: the model's per-batch demand on
   each resource), the resource that sets it, and the simulated
   throughput — the §6 narrative in one table: viscosity is
   math-throughput-bound, the data-parallel baselines are local-memory
   (spill) bound, and the warp-specialized chemistry kernels run far
   below their static ceiling because synchronization (which a roofline
   cannot see) dominates. The two stencil pipelines close the table.

   Run with: dune exec examples/roofline_report.exe *)

let () =
  let mech = Chem.Mech_gen.dme () in
  Printf.printf "%-10s %-5s %-7s %-28s %12s %12s %5s\n" "kernel" "ver"
    "arch" "binding resource" "ceiling" "achieved" "eff";
  List.iter
    (fun kernel ->
      List.iter
        (fun (version, vname) ->
          List.iter
            (fun (arch : Gpusim.Arch.t) ->
              let opts =
                let n_warps =
                  if version = Singe.Compile.Baseline then 4 else 8
                in
                { (Singe.Target.options ~n_warps arch kernel) with
                  Singe.Compile.ctas_per_sm_target = 1 }
              in
              match Singe.Compile.compile mech kernel version opts with
              | Ok c ->
                  let resource, ceiling =
                    List.hd (Singe.Perf_model.bounds c)
                  in
                  let r = Singe.Compile.run c ~total_points:32768 in
                  let achieved =
                    r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
                  in
                  Printf.printf "%-10s %-5s %-7s %-28s %12.3e %12.3e %4.0f%%\n%!"
                    (Singe.Kernel_abi.kernel_name kernel)
                    vname
                    (if arch == Gpusim.Arch.fermi_c2070 then "fermi" else "kepler")
                    resource ceiling achieved
                    (100.0 *. achieved /. ceiling)
              | Error d ->
                  Printf.printf "%-10s %-5s: %s\n%!"
                    (Singe.Kernel_abi.kernel_name kernel)
                    vname (Singe.Diagnostics.to_string d))
            [ Gpusim.Arch.fermi_c2070; Gpusim.Arch.kepler_k20c ])
        [ (Singe.Compile.Baseline, "base"); (Singe.Compile.Warp_specialized, "ws") ])
    ([ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion;
       Singe.Kernel_abi.Chemistry ]
    @ List.map (fun id -> Singe.Kernel_abi.Stencil id) Singe.Stencil_pipe.all_ids)
