(* Quickstart: the full Singe workflow on a small hydrogen/CO mechanism.

   1. write the four CHEMKIN-standard input files to a temporary
      directory,
   2. load them back through the parsers (then remove the directory),
   3. compile the viscosity kernel both ways (warp-specialized and
      data-parallel baseline),
   4. run both on the simulated Kepler K20c and check them against the
      host reference.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1-2: the file interface. A real user would ship their own CHEMKIN,
     THERMO and TRANSPORT files; here we emit them from the bundled
     hydrogen mechanism so the example is self-contained. *)
  let dir = Filename.temp_file "singe" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Chem.Mech_io.save_files (Chem.Mech_gen.hydrogen ()) ~dir;
  Printf.printf "wrote CHEMKIN inputs to %s\n" dir;
  let path suffix = Filename.concat dir ("hydrogen" ^ suffix) in
  let mech =
    match
      Chem.Mech_io.load_files ~species_sets_path:(path ".sets")
        ~chemkin_path:(path ".mech") ~thermo_path:(path ".therm")
        ~transport_path:(path ".tran") ~name:"hydrogen" ()
    with
    | Ok m -> m
    | Error e -> failwith (Chem.Srcloc.to_string e)
  in
  Format.printf "loaded %a@." Chem.Mechanism.pp mech;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;

  (* 3-4: compile and run. *)
  let arch = Gpusim.Arch.kepler_k20c in
  let options =
    Singe.Target.options ~n_warps:4 arch Singe.Kernel_abi.Viscosity
  in
  List.iter
    (fun (version, label) ->
      let compiled =
        Singe.Compile.compile mech Singe.Kernel_abi.Viscosity version options
      in
      let r = Singe.Compile.run compiled ~total_points:32768 in
      Printf.printf
        "%-15s: %.3g points/s, %.0f GFLOPS, worst rel. error vs reference %.2g\n"
        label
        r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
        r.Singe.Compile.machine.Gpusim.Chip.gflops
        r.Singe.Compile.max_rel_err)
    [
      (Singe.Compile.Baseline, "data-parallel");
      (Singe.Compile.Warp_specialized, "warp-specialized");
    ]
