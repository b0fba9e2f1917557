(* Compiler-pipeline properties across configurations: schedule
   well-formedness and barrier budgets, spill monotonicity in the register
   budget, constant-bank caps, and sync grouping. *)

let hydrogen = Chem.Mech_gen.hydrogen

let compile ?(mech = hydrogen ()) ?(kernel = Singe.Kernel_abi.Chemistry)
    ?(arch = Gpusim.Arch.kepler_k20c) ?freg_budget ?(mb = 8) ?(gs = true) nw =
  let opts =
    { (Singe.Compile.default_options arch) with
      Singe.Compile.n_warps = nw;
      max_barriers = mb;
      group_syncs = gs;
      freg_budget;
      ctas_per_sm_target = 1 }
  in
  Singe.Compile.compile mech kernel Singe.Compile.Warp_specialized opts

let test_schedule_well_formed_everywhere () =
  List.iter
    (fun kernel ->
      List.iter
        (fun nw ->
          let c = compile ~kernel nw in
          match
            Singe.Schedule.well_formed c.Singe.Compile.schedule
              c.Singe.Compile.dfg c.Singe.Compile.mapping
          with
          | Ok () -> ()
          | Error e ->
              Alcotest.fail
                (Printf.sprintf "%s nw=%d: %s"
                   (Singe.Kernel_abi.kernel_name kernel)
                   nw e))
        [ 2; 3; 4; 6 ])
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Conductivity;
      Singe.Kernel_abi.Diffusion; Singe.Kernel_abi.Chemistry ]

let test_barrier_budget_respected () =
  List.iter
    (fun mb ->
      let c = compile ~mb 4 in
      let used = c.Singe.Compile.schedule.Singe.Schedule.barriers_used in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d: used %d" mb used)
        true (used <= mb))
    [ 2; 4; 8; 16 ]

let test_spills_monotone_in_budget () =
  let spill b =
    (compile ?freg_budget:(Some b) 4).Singe.Compile.lowered
      .Singe.Lower.spill_bytes_per_thread
  in
  let s12 = spill 12 and s24 = spill 24 and s48 = spill 48 and s96 = spill 96 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %d >= %d >= %d >= %d" s12 s24 s48 s96)
    true
    (s12 >= s24 && s24 >= s48 && s48 >= s96);
  Alcotest.(check bool) "large budget eliminates spills" true (s96 = 0)

let test_bank_cap_respected () =
  List.iter
    (fun b ->
      let c = compile ~kernel:Singe.Kernel_abi.Viscosity ?freg_budget:(Some b) 4 in
      let bank = c.Singe.Compile.lowered.Singe.Lower.n_bank_regs in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d: %d bank regs" b bank)
        true
        (bank <= b * 11 / 20))
    [ 16; 24; 40; 80 ]

let test_grouping_reduces_sync_points () =
  let syncs gs =
    (compile ~kernel:Singe.Kernel_abi.Diffusion ~gs 4).Singe.Compile.schedule
      .Singe.Schedule.n_sync_points
  in
  Alcotest.(check bool) "grouped <= ungrouped" true (syncs true <= syncs false)

let test_regs_within_arch_cap () =
  List.iter
    (fun (arch : Gpusim.Arch.t) ->
      List.iter
        (fun kernel ->
          let c = compile ~arch ~kernel ~mb:16 4 in
          let p = c.Singe.Compile.lowered.Singe.Lower.program in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: %d regs32"
               (Singe.Kernel_abi.kernel_name kernel)
               arch.Gpusim.Arch.name
               (Gpusim.Isa.regs32_per_thread p))
            true
            (Gpusim.Isa.regs32_per_thread p
            <= arch.Gpusim.Arch.max_regs_per_thread))
        [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Chemistry ])
    [ Gpusim.Arch.fermi_c2070; Gpusim.Arch.kepler_k20c ]

let test_shared_within_cap () =
  List.iter
    (fun kernel ->
      let c = compile ~kernel ~mb:16 6 in
      let p = c.Singe.Compile.lowered.Singe.Lower.program in
      Alcotest.(check bool)
        (Singe.Kernel_abi.kernel_name kernel)
        true
        (p.Gpusim.Isa.shared_doubles * 8
        <= Gpusim.Arch.kepler_k20c.Gpusim.Arch.shared_bytes_per_sm))
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Conductivity;
      Singe.Kernel_abi.Diffusion; Singe.Kernel_abi.Chemistry ]

let test_generated_code_always_validates () =
  List.iter
    (fun (kernel, nw, budget) ->
      let c = compile ~kernel ?freg_budget:budget nw in
      match Gpusim.Isa.validate c.Singe.Compile.lowered.Singe.Lower.program with
      | Ok () -> ()
      | Error es ->
          Alcotest.fail
            (Printf.sprintf "%s nw=%d: %s"
               (Singe.Kernel_abi.kernel_name kernel)
               nw (String.concat "; " es)))
    [
      (Singe.Kernel_abi.Viscosity, 2, None);
      (Singe.Kernel_abi.Viscosity, 6, Some 12);
      (Singe.Kernel_abi.Conductivity, 4, None);
      (Singe.Kernel_abi.Diffusion, 3, Some 16);
      (Singe.Kernel_abi.Chemistry, 4, None);
      (Singe.Kernel_abi.Chemistry, 6, Some 14);
    ]

(* Every kernel x version x architecture the evaluation touches must go
   through the full pass pipeline with all four inter-pass validators
   clean — the compile-time equivalent of `singe compile --validate`. *)
let test_validation_clean_across_matrix () =
  List.iter
    (fun arch ->
      List.iter
        (fun version ->
          List.iter
            (fun kernel ->
              let opts =
                let n_warps =
                  if version = Singe.Compile.Baseline then 2 else 4
                in
                { (Singe.Target.options ~n_warps arch kernel) with
                  Singe.Compile.ctas_per_sm_target = 1 }
              in
              match
                Singe.Compile.compile_checked ~validate:true (hydrogen ())
                  kernel version opts
              with
              | Ok _ -> ()
              | Error d ->
                  Alcotest.fail
                    (Printf.sprintf "%s %s on %s: %s"
                       (Singe.Compile.version_name version)
                       (Singe.Kernel_abi.kernel_name kernel)
                       arch.Gpusim.Arch.name
                       (Singe.Diagnostics.to_string d)))
            [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Conductivity;
              Singe.Kernel_abi.Diffusion; Singe.Kernel_abi.Chemistry ])
        [ Singe.Compile.Warp_specialized; Singe.Compile.Baseline;
          Singe.Compile.Naive_warp_specialized ])
    [ Gpusim.Arch.fermi_c2070; Gpusim.Arch.kepler_k20c ]

let tests =
  [
    Alcotest.test_case "schedules well-formed" `Quick test_schedule_well_formed_everywhere;
    Alcotest.test_case "validators clean across the matrix" `Quick
      test_validation_clean_across_matrix;
    Alcotest.test_case "barrier budgets respected" `Quick test_barrier_budget_respected;
    Alcotest.test_case "spills monotone in budget" `Quick test_spills_monotone_in_budget;
    Alcotest.test_case "constant-bank cap" `Quick test_bank_cap_respected;
    Alcotest.test_case "grouping reduces syncs" `Quick test_grouping_reduces_sync_points;
    Alcotest.test_case "regs within arch cap" `Quick test_regs_within_arch_cap;
    Alcotest.test_case "shared within cap" `Quick test_shared_within_cap;
    Alcotest.test_case "generated code validates" `Quick test_generated_code_always_validates;
  ]
