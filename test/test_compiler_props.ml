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
  Singe.Diagnostics.ok_exn
    (Singe.Compile.compile mech kernel Singe.Compile.Warp_specialized opts)

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
                Singe.Compile.compile ~validate:true (hydrogen ()) kernel
                  version opts
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

(* Generated targets (a slice of the whole-pipeline fuzzing): hydrogen
   viscosity, conductivity or diffusion at 2-16 warps on either
   architecture, hints on or off, finite non-negative mapping weights
   not all zero. The memoized and the fresh compile agree on the safety
   verdict and the program (or on the failure); an artifact whose
   verdict is an [Error] is refused by [Compile.run] with that
   diagnostic; any other runs 2,048 points without a simulation fault
   and matches the host oracle. A program whose shared footprint leaves
   no room for one CTA carries such a verdict, so the chip never rejects
   a launch here. Warps lean towards 16, where the greedy mapping
   overloads a warp without the hints. *)
let generated_targets_run_or_refuse =
  let kernels =
    Singe.Kernel_abi.[ Viscosity; Conductivity; Diffusion ]
  in
  let weight = QCheck.Gen.(oneof [ return 0.; return 1.; float_bound_inclusive 2. ]) in
  let gen =
    QCheck.Gen.(
      let* kernel = oneofl kernels in
      let* n_warps = oneof [ int_range 2 16; return 16 ] in
      let* arch = oneofl [ Gpusim.Arch.kepler_k20c; Gpusim.Arch.fermi_c2070 ] in
      let* respect_hints = bool in
      let* w_flops = weight and* w_regs = weight and* w_locality = weight in
      let w_locality =
        if w_flops = 0. && w_regs = 0. && w_locality = 0. then 1. else w_locality
      in
      return
        ( kernel,
          {
            (Singe.Target.options ~n_warps arch kernel) with
            Singe.Compile.respect_hints;
            weights = { Singe.Mapping.w_flops; w_regs; w_locality };
          } ))
  in
  let print (kernel, (o : Singe.Compile.options)) =
    Printf.sprintf "%s %d warps on %s, hints %b, weights %g/%g/%g"
      (Singe.Kernel_abi.kernel_name kernel)
      o.Singe.Compile.n_warps o.Singe.Compile.arch.Gpusim.Arch.name
      o.Singe.Compile.respect_hints o.Singe.Compile.weights.Singe.Mapping.w_flops
      o.Singe.Compile.weights.Singe.Mapping.w_regs
      o.Singe.Compile.weights.Singe.Mapping.w_locality
  in
  let mech = hydrogen () in
  let prop (kernel, options) =
    let compile ?memo () =
      Singe.Compile.compile ?memo mech kernel Singe.Compile.Warp_specialized
        options
    in
    match (compile ~memo:true (), compile ()) with
    | Error a, Error b -> a = b || QCheck.Test.fail_report "failures differ"
    | Ok _, Error d | Error d, Ok _ ->
        QCheck.Test.fail_reportf "only one path failed: %s"
          (Singe.Diagnostics.to_string d)
    | Ok cached, Ok fresh -> (
        let program (c : Singe.Compile.t) =
          c.Singe.Compile.lowered.Singe.Lower.program
        in
        if cached.Singe.Compile.verdict <> fresh.Singe.Compile.verdict then
          QCheck.Test.fail_report "memo and fresh verdicts differ";
        if program cached <> program fresh then
          QCheck.Test.fail_report "memo and fresh programs differ";
        let verdict = cached.Singe.Compile.verdict in
        match Singe.Compile.run cached ~total_points:2048 with
        | _ when Result.is_error verdict ->
            QCheck.Test.fail_report "an unsafe artifact was simulated"
        | r ->
            r.Singe.Compile.max_rel_err <= 1e-6
            || QCheck.Test.fail_reportf "oracle error %g"
                 r.Singe.Compile.max_rel_err
        | exception Singe.Diagnostics.Fail d -> (
            match verdict with
            | Error (pass, problems) ->
                d = Singe.Diagnostics.of_problems ~pass problems
                || QCheck.Test.fail_report "refused with another diagnostic"
            | Ok () ->
                QCheck.Test.fail_reportf "a safe artifact was refused: %s"
                  (Singe.Diagnostics.to_string d))
        | exception Gpusim.Sm.Simulation_fault f ->
            QCheck.Test.fail_reportf "simulation fault: %s"
              (Gpusim.Sm.fault_kind_name f.Gpusim.Sm.fault_kind))
  in
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count:40 ~name:"generated targets run or are refused"
       (QCheck.make ~print gen) prop)

(* Without the hints, these weights pile enough stores onto the ring
   that even an 8-slot buffer leaves no room for one CTA on Kepler. The
   compile stores one typed verdict from lowering that names the
   footprint and the SM's shared memory; [Compile.run] refuses with it
   instead of the chip rejecting the launch, and a validating compile
   fails with it. *)
let test_shared_footprint_over_one_sm () =
  let arch = Gpusim.Arch.kepler_k20c and kernel = Singe.Kernel_abi.Viscosity in
  let options =
    {
      (Singe.Target.options ~n_warps:16 arch kernel) with
      Singe.Compile.respect_hints = false;
      weights = { Singe.Mapping.w_flops = 0.; w_regs = 1.; w_locality = 0.716 };
    }
  in
  let compile ?validate () =
    Singe.Compile.compile ?validate (hydrogen ()) kernel
      Singe.Compile.Warp_specialized options
  in
  let c = Singe.Diagnostics.ok_exn (compile ()) in
  let bytes =
    c.Singe.Compile.lowered.Singe.Lower.program.Gpusim.Isa.shared_doubles * 8
  in
  let expect =
    Singe.Diagnostics.error ~pass:"lower"
      (Printf.sprintf
         "%s needs %d bytes of shared memory per CTA, over the %d bytes \
          (shared_bytes_per_sm) of one SM on %s: not even one CTA fits"
         c.Singe.Compile.lowered.Singe.Lower.program.Gpusim.Isa.name bytes
         arch.Gpusim.Arch.shared_bytes_per_sm arch.Gpusim.Arch.name)
  in
  Alcotest.(check bool) "over one SM" true
    (bytes > arch.Gpusim.Arch.shared_bytes_per_sm);
  let text = Singe.Diagnostics.to_string in
  (match Singe.Compile.run c ~total_points:2048 with
  | _ -> Alcotest.fail "simulated a program that cannot fit one CTA"
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check string) "run refuses with the verdict" (text expect)
        (text d));
  match compile ~validate:true () with
  | Ok _ -> Alcotest.fail "a validating compile accepted it"
  | Error d ->
      Alcotest.(check string) "a validating compile fails with it"
        (text expect) (text d)

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
    Alcotest.test_case "shared footprint over one SM fails" `Quick
      test_shared_footprint_over_one_sm;
    generated_targets_run_or_refuse;
  ]
