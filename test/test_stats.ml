(* Static analysis (Isa_stats) and roofline bounds: internal consistency,
   and the simulator must never beat a static ceiling. *)

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme

let compile mech kernel version arch nw =
  let opts =
    { (Singe.Target.options ~n_warps:nw arch kernel) with
      Singe.Compile.ctas_per_sm_target = 1 }
  in
  Singe.Diagnostics.ok_exn (Singe.Compile.compile mech kernel version opts)

let test_mix_totals () =
  let c =
    compile (hydrogen ()) Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized Gpusim.Arch.kepler_k20c 4
  in
  let p = c.Singe.Compile.lowered.Singe.Lower.program in
  let m = Gpusim.Isa_stats.mix_of_block p.Gpusim.Isa.body in
  Alcotest.(check int) "mix total = static count"
    (Gpusim.Isa.static_instr_count p.Gpusim.Isa.body)
    m.Gpusim.Isa_stats.total;
  let parts =
    m.Gpusim.Isa_stats.dp_arith + m.Gpusim.Isa_stats.dp_special
    + m.Gpusim.Isa_stats.global_mem + m.Gpusim.Isa_stats.shared_mem
    + m.Gpusim.Isa_stats.local_mem + m.Gpusim.Isa_stats.const_loads
    + m.Gpusim.Isa_stats.shuffles + m.Gpusim.Isa_stats.barriers
    + m.Gpusim.Isa_stats.moves
  in
  Alcotest.(check int) "categories partition the total" m.Gpusim.Isa_stats.total parts

let test_per_warp_sane () =
  let c =
    compile (dme ()) Singe.Kernel_abi.Chemistry Singe.Compile.Warp_specialized
      Gpusim.Arch.kepler_k20c 4
  in
  let p = c.Singe.Compile.lowered.Singe.Lower.program in
  let s = Gpusim.Isa_stats.of_program Gpusim.Arch.kepler_k20c p in
  Alcotest.(check int) "one row per warp" 4 (Array.length s.Gpusim.Isa_stats.warps);
  Array.iter
    (fun w ->
      Alcotest.(check bool) "warp executes instructions" true
        (w.Gpusim.Isa_stats.instrs > 0);
      Alcotest.(check bool) "warp contributes flops" true
        (w.Gpusim.Isa_stats.flops > 0))
    s.Gpusim.Isa_stats.warps;
  Alcotest.(check bool) "imbalance >= 1" true (s.Gpusim.Isa_stats.imbalance >= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "mapping keeps warps balanced (%.2f)" s.Gpusim.Isa_stats.imbalance)
    true
    (s.Gpusim.Isa_stats.imbalance < 2.0);
  Alcotest.(check bool) "flops/point positive" true
    (s.Gpusim.Isa_stats.flops_per_point > 0.0)

let test_baseline_has_no_named_barriers () =
  (* The data-parallel baseline never synchronizes producer-consumer style;
     only the batch-end CTA barrier may appear. *)
  let c =
    compile (hydrogen ()) Singe.Kernel_abi.Viscosity Singe.Compile.Baseline
      Gpusim.Arch.kepler_k20c 4
  in
  let p = c.Singe.Compile.lowered.Singe.Lower.program in
  let named = ref 0 in
  Gpusim.Isa.iter_instrs p.Gpusim.Isa.body (fun i ->
      match i with
      | Gpusim.Isa.Bar_arrive _ | Gpusim.Isa.Bar_sync _ -> incr named
      | _ -> ());
  Alcotest.(check int) "no named barriers" 0 !named;
  let m = Gpusim.Isa_stats.mix_of_block p.Gpusim.Isa.body in
  Alcotest.(check bool) "at most the batch-end CTA barrier" true
    (m.Gpusim.Isa_stats.barriers <= 1);
  Alcotest.(check int) "no shuffles" 0 m.Gpusim.Isa_stats.shuffles

let test_roofline_bounds_simulation () =
  (* The binding static ceiling must dominate the simulated throughput. *)
  List.iter
    (fun (kernel, version, arch) ->
      let c = compile (hydrogen ()) kernel version arch 4 in
      let p = c.Singe.Compile.lowered.Singe.Lower.program in
      let roof = Gpusim.Roofline.analyze arch p in
      let r = Singe.Compile.run c ~total_points:(32 * 32) in
      let achieved = r.Singe.Compile.machine.Gpusim.Chip.points_per_sec in
      let ceiling = roof.Gpusim.Roofline.binding.Gpusim.Roofline.points_per_sec in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s on %s: %.3e <= %.3e (%s)"
           (Singe.Kernel_abi.kernel_name kernel)
           (match version with
           | Singe.Compile.Baseline -> "base"
           | _ -> "ws")
           arch.Gpusim.Arch.name achieved ceiling
           roof.Gpusim.Roofline.binding.Gpusim.Roofline.resource)
        true
        (achieved <= ceiling *. 1.02))
    [
      (Singe.Kernel_abi.Viscosity, Singe.Compile.Warp_specialized, Gpusim.Arch.kepler_k20c);
      (Singe.Kernel_abi.Viscosity, Singe.Compile.Baseline, Gpusim.Arch.kepler_k20c);
      (Singe.Kernel_abi.Diffusion, Singe.Compile.Warp_specialized, Gpusim.Arch.fermi_c2070);
      (Singe.Kernel_abi.Chemistry, Singe.Compile.Warp_specialized, Gpusim.Arch.kepler_k20c);
      (Singe.Kernel_abi.Chemistry, Singe.Compile.Baseline, Gpusim.Arch.fermi_c2070);
    ]

let test_roofline_bounds_all_sane () =
  let c =
    compile (hydrogen ()) Singe.Kernel_abi.Diffusion
      Singe.Compile.Warp_specialized Gpusim.Arch.kepler_k20c 4
  in
  let p = c.Singe.Compile.lowered.Singe.Lower.program in
  let roof = Gpusim.Roofline.analyze Gpusim.Arch.kepler_k20c p in
  Alcotest.(check bool) "at least issue+dp bounds" true
    (List.length roof.Gpusim.Roofline.bounds >= 2);
  let sorted =
    List.for_all2
      (fun a b ->
        a.Gpusim.Roofline.points_per_sec <= b.Gpusim.Roofline.points_per_sec)
      (List.filteri (fun i _ -> i < List.length roof.Gpusim.Roofline.bounds - 1)
         roof.Gpusim.Roofline.bounds)
      (List.tl roof.Gpusim.Roofline.bounds)
  in
  Alcotest.(check bool) "sorted tightest-first" true sorted

let test_ws_cuts_local_traffic () =
  (* §6.3's claim, statically: warp specialization reduces spill
     instructions relative to the data-parallel baseline. *)
  let local version =
    let c =
      compile (dme ()) Singe.Kernel_abi.Chemistry version
        Gpusim.Arch.kepler_k20c 8
    in
    (Gpusim.Isa_stats.mix_of_block
       c.Singe.Compile.lowered.Singe.Lower.program.Gpusim.Isa.body)
      .Gpusim.Isa_stats.local_mem
  in
  let base = local Singe.Compile.Baseline in
  let ws = local Singe.Compile.Warp_specialized in
  Alcotest.(check bool)
    (Printf.sprintf "ws spill instrs (%d) < baseline (%d)" ws base)
    true (ws < base)

let tests =
  [
    Alcotest.test_case "mix totals partition" `Quick test_mix_totals;
    Alcotest.test_case "per-warp stats sane" `Quick test_per_warp_sane;
    Alcotest.test_case "baseline barrier-free" `Quick test_baseline_has_no_named_barriers;
    Alcotest.test_case "roofline dominates simulation" `Quick test_roofline_bounds_simulation;
    Alcotest.test_case "roofline bounds sorted" `Quick test_roofline_bounds_all_sane;
    Alcotest.test_case "ws cuts spill instructions" `Quick test_ws_cuts_local_traffic;
  ]
