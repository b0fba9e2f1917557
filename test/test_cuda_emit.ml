(* CUDA source emission: structural invariants of the generated .cu text
   (we cannot compile CUDA here, so assert the constructs the paper's
   listings show are present and the text is well-formed). *)

let emit mech kernel version arch nw =
  let opts =
    { (Singe.Target.options ~n_warps:nw arch kernel) with
      Singe.Compile.ctas_per_sm_target = 1 }
  in
  let c = Singe.Diagnostics.ok_exn (Singe.Compile.compile mech kernel version opts) in
  Singe.Cuda_emit.emit ~arch c.Singe.Compile.lowered.Singe.Lower.program

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let balanced text =
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      if c = '{' then incr depth
      else if c = '}' then begin
        decr depth;
        if !depth < 0 then ok := false
      end)
    text;
  !ok && !depth = 0

let test_ws_kernel_constructs () =
  let cu =
    emit (Chem.Mech_gen.hydrogen ()) Singe.Kernel_abi.Chemistry
      Singe.Compile.Warp_specialized Gpusim.Arch.kepler_k20c 4
  in
  Alcotest.(check bool) "braces balanced" true (balanced cu);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains cu needle))
    [
      "bar.arrive";  (* Listing 2's named-barrier PTX *)
      "bar.sync";
      "named_barrier_sync";
      "shfl_double";  (* Listing 3's double shuffle on Kepler *)
      "__constant__ double const_bank";  (* striped constants, §5.2 *)
      "(1u << warp) &";  (* §5.1 warp bit-masks *)
      "extern \"C\" __global__";
      "for (int base = blockIdx.x * 32";  (* Coop batch loop *)
      "__shared__ double smem";
    ]

let test_baseline_constructs () =
  let cu =
    emit (Chem.Mech_gen.hydrogen ()) Singe.Kernel_abi.Viscosity
      Singe.Compile.Baseline Gpusim.Arch.kepler_k20c 4
  in
  Alcotest.(check bool) "braces balanced" true (balanced cu);
  Alcotest.(check bool) "grid-stride loop" true
    (contains cu "for (int idx = blockIdx.x * blockDim.x");
  Alcotest.(check bool) "LDG texture loads on Kepler" true (contains cu "__ldg(");
  Alcotest.(check bool) "constants via constant memory" true
    (contains cu "const_mem[");
  Alcotest.(check bool) "no named barriers in the baseline" false
    (contains cu "named_barrier_sync(");
  Alcotest.(check bool) "spill array when it spills" true
    (not (contains cu "lmem[") || contains cu "double lmem[")

let test_naive_switch () =
  let cu =
    emit (Chem.Mech_gen.hydrogen ()) Singe.Kernel_abi.Viscosity
      Singe.Compile.Naive_warp_specialized Gpusim.Arch.kepler_k20c 4
  in
  Alcotest.(check bool) "naive mode emits a warp switch" true
    (contains cu "switch (warp)")

let test_fermi_mirror () =
  let cu =
    emit (Chem.Mech_gen.hydrogen ()) Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized Gpusim.Arch.fermi_c2070 4
  in
  Alcotest.(check bool) "no shuffle intrinsics on Fermi" false
    (contains cu "__shfl_sync");
  Alcotest.(check bool) "no LDG on Fermi" false (contains cu "__ldg(")

let test_all_kernels_emit () =
  List.iter
    (fun kernel ->
      let cu =
        emit (Chem.Mech_gen.hydrogen ()) kernel Singe.Compile.Warp_specialized
          Gpusim.Arch.kepler_k20c 4
      in
      Alcotest.(check bool)
        (Singe.Kernel_abi.kernel_name kernel ^ " balanced")
        true (balanced cu);
      Alcotest.(check bool) "nonempty" true (String.length cu > 1000))
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Conductivity;
      Singe.Kernel_abi.Diffusion; Singe.Kernel_abi.Chemistry ]

let tests =
  [
    Alcotest.test_case "warp-specialized constructs" `Quick test_ws_kernel_constructs;
    Alcotest.test_case "baseline constructs" `Quick test_baseline_constructs;
    Alcotest.test_case "naive warp switch" `Quick test_naive_switch;
    Alcotest.test_case "fermi mirror broadcast" `Quick test_fermi_mirror;
    Alcotest.test_case "all kernels emit" `Quick test_all_kernels_emit;
  ]
