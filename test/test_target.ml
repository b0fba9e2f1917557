(* Singe.Target: the per-kernel launch contract every driver builds its
   options from, the name tables the CLI and serve parse through, and the
   defaults both start from. *)

module T = Singe.Target

let archs = [ Gpusim.Arch.fermi_c2070; Gpusim.Arch.kepler_k20c ]

(* Chemistry takes all 16 named barriers at one CTA per SM, every other
   kernel (the stencils included) 8 at two; nothing else departs from
   Compile.default_options. *)
let test_options_rule () =
  List.iter
    (fun (arch : Gpusim.Arch.t) ->
      let d = Singe.Compile.default_options arch in
      List.iter
        (fun kernel ->
          let what =
            Printf.sprintf "%s/%s" arch.Gpusim.Arch.name
              (Singe.Kernel_abi.kernel_name kernel)
          in
          let chem = kernel = Singe.Kernel_abi.Chemistry in
          let o = T.options arch kernel in
          Alcotest.(check int) (what ^ " max_barriers")
            (if chem then 16 else 8)
            o.Singe.Compile.max_barriers;
          Alcotest.(check int) (what ^ " ctas_per_sm_target")
            (if chem then 1 else 2)
            o.Singe.Compile.ctas_per_sm_target;
          Alcotest.(check int) (what ^ " n_warps") 8 o.Singe.Compile.n_warps;
          Alcotest.(check int) (what ^ " ~n_warps") 5
            (T.options ~n_warps:5 arch kernel).Singe.Compile.n_warps;
          Alcotest.(check bool) (what ^ " other fields are the defaults") true
            ({
               o with
               Singe.Compile.max_barriers = d.Singe.Compile.max_barriers;
               ctas_per_sm_target = d.Singe.Compile.ctas_per_sm_target;
             }
            = d))
        Singe.Kernel_abi.all_kernels)
    archs;
  (* Chemistry at two CTAs per SM halves its barrier budget; the other
     kernels keep 8 at any CTA target. *)
  let arch = Gpusim.Arch.kepler_k20c in
  let pair (o : Singe.Compile.options) =
    (o.Singe.Compile.ctas_per_sm_target, o.Singe.Compile.max_barriers)
  in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.(check (pair int int)) "chemistry at 2 CTAs/SM" (2, 8)
    (pair (T.options ~ctas_per_sm:2 arch Singe.Kernel_abi.Chemistry));
  Alcotest.(check (pair int int)) "viscosity at 1 CTA/SM" (1, 8)
    (pair (T.options ~ctas_per_sm:1 arch Singe.Kernel_abi.Viscosity));
  (* The autotuner's grid applies the same rule to every candidate:
     warps x CTA targets x chemistry's two communication policies. *)
  let grid kernel =
    List.map pair
      (Singe.Autotune.candidate_options ~points:32768 kernel
         Singe.Compile.Warp_specialized arch [ 4; 8 ] [ 1; 2 ])
  in
  Alcotest.check pairs "chemistry tune grid"
    [ (1, 16); (1, 16); (2, 8); (2, 8); (1, 16); (1, 16); (2, 8); (2, 8) ]
    (grid Singe.Kernel_abi.Chemistry);
  Alcotest.check pairs "viscosity tune grid"
    [ (1, 8); (2, 8); (1, 8); (2, 8) ]
    (grid Singe.Kernel_abi.Viscosity)

let error = Alcotest.(result reject string)

let test_name_tables () =
  let ok_name f got expect =
    Alcotest.(check (result string reject)) expect (Ok expect)
      (Result.map f got)
  in
  ok_name (fun m -> m.Chem.Mechanism.name) (T.mech_of_string "HYDROGEN")
    "hydrogen";
  ok_name Singe.Kernel_abi.kernel_name (T.kernel_of_string "edge3") "edge3";
  let arch_name (a : Gpusim.Arch.t) = a.name in
  ok_name arch_name (T.arch_of_string "k20c") Gpusim.Arch.kepler_k20c.name;
  ok_name arch_name (T.arch_of_string "fermi") Gpusim.Arch.fermi_c2070.name;
  ok_name Singe.Compile.version_name (T.version_of_string "base") "baseline";
  Alcotest.(check bool) "auto" true (T.partition_of_string "auto" = Ok T.Auto);
  List.iter
    (fun (got, expect) -> Alcotest.check error expect (Error expect) got)
    [
      ( Result.map ignore (T.mech_of_string "nope"),
        {|unknown mechanism "nope" (expected dme, heptane, methane or hydrogen)|}
      );
      ( Result.map ignore (T.kernel_of_string "nope"),
        {|unknown kernel "nope" (expected viscosity, conductivity, diffusion, chemistry, edge3 or unsharp2)|}
      );
      ( Result.map ignore (T.arch_of_string "nope"),
        {|unknown architecture "nope" (expected fermi or kepler)|} );
      ( Result.map ignore (T.version_of_string "nope"),
        {|unknown version "nope" (expected ws, baseline or naive)|} );
      ( Result.map ignore (T.partition_of_string "nope"),
        {|unknown partition mode "nope" (expected hand or auto)|} );
    ]

(* The default target names the same target the CLI flags default to,
   with 8192 points where the CLI's --points says 32768. *)
let test_default () =
  Alcotest.(check bool) "default" true
    (T.default
    = {
        T.t_mech = "dme";
        t_kernel = "viscosity";
        t_arch = "kepler";
        t_version = "ws";
        t_warps = 8;
        t_points = 8192;
        t_synth = None;
        t_overlap = true;
        t_partition = "hand";
        t_sms = None;
        t_skew = None;
      });
  match T.resolve T.default with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let kepler = Gpusim.Arch.kepler_k20c and kernel = Singe.Kernel_abi.Viscosity in
      Alcotest.(check string) "mech" "dme" r.mech.Chem.Mechanism.name;
      Alcotest.(check bool) "kernel" true (r.kernel = kernel);
      Alcotest.(check string) "arch" kepler.name r.arch.name;
      Alcotest.(check bool) "version" true
        (r.version = Singe.Compile.Warp_specialized);
      Alcotest.(check bool) "partition" true (r.partition = T.Hand);
      Alcotest.(check bool) "options" true (r.options = T.options kepler kernel)

let tests =
  [
    Alcotest.test_case "per-kernel options rule" `Quick test_options_rule;
    Alcotest.test_case "name tables and messages" `Quick test_name_tables;
    Alcotest.test_case "serve defaults" `Quick test_default;
  ]
