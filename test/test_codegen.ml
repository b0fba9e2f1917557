(* Code-generation-focused tests: broadcast styles, the list scheduler,
   constant-bank overflow, warp indexing, parser corner cases, and the
   instruction-cache divergence property behind Fig. 9. *)

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme

let run_with mech kernel version arch opts_f points =
  let opts = opts_f (Singe.Compile.default_options arch) in
  let c = Singe.Diagnostics.ok_exn (Singe.Compile.compile mech kernel version opts) in
  (c, Singe.Compile.run c ~total_points:points)

(* The scheduler-off ablation changes the lowered program, so the compile
   memo must key on it: a cached lookup with [list_schedule = false] after
   a cached scheduled compile misses and returns what an uncached compile
   builds, and switching back hits the scheduled artifact again. *)
let test_memo_keys_list_schedule () =
  let mech = hydrogen () in
  let kernel = Singe.Kernel_abi.Diffusion in
  let version = Singe.Compile.Warp_specialized in
  let options =
    {
      (Singe.Compile.default_options Gpusim.Arch.kepler_k20c) with
      Singe.Compile.n_warps = 4;
    }
  in
  let compile ?memo options =
    Singe.Diagnostics.ok_exn (Singe.Compile.compile ?memo mech kernel version options)
  in
  let scheduled = compile ~memo:true options in
  let misses () = (Singe.Compile.memo_stats ()).Sutil.Cache.misses in
  let misses0 = misses () in
  let off = { options with Singe.Compile.list_schedule = false } in
  let cached = compile ~memo:true off in
  let misses1 = misses () in
  let uncached = compile off in
  let program (c : Singe.Compile.t) = c.Singe.Compile.lowered.Singe.Lower.program in
  Alcotest.(check int) "scheduler-off lookup misses" (misses0 + 1) misses1;
  Alcotest.(check bool) "cached equals uncached" true
    (program cached = program uncached);
  Alcotest.(check bool) "scheduling changed the program" true
    (program cached <> program scheduled);
  Alcotest.(check bool) "switch cleared: the scheduled artifact hits" true
    (compile ~memo:true options == scheduled)

let test_broadcast_styles_agree () =
  (* The shared-memory mirror (Fermi) and shuffle (Kepler) broadcasts must
     produce identical values. *)
  let kepler_mirror =
    { Gpusim.Arch.kepler_k20c with
      Gpusim.Arch.broadcast = Gpusim.Arch.Shared_mirror; name = "kepler-mirror" }
  in
  let out arch =
    let _, r =
      run_with (hydrogen ()) Singe.Kernel_abi.Chemistry
        Singe.Compile.Warp_specialized arch
        (fun o -> { o with Singe.Compile.n_warps = 4 })
        (32 * 32)
    in
    r.Singe.Compile.outputs
  in
  let a = out Gpusim.Arch.kepler_k20c and b = out kepler_mirror in
  Array.iteri
    (fun f fa ->
      Array.iteri
        (fun p v ->
          Alcotest.(check (float 1e-12)) "same value" v b.(f).(p))
        fa)
    a

let test_list_scheduler_preserves_values () =
  (* The static scheduler only reorders independent instructions: results
     are bit-identical with it disabled. *)
  let out list_schedule =
    let _, r =
      run_with (hydrogen ()) Singe.Kernel_abi.Diffusion
        Singe.Compile.Warp_specialized Gpusim.Arch.kepler_k20c
        (fun o -> { o with Singe.Compile.n_warps = 4; list_schedule })
        (32 * 32)
    in
    r.Singe.Compile.outputs
  in
  let a = out true and b = out false in
  Array.iteri
    (fun f fa ->
      Array.iteri
        (fun p v -> Alcotest.(check (float 0.0)) "bit-identical" v b.(f).(p))
        fa)
    a

let test_bank_overflow_correct () =
  (* A tiny register budget forces constants into warp-strided constant
     memory; values must be unaffected. *)
  let c, r =
    run_with (dme ()) Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized
      Gpusim.Arch.kepler_k20c
      (fun o -> { o with Singe.Compile.n_warps = 6; freg_budget = Some 16 })
      (32 * 32)
  in
  let p = c.Singe.Compile.lowered.Singe.Lower.program in
  Alcotest.(check bool) "overflow region in use" true
    (Array.length p.Gpusim.Isa.const_mem > 0);
  Alcotest.(check bool) "correct" true (r.Singe.Compile.max_rel_err < 1e-9)

let test_warp_indexing_emitted () =
  (* Chemistry's stiffness loads select their diffusion field per warp:
     F_ireg selectors (Listing 4) must appear. *)
  let c, r =
    run_with (hydrogen ()) Singe.Kernel_abi.Chemistry
      Singe.Compile.Warp_specialized Gpusim.Arch.kepler_k20c
      (fun o -> { o with Singe.Compile.n_warps = 4 })
      (32 * 32)
  in
  let p = c.Singe.Compile.lowered.Singe.Lower.program in
  let indexed = ref false in
  Gpusim.Isa.iter_instrs p.Gpusim.Isa.body (fun i ->
      match i with
      | Gpusim.Isa.Ld_global { field = Gpusim.Isa.F_ireg _; _ }
      | Gpusim.Isa.St_global { field = Gpusim.Isa.F_ireg _; _ } ->
          indexed := true
      | _ -> ());
  Alcotest.(check bool) "warp-indexed access present" true !indexed;
  Alcotest.(check bool) "correct" true (r.Singe.Compile.max_rel_err < 1e-9)

let test_icache_divergence_property () =
  (* Fig. 9's mechanism: at 8 warps the naive switch fetches 8 divergent
     streams and misses far more than the overlaid version. *)
  let misses version =
    let _, r =
      run_with (dme ()) Singe.Kernel_abi.Viscosity version
        Gpusim.Arch.kepler_k20c
        (fun o -> { o with Singe.Compile.n_warps = 8 })
        32768
    in
    r.Singe.Compile.machine.Gpusim.Chip.sim.Gpusim.Sm.icache
      .Gpusim.Caches.Icache.misses
  in
  let naive = misses Singe.Compile.Naive_warp_specialized in
  let singe = misses Singe.Compile.Warp_specialized in
  Alcotest.(check bool)
    (Printf.sprintf "naive misses (%d) >> overlaid (%d)" naive singe)
    true
    (naive > 10 * max 1 singe)

let test_exp_register_ablation_faster () =
  let gf flag =
    let _, r =
      run_with (dme ()) Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized
        Gpusim.Arch.kepler_k20c
        (fun o -> { o with Singe.Compile.n_warps = 6; exp_consts_in_registers = flag })
        32768
    in
    r.Singe.Compile.machine.Gpusim.Chip.gflops
  in
  Alcotest.(check bool) "register-fed exp is faster on Kepler" true
    (gf true > gf false)

let test_parser_lt_and_irreversible () =
  let text = {|
ELEMENTS
H O
END
SPECIES
H2 H O2 HO2
END
REACTIONS
h+o2 => ho2         1.0E+10  0.50  1.000E+03
h2+o2 = ho2+h       2.0E+08  0.00  2.400E+04
  LT / 100.0 -200.0 /
  DUPLICATE
END
|} in
  match Chem.Chemkin_parser.parse text with
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  | Ok parsed ->
      let r1 = List.hd parsed.Chem.Chemkin_parser.raw_reactions in
      Alcotest.(check bool) "irreversible" false r1.Chem.Chemkin_parser.reversible;
      let r2 = List.nth parsed.Chem.Chemkin_parser.raw_reactions 1 in
      Alcotest.(check bool) "LT parsed" true
        (r2.Chem.Chemkin_parser.landau_teller = Some (100.0, -200.0));
      Alcotest.(check bool) "duplicate" true r2.Chem.Chemkin_parser.duplicate;
      (match Chem.Chemkin_parser.rate_model_of_raw r2 with
      | Ok (Chem.Reaction.Landau_teller _) -> ()
      | _ -> Alcotest.fail "expected Landau-Teller")

let test_parser_d_exponent () =
  match Chem.Chemkin_parser.parse
          "ELEMENTS\nH\nEND\nSPECIES\nH H2\nEND\nREACTIONS\nh+h = h2 1.0D+10 0.0 0.0D0\nEND"
  with
  | Ok p ->
      let r = List.hd p.Chem.Chemkin_parser.raw_reactions in
      Alcotest.(check (float 1.0)) "D exponent" 1e10
        r.Chem.Chemkin_parser.arrhenius.Chem.Reaction.pre_exp
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)

let test_dfg_fence_ordering () =
  (* Fences sequence after their inputs in the dependence order. *)
  let b = Singe.Dfg.Builder.create "f" in
  let a = Singe.Dfg.Builder.load b ~name:"a" ~group:"mole_frac" ~field:0 () in
  Singe.Dfg.Builder.fence b ~inputs:[| a |];
  let c = Singe.Dfg.Builder.compute b ~name:"c" ~inputs:[| a |]
      (Singe.Sexpr.mul (Singe.Sexpr.In 0) (Singe.Sexpr.Imm 2.0)) in
  Singe.Dfg.Builder.store b ~name:"s" ~group:"out" ~field:0 c;
  let dfg = Singe.Dfg.Builder.finish b in
  let order = Singe.Dfg.topo_order dfg in
  let pos x = ref 0 |> fun r -> Array.iteri (fun i o -> if o = x then r := i) order; !r in
  Alcotest.(check bool) "load < fence < compute" true
    (pos 0 < pos 1 && pos 1 < pos 2)

let test_spill_roundtrip_under_interleave () =
  (* Heavy pressure plus the list scheduler: spill/reload must still be
     exact on all three kernels. *)
  List.iter
    (fun kernel ->
      let _, r =
        run_with (hydrogen ()) kernel Singe.Compile.Warp_specialized
          Gpusim.Arch.fermi_c2070
          (fun o -> { o with Singe.Compile.n_warps = 4; freg_budget = Some 12 })
          (32 * 32)
      in
      Alcotest.(check bool)
        (Singe.Kernel_abi.kernel_name kernel ^ " exact under spills")
        true
        (r.Singe.Compile.max_rel_err < 1e-8))
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion; Singe.Kernel_abi.Chemistry ]

let test_dme_end_to_end_slow () =
  (* The headline mechanism, all kernels, both versions, on Kepler. *)
  List.iter
    (fun (kernel, nw) ->
      List.iter
        (fun version ->
          let nw = if version = Singe.Compile.Baseline then 8 else nw in
          let _, r =
            run_with (dme ()) kernel version Gpusim.Arch.kepler_k20c
              (fun _ ->
                Singe.Target.options ~n_warps:nw Gpusim.Arch.kepler_k20c kernel)
              32768
          in
          Alcotest.(check bool) "correct" true (r.Singe.Compile.max_rel_err < 1e-8))
        [ Singe.Compile.Warp_specialized; Singe.Compile.Baseline ])
    [ (Singe.Kernel_abi.Viscosity, 6); (Singe.Kernel_abi.Diffusion, 6);
      (Singe.Kernel_abi.Chemistry, 8) ]

(* The constant-bank dedup key groups exactly what the Printf "%h"
   rendering it replaced grouped, over vectors mixing signed zeros,
   infinities, NaNs of both signs and several payloads, and ordinary
   values. *)
let qcheck_const_key_matches_hex =
  let specials =
    [|
      0.0; -0.0; 1.0; -1.0; 0.5; 1e-300; 5e-324; infinity; neg_infinity; nan;
      -.nan;
      Int64.float_of_bits 0x7ff0000000000001L;
      Int64.float_of_bits 0xfff8000000000123L;
      Int64.float_of_bits 0x7fffffffffffffffL;
    |]
  in
  let gen =
    QCheck.(
      pair
        (array_of_size (Gen.int_range 1 4) (int_bound (Array.length specials - 1)))
        (array_of_size (Gen.int_range 1 4) (int_bound (Array.length specials - 1))))
  in
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count:2000 ~name:"const key groups like %h" gen
       (fun (a, b) ->
         let a = Array.map (Array.get specials) a
         and b = Array.map (Array.get specials) b in
         let hex v =
           String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") v))
         in
         Bool.equal
           (String.equal (Singe.Lower.const_key a) (Singe.Lower.const_key b))
           (String.equal (hex a) (hex b))))

let tests =
  [
    Alcotest.test_case "broadcast styles agree" `Quick test_broadcast_styles_agree;
    Alcotest.test_case "list scheduler value-preserving" `Quick test_list_scheduler_preserves_values;
    Alcotest.test_case "constant-bank overflow" `Quick test_bank_overflow_correct;
    Alcotest.test_case "warp indexing emitted" `Quick test_warp_indexing_emitted;
    Alcotest.test_case "icache divergence (Fig 9 property)" `Quick test_icache_divergence_property;
    Alcotest.test_case "exp-constants ablation direction" `Quick test_exp_register_ablation_faster;
    Alcotest.test_case "parser: LT, =>, DUPLICATE" `Quick test_parser_lt_and_irreversible;
    Alcotest.test_case "parser: D exponents" `Quick test_parser_d_exponent;
    Alcotest.test_case "fence ordering" `Quick test_dfg_fence_ordering;
    Alcotest.test_case "spills exact under pressure" `Quick test_spill_roundtrip_under_interleave;
    Alcotest.test_case "memo key covers list_schedule" `Quick test_memo_keys_list_schedule;
    Alcotest.test_case "dme end-to-end (slow)" `Slow test_dme_end_to_end_slow;
    qcheck_const_key_matches_hex;
  ]
