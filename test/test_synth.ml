(* The shuffle-exchange superoptimizer: the swizzle language's symbolic
   evaluator vs the Sm simulator, canonicalization and synthesis
   round-trips over the enumerated sketch space, validator range checks on
   the shuffle instructions, and end-to-end bit-identity of rewritten
   kernels against their shared-memory baselines. *)

open Gpusim
module Synth = Singe.Shuffle_synth

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count ~name gen prop)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------- a straight-line Sm program running one swizzle chain ---------- *)

let empty_banks n_warps =
  Array.init n_warps (fun _ -> Array.init 32 (fun _ -> [||]))

let step_instr = function
  | Synth.Rot d -> Isa.Shfl_rot { dst = 0; src = 0; delta = d }
  | Synth.Bfly m -> Isa.Shfl_bfly { dst = 0; src = 0; xor_mask = m }
  | Synth.Bcast k -> Isa.Shfl { dst = 0; src = 0; lane = k }

let swizzle_program prog =
  {
    Isa.name = "swizzle";
    n_warps = 2;
    n_fregs = 2;
    n_iregs = 1;
    shared_doubles = 0;
    local_doubles = 0;
    barriers_used = 0;
    point_map = Isa.Thread_per_point;
    prologue = Isa.Instrs [];
    body =
      Isa.Instrs
        ((Isa.Ld_global
            { dst = 0; group = 0; field = Isa.F_static 0; via_tex = false;
              pred = None }
         :: List.map step_instr prog)
        @ [ Isa.St_global
              { src = Isa.Sreg 0; group = 1; field = Isa.F_static 0;
                pred = None } ]);
    const_bank = empty_banks 2;
    param_bank = empty_banks 2;
    const_mem = [||];
    groups =
      [| { Isa.group_name = "a"; fields = 1 };
         { Isa.group_name = "out"; fields = 1 } |];
    exp_consts_in_registers = false;
  }

(* Seeded inputs: one distinct value per point, reproducible. *)
let input_values =
  let rng = Sutil.Prng.create 0x53594E54L in
  Array.init 64 (fun _ -> Sutil.Prng.range rng 0.5 2.0)

let run_swizzle arch prog =
  let p = swizzle_program prog in
  let points = Array.length input_values in
  let r =
    Chip.run
      ~fill_inputs:(fun mem _ ->
        Memstate.set_field mem
          ~group:(Memstate.group_index p "a")
          ~field:0 input_values)
      arch
      { Chip.program = p;
        total_points = points;
        ctas = points / (p.Isa.n_warps * 32) }
  in
  r.Chip.mem.Memstate.globals.(Memstate.group_index p "out").(0)

(* The functional semantics, warp by warp. *)
let expected prog =
  let out = Array.make (Array.length input_values) 0.0 in
  for w = 0 to (Array.length input_values / 32) - 1 do
    let res = Synth.apply prog (Array.sub input_values (w * 32) 32) in
    Array.blit res 0 out (w * 32) 32
  done;
  out

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let archs = [ Arch.kepler_k20c; Arch.fermi_c2070 ]

(* ---------- properties ---------- *)

let step_gen =
  QCheck.Gen.(
    oneof
      [ map (fun d -> Synth.Rot d) (int_range 0 31);
        map (fun m -> Synth.Bfly m) (int_range 0 31);
        map (fun k -> Synth.Bcast k) (int_range 0 31) ])

let prog_print p =
  String.concat ";"
    (List.map
       (function
         | Synth.Rot d -> Printf.sprintf "rot%d" d
         | Synth.Bfly m -> Printf.sprintf "bfly%d" m
         | Synth.Bcast k -> Printf.sprintf "bcast%d" k)
       p)

let prog_arb =
  QCheck.make ~print:prog_print
    QCheck.Gen.(list_size (int_range 0 3) step_gen)

let test_sim_matches_eval =
  qtest ~count:120 "random swizzle programs: Sm lanes = lane evaluator"
    prog_arb
    (fun prog ->
      List.for_all
        (fun arch -> bits_equal (run_swizzle arch prog) (expected prog))
        archs)

let test_signature_is_apply =
  qtest "signature agrees with apply on lane indices" prog_arb
    (fun prog ->
      let s = Synth.signature prog in
      let idx = Array.init 32 float_of_int in
      Synth.apply prog idx = Array.map (fun l -> idx.(l)) s)

let test_canonicalize_preserves =
  qtest "canonicalize preserves the signature" prog_arb
    (fun prog ->
      Synth.signature (Synth.canonicalize prog) = Synth.signature prog)

(* Every enumerated program round-trips: its signature re-synthesizes to an
   equivalent program no costlier than itself, and the Sm simulator agrees
   with the lane evaluator on both architectures (the whole space is
   simulated — it is small by construction). *)
let test_enumerated_roundtrip () =
  let progs = Synth.enumerate () in
  Alcotest.(check bool) "sketch space is non-trivial" true
    (List.length progs > 100);
  List.iter
    (fun p ->
      let s = Synth.signature p in
      (match Synth.synthesize s with
      | None -> Alcotest.fail ("not re-synthesizable: " ^ prog_print p)
      | Some q ->
          if Synth.signature q <> s then
            Alcotest.fail ("synthesis changed the signature: " ^ prog_print p);
          if
            Synth.cost Arch.kepler_k20c q
            > Synth.cost Arch.kepler_k20c p +. 1e-9
          then Alcotest.fail ("synthesis found a costlier program: " ^ prog_print p));
      List.iter
        (fun arch ->
          if not (bits_equal (run_swizzle arch p) (expected p)) then
            Alcotest.fail
              (Printf.sprintf "Sm disagrees with the evaluator on %s: %s"
                 arch.Arch.name (prog_print p)))
        archs)
    progs

let test_canonicalize_units () =
  Alcotest.(check bool) "rot 0 is identity" true
    (Synth.canonicalize [ Synth.Rot 0 ] = []);
  Alcotest.(check bool) "inverse rotations cancel" true
    (Synth.canonicalize [ Synth.Rot 3; Synth.Rot 29 ] = []);
  Alcotest.(check bool) "butterfly is an involution" true
    (Synth.canonicalize [ Synth.Bfly 5; Synth.Bfly 5 ] = []);
  match Synth.canonicalize [ Synth.Bcast 4; Synth.Rot 1 ] with
  | [ Synth.Bcast 4 ] -> ()
  | p ->
      Alcotest.fail
        ("constant signature should collapse to its broadcast: "
        ^ prog_print p)

let test_synthesize_units () =
  (match Synth.synthesize (Array.init 32 Fun.id) with
  | Some [] -> ()
  | _ -> Alcotest.fail "identity should synthesize to the empty program");
  (match Synth.synthesize (Array.init 32 (fun l -> (l + 5) land 31)) with
  | Some [ Synth.Rot 5 ] -> ()
  | _ -> Alcotest.fail "rotation pattern should synthesize to one rot");
  (match Synth.synthesize (Array.init 32 (fun l -> l lxor 31)) with
  | Some [ Synth.Bfly 31 ] -> ()
  | _ -> Alcotest.fail "lane reversal should synthesize to one butterfly");
  (match Synth.synthesize (Array.make 32 7) with
  | Some [ Synth.Bcast 7 ] -> ()
  | _ -> Alcotest.fail "constant pattern should synthesize to one bcast");
  (* A single-pair swap is not a rotate/butterfly/broadcast composition. *)
  let swap01 = Array.init 32 (fun l -> if l < 2 then 1 - l else l) in
  match Synth.synthesize swap01 with
  | None -> ()
  | Some p ->
      Alcotest.fail ("single-pair swap should be unsynthesizable, got "
                     ^ prog_print p)

(* ---------- validator range checks on the shuffle instructions ---------- *)

(* [instr] follows [loads] global loads in the body, or in the prologue
   when [in_prologue], so the diagnostic must name that position. *)
let expect_invalid ?(in_prologue = false) ?(loads = 1) name instr needle =
  let p = swizzle_program [] in
  let ld =
    Isa.Ld_global
      { dst = 0; group = 0; field = Isa.F_static 0; via_tex = false;
        pred = None }
  in
  let block = Isa.Instrs (List.init loads (fun _ -> ld) @ [ instr ]) in
  let p =
    if in_prologue then { p with Isa.prologue = block }
    else { p with Isa.body = block }
  in
  let site =
    Printf.sprintf "%s[%d]" (if in_prologue then "prologue" else "body") loads
  in
  match Isa.validate p with
  | Ok () -> Alcotest.fail (name ^ ": validator accepted an invalid program")
  | Error msgs ->
      Alcotest.(check bool)
        (name ^ " diagnostic is positioned and specific")
        true
        (List.exists (fun m -> contains m site && contains m needle) msgs)

let test_validate_shuffle_ranges () =
  expect_invalid "shfl lane 32"
    (Isa.Shfl { dst = 0; src = 0; lane = 32 })
    "outside [0, 32)";
  expect_invalid "ishfl lane -1"
    (Isa.Ishfl { dst_i = 0; src_i = 0; lane = -1 })
    "outside [0, 32)";
  expect_invalid "shfl.rot delta 32"
    (Isa.Shfl_rot { dst = 0; src = 0; delta = 32 })
    "outside [0, 32)";
  expect_invalid "shfl.bfly mask -1"
    (Isa.Shfl_bfly { dst = 0; src = 0; xor_mask = -1 })
    "outside [0, 32)";
  expect_invalid ~in_prologue:true ~loads:2 "prologue shfl lane 32"
    (Isa.Shfl { dst = 0; src = 0; lane = 32 })
    "prologue[2]: shfl: lane 32 outside [0, 32)"

(* ---------- end-to-end: the Lower rewrite is bit-exact ---------- *)

let compile_pair arch kernel =
  let mech = Chem.Mech_gen.dme () in
  let opts synth =
    { (Singe.Target.options ~n_warps:8 arch kernel) with
      Singe.Compile.synth_exchange = Some synth }
  in
  let c b =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile ~memo:true mech kernel
         Singe.Compile.Warp_specialized (opts b))
  in
  (c true, c false)

let out_bits (r : Singe.Compile.run_result) =
  Array.map (Array.map Int64.bits_of_float) r.Singe.Compile.outputs

let test_bit_identity () =
  List.iter
    (fun arch ->
      List.iter
        (fun kernel ->
          let c_on, c_off = compile_pair arch kernel in
          let r_on = Singe.Compile.run c_on ~total_points:2048
          and r_off = Singe.Compile.run c_off ~total_points:2048 in
          let label =
            Printf.sprintf "%s on %s"
              (Singe.Kernel_abi.kernel_name kernel)
              arch.Arch.name
          in
          Alcotest.(check bool)
            (label ^ ": rewrite fired")
            true
            (c_on.Singe.Compile.lowered.Singe.Lower.exchange
               .Synth.sites_rewritten > 0);
          Alcotest.(check bool)
            (label ^ ": outputs bit-identical")
            true
            (out_bits r_on = out_bits r_off);
          Alcotest.(check bool)
            (Printf.sprintf "%s: reference error %.2g < 1e-9" label
               r_on.Singe.Compile.max_rel_err)
            true
            (r_on.Singe.Compile.max_rel_err < 1e-9))
        [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion;
          Singe.Kernel_abi.Chemistry ])
    archs

(* The acceptance-level perf claim: diffusion on Kepler must not get
   slower with the rewrite on, and the rewrite must remove round trips. *)
let test_diffusion_cycle_reduction () =
  let c_on, c_off = compile_pair Arch.kepler_k20c Singe.Kernel_abi.Diffusion in
  let cyc c =
    let r = Singe.Compile.run c ~total_points:2048 in
    r.Singe.Compile.machine.Gpusim.Chip.sm_cycles
  in
  let on = cyc c_on and off = cyc c_off in
  let ex = c_on.Singe.Compile.lowered.Singe.Lower.exchange in
  Alcotest.(check bool) "round trips removed" true
    (ex.Synth.round_trips_removed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "no cycle regression (on %d vs off %d)" on off)
    true (on <= off);
  (* The report is internally consistent and feeds the --timings row. *)
  Alcotest.(check bool) "rewrites bounded by sites" true
    (ex.Synth.sites_rewritten <= ex.Synth.sites_seen);
  let stats = Synth.report_stats ex in
  Alcotest.(check bool) "stats expose the rewrite counters" true
    (List.mem_assoc "exchanges-rewritten" stats
    || List.length stats >= 4)

(* The rewrite's static effect: fewer shared-traffic bytes per body pass
   (Isa_stats' counter), never more. *)
let test_shared_traffic_shrinks () =
  let c_on, c_off = compile_pair Arch.kepler_k20c Singe.Kernel_abi.Diffusion in
  let sb (c : Singe.Compile.t) =
    (Isa_stats.of_program Arch.kepler_k20c
       c.Singe.Compile.lowered.Singe.Lower.program)
      .Isa_stats.shared_bytes
  in
  let on = sb c_on and off = sb c_off in
  Alcotest.(check bool)
    (Printf.sprintf "shared traffic shrinks (on %d vs off %d B)" on off)
    true (on < off)

let tests =
  [
    test_sim_matches_eval;
    test_signature_is_apply;
    test_canonicalize_preserves;
    Alcotest.test_case "enumerated programs round-trip (symbolic + Sm)"
      `Slow test_enumerated_roundtrip;
    Alcotest.test_case "canonicalize units" `Quick test_canonicalize_units;
    Alcotest.test_case "synthesize units" `Quick test_synthesize_units;
    Alcotest.test_case "validator rejects out-of-range shuffles" `Quick
      test_validate_shuffle_ranges;
    Alcotest.test_case "rewritten kernels are bit-identical" `Slow
      test_bit_identity;
    Alcotest.test_case "diffusion cycle reduction" `Slow
      test_diffusion_cycle_reduction;
    Alcotest.test_case "shared-traffic bytes shrink" `Quick
      test_shared_traffic_shrinks;
  ]
