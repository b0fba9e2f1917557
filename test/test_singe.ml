(* Compiler tests: expression language, dataflow graphs, the three kernel
   partitioners against the host reference, mapping, deadlock-free
   scheduling (including on random graphs), code generation across
   versions and architectures, and the register allocator under pressure. *)

module S = Singe.Sexpr

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme

(* ---------- Sexpr ---------- *)

let test_sexpr_eval () =
  let e = S.let_ (S.add (S.In 0) (S.Imm 1.0)) (S.mul (S.Var 0) (S.Var 0)) in
  let v = S.eval e ~consts:[||] ~input:(fun _ -> 3.0) in
  Alcotest.(check (float 1e-12)) "let/var" 16.0 v

let test_sexpr_shape () =
  let e1 = S.fma (S.C 1.0) (S.In 0) (S.C 2.0) in
  let e2 = S.fma (S.C 9.0) (S.In 0) (S.C 7.0) in
  let e3 = S.fma (S.Imm 9.0) (S.In 0) (S.C 7.0) in
  Alcotest.(check bool) "constants are wildcards" true (S.same_shape e1 e2);
  Alcotest.(check bool) "immediates are not" false (S.same_shape e1 e3);
  let nan' = Int64.float_of_bits 0x7FF0000000000001L in
  Alcotest.(check bool) "NaNs of one sign agree" true
    (S.same_shape (S.Imm Float.nan) (S.Imm nan'));
  Alcotest.(check bool) "NaN signs differ" false
    (S.same_shape (S.Imm Float.nan) (S.Imm (-.Float.nan)));
  Alcotest.(check bool) "-0.0 is not 0.0" false
    (S.same_shape (S.Imm 0.0) (S.Imm (-0.0)))

let test_sexpr_constants_order () =
  let e = S.fma (S.C 1.0) (S.In 0) (S.add (S.C 2.0) (S.C 3.0)) in
  Alcotest.(check (list (float 0.0))) "traversal order" [ 1.0; 2.0; 3.0 ]
    (S.constants e)

(* A random well-formed expression over [n_in] inputs. *)
let gen_expr n_in =
  QCheck.Gen.(
    sized_size (int_bound 6) (fix (fun self n ->
        if n = 0 then
          oneof
            [ map (fun i -> S.In i) (int_bound (n_in - 1));
              map (fun v -> S.C v) (float_range 0.5 2.0);
              map (fun v -> S.Imm v) (float_range 0.5 2.0) ]
        else
          oneof
            [
              map2 (fun a b -> S.add a b) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> S.mul a b) (self (n / 2)) (self (n / 2));
              map3 (fun a b c -> S.fma a b c) (self (n / 2)) (self (n / 2)) (self (n / 2));
              map (fun a -> S.exp_ (S.mul (S.Imm 0.01) a)) (self (n - 1));
              map2 (fun d b -> S.Let (d, S.add b (S.Var 0))) (self (n / 2)) (self (n / 2));
            ])))

let qcheck_shape_const_count =
  QCheck.Test.make ~count:200 ~name:"equal shapes have equal constant counts"
    (QCheck.make (QCheck.Gen.pair (gen_expr 3) (gen_expr 3)))
    (fun (a, b) ->
      if S.same_shape a b then S.n_constants a = S.n_constants b else true)

(* ---------- kernel partitioners vs host reference ---------- *)

let interp_matches mechf kernel warps tol () =
  let mech = mechf () in
  let dfg =
    match kernel with
    | Singe.Kernel_abi.Viscosity -> Singe.Viscosity_dfg.build mech ~n_warps:warps
    | Singe.Kernel_abi.Conductivity -> Singe.Conductivity_dfg.build mech ~n_warps:warps
    | Singe.Kernel_abi.Diffusion -> Singe.Diffusion_dfg.build mech ~n_warps:warps
    | Singe.Kernel_abi.Chemistry -> Singe.Chemistry_dfg.build mech ~n_warps:warps
    | Singe.Kernel_abi.Stencil id ->
        Singe.Stencil_dfg.build (Singe.Stencil_pipe.get id) ~n_warps:warps
          ~overlap:true
  in
  (match Singe.Dfg.validate dfg with
  | Ok () -> ()
  | Error l -> Alcotest.fail (String.concat "; " l));
  let grid = Chem.Grid.create mech ~points:4 ~seed:77L in
  for p = 0 to 3 do
    let inputs = Singe.Dfg_interp.point_inputs mech grid p in
    let expect =
      Singe.Kernel_abi.reference_outputs mech grid kernel ~points:4
    in
    let fmax =
      Array.fold_left
        (fun acc f -> Array.fold_left (fun a v -> Float.max a (abs_float v)) acc f)
        1e-300 expect
    in
    Array.iteri
      (fun f field ->
        let got = Singe.Dfg_interp.eval_field dfg inputs f in
        let want = field.(p) in
        let err = abs_float (got -. want) /. Float.max (abs_float want) (1e-9 *. fmax) in
        if err > tol then
          Alcotest.failf "field %d point %d: got %.12g want %.12g" f p got want)
      expect
  done

(* ---------- mapping ---------- *)

let test_mapping_hints_and_balance () =
  let mech = hydrogen () in
  let dfg = Singe.Viscosity_dfg.build mech ~n_warps:4 in
  let m =
    Singe.Mapping.map dfg ~n_warps:4 ~weights:Singe.Mapping.default_weights
      ~strategy:Singe.Mapping.Store ~respect_hints:true
  in
  (* hinted ops land on their hint *)
  Array.iter
    (fun (op : Singe.Dfg.op) ->
      match op.Singe.Dfg.hint with
      | Some h -> Alcotest.(check int) ("hint " ^ op.Singe.Dfg.name) h m.Singe.Mapping.op_warp.(op.Singe.Dfg.id)
      | None -> ())
    dfg.Singe.Dfg.ops;
  let flops = Singe.Mapping.warp_flops dfg m in
  let fmax = Array.fold_left max 0 flops and fmin = Array.fold_left min max_int flops in
  Alcotest.(check bool) "flops balanced within 3x" true (fmax <= 3 * max 1 fmin)

let test_mapping_greedy_balance () =
  (* Without hints the greedy pass must still balance. *)
  let mech = hydrogen () in
  let dfg = Singe.Viscosity_dfg.build mech ~n_warps:4 in
  let m =
    Singe.Mapping.map dfg ~n_warps:4 ~weights:Singe.Mapping.default_weights
      ~strategy:Singe.Mapping.Store ~respect_hints:false
  in
  let flops = Singe.Mapping.warp_flops dfg m in
  let fmax = Array.fold_left max 0 flops and fmin = Array.fold_left min max_int flops in
  Alcotest.(check bool) "greedy flops balanced" true (fmax <= 2 * max 1 fmin)

let test_placement_strategies () =
  let mech = hydrogen () in
  let dfg = Singe.Viscosity_dfg.build mech ~n_warps:4 in
  let place strategy =
    let m =
      Singe.Mapping.map dfg ~n_warps:4 ~weights:Singe.Mapping.default_weights
        ~strategy ~respect_hints:true
    in
    m.Singe.Mapping.store_slots
  in
  Alcotest.(check bool) "store uses shared" true (place Singe.Mapping.Store > 0);
  Alcotest.(check int) "buffer keeps registers (no hints here)" 0
    (place Singe.Mapping.Buffer)

(* ---------- scheduling ---------- *)

let test_schedule_well_formed () =
  List.iter
    (fun (kernel, warps) ->
      let mech = hydrogen () in
      let dfg =
        match kernel with
        | Singe.Kernel_abi.Viscosity -> Singe.Viscosity_dfg.build mech ~n_warps:warps
        | Singe.Kernel_abi.Conductivity -> Singe.Conductivity_dfg.build mech ~n_warps:warps
        | Singe.Kernel_abi.Diffusion -> Singe.Diffusion_dfg.build mech ~n_warps:warps
        | Singe.Kernel_abi.Chemistry -> Singe.Chemistry_dfg.build mech ~n_warps:warps
        | Singe.Kernel_abi.Stencil id ->
            Singe.Stencil_dfg.build (Singe.Stencil_pipe.get id) ~n_warps:warps
              ~overlap:true
      in
      let m =
        Singe.Mapping.map dfg ~n_warps:warps ~weights:Singe.Mapping.default_weights
          ~strategy:(Singe.Compile.default_strategy kernel) ~respect_hints:true
      in
      let sched = Singe.Schedule.build dfg m in
      match Singe.Schedule.well_formed sched dfg m with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [
      (Singe.Kernel_abi.Viscosity, 3);
      (Singe.Kernel_abi.Viscosity, 5);
      (Singe.Kernel_abi.Diffusion, 4);
      (Singe.Kernel_abi.Chemistry, 4);
    ]

let test_barrier_budget_respected () =
  let mech = hydrogen () in
  let dfg = Singe.Chemistry_dfg.build mech ~n_warps:4 in
  let m =
    Singe.Mapping.map dfg ~n_warps:4 ~weights:Singe.Mapping.default_weights
      ~strategy:Singe.Mapping.Buffer ~respect_hints:true
  in
  List.iter
    (fun budget ->
      let sched = Singe.Schedule.build ~max_barriers:budget dfg m in
      Alcotest.(check bool) "ids within budget" true
        (sched.Singe.Schedule.barriers_used <= budget))
    [ 2; 4; 8; 16 ]

(* Random DFGs: schedule + compile + simulate must terminate without
   deadlock and reproduce the interpreter exactly — Theorem 1 plus the
   epoch-based barrier allocation, end to end. *)
let gen_dfg_with warps =
  QCheck.Gen.(
    let* n_warps = warps in
    let* n_loads = int_range 1 4 in
    let* n_computes = int_range 3 25 in
    let* exprs = list_repeat n_computes (gen_expr 3) in
    let* input_picks = list_repeat n_computes (list_repeat 3 (float_range 0.0 1.0)) in
    let* hints = list_repeat n_computes (int_range 0 (n_warps - 1)) in
    let* n_stores = int_range 1 3 in
    return (n_warps, n_loads, exprs, input_picks, hints, n_stores))

let gen_dfg = gen_dfg_with (QCheck.Gen.int_range 2 5)

let build_random_dfg (n_warps, n_loads, exprs, input_picks, hints, n_stores) =
  let b = Singe.Dfg.Builder.create "random" in
  let values = ref [] in
  for i = 0 to n_loads - 1 do
    values :=
      Singe.Dfg.Builder.load b ~hint:(i mod n_warps)
        ~name:(Printf.sprintf "in%d" i) ~group:"mole_frac" ~field:i ()
      :: !values
  done;
  List.iteri
    (fun i (expr, (picks, hint)) ->
      let avail = Array.of_list !values in
      let pick f = avail.(int_of_float (f *. float_of_int (Array.length avail - 1))) in
      let inputs = Array.of_list (List.map pick picks) in
      values :=
        Singe.Dfg.Builder.compute b ~hint ~name:(Printf.sprintf "c%d" i) ~inputs expr
        :: !values)
    (List.combine exprs (List.combine input_picks hints));
  let avail = Array.of_list !values in
  for f = 0 to n_stores - 1 do
    Singe.Dfg.Builder.store b ~name:(Printf.sprintf "st%d" f) ~group:"out"
      ~field:f avail.(f mod Array.length avail)
  done;
  (Singe.Dfg.Builder.finish b, n_warps, n_loads, n_stores)

(* Map, schedule and lower a random DFG; returns the program with an
   input filler and the interpreter's input vector. *)
let lower_random_dfg ~strategy (dfg, n_warps, n_loads, n_stores) =
  let groups =
    [|
      { Gpusim.Isa.group_name = "mole_frac"; fields = max 4 n_loads };
      { Gpusim.Isa.group_name = "out"; fields = n_stores };
    |]
  in
  let m =
    Singe.Mapping.map dfg ~n_warps ~weights:Singe.Mapping.default_weights
      ~strategy ~respect_hints:true
  in
  let sched = Singe.Schedule.build ~max_barriers:4 ~buffer_slots:8 dfg m in
  let cfg =
    {
      Singe.Lower.arch = Gpusim.Arch.kepler_k20c;
      overlay = true;
      const_policy = Singe.Lower.Bank;
      exp_consts_in_registers = false;
      param_stripe_threshold = 4;
      freg_budget = 24;
      synth_exchange = false;
      list_schedule = true;
    }
  in
  let low =
    Singe.Lower.lower cfg ~name:"random" ~point_map:Gpusim.Isa.Coop
      ~out_warps:n_warps ~groups dfg m sched
  in
  let inputs = Array.init (max 4 n_loads) (fun i -> 0.5 +. (0.25 *. float_of_int i)) in
  let fill mem n =
    Array.iteri
      (fun f v -> Gpusim.Memstate.set_field mem ~group:0 ~field:f (Array.make n v))
      inputs
  in
  (low.Singe.Lower.program, fill, inputs)

let run_random_program ?profile (program, fill, _) =
  Gpusim.Chip.run ?profile ~fill_inputs:fill Gpusim.Arch.kepler_k20c
    { Gpusim.Chip.program; total_points = 64; ctas = 2 }

let random_dfg_strategies =
  [ Singe.Mapping.Store; Singe.Mapping.Buffer; Singe.Mapping.Mixed ]

let qcheck_random_dfg_end_to_end =
  QCheck.Test.make ~count:60 ~name:"random DFG: schedule+codegen+simulate = interpreter"
    (QCheck.make gen_dfg)
    (fun spec ->
      let ((dfg, _, _, _) as built) = build_random_dfg spec in
      List.for_all
        (fun strategy ->
          let ((program, _, inputs) as lowered) = lower_random_dfg ~strategy built in
          (match Gpusim.Isa.validate program with
          | Ok () -> ()
          | Error l -> QCheck.Test.fail_report (String.concat "; " l));
          let r = run_random_program lowered in
          let interp =
            Singe.Dfg_interp.eval dfg
              { Singe.Dfg_interp.temp = 0.0; pressure = 0.0;
                mole_frac = inputs; diffusion = [||] }
          in
          Hashtbl.fold
            (fun f want acc ->
              let out = Gpusim.Memstate.get_field r.Gpusim.Chip.mem ~group:1 ~field:f in
              (* random expressions may overflow; agreement on non-finite
                 values is checked by classification *)
              acc
              && Array.for_all
                   (fun got ->
                     if Float.is_finite want then
                       abs_float (got -. want)
                       <= 1e-9 *. Float.max 1.0 (abs_float want)
                     else Float.is_finite got = false)
                   (Array.sub out 0 r.Gpusim.Chip.simulated_points))
            interp true)
        random_dfg_strategies)

(* ---------- end-to-end kernels ---------- *)

let end_to_end mechf kernel version arch warps tol () =
  let mech = mechf () in
  let opts =
    { (Singe.Compile.default_options arch) with Singe.Compile.n_warps = warps }
  in
  let c = Singe.Compile.compile mech kernel version opts in
  (match Gpusim.Isa.validate c.Singe.Compile.lowered.Singe.Lower.program with
  | Ok () -> ()
  | Error l -> Alcotest.fail (String.concat "; " l));
  let r = Singe.Compile.run c ~total_points:(32 * 64) in
  if r.Singe.Compile.max_rel_err > tol then
    Alcotest.failf "rel err %.3g > %.3g" r.Singe.Compile.max_rel_err tol

let test_regalloc_budget () =
  (* A deliberately tiny budget must still give correct results (through
     spilling) and respect the cap. *)
  let mech = hydrogen () in
  let arch = Gpusim.Arch.kepler_k20c in
  let opts =
    { (Singe.Compile.default_options arch) with
      Singe.Compile.n_warps = 4; freg_budget = Some 14 }
  in
  let c = Singe.Compile.compile mech Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized opts in
  Alcotest.(check bool) "spilled" true
    (c.Singe.Compile.lowered.Singe.Lower.n_spill_slots > 0);
  Alcotest.(check bool) "within budget" true
    (c.Singe.Compile.lowered.Singe.Lower.program.Gpusim.Isa.n_fregs <= 14);
  let r = Singe.Compile.run c ~total_points:(32 * 32) in
  Alcotest.(check bool) "correct with spills" true (r.Singe.Compile.max_rel_err < 1e-9)

let test_diffusion_pairs () =
  for n = 3 to 40 do
    Alcotest.(check bool)
      (Printf.sprintf "pairs covered n=%d" n)
      true
      (Singe.Diffusion_dfg.covers_all_pairs ~n)
  done

let test_naive_equals_overlay () =
  let mech = hydrogen () in
  let arch = Gpusim.Arch.kepler_k20c in
  let opts = { (Singe.Compile.default_options arch) with Singe.Compile.n_warps = 4 } in
  let out version =
    let c = Singe.Compile.compile mech Singe.Kernel_abi.Diffusion version opts in
    let r = Singe.Compile.run c ~total_points:(32 * 32) ~ctas:4 in
    r.Singe.Compile.outputs
  in
  let a = out Singe.Compile.Warp_specialized in
  let b = out Singe.Compile.Naive_warp_specialized in
  Array.iteri
    (fun f fa ->
      Array.iteri
        (fun p v ->
          let w = b.(f).(p) in
          Alcotest.(check bool) "overlay == naive" true
            (abs_float (v -. w) <= 1e-9 *. Float.max 1.0 (abs_float w)))
        fa)
    a

let test_autotune_smoke () =
  let mech = hydrogen () in
  let outcome =
    Singe.Autotune.tune ~points:2048 ~warp_candidates:[ 2; 4 ] ~cta_targets:[ 2 ]
      mech Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized
      Gpusim.Arch.kepler_k20c
  in
  Alcotest.(check bool) "tried some" true (outcome.Singe.Autotune.tried >= 2);
  Alcotest.(check bool) "throughput positive" true
    (outcome.Singe.Autotune.best.Singe.Autotune.throughput > 0.0)

let e2e name mechf kernel tol =
  List.concat_map
    (fun (arch, aname) ->
      List.map
        (fun (version, vname, warps) ->
          Alcotest.test_case
            (Printf.sprintf "%s %s %s" name vname aname)
            `Quick
            (end_to_end mechf kernel version arch warps tol))
        [
          (Singe.Compile.Warp_specialized, "ws", 4);
          (Singe.Compile.Baseline, "base", 4);
          (Singe.Compile.Naive_warp_specialized, "naive", 4);
        ])
    [ (Gpusim.Arch.kepler_k20c, "kepler"); (Gpusim.Arch.fermi_c2070, "fermi") ]

let tests =
  [
    Alcotest.test_case "sexpr let/var eval" `Quick test_sexpr_eval;
    Alcotest.test_case "sexpr shapes" `Quick test_sexpr_shape;
    Alcotest.test_case "sexpr constant order" `Quick test_sexpr_constants_order;
    QCheck_alcotest.to_alcotest qcheck_shape_const_count;
    Alcotest.test_case "viscosity dfg vs reference (hydrogen)" `Quick
      (interp_matches hydrogen Singe.Kernel_abi.Viscosity 4 1e-10);
    Alcotest.test_case "diffusion dfg vs reference (hydrogen)" `Quick
      (interp_matches hydrogen Singe.Kernel_abi.Diffusion 4 1e-10);
    Alcotest.test_case "chemistry dfg vs reference (hydrogen)" `Quick
      (interp_matches hydrogen Singe.Kernel_abi.Chemistry 4 1e-8);
    Alcotest.test_case "viscosity dfg vs reference (dme)" `Quick
      (interp_matches dme Singe.Kernel_abi.Viscosity 6 1e-10);
    Alcotest.test_case "diffusion dfg vs reference (dme)" `Quick
      (interp_matches dme Singe.Kernel_abi.Diffusion 6 1e-10);
    Alcotest.test_case "chemistry dfg vs reference (dme)" `Quick
      (interp_matches dme Singe.Kernel_abi.Chemistry 8 1e-8);
    Alcotest.test_case "mapping hints & balance" `Quick test_mapping_hints_and_balance;
    Alcotest.test_case "mapping greedy balance" `Quick test_mapping_greedy_balance;
    Alcotest.test_case "placement strategies" `Quick test_placement_strategies;
    Alcotest.test_case "schedules well-formed" `Quick test_schedule_well_formed;
    Alcotest.test_case "barrier budget respected" `Quick test_barrier_budget_respected;
    QCheck_alcotest.to_alcotest qcheck_random_dfg_end_to_end;
    Alcotest.test_case "regalloc under pressure" `Quick test_regalloc_budget;
    Alcotest.test_case "diffusion pair coverage" `Quick test_diffusion_pairs;
    Alcotest.test_case "naive equals overlay" `Quick test_naive_equals_overlay;
    Alcotest.test_case "autotune smoke" `Quick test_autotune_smoke;
  ]
  @ e2e "viscosity" hydrogen Singe.Kernel_abi.Viscosity 1e-9
  @ e2e "diffusion" hydrogen Singe.Kernel_abi.Diffusion 1e-9
  @ e2e "chemistry" hydrogen Singe.Kernel_abi.Chemistry 1e-8
