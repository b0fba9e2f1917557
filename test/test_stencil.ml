(* Stencil-pipeline frontend tests (ISSUE 10): the [Stencil_dfg]
   lowering against the [Stencil_pipe] host reference — bit-exact, since
   both sides evaluate the same [Sexpr] trees and lowering never
   reassociates — for every stage combination, both tiling modes and
   degenerate warp counts; full-simulation oracle runs on both
   architectures; the deadlock-mutant gate on stencil schedules; the
   partition search never losing to the hand band mapping (and staying
   deterministic under [jobs]); and regressions for the chemistry-only
   assumptions this frontend flushed out (positioned diagnostics where
   [assert]/[failwith]/hardcoded chem groups used to live). *)

module S = Singe.Sexpr
module SP = Singe.Stencil_pipe
module SD = Singe.Stencil_dfg

let hydrogen = Chem.Mech_gen.hydrogen
let kepler = Gpusim.Arch.kepler_k20c
let fermi = Gpusim.Arch.fermi_c2070

let options_for ?(overlap = true) arch =
  {
    (Singe.Compile.default_options arch) with
    Singe.Compile.n_warps = 4;
    stencil_overlap = overlap;
  }

(* ---- the stage shapes the bundled pipelines are built from, redeclared
   here so tests can chain them in arbitrary orders ---- *)

let blur =
  {
    SP.stage_name = "t-blur";
    radius = 1;
    uses_source = false;
    expr =
      S.(fma (C 0.25) (In 0) (fma (C 0.5) (In 1) (mul (C 0.25) (In 2))));
  }

and gradient =
  {
    SP.stage_name = "t-grad";
    radius = 1;
    uses_source = false;
    expr = S.(let_ (sub (In 2) (In 0)) (mul (Var 0) (Var 0)));
  }

and threshold =
  {
    SP.stage_name = "t-thresh";
    radius = 0;
    uses_source = false;
    expr = S.(max_ (sub (In 0) (C 0.125)) (Imm 0.0));
  }

and sharpen =
  {
    SP.stage_name = "t-sharp";
    radius = 1;
    uses_source = true;
    expr = S.(fma (C 1.5) (sub (In 3) (In 1)) (In 3));
  }

let pipe_of stages =
  {
    SP.pipe_name =
      String.concat "+" (List.map (fun s -> s.SP.stage_name) stages);
    width = SP.width;
    stages;
  }

let random_source st =
  Array.init SP.width (fun _ -> Random.State.float st 4.0 -. 2.0)

let check_bitexact ~what p dfg source =
  let want = SP.reference p ~source in
  let got = Singe.Dfg_interp.eval_stencil dfg ~source in
  Array.iteri
    (fun c w ->
      let g =
        match Hashtbl.find_opt got c with
        | Some v -> v
        | None -> Alcotest.failf "%s: column %d missing from interp" what c
      in
      if Int64.bits_of_float g <> Int64.bits_of_float w then
        Alcotest.failf "%s: column %d: got %.17g want %.17g" what c g w)
    want

(* Every ordered stage combination up to length 2, plus longer chains and
   the bundled pipelines, across degenerate and ordinary warp counts and
   both tiling modes — all bit-exact against the host reference. *)
let test_oracle_equivalence () =
  let singles = [ blur; gradient; threshold; sharpen ] in
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> [ a; b ]) singles) singles
  in
  let chains =
    List.map (fun s -> [ s ]) singles
    @ pairs
    @ [
        [ blur; gradient; threshold ];
        [ threshold; sharpen; gradient ];
        [ blur; gradient; sharpen; threshold ];
      ]
  in
  let pipes =
    List.map pipe_of chains
    @ List.map (fun id -> SP.get id) SP.all_ids
  in
  let st = Random.State.make [| 0x57e9c11 |] in
  List.iter
    (fun p ->
      List.iter
        (fun n_warps ->
          List.iter
            (fun overlap ->
              let what =
                Printf.sprintf "%s w%d %s" p.SP.pipe_name n_warps
                  (if overlap then "overlap" else "exchange")
              in
              let dfg = SD.build p ~n_warps ~overlap in
              (match Singe.Dfg.validate dfg with
              | Ok () -> ()
              | Error l ->
                  Alcotest.failf "%s: invalid dfg: %s" what
                    (String.concat "; " l));
              check_bitexact ~what p dfg (random_source st);
              check_bitexact ~what p dfg (random_source st))
            [ true; false ])
        [ 1; 3; 4; 8 ])
    pipes

(* The device fill and the reference start from the same [source_value],
   so the full simulation must also be bit-exact (max_rel_err = 0) in
   both tiling modes. The two modes may extrapolate from different batch
   counts, so only their commonly simulated prefix is compared — on it
   they agree bit for bit. The model floor holds on each arch. *)
let test_simulation_bitexact () =
  let points = 2048 in
  List.iter
    (fun id ->
      List.iter
        (fun arch ->
          let run overlap =
            let c =
              Singe.Compile.compile (hydrogen ())
                (Singe.Kernel_abi.Stencil id)
                Singe.Compile.Warp_specialized
                (options_for ~overlap arch)
            in
            let r = Singe.Compile.run c ~total_points:points in
            let label =
              Printf.sprintf "%s %s %s" (SP.id_name id) arch.Gpusim.Arch.name
                (if overlap then "overlap" else "exchange")
            in
            Alcotest.(check (float 0.0))
              (label ^ " bit-exact") 0.0 r.Singe.Compile.max_rel_err;
            let floor =
              (Singe.Perf_model.predict c ~total_points:points)
                .Singe.Perf_model.floor_cycles
            in
            let measured =
              r.Singe.Compile.machine.Gpusim.Machine.sm_cycles
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s floor %.0f <= measured %d" label floor
                 measured)
              true
              (floor <= float_of_int measured);
            r.Singe.Compile.outputs
          in
          let on = run true and off = run false in
          let n = min (Array.length on.(0)) (Array.length off.(0)) in
          let prefix f =
            Array.map
              (fun a -> Array.map Int64.bits_of_float (Array.sub a 0 n))
              f
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s tiling modes agree" (SP.id_name id)
               arch.Gpusim.Arch.name)
            true
            (prefix on = prefix off))
        [ kepler; fermi ])
    SP.all_ids

let test_baseline_bitexact () =
  let c =
    Singe.Compile.compile (hydrogen ())
      (Singe.Kernel_abi.Stencil SP.Edge3) Singe.Compile.Baseline
      (options_for kepler)
  in
  let r = Singe.Compile.run c ~total_points:8192 in
  Alcotest.(check (float 0.0)) "baseline bit-exact" 0.0
    r.Singe.Compile.max_rel_err

(* ---- deadlock gate: stencil schedules pass, seeded mutants do not ---- *)

let test_deadlock_mutants () =
  List.iter
    (fun id ->
      let c =
        Singe.Compile.compile (hydrogen ())
          (Singe.Kernel_abi.Stencil id) Singe.Compile.Warp_specialized
          (options_for kepler)
      in
      let schedule = c.Singe.Compile.schedule in
      (match Singe.Deadlock_check.check schedule with
      | Ok () -> ()
      | Error p ->
          Alcotest.failf "%s original rejected: %s" (SP.id_name id)
            (String.concat "; " p));
      let muts = Singe.Deadlock_check.mutants ~seed:42 schedule in
      Alcotest.(check bool)
        (SP.id_name id ^ " has mutants")
        true
        (List.length muts >= 5);
      List.iter
        (fun (m : Singe.Deadlock_check.mutant) ->
          match Singe.Deadlock_check.check m.Singe.Deadlock_check.schedule with
          | Error _ -> ()
          | Ok () ->
              Alcotest.failf "mutant %s of %s accepted"
                m.Singe.Deadlock_check.label (SP.id_name id))
        muts;
      match Singe.Deadlock_check.check schedule with
      | Ok () -> ()
      | Error p ->
          Alcotest.failf "%s damaged by mutation: %s" (SP.id_name id)
            (String.concat "; " p))
    SP.all_ids

(* ---- partition search: auto never loses to hand, identical under jobs ---- *)

let search_outcome ~jobs id =
  match
    Singe.Partition_search.search ~points:2048 ~jobs (hydrogen ())
      (Singe.Kernel_abi.Stencil id) Singe.Compile.Warp_specialized
      ~base:(options_for kepler) ()
  with
  | Ok o -> o
  | Error d ->
      Alcotest.failf "search %s failed: %s" (SP.id_name id)
        (Singe.Diagnostics.to_string d)

let test_search_never_loses () =
  List.iter
    (fun id ->
      let o = search_outcome ~jobs:1 id in
      Alcotest.(check bool)
        (SP.id_name id ^ " simulation-confirmed")
        true o.Singe.Partition_search.confirmed;
      Alcotest.(check bool)
        (Printf.sprintf "%s winner %.0f <= hand %.0f" (SP.id_name id)
           o.Singe.Partition_search.winner_cycles
           o.Singe.Partition_search.hand_cycles)
        true
        (o.Singe.Partition_search.winner_cycles
        <= o.Singe.Partition_search.hand_cycles))
    SP.all_ids

let test_search_jobs_deterministic () =
  let a = search_outcome ~jobs:1 SP.Edge3 in
  let b = search_outcome ~jobs:4 SP.Edge3 in
  let module P = Singe.Partition_search in
  Alcotest.(check bool) "same winner options" true (a.P.winner = b.P.winner);
  Alcotest.(check bool) "same winner spec" true
    (a.P.winner_spec = b.P.winner_spec);
  Alcotest.(check (float 0.0)) "same winner cycles" a.P.winner_cycles
    b.P.winner_cycles;
  Alcotest.(check (float 0.0)) "same hand cycles" a.P.hand_cycles
    b.P.hand_cycles;
  Alcotest.(check int) "same searched" a.P.searched b.P.searched;
  Alcotest.(check int) "same gated" a.P.gated b.P.gated;
  Alcotest.(check int) "same simulated" a.P.simulated b.P.simulated;
  Alcotest.(check int) "same rejections"
    (List.length a.P.rejections)
    (List.length b.P.rejections)

(* ---- regressions for the chemistry-only assumptions this PR fixed ---- *)

(* Dfg.topo_order used to [failwith "cycle"] with no position; it must now
   raise a [dfg-build] diagnostic naming the stuck operations, and
   [Dfg.validate] must fold it into its report instead of aborting. *)
let test_cycle_diagnostic () =
  let cyclic =
    {
      Singe.Dfg.graph_name = "cyclic";
      ops =
        [|
          {
            Singe.Dfg.id = 0;
            name = "a";
            kind = Singe.Dfg.Compute (Singe.Sexpr.In 0);
            inputs = [| 1 |];
            output = Some 0;
            hint = None;
            shared_hint = false;
            align = None;
          };
          {
            Singe.Dfg.id = 1;
            name = "b";
            kind = Singe.Dfg.Compute (Singe.Sexpr.In 0);
            inputs = [| 0 |];
            output = Some 1;
            hint = None;
            shared_hint = false;
            align = None;
          };
        |];
      values =
        [|
          { Singe.Dfg.vid = 0; vname = "a"; producer = 0; consumers = [ 1 ] };
          { Singe.Dfg.vid = 1; vname = "b"; producer = 1; consumers = [ 0 ] };
        |];
    }
  in
  (match Singe.Dfg.topo_order cyclic with
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "cycle diagnostic pass" (Some "dfg-build") d.Singe.Diagnostics.pass
  | _ -> Alcotest.fail "cycle accepted by topo_order");
  match Singe.Dfg.validate cyclic with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cycle accepted by validate"

(* The interpreter used to hardcode the chemistry input groups and
   [invalid_arg] on anything else; feeding a chemistry graph to the
   stencil environment must now be a positioned diagnostic. *)
let test_interp_group_diagnostic () =
  let dfg = Singe.Viscosity_dfg.build (hydrogen ()) ~n_warps:4 in
  match Singe.Dfg_interp.eval_stencil dfg ~source:(Array.make SP.width 1.0) with
  | exception Singe.Diagnostics.Fail _ -> ()
  | _ -> Alcotest.fail "chem graph accepted by stencil interp"

(* [Compile.default_ctas] used to [assert] the baseline launch divided
   evenly; a non-divisible point count must be a [launch] diagnostic. *)
let test_baseline_launch_diagnostic () =
  let c =
    Singe.Compile.compile (hydrogen ())
      (Singe.Kernel_abi.Stencil SP.Edge3) Singe.Compile.Baseline
      (options_for kepler)
  in
  match Singe.Compile.default_ctas c ~total_points:1000 with
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "launch diagnostic pass" (Some "launch") d.Singe.Diagnostics.pass
  | n -> Alcotest.failf "non-divisible baseline launch accepted (%d ctas)" n

let test_degenerate_warps_diagnostic () =
  match SD.build (SP.get SP.Edge3) ~n_warps:0 ~overlap:true with
  | exception Singe.Diagnostics.Fail _ -> ()
  | _ -> Alcotest.fail "n_warps=0 accepted"

(* The perf model's floor must stay a true floor on stencil graphs (the
   cross-CTA contention recalibration must not push it above the
   simulator), and the prediction itself must stay in range. *)
let test_model_floor_holds () =
  List.iter
    (fun id ->
      let c =
        Singe.Compile.compile (hydrogen ())
          (Singe.Kernel_abi.Stencil id) Singe.Compile.Warp_specialized
          (options_for kepler)
      in
      let points = 32768 in
      let p = Singe.Perf_model.predict c ~total_points:points in
      let r = Singe.Compile.run c ~total_points:points in
      let measured =
        float_of_int r.Singe.Compile.machine.Gpusim.Machine.sm_cycles
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s floor %.0f <= measured %.0f" (SP.id_name id)
           p.Singe.Perf_model.floor_cycles measured)
        true
        (p.Singe.Perf_model.floor_cycles <= measured);
      let err =
        Singe.Perf_model.rel_err ~predicted:p.Singe.Perf_model.cycles ~measured
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s model error %.1f%% within 60%%" (SP.id_name id)
           (100.0 *. err))
        true (err <= 0.6))
    SP.all_ids

let tests =
  [
    Alcotest.test_case "oracle equivalence, all stage combinations" `Quick
      test_oracle_equivalence;
    Alcotest.test_case "simulation bit-exact on both arches" `Slow
      test_simulation_bitexact;
    Alcotest.test_case "baseline bit-exact" `Quick test_baseline_bitexact;
    Alcotest.test_case "deadlock mutants rejected" `Quick
      test_deadlock_mutants;
    Alcotest.test_case "partition auto never loses" `Slow
      test_search_never_loses;
    Alcotest.test_case "search deterministic under jobs" `Slow
      test_search_jobs_deterministic;
    Alcotest.test_case "dfg cycle is a positioned diagnostic" `Quick
      test_cycle_diagnostic;
    Alcotest.test_case "interp group mismatch is a diagnostic" `Quick
      test_interp_group_diagnostic;
    Alcotest.test_case "baseline launch mismatch is a diagnostic" `Quick
      test_baseline_launch_diagnostic;
    Alcotest.test_case "degenerate warp count is a diagnostic" `Quick
      test_degenerate_warps_diagnostic;
    Alcotest.test_case "model floor holds on stencil" `Slow
      test_model_floor_holds;
  ]
