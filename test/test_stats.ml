(* Static analysis (Isa_stats) and the model's throughput bounds
   (Perf_model.bounds): internal consistency, and the simulator must
   never beat a static ceiling. *)

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme

let compile mech kernel version arch nw =
  let opts =
    { (Singe.Target.options ~n_warps:nw arch kernel) with
      Singe.Compile.ctas_per_sm_target = 1 }
  in
  Singe.Diagnostics.ok_exn
    (Singe.Compile.compile ~memo:true mech kernel version opts)

let test_mix_totals () =
  let c =
    compile (hydrogen ()) Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized Gpusim.Arch.kepler_k20c 4
  in
  let p = c.Singe.Compile.lowered.Singe.Lower.program in
  let m =
    (Gpusim.Isa_stats.of_program Gpusim.Arch.kepler_k20c p).Gpusim.Isa_stats.mix
  in
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
  let m =
    (Gpusim.Isa_stats.of_program Gpusim.Arch.kepler_k20c p).Gpusim.Isa_stats.mix
  in
  Alcotest.(check bool) "at most the batch-end CTA barrier" true
    (m.Gpusim.Isa_stats.barriers <= 1);
  Alcotest.(check int) "no shuffles" 0 m.Gpusim.Isa_stats.shuffles

(* Every mechanism and kernel given, base (4 warps) and ws (8 warps), on
   Fermi and Kepler. *)
let matrix mechs kernels =
  List.concat_map
    (fun mech ->
      List.concat_map
        (fun kernel ->
          List.concat_map
            (fun (version, vname) ->
              List.map
                (fun (arch : Gpusim.Arch.t) ->
                  let nw = if version = Singe.Compile.Baseline then 4 else 8 in
                  ( Printf.sprintf "%s %s %s on %s" mech.Chem.Mechanism.name
                      (Singe.Kernel_abi.kernel_name kernel)
                      vname arch.Gpusim.Arch.name,
                    compile mech kernel version arch nw ))
                [ Gpusim.Arch.fermi_c2070; Gpusim.Arch.kepler_k20c ])
            [ (Singe.Compile.Baseline, "base");
              (Singe.Compile.Warp_specialized, "ws") ])
        kernels)
    mechs

(* The evaluation matrix of examples/roofline_report.ml: DME, the three
   paper kernels and the two stencil pipelines. *)
let roofline_matrix () =
  matrix [ dme () ]
    ([ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion;
       Singe.Kernel_abi.Chemistry ]
    @ List.map (fun id -> Singe.Kernel_abi.Stencil id) Singe.Stencil_pipe.all_ids)

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
    (s.Gpusim.Isa_stats.flops_per_point > 0.0);
  (* The per-warp rows restated from the program's flattened trace, and
     the footprint from the model's stored facts. *)
  List.iter
    (fun (name, c) ->
      let arch = c.Singe.Compile.options.Singe.Compile.arch in
      let p = c.Singe.Compile.lowered.Singe.Lower.program in
      let s = Gpusim.Isa_stats.of_program arch p in
      let t = Gpusim.Trace.flatten arch p in
      let entries = t.Gpusim.Trace.entries in
      Array.iter
        (fun (w : Gpusim.Isa_stats.per_warp) ->
          let instrs = ref 0 and flops = ref 0 in
          Array.iter
            (fun id ->
              let e = entries.(id) in
              if e.Gpusim.Trace.instr <> None then begin
                incr instrs;
                flops := !flops + e.Gpusim.Trace.flops
              end)
            t.Gpusim.Trace.body.(w.Gpusim.Isa_stats.warp);
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: warp %d instrs, flops" name
               w.Gpusim.Isa_stats.warp)
            (!instrs, !flops)
            (w.Gpusim.Isa_stats.instrs, w.Gpusim.Isa_stats.flops))
        s.Gpusim.Isa_stats.warps;
      Alcotest.(check int)
        (name ^ ": widest footprint is the model's cold lines")
        c.Singe.Compile.facts.Singe.Model_facts.ic_cold_lines
        (Array.fold_left
           (fun m w -> max m w.Gpusim.Isa_stats.code_lines)
           0 s.Gpusim.Isa_stats.warps);
      let code_bytes = t.Gpusim.Trace.code_bytes in
      let branch_bytes = ref 0 in
      Array.iteri
        (fun id e ->
          if e.Gpusim.Trace.instr = None then
            let next =
              if id + 1 < Array.length entries then
                entries.(id + 1).Gpusim.Trace.addr
              else code_bytes
            in
            branch_bytes := !branch_bytes + next - e.Gpusim.Trace.addr)
        entries;
      Alcotest.(check int)
        (name ^ ": prologue + body + branches = code size")
        code_bytes
        (s.Gpusim.Isa_stats.prologue_bytes + s.Gpusim.Isa_stats.body_bytes
       + !branch_bytes))
    (matrix [ hydrogen (); dme () ] Singe.Kernel_abi.all_kernels)

(* Each resource's ceiling restated from the demand the compile stored:
   points per batch over the resource's SM cycles per batch, at the
   chip's clock and SM count. *)
let stored_ceilings (c : Singe.Compile.t) =
  let module A = Gpusim.Arch in
  let module F = Singe.Model_facts in
  let arch = c.Singe.Compile.options.Singe.Compile.arch in
  let p = c.Singe.Compile.lowered.Singe.Lower.program in
  let d = (Option.get c.Singe.Compile.facts.F.own_walk).F.body_demand in
  let points = float_of_int (Gpusim.Isa.points_per_batch p) in
  let clock = arch.A.clock_mhz *. 1e6 in
  let ceiling term = points /. term *. clock *. float_of_int arch.A.n_sms in
  List.filter_map
    (fun (resource, term) ->
      if term > 0.0 then Some (resource, ceiling term) else None)
    [
      ("warp-instruction issue", d.F.instrs /. float_of_int arch.A.schedulers);
      ("DP pipe", d.F.dp /. arch.A.dp_issue_per_cycle);
      ("integer/branch pipe", d.F.alu /. arch.A.alu_issue_per_cycle);
      ("LSU issue", d.F.lsu);
      ("shared-memory pipe", d.F.shared /. arch.A.shared_issue_per_cycle);
      ("texture path", d.F.tex_b /. arch.A.tex_bytes_per_cycle);
      ("global-memory path", d.F.glob_b /. arch.A.global_bytes_per_cycle);
      ("local-memory (spill) path", d.F.loc_b /. arch.A.local_bytes_per_cycle);
    ]

let test_roofline_bounds_simulation () =
  (* Every bound is its stored demand term's ceiling, and the tightest
     one dominates the simulated throughput. *)
  List.iter
    (fun (name, c) ->
      let bounds = Singe.Perf_model.bounds c in
      let stored = stored_ceilings c in
      Alcotest.(check int)
        (name ^ ": one bound per loaded resource")
        (List.length stored) (List.length bounds);
      List.iter
        (fun (resource, ceiling) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: %s ceiling" name resource)
            (List.assoc resource stored) ceiling)
        bounds;
      let resource, ceiling = List.hd bounds in
      let r = Singe.Compile.run c ~total_points:32768 in
      let achieved = r.Singe.Compile.machine.Gpusim.Chip.points_per_sec in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3e <= %.3e (%s)" name achieved ceiling
           resource)
        true
        (achieved <= ceiling *. 1.02))
    (roofline_matrix ())

let test_roofline_bounds_all_sane () =
  List.iter
    (fun (name, c) ->
      let ceilings = List.map snd (Singe.Perf_model.bounds c) in
      Alcotest.(check bool)
        (name ^ ": at least issue+dp bounds")
        true
        (List.length ceilings >= 2);
      Alcotest.(check bool)
        (name ^ ": finite and positive")
        true
        (List.for_all (fun x -> Float.is_finite x && x > 0.0) ceilings);
      Alcotest.(check bool)
        (name ^ ": sorted tightest-first")
        true
        (List.sort Float.compare ceilings = ceilings))
    (roofline_matrix ())

let test_bounds_match_model () =
  (* The tightest static bound is the model's floor as a throughput, and
     when the model's batch is throughput-bound it names the binding
     resource: all three read the same demand terms. *)
  let throughput_bound =
    List.fold_left
      (fun n (name, c) ->
        let arch = c.Singe.Compile.options.Singe.Compile.arch in
        let p = c.Singe.Compile.lowered.Singe.Lower.program in
        let pred = Singe.Perf_model.predict c ~total_points:32768 in
        let resource, ceiling = List.hd (Singe.Perf_model.bounds c) in
        let floor_points =
          float_of_int
            (Gpusim.Isa.points_per_batch p * pred.Singe.Perf_model.sim_batches
           * pred.Singe.Perf_model.resident)
        in
        let floor_ceiling =
          floor_points /. pred.Singe.Perf_model.floor_cycles
          *. arch.Gpusim.Arch.clock_mhz *. 1e6
          *. float_of_int arch.Gpusim.Arch.n_sms
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: tightest bound %.4e is the floor's %.4e" name
             ceiling floor_ceiling)
          true
          (Float.abs (ceiling -. floor_ceiling) <= 1e-9 *. floor_ceiling);
        let binding = pred.Singe.Perf_model.binding in
        if binding = "synchronization" then n
        else begin
          Alcotest.(check string)
            (name ^ ": tightest bound names the model's binding")
            binding resource;
          n + 1
        end)
      0 (roofline_matrix ())
  in
  Alcotest.(check bool) "some rows are throughput-bound" true
    (throughput_bound > 0)

let test_ws_cuts_local_traffic () =
  (* §6.3's claim, statically: warp specialization reduces spill
     instructions relative to the data-parallel baseline. *)
  let local version =
    let c =
      compile (dme ()) Singe.Kernel_abi.Chemistry version
        Gpusim.Arch.kepler_k20c 8
    in
    (Gpusim.Isa_stats.of_program Gpusim.Arch.kepler_k20c
       c.Singe.Compile.lowered.Singe.Lower.program)
      .Gpusim.Isa_stats.mix.Gpusim.Isa_stats.local_mem
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
    Alcotest.test_case "tightest bound is the model's floor" `Quick
      test_bounds_match_model;
    Alcotest.test_case "ws cuts spill instructions" `Quick test_ws_cuts_local_traffic;
  ]
