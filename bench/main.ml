(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (pass a figure name, or nothing for all), then runs a few
   Bechamel microbenchmarks of the toolchain itself.

   `main.exe perf [--out FILE]` instead emits one machine-readable JSON
   document — per-kernel simulated throughput plus the compiler's per-pass
   wall-clock timings and host-side sweep metrics — so successive PRs can
   track a performance trajectory without scraping the human-readable
   tables.

   `--jobs N` (or SINGE_JOBS) bounds the domains used for the sweep
   fan-out; simulated results are identical at every job count. *)

let microbenchmarks () =
  let open Bechamel in
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let opts =
    Singe.Target.options ~n_warps:6 arch Singe.Kernel_abi.Viscosity
  in
  let chem_opts =
    Singe.Target.options ~n_warps:4 arch Singe.Kernel_abi.Chemistry
  in
  let grid = Chem.Grid.create mech ~points:32 ~seed:1L in
  let tests =
    [
      Test.make ~name:"compile-dme-viscosity-ws" (Staged.stage (fun () ->
          ignore (Singe.Compile.compile mech Singe.Kernel_abi.Viscosity
                    Singe.Compile.Warp_specialized opts)));
      Test.make ~name:"reference-viscosity-point" (Staged.stage (fun () ->
          ignore (Chem.Ref_kernels.viscosity_point mech
                    ~temp:(Chem.Grid.point_temperature grid 0)
                    ~mole_frac:(Chem.Grid.point_mole_fracs grid mech 0))));
      Test.make ~name:"qssa-graph-build" (Staged.stage (fun () ->
          ignore (Chem.Qssa.build mech)));
      Test.make ~name:"reference-chemistry-point" (Staged.stage (fun () ->
          ignore (Chem.Ref_kernels.chemistry_point mech
                    ~temp:(Chem.Grid.point_temperature grid 0)
                    ~pressure:(Chem.Grid.point_pressure grid 0)
                    ~mole_frac:(Chem.Grid.point_mole_fracs grid mech 0)
                    ~diffusion:(Chem.Grid.point_diffusion grid 0))));
      Test.make ~name:"chemkin-parse-dme" (
        let text = Chem.Mech_io.chemkin_of_mechanism mech in
        Staged.stage (fun () -> ignore (Chem.Chemkin_parser.parse text)));
      Test.make ~name:"transport-fit-dme" (Staged.stage (fun () ->
          ignore (Chem.Transport.fit mech.Chem.Mechanism.species)));
      (* Setup compiles below go through the memo cache — only the
         compile-dme-viscosity-ws benchmark above measures compilation
         itself, so it keeps calling the uncached entry point. *)
      Test.make ~name:"simulate-dme-viscosity-1batch" (
        let c = Singe.Compile.compile_cached mech Singe.Kernel_abi.Viscosity
                  Singe.Compile.Warp_specialized opts in
        Staged.stage (fun () ->
            ignore (Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32))));
      Test.make ~name:"simulate-dme-chemistry-ws" (
        let c = Singe.Compile.compile_cached mech Singe.Kernel_abi.Chemistry
                  Singe.Compile.Warp_specialized chem_opts in
        Staged.stage (fun () ->
            ignore (Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32))));
      Test.make ~name:"isa-text-roundtrip" (
        let c = Singe.Compile.compile_cached mech Singe.Kernel_abi.Viscosity
                  Singe.Compile.Warp_specialized opts in
        let p = c.Singe.Compile.lowered.Singe.Lower.program in
        Staged.stage (fun () ->
            match Gpusim.Isa_text.parse (Gpusim.Isa_text.emit p) with
            | Ok _ -> ()
            | Error e -> failwith e));
      Test.make ~name:"cuda-emit-viscosity" (
        let c = Singe.Compile.compile_cached mech Singe.Kernel_abi.Viscosity
                  Singe.Compile.Warp_specialized opts in
        let p = c.Singe.Compile.lowered.Singe.Lower.program in
        Staged.stage (fun () -> ignore (Singe.Cuda_emit.emit ~arch p)));
      Test.make ~name:"roofline-analysis" (
        let c = Singe.Compile.compile_cached mech Singe.Kernel_abi.Chemistry
                  Singe.Compile.Warp_specialized chem_opts in
        let p = c.Singe.Compile.lowered.Singe.Lower.program in
        Staged.stage (fun () -> ignore (Gpusim.Roofline.analyze arch p)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let results = Benchmark.all cfg [ instance ] test in
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance results
  in
  print_endline (String.make 78 '-');
  print_endline "Toolchain microbenchmarks (Bechamel, monotonic clock)";
  print_endline (String.make 78 '-');
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-32s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-32s (no estimate)\n%!" name)
        results)
    tests

(* ---- machine-readable perf snapshot (the `perf` mode) ---- *)

let perf_configs () =
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let kernels =
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Conductivity;
      Singe.Kernel_abi.Diffusion; Singe.Kernel_abi.Chemistry ]
  in
  List.concat_map
    (fun kernel ->
      List.map
        (fun version ->
          (mech, kernel, version, Singe.Target.options ~n_warps:8 arch kernel))
        [ Singe.Compile.Warp_specialized; Singe.Compile.Baseline ])
    kernels
  @ (* The stencil workload column (perf-v10): both bundled pipelines,
       warp-specialized and baseline. The mechanism is carried for the
       record's "mech" field only — stencil kernels never read it. *)
  List.concat_map
    (fun id ->
      List.map
        (fun version ->
          let kernel = Singe.Kernel_abi.Stencil id in
          (mech, kernel, version, Singe.Target.options ~n_warps:4 arch kernel))
        [ Singe.Compile.Warp_specialized; Singe.Compile.Baseline ])
    [ Singe.Stencil_pipe.Edge3; Singe.Stencil_pipe.Unsharp2 ]

(* One perf config's outcome: a JSON entry, a compile-stage skip, or a
   contained simulation fault (watchdog / deadlock); the latter two are
   counted separately in the document header. *)
type perf_outcome = P_entry of string | P_skip of string | P_fault of string

(* The chip scheduler's outcome as one JSON object — shared between the
   per-entry "chip" field, the scaling sweep and the chip-smoke gate so
   all three stay schema-identical. *)
let chip_json (ch : Gpusim.Chip.schedule) =
  Printf.sprintf
    "{\"n_sms\": %d, \"rounds_total\": %d, \"tail_ctas\": %d, \
     \"makespan_cycles\": %.0f, \"cycle_spread\": %.0f, \
     \"dispatch_imbalance\": %.4f, \"dram_util\": %.4f, \"throttle_max\": \
     %.4f, \"spill_in_l2\": %b}"
    ch.Gpusim.Chip.n_sms ch.Gpusim.Chip.rounds_total ch.Gpusim.Chip.tail_ctas
    ch.Gpusim.Chip.makespan_cycles
    (Gpusim.Chip.cycle_spread ch)
    (Gpusim.Chip.dispatch_imbalance ch)
    ch.Gpusim.Chip.contention.Gpusim.Chip.dram_util
    ch.Gpusim.Chip.contention.Gpusim.Chip.throttle_max
    ch.Gpusim.Chip.contention.Gpusim.Chip.spill_in_l2

let perf ~out ?max_cycles () =
  let points = 8192 in
  (* Arm the watchdog even when the caller does not: a regression that
     hangs the simulator must fail the perf gate, not wedge it. *)
  let max_cycles =
    match max_cycles with Some n -> n | None -> 200_000_000
  in
  let sweep_start = Unix.gettimeofday () in
  (* Each config is an independent compile+simulate job: fan them out and
     keep every print (stderr skips included) post-join so the output is
     byte-identical at any job count. Host-side wall-clock fields are the
     only thing allowed to vary across runs. *)
  let entry (mech, kernel, version, options) =
    let label =
      Printf.sprintf "%s %s"
        (Singe.Kernel_abi.kernel_name kernel)
        (Singe.Compile.version_name version)
    in
    let compile_t0 = Unix.gettimeofday () in
    match
      Singe.Compile.compile_checked ~validate:true mech kernel version options
    with
    | Error d ->
        P_skip
          (Printf.sprintf "perf: skipping %s: %s\n" label
             (Singe.Diagnostics.to_string d))
    | Ok (c, report) -> (
        let compile_wall_s = Unix.gettimeofday () -. compile_t0 in
        let pred = Singe.Perf_model.predict c ~total_points:points in
        let t0 = Unix.gettimeofday () in
        match
          Singe.Compile.run c ~total_points:points ~max_cycles
            ~profile:{ Gpusim.Sm.timeline_capacity = 0 }
        with
        | exception Gpusim.Sm.Simulation_fault f ->
            P_fault
              (Printf.sprintf "perf: simulation fault in %s: %s at cycle %d: %s\n"
                 label
                 (Gpusim.Sm.fault_kind_name f.Gpusim.Sm.fault_kind)
                 f.Gpusim.Sm.fault_cycle f.Gpusim.Sm.detail)
        | r ->
        (* Compile and simulate are timed separately: earlier schemas
           reported one `wall_s` covering only the simulate call, which
           made compiler-speed regressions invisible and (when a cached
           compile landed inside the timed region) skewed
           sim_cycles_per_host_sec. *)
        let sim_wall_s = Unix.gettimeofday () -. t0 in
        let sm_cycles = r.Singe.Compile.machine.Gpusim.Machine.sm_cycles in
        (* The exchange-rewrite delta: when the shuffle-exchange
           superoptimizer touched this entry, re-simulate with the rewrite
           forced off so the snapshot records the cycles it bought. *)
        let exchange_json =
          let ex = c.Singe.Compile.lowered.Singe.Lower.exchange in
          if ex.Singe.Shuffle_synth.sites_rewritten = 0 then "null"
          else
            let off_cycles =
              match
                Singe.Compile.compile_checked ~validate:false mech kernel
                  version
                  { options with Singe.Compile.synth_exchange = Some false }
              with
              | Error _ -> sm_cycles
              | Ok (c_off, _) ->
                  let r_off =
                    Singe.Compile.run ~check:false c_off ~total_points:points
                      ~max_cycles
                  in
                  r_off.Singe.Compile.machine.Gpusim.Machine.sm_cycles
            in
            Printf.sprintf
              "{\"sites_rewritten\": %d, \"round_trips_removed\": %d, \
               \"stores_removed\": %d, \"shuffle_steps\": %d, \
               \"shared_bytes_freed\": %d, \"cycle_delta\": %d}"
              ex.Singe.Shuffle_synth.sites_rewritten
              ex.Singe.Shuffle_synth.round_trips_removed
              ex.Singe.Shuffle_synth.stores_removed
              ex.Singe.Shuffle_synth.shuffle_steps
              ex.Singe.Shuffle_synth.shared_bytes_freed
              (off_cycles - sm_cycles)
        in
        let profile_json =
          match r.Singe.Compile.machine.Gpusim.Machine.sim.Gpusim.Sm.profile with
          | Some p -> Gpusim.Profile.to_json p
          | None -> "null"
        in
        (* The searched counterpart of this hand-partitioned entry: a
           model-only Partition_search pass (jobs pinned to 1 — the entry
           itself already runs inside the snapshot's fan-out) recording
           the candidate funnel and whether the analytic ranking would
           have picked a different split. Baseline has no partition to
           search. *)
        let partition_json =
          match version with
          | Singe.Compile.Baseline | Singe.Compile.Naive_warp_specialized ->
              "{\"mode\": \"hand\", \"search\": null}"
          | Singe.Compile.Warp_specialized -> (
              match
                Singe.Partition_search.search ~jobs:1 ~simulate:false mech
                  kernel version ~base:options ()
              with
              | Error _ -> "{\"mode\": \"hand\", \"search\": null}"
              | Ok o ->
                  let spec_json =
                    match o.Singe.Partition_search.winner_spec with
                    | None -> "null"
                    | Some s ->
                        Printf.sprintf
                          "{\"producer_warps\": %d, \"hub_threshold\": %d, \
                           \"chain_weight\": %.3g, \"strategy\": \"%s\", \
                           \"buffer_slots\": %d}"
                          s.Singe.Mapping.producer_warps
                          s.Singe.Mapping.hub_threshold
                          s.Singe.Mapping.chain_weight
                          (match s.Singe.Mapping.auto_strategy with
                          | Singe.Mapping.Store -> "store"
                          | Singe.Mapping.Buffer -> "buffer"
                          | Singe.Mapping.Mixed -> "mixed")
                          o.Singe.Partition_search.winner
                            .Singe.Compile.buffer_slots
                  in
                  Printf.sprintf
                    "{\"mode\": \"hand\", \"search\": {\"searched\": %d, \
                     \"gated\": %d, \"rejected\": %d, \"confirmed\": %b, \
                     \"model_hand_cycles\": %.0f, \"model_winner_cycles\": \
                     %.0f, \"winner\": %s}}"
                    o.Singe.Partition_search.searched
                    o.Singe.Partition_search.gated
                    (List.length o.Singe.Partition_search.rejections)
                    o.Singe.Partition_search.confirmed
                    o.Singe.Partition_search.hand_cycles
                    o.Singe.Partition_search.winner_cycles spec_json)
        in
        P_entry
          (Printf.sprintf
             "{\"mech\": \"%s\", \"workload\": \"%s\", \"kernel\": \
              \"%s\", \"version\": \"%s\", \"arch\": \"%s\", \"points\": \
              %d, \"points_per_sec\": %.6g, \
              \"gflops\": %.6g, \"dram_gbs\": %.6g, \"sm_cycles\": %d, \
              \"max_rel_err\": %.3g, \"host\": {\"compile_wall_s\": %.4f, \
              \"sim_wall_s\": %.4f, \"sim_cycles_per_host_sec\": %.6g}, \
              \"model\": {\"predicted_cycles\": %.0f, \"floor_cycles\": \
              %.0f, \"rel_err\": %.4f, \"binding\": \"%s\"}, \
              \"partition\": %s, \"chip\": %s, \"exchange\": %s, \
              \"profile\": %s, \"report\": %s}"
             mech.Chem.Mechanism.name
             (match kernel with
             | Singe.Kernel_abi.Stencil _ -> "stencil"
             | _ -> "combustion")
             (Singe.Kernel_abi.kernel_name kernel)
             (Singe.Compile.version_name version)
             c.Singe.Compile.options.Singe.Compile.arch.Gpusim.Arch.name
             points
             r.Singe.Compile.machine.Gpusim.Machine.points_per_sec
             r.Singe.Compile.machine.Gpusim.Machine.gflops
             r.Singe.Compile.machine.Gpusim.Machine.dram_gbs
             sm_cycles
             r.Singe.Compile.max_rel_err
             compile_wall_s sim_wall_s
             (float_of_int sm_cycles /. Float.max 1e-9 sim_wall_s)
             pred.Singe.Perf_model.cycles
             pred.Singe.Perf_model.floor_cycles
             (Singe.Perf_model.rel_err
                ~predicted:pred.Singe.Perf_model.cycles
                ~measured:(float_of_int sm_cycles))
             pred.Singe.Perf_model.binding partition_json
             (chip_json r.Singe.Compile.machine.Gpusim.Machine.chip)
             exchange_json profile_json
             (Singe.Pass.report_to_json report)))
  in
  (* The autotune sweep benchmark: the same grid swept exhaustively and
     pruned by the performance model, with the wall-clock of each mode
     recorded so the snapshot tracks the pruning win. The compile cache
     is warmed for the whole grid outside both timed regions (both modes
     compile every candidate regardless), so the two walls compare
     exactly what pruning changes: how many candidates get simulated. *)
  let tune_sweeps =
    let mech = Chem.Mech_gen.dme () in
    let arch = Gpusim.Arch.kepler_k20c in
    let kernel = Singe.Kernel_abi.Chemistry in
    let version = Singe.Compile.Warp_specialized in
    ignore
      (Sutil.Domain_pool.parallel_map_result
         (fun options ->
           Singe.Compile.compile_cached mech kernel version options)
         (Singe.Autotune.candidate_options ~points:32768 kernel version arch
            (Singe.Autotune.default_warp_candidates mech kernel version)
            [ 1; 2 ]));
    let sweep mode =
      let t0 = Unix.gettimeofday () in
      let o = Singe.Autotune.tune ~mode ~max_cycles mech kernel version arch in
      let wall = Unix.gettimeofday () -. t0 in
      Printf.sprintf
        "{\"sweep_mode\": \"%s\", \"sweep_wall_s\": %.4f, \"tried\": %d, \
         \"skipped\": %d, \"candidates_pruned\": %d, \
         \"model_rank_of_winner\": %d, \"winner\": {\"n_warps\": %d, \
         \"ctas_per_sm_target\": %d, \"points_per_sec\": %.6g, \
         \"predicted_cycles\": %.0f}}"
        (match mode with
        | Singe.Autotune.Exhaustive -> "exhaustive"
        | Singe.Autotune.Pruned k -> Printf.sprintf "pruned-%d" k)
        wall o.Singe.Autotune.tried o.Singe.Autotune.skipped
        o.Singe.Autotune.candidates_pruned
        o.Singe.Autotune.model_rank_of_winner
        o.Singe.Autotune.best.Singe.Autotune.options.Singe.Compile.n_warps
        o.Singe.Autotune.best.Singe.Autotune.options
          .Singe.Compile.ctas_per_sm_target
        o.Singe.Autotune.best.Singe.Autotune.throughput
        o.Singe.Autotune.best.Singe.Autotune.predicted
          .Singe.Perf_model.cycles
    in
    let pruned =
      sweep (Singe.Autotune.Pruned Singe.Autotune.default_prune_keep)
    in
    let exhaustive = sweep Singe.Autotune.Exhaustive in
    [ pruned; exhaustive ]
  in
  (* SM-count scaling rows: the spill-heavy data-parallel baseline pushes
     the most bytes per cycle, so it is where the shared DRAM arbiter's
     sub-linear scaling (and the tail wave's imbalance) shows first. *)
  let chip_scaling_rows =
    let mech = Chem.Mech_gen.dme () in
    let arch = Gpusim.Arch.kepler_k20c in
    let c =
      Singe.Compile.compile_cached mech Singe.Kernel_abi.Viscosity
        Singe.Compile.Baseline
        (Singe.Target.options ~n_warps:8 arch Singe.Kernel_abi.Viscosity)
    in
    let row n_sms =
      let r =
        Singe.Compile.run ~check:false c ~total_points:points ~max_cycles
          ~n_sms
      in
      let m = r.Singe.Compile.machine in
      ( n_sms,
        m.Gpusim.Machine.points_per_sec,
        chip_json m.Gpusim.Machine.chip )
    in
    let sm_counts =
      List.sort_uniq compare
        (List.filter
           (fun n -> n <= arch.Gpusim.Arch.n_sms)
           [ 1; 2; 4; 8; arch.Gpusim.Arch.n_sms ])
    in
    let rows = Sutil.Domain_pool.parallel_map row sm_counts in
    let base =
      match rows with (_, t, _) :: _ -> t | [] -> assert false
    in
    List.map
      (fun (n_sms, pps, chip) ->
        Printf.sprintf
          "{\"n_sms\": %d, \"points_per_sec\": %.6g, \"speedup_vs_1\": \
           %.4f, \"chip\": %s}"
          n_sms pps (pps /. base) chip)
      rows
  in
  let outcomes = Sutil.Domain_pool.parallel_map entry (perf_configs ()) in
  let entries =
    List.filter_map
      (function
        | P_entry e -> Some e
        | P_skip msg | P_fault msg ->
            prerr_string msg;
            None)
      outcomes
  in
  let count p = List.length (List.filter p outcomes) in
  let faults_detected = count (function P_fault _ -> true | _ -> false) in
  let candidates_skipped = count (function P_entry _ -> false | _ -> true) in
  let cache_json =
    let ms = Singe.Compile.memo_stats () in
    Printf.sprintf
      "{\"size\": %d, \"limit\": %d, \"hits\": %d, \"misses\": %d, \
       \"evictions\": %d, \"corruptions\": %d}"
      ms.Singe.Compile.size ms.Singe.Compile.limit ms.Singe.Compile.hits
      ms.Singe.Compile.misses ms.Singe.Compile.evictions
      ms.Singe.Compile.corruptions
  in
  let json =
    Printf.sprintf
      "{\"schema\": \"singe-perf-v10\", \"jobs\": %d, \"max_cycles\": %d, \
       \"faults_detected\": %d, \"candidates_skipped\": %d, \
       \"sweep_wall_s\": %.4f, \"compile_cache\": %s, \"tune\": [\n\
       %s\n\
       ], \"chip_scaling\": [\n\
       %s\n\
       ], \"results\": [\n\
       %s\n\
       ]}\n"
      (Sutil.Domain_pool.default_jobs ())
      max_cycles faults_detected candidates_skipped
      (Unix.gettimeofday () -. sweep_start)
      cache_json
      (String.concat ",\n" tune_sweeps)
      (String.concat ",\n" chip_scaling_rows)
      (String.concat ",\n" entries)
  in
  match out with
  | None -> print_string json
  | Some file ->
      let oc = open_out file in
      output_string oc json;
      close_out oc;
      Printf.eprintf "perf snapshot written to %s\n" file

(* ---- chip smoke gate (the `chip-smoke` mode, wired into `make check`) ----

   A 4-SM DME viscosity run exercising the whole Chip layer end to end:
   the simulated snapshot (cycles, counters, chip schedule) must be
   byte-identical whether the run executes serially or on concurrent
   domains, and the perf-v10 "chip" JSON it emits must be well-formed. *)
let chip_smoke () =
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let c =
    Singe.Compile.compile_cached mech Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized
      (Singe.Target.options ~n_warps:8 arch Singe.Kernel_abi.Viscosity)
  in
  let snapshot () =
    let r = Singe.Compile.run ~check:false c ~total_points:32768 ~n_sms:4 in
    let m = r.Singe.Compile.machine in
    let ch = m.Gpusim.Machine.chip in
    ( ch,
      Printf.sprintf
        "{\"schema\": \"singe-perf-v10\", \"kernel\": \"viscosity\", \
         \"sm_cycles\": %d, \"points_per_sec\": %.6g, \"chip\": %s}"
        m.Gpusim.Machine.sm_cycles m.Gpusim.Machine.points_per_sec
        (chip_json ch) )
  in
  let failed = ref false in
  let check name ok detail =
    if ok then Printf.printf "check %-32s ok\n" name
    else begin
      failed := true;
      Printf.printf "check %-32s FAILED%s\n" name
        (if detail = "" then "" else ": " ^ detail)
    end
  in
  Sutil.Domain_pool.set_jobs 1;
  let ch, serial = snapshot () in
  Sutil.Domain_pool.set_jobs 2;
  let concurrent =
    Sutil.Domain_pool.parallel_map (fun () -> snd (snapshot ())) [ (); () ]
  in
  check "determinism across --jobs"
    (List.for_all (String.equal serial) concurrent)
    "concurrent snapshot differs from the serial one";
  check "4 SMs dispatched" (ch.Gpusim.Chip.n_sms = 4) "";
  (* The warp-specialized launch grid at 32768 points is
     [min 1024 (points/32)] CTAs (Compile.default_ctas); the dispatcher
     must hand out exactly that many, no matter how the waves land. *)
  check "every CTA dispatched"
    (Array.fold_left
       (fun acc (s : Gpusim.Chip.sm_stat) -> acc + s.Gpusim.Chip.sm_ctas)
       0 ch.Gpusim.Chip.sms
    = 1024)
    "CTA conservation across SMs broke";
  check "makespan positive" (ch.Gpusim.Chip.makespan_cycles > 0.0) "";
  (match Sutil.Json_check.validate serial with
  | Ok () -> check "perf-v10 chip json" true ""
  | Error m -> check "perf-v10 chip json" false m);
  if !failed then exit 1

(* ---- exchange-rewrite smoke gate (`synth-smoke`, wired into `make check`)

   DME diffusion on Kepler with the shuffle-exchange superoptimizer forced
   on and off: the two programs must produce bit-identical outputs (the
   rewrite's verification oracle, end to end), the rewrite must actually
   fire and must not cost simulated cycles, and the perf-v10 "exchange"
   JSON it emits must be well-formed. *)
let synth_smoke () =
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let compile synth =
    Singe.Compile.compile_cached mech Singe.Kernel_abi.Diffusion
      Singe.Compile.Warp_specialized
      { (Singe.Target.options ~n_warps:8 arch Singe.Kernel_abi.Diffusion) with
        Singe.Compile.synth_exchange = Some synth }
  in
  let c_on = compile true and c_off = compile false in
  let run c = Singe.Compile.run c ~total_points:8192 in
  let r_on = run c_on and r_off = run c_off in
  let failed = ref false in
  let check name ok detail =
    if ok then Printf.printf "check %-32s ok\n" name
    else begin
      failed := true;
      Printf.printf "check %-32s FAILED%s\n" name
        (if detail = "" then "" else ": " ^ detail)
    end
  in
  let ex = c_on.Singe.Compile.lowered.Singe.Lower.exchange in
  check "rewrite fired"
    (ex.Singe.Shuffle_synth.sites_rewritten > 0
    && ex.Singe.Shuffle_synth.round_trips_removed > 0)
    (Printf.sprintf "%d sites rewritten, %d round trips removed"
       ex.Singe.Shuffle_synth.sites_rewritten
       ex.Singe.Shuffle_synth.round_trips_removed);
  let bits (r : Singe.Compile.run_result) =
    Array.map (Array.map Int64.bits_of_float) r.Singe.Compile.outputs
  in
  check "outputs bit-identical"
    (bits r_on = bits r_off)
    "synth-on outputs differ from the shared-memory baseline";
  check "reference check passes"
    (r_on.Singe.Compile.max_rel_err < 1e-9)
    (Printf.sprintf "rel err %.2g" r_on.Singe.Compile.max_rel_err);
  let cyc (r : Singe.Compile.run_result) =
    r.Singe.Compile.machine.Gpusim.Machine.sm_cycles
  in
  check "no cycle regression"
    (cyc r_on <= cyc r_off)
    (Printf.sprintf "on %d > off %d cycles" (cyc r_on) (cyc r_off));
  let payload =
    Printf.sprintf
      "{\"schema\": \"singe-perf-v10\", \"kernel\": \"diffusion\", \
       \"sm_cycles\": %d, \"exchange\": {\"sites_rewritten\": %d, \
       \"round_trips_removed\": %d, \"stores_removed\": %d, \
       \"shuffle_steps\": %d, \"shared_bytes_freed\": %d, \"cycle_delta\": \
       %d}}"
      (cyc r_on) ex.Singe.Shuffle_synth.sites_rewritten
      ex.Singe.Shuffle_synth.round_trips_removed
      ex.Singe.Shuffle_synth.stores_removed
      ex.Singe.Shuffle_synth.shuffle_steps
      ex.Singe.Shuffle_synth.shared_bytes_freed
      (cyc r_off - cyc r_on)
  in
  (match Sutil.Json_check.validate payload with
  | Ok () -> check "perf-v10 exchange json" true ""
  | Error m -> check "perf-v10 exchange json" false m);
  if !failed then exit 1

(* ---- partition search smoke gate (`partition-smoke`, in `make check`) ----

   The full three-phase search — propose, model-rank, deadlock-gate,
   simulate-confirm — on hydrogen viscosity: the searcher must rediscover
   or beat the hand partition (simulated cycles no worse), every gate
   rejection must carry a [partition-rejected] diagnostic, the winning
   options must themselves pass the safety gate when recompiled, and the
   perf-v10 "partition" JSON must be well-formed. Hydrogen keeps the
   candidate compiles cheap enough for `make check` (~a few seconds). *)
let partition_smoke () =
  let mech = Chem.Mech_gen.hydrogen () in
  let arch = Gpusim.Arch.kepler_k20c in
  let base = Singe.Target.options ~n_warps:8 arch Singe.Kernel_abi.Viscosity in
  let failed = ref false in
  let check name ok detail =
    if ok then Printf.printf "check %-32s ok\n" name
    else begin
      failed := true;
      Printf.printf "check %-32s FAILED%s\n" name
        (if detail = "" then "" else ": " ^ detail)
    end
  in
  let t0 = Unix.gettimeofday () in
  (match
     Singe.Partition_search.search ~points:8192 mech Singe.Kernel_abi.Viscosity
       Singe.Compile.Warp_specialized ~base ()
   with
  | Error d -> check "search completes" false (Singe.Diagnostics.to_string d)
  | Ok o ->
      check "search completes" true "";
      check "simulation confirmed" o.Singe.Partition_search.confirmed "";
      check "rediscovers or beats hand"
        (o.Singe.Partition_search.winner_cycles
        <= o.Singe.Partition_search.hand_cycles)
        (Printf.sprintf "winner %.0f > hand %.0f cycles"
           o.Singe.Partition_search.winner_cycles
           o.Singe.Partition_search.hand_cycles);
      check "rejections carry diagnostics"
        (List.for_all
           (fun (r : Singe.Partition_search.rejection) ->
             let msg = Singe.Diagnostics.to_string r.rej_diag in
             String.length msg > 0
             && r.rej_diag.Singe.Diagnostics.pass = Some "partition-search")
           o.Singe.Partition_search.rejections)
        "a rejection lost its partition-search diagnostic";
      (match
         Singe.Compile.compile_checked ~validate:false mech
           Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized
           o.Singe.Partition_search.winner
       with
      | Error d ->
          check "winner recompiles" false (Singe.Diagnostics.to_string d)
      | Ok (c, _) -> (
          check "winner recompiles" true "";
          match Singe.Partition_search.gate c with
          | Ok () -> check "winner passes the safety gate" true ""
          | Error d ->
              check "winner passes the safety gate" false
                (Singe.Diagnostics.to_string d)));
      let spec_json =
        match o.Singe.Partition_search.winner_spec with
        | None -> "null"
        | Some s ->
            Printf.sprintf
              "{\"producer_warps\": %d, \"hub_threshold\": %d, \
               \"chain_weight\": %.3g, \"strategy\": \"%s\", \
               \"buffer_slots\": %d}"
              s.Singe.Mapping.producer_warps s.Singe.Mapping.hub_threshold
              s.Singe.Mapping.chain_weight
              (match s.Singe.Mapping.auto_strategy with
              | Singe.Mapping.Store -> "store"
              | Singe.Mapping.Buffer -> "buffer"
              | Singe.Mapping.Mixed -> "mixed")
              o.Singe.Partition_search.winner.Singe.Compile.buffer_slots
      in
      let payload =
        Printf.sprintf
          "{\"schema\": \"singe-perf-v10\", \"kernel\": \"viscosity\", \
           \"partition\": {\"mode\": \"hand\", \"search\": {\"searched\": %d, \
           \"gated\": %d, \"rejected\": %d, \"confirmed\": %b, \
           \"model_hand_cycles\": %.0f, \"model_winner_cycles\": %.0f, \
           \"winner\": %s}}}"
          o.Singe.Partition_search.searched o.Singe.Partition_search.gated
          (List.length o.Singe.Partition_search.rejections)
          o.Singe.Partition_search.confirmed
          o.Singe.Partition_search.hand_cycles
          o.Singe.Partition_search.winner_cycles spec_json
      in
      match Sutil.Json_check.validate payload with
      | Ok () -> check "perf-v10 partition json" true ""
      | Error m -> check "perf-v10 partition json" false m);
  let wall = Unix.gettimeofday () -. t0 in
  check "under the 30s budget" (wall < 30.0)
    (Printf.sprintf "search took %.1fs" wall);
  if !failed then exit 1

(* ---- stencil smoke gate (`stencil-smoke`, wired into `make check`) ----

   Both bundled stencil pipelines, warp-specialized on both
   architectures: the simulated outputs must match the host reference
   bit-for-bit (the fill and the oracle share the same source pixels and
   the same Sexpr trees, so any drift is a compiler bug), overlapped and
   non-overlapped tiling must agree bit-for-bit with each other, the
   overlapped default must not be slower, the model floor must hold, and
   the perf-v10 stencil JSON must be well-formed. *)
let stencil_smoke () =
  let mech = Chem.Mech_gen.hydrogen () in
  let points = 2048 in
  let failed = ref false in
  let check name ok detail =
    if ok then Printf.printf "check %-32s ok\n" name
    else begin
      failed := true;
      Printf.printf "check %-32s FAILED%s\n" name
        (if detail = "" then "" else ": " ^ detail)
    end
  in
  let rows =
    List.concat_map
      (fun id ->
        List.map
          (fun arch ->
            let compile overlap =
              Singe.Compile.compile_cached mech
                (Singe.Kernel_abi.Stencil id)
                Singe.Compile.Warp_specialized
                { (Singe.Target.options ~n_warps:4 arch
                     (Singe.Kernel_abi.Stencil id)) with
                  Singe.Compile.stencil_overlap = overlap }
            in
            let c_on = compile true and c_off = compile false in
            let r_on = Singe.Compile.run c_on ~total_points:points in
            let r_off = Singe.Compile.run c_off ~total_points:points in
            let tag =
              Printf.sprintf "%s/%s" (Singe.Stencil_pipe.id_name id)
                arch.Gpusim.Arch.name
            in
            check (tag ^ " overlap bit-exact")
              (r_on.Singe.Compile.max_rel_err = 0.0)
              (Printf.sprintf "rel err %.3g" r_on.Singe.Compile.max_rel_err);
            check (tag ^ " exchange bit-exact")
              (r_off.Singe.Compile.max_rel_err = 0.0)
              (Printf.sprintf "rel err %.3g" r_off.Singe.Compile.max_rel_err);
            (* The two modes may extrapolate from different batch counts,
               so only the commonly-simulated prefix is comparable — on
               it they must agree bit-for-bit. (Which mode is faster is a
               per-pipeline tradeoff the `stencil-overlap` figure
               reports, not a gate: unsharp2's redundant sharpen
               recompute outweighs the halo exchange it saves.) *)
            let bits (r : Singe.Compile.run_result) n =
              Array.map
                (fun f -> Array.map Int64.bits_of_float (Array.sub f 0 n))
                r.Singe.Compile.outputs
            in
            let common =
              min
                (Array.length r_on.Singe.Compile.outputs.(0))
                (Array.length r_off.Singe.Compile.outputs.(0))
            in
            check (tag ^ " tiling modes agree")
              (bits r_on common = bits r_off common)
              "overlapped outputs differ from the exchange tiling";
            let cyc (r : Singe.Compile.run_result) =
              r.Singe.Compile.machine.Gpusim.Machine.sm_cycles
            in
            let pred = Singe.Perf_model.predict c_on ~total_points:points in
            check (tag ^ " model floor holds")
              (pred.Singe.Perf_model.floor_cycles
              <= float_of_int (cyc r_on))
              (Printf.sprintf "floor %.0f > measured %d"
                 pred.Singe.Perf_model.floor_cycles (cyc r_on));
            Printf.sprintf
              "{\"workload\": \"stencil\", \"kernel\": \"%s\", \"arch\": \
               \"%s\", \"sm_cycles\": %d, \"exchange_sm_cycles\": %d, \
               \"max_rel_err\": %.3g, \"floor_cycles\": %.0f}"
              (Singe.Stencil_pipe.id_name id)
              arch.Gpusim.Arch.name (cyc r_on) (cyc r_off)
              r_on.Singe.Compile.max_rel_err
              pred.Singe.Perf_model.floor_cycles)
          [ Gpusim.Arch.kepler_k20c; Gpusim.Arch.fermi_c2070 ])
      [ Singe.Stencil_pipe.Edge3; Singe.Stencil_pipe.Unsharp2 ]
  in
  let payload =
    Printf.sprintf "{\"schema\": \"singe-perf-v10\", \"stencil\": [%s]}"
      (String.concat ", " rows)
  in
  (match Sutil.Json_check.validate payload with
  | Ok () -> check "perf-v10 stencil json" true ""
  | Error m -> check "perf-v10 stencil json" false m);
  if !failed then exit 1

(* ---- serve smoke/soak gates (`serve-smoke` is wired into `make check`) ----

   Both drive the REAL `singe serve` binary as a subprocess: requests are
   pre-written to a file and stdout is captured to a file (no interleaved
   pipe I/O, so the harness cannot deadlock against the server's own
   buffering), then every response line is re-validated — well-formed
   JSON, the expected status/class per request, bit-identical replays for
   idempotent ids, and a closing stats document showing zero internal
   errors, zero JSON self-check failures and a bounded compile cache. *)

let serve_cli () =
  match Sys.getenv_opt "SINGE_CLI" with
  | Some p -> p
  | None -> "_build/default/bin/singe_cli.exe"

(* Run one serve session over [lines]; returns (exit_code, responses). *)
let serve_session ?(flags = []) lines =
  let cli = serve_cli () in
  if not (Sys.file_exists cli) then begin
    Printf.eprintf "serve harness: CLI binary %s not found (run dune build)\n"
      cli;
    exit 1
  end;
  let in_file = Filename.temp_file "singe_serve_in" ".jsonl" in
  let out_file = Filename.temp_file "singe_serve_out" ".jsonl" in
  let oc = open_out in_file in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let fd_in = Unix.openfile in_file [ Unix.O_RDONLY ] 0 in
  let fd_out =
    Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Unix.create_process cli
      (Array.of_list ((cli :: "serve" :: flags) @ []))
      fd_in fd_out Unix.stderr
  in
  Unix.close fd_in;
  Unix.close fd_out;
  let _, status = Unix.waitpid [] pid in
  let ic = open_in out_file in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = read [] in
  close_in ic;
  Sys.remove in_file;
  Sys.remove out_file;
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  (code, responses)

(* Per-response expectation: status "ok"/"error" (+ class when error). *)
type serve_expect =
  | E_ok
  | E_degraded  (** ok with ["degraded"]: true *)
  | E_corrupt  (** ok with ["outputs_ok"]: false *)
  | E_err of string  (** error with this ["class"] *)

let serve_check_session name reqs code responses =
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        failed := true;
        Printf.printf "check %-32s FAILED: %s\n" name m)
      fmt
  in
  if code <> 0 then fail "server exited %d" code;
  let n_req = List.length reqs and n_resp = List.length responses in
  if n_req <> n_resp then fail "%d requests but %d responses" n_req n_resp;
  let docs =
    List.mapi
      (fun i line ->
        (match Sutil.Json_check.validate line with
        | Ok () -> ()
        | Error m -> fail "response %d fails Json_check: %s" i m);
        match Sutil.Json.parse line with
        | Ok doc -> Some doc
        | Error m ->
            fail "response %d is not parseable JSON: %s" i m;
            None)
      responses
  in
  let field doc k = Option.bind doc (Sutil.Json.member k) in
  let sfield doc k = Option.bind (field doc k) Sutil.Json.str in
  List.iteri
    (fun i ((_, expect), doc) ->
      let status = sfield doc "status" in
      match expect with
      | E_ok ->
          if status <> Some "ok" then
            fail "response %d: expected ok, got %s"
              i (Option.value status ~default:"<none>")
      | E_degraded ->
          if status <> Some "ok" then fail "response %d: expected ok" i;
          if Option.bind (field doc "degraded") Sutil.Json.bool <> Some true
          then fail "response %d: expected degraded: true" i
      | E_corrupt ->
          if status <> Some "ok" then fail "response %d: expected ok" i;
          if Option.bind (field doc "outputs_ok") Sutil.Json.bool <> Some false
          then fail "response %d: expected outputs_ok: false" i
      | E_err cls ->
          if status <> Some "error" then fail "response %d: expected error" i;
          let got = sfield doc "class" in
          if got <> Some cls then
            fail "response %d: expected class %s, got %s" i cls
              (Option.value got ~default:"<none>"))
    (List.combine reqs docs);
  (* Internal errors are never expected from a well-formed or even a
     hostile request stream — that class means a containment bug. *)
  List.iteri
    (fun i doc ->
      if sfield doc "class" = Some "internal" then
        fail "response %d has class internal: %s" i (List.nth responses i))
    docs;
  (* Idempotent ids must replay bit-identically. *)
  let by_id = Hashtbl.create 16 in
  List.iteri
    (fun i doc ->
      match sfield doc "id" with
      | Some id when sfield doc "status" = Some "ok" -> (
          match Hashtbl.find_opt by_id id with
          | None -> Hashtbl.add by_id id (List.nth responses i)
          | Some prev ->
              if prev <> List.nth responses i then
                fail "id %S replay is not bit-identical" id)
      | _ -> ())
    docs;
  if !failed then exit 1
  else Printf.printf "check %-32s ok (%d requests)\n" name n_req

let serve_final_stats name responses =
  match
    List.find_opt
      (fun l ->
        match Sutil.Json.parse l with
        | Ok doc ->
            Option.bind (Sutil.Json.member "kind" doc) Sutil.Json.str
            = Some "stats"
        | Error _ -> false)
      (List.rev responses)
  with
  | None ->
      Printf.printf "check %-32s FAILED: no stats response\n" name;
      exit 1
  | Some line ->
      let doc = Result.get_ok (Sutil.Json.parse line) in
      let geti path =
        let rec go doc = function
          | [] -> Sutil.Json.int doc
          | k :: rest -> (
              match Sutil.Json.member k doc with
              | Some v -> go v rest
              | None -> None)
        in
        go doc path
      in
      let expect_zero what path =
        match geti path with
        | Some 0 -> ()
        | v ->
            Printf.printf "check %-32s FAILED: %s = %s\n" name what
              (match v with Some n -> string_of_int n | None -> "<missing>");
            exit 1
      in
      expect_zero "internal errors" [ "by_class"; "internal" ];
      expect_zero "json self-check failures" [ "json_check_failures" ];
      (* The stats request itself runs with the trailing shutdown line
         still admitted: anything beyond that one queued entry would mean
         requests piled up un-served. *)
      (match geti [ "queue_depth" ] with
      | Some d when d <= 1 -> ()
      | v ->
          Printf.printf "check %-32s FAILED: queue_depth = %s\n" name
            (match v with Some n -> string_of_int n | None -> "<missing>");
          exit 1);
      expect_zero "leaked domains" [ "domain_pool"; "live_domains" ];
      (match (geti [ "compile_cache"; "size" ], geti [ "compile_cache"; "limit" ]) with
      | Some size, Some limit when size <= limit -> ()
      | size, limit ->
          Printf.printf "check %-32s FAILED: cache size %s over limit %s\n"
            name
            (match size with Some n -> string_of_int n | None -> "?")
            (match limit with Some n -> string_of_int n | None -> "?");
          exit 1);
      Printf.printf "check %-32s ok\n" name

(* The hydrogen-only smoke set: one of every request family and every
   error class, fast enough to gate `make check`. *)
let serve_smoke_requests =
  [
    ({|{"kind":"health"}|}, E_ok);
    ({|this is not json|}, E_err "bad-request");
    ({|{"kind":"compile","mech":"hydrogen"}|}, E_ok);
    ( {|{"id":"r1","kind":"run","mech":"hydrogen","points":2048,"warps":4}|},
      E_ok );
    ( {|{"id":"r1","kind":"run","mech":"hydrogen","points":2048,"warps":4}|},
      E_ok );
    ({|{"id":"r1","kind":"predict"}|}, E_err "bad-request");
    ( {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4,"faults":["drop-arrive:warp=1,nth=0"]}|},
      E_err "simulation-fault" );
    ( {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4,"faults":["corrupt-shfl:warp=0,nth=0"]}|},
      E_corrupt );
    ( {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4,"max_cycles":5000}|},
      E_degraded );
    ({|{"kind":"run","mech":"hydrogen","warps":1}|}, E_err "compile-rejected");
    ({|{"kind":"frobnicate"}|}, E_err "bad-request");
    ({|{"kind":"run","bogus_field":1}|}, E_err "bad-request");
    ({|{"kind":"stats"}|}, E_ok);
    ({|{"kind":"shutdown"}|}, E_ok);
  ]

let serve_smoke () =
  let reqs = serve_smoke_requests in
  let code, responses = serve_session (List.map fst reqs) in
  serve_check_session "serve smoke session" reqs code responses;
  serve_final_stats "serve smoke final stats" responses;
  (* Backpressure: a queue bound of 1 against a burst arriving faster
     than it drains (file input arrives all at once) must answer every
     line — some with busy + retry_after_ms — and exit cleanly. *)
  let burst = List.init 5 (fun _ -> {|{"kind":"health"}|}) in
  let code, responses =
    serve_session ~flags:[ "--max-queue"; "1" ] burst
  in
  if code <> 0 then begin
    Printf.printf "check %-32s FAILED: exit %d\n" "serve busy burst" code;
    exit 1
  end;
  if List.length responses <> List.length burst then begin
    Printf.printf "check %-32s FAILED: %d responses to %d requests\n"
      "serve busy burst" (List.length responses) (List.length burst);
    exit 1
  end;
  let busy =
    List.filter
      (fun l ->
        match Sutil.Json.parse l with
        | Ok doc ->
            Option.bind (Sutil.Json.member "class" doc) Sutil.Json.str
              = Some "busy"
            && Option.bind (Sutil.Json.member "retry_after_ms" doc)
                 Sutil.Json.int
               <> None
        | Error _ -> false)
      responses
  in
  if busy = [] then begin
    Printf.printf "check %-32s FAILED: no busy responses in the burst\n"
      "serve busy burst";
    exit 1
  end;
  Printf.printf "check %-32s ok (%d busy of %d)\n" "serve busy burst"
    (List.length busy) (List.length burst)

(* The soak set: hundreds of mixed requests — valid work, malformed
   lines, rejected configurations, injected faults (deadlock and silent
   corruption), deadline-busting budgets, idempotent replays — one warm
   process, every request answered. Not wired into `make check` (it is
   a multi-minute run); `make serve-soak` runs it on demand. *)
let serve_soak () =
  let base = {|"mech":"hydrogen","points":2048,"warps":4|} in
  let template i =
    match i mod 10 with
    | 0 -> ({|{"kind":"health"}|}, E_ok)
    | 1 -> (Printf.sprintf {|{"kind":"run",%s}|} base, E_ok)
    | 2 ->
        ( Printf.sprintf
            {|{"kind":"run",%s,"faults":["corrupt-shfl:warp=0,nth=%d"]}|} base
            (i mod 2),
          E_corrupt )
    | 3 ->
        ( Printf.sprintf
            {|{"kind":"run",%s,"faults":["drop-arrive:warp=1,nth=0"]}|} base,
          E_err "simulation-fault" )
    | 4 -> (Printf.sprintf {|{"kind":"run",%s,"max_cycles":5000}|} base, E_degraded)
    | 5 ->
        (Printf.sprintf "{\"kind\":\"run\" garbage %d" i, E_err "bad-request")
    | 6 -> ({|{"kind":"run","mech":"nope"}|}, E_err "bad-request")
    | 7 -> ({|{"kind":"compile","mech":"hydrogen","warps":2}|}, E_ok)
    | 8 -> ({|{"kind":"predict","mech":"hydrogen","warps":4,"points":2048}|}, E_ok)
    | _ -> ({|{"kind":"tune","mech":"hydrogen","top_k":2,"points":2048}|}, E_ok)
  in
  let n = 110 in
  let body =
    List.concat_map
      (fun i ->
        let req = template i in
        if i mod 10 = 1 then
          (* idempotent pair: the request and its replay *)
          let tagged =
            ( Printf.sprintf {|{"id":"s%d","kind":"run",%s}|} i base,
              E_ok )
          in
          [ tagged; tagged ]
        else [ req ])
      (List.init n (fun i -> i))
  in
  let reqs =
    body @ [ ({|{"kind":"stats"}|}, E_ok); ({|{"kind":"shutdown"}|}, E_ok) ]
  in
  (* File input arrives in one burst; a queue bound above the request
     count keeps every line admitted so responses stay in request order
     (the backpressure path has its own dedicated burst check). *)
  let code, responses =
    serve_session ~flags:[ "--max-queue"; "1024" ] (List.map fst reqs)
  in
  serve_check_session "serve soak session" reqs code responses;
  serve_final_stats "serve soak final stats" responses;
  Printf.printf "serve soak: %d requests answered by one process\n"
    (List.length reqs)

(* Strip a leading-anywhere [--jobs N] pair from the argument list and
   install it as the process-wide domain budget before any figure runs. *)
let rec extract_jobs = function
  | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some jobs ->
          Sutil.Domain_pool.set_jobs jobs;
          extract_jobs rest
      | None ->
          prerr_endline "bench: --jobs expects an integer";
          exit 2)
  | [ "--jobs" ] ->
      prerr_endline "bench: --jobs expects an integer";
      exit 2
  | arg :: rest -> arg :: extract_jobs rest
  | [] -> []

(* Same for [--max-cycles N]: the perf watchdog budget. *)
let perf_max_cycles = ref None

let rec extract_max_cycles = function
  | "--max-cycles" :: n :: rest -> (
      match int_of_string_opt n with
      | Some c when c > 0 ->
          perf_max_cycles := Some c;
          extract_max_cycles rest
      | Some _ | None ->
          prerr_endline "bench: --max-cycles expects a positive integer";
          exit 2)
  | [ "--max-cycles" ] ->
      prerr_endline "bench: --max-cycles expects a positive integer";
      exit 2
  | arg :: rest -> arg :: extract_max_cycles rest
  | [] -> []

let () =
  let args =
    Array.to_list Sys.argv |> List.tl |> extract_jobs |> extract_max_cycles
  in
  (match args with
  | [] | [ "all" ] -> Experiments.Figures.all ()
  | [ "microbench" ] -> microbenchmarks ()
  | [ "chip-smoke" ] -> chip_smoke ()
  | [ "synth-smoke" ] -> synth_smoke ()
  | [ "partition-smoke" ] -> partition_smoke ()
  | [ "stencil-smoke" ] -> stencil_smoke ()
  | [ "serve-smoke" ] -> serve_smoke ()
  | [ "serve-soak" ] -> serve_soak ()
  | [ "perf" ] -> perf ~out:None ?max_cycles:!perf_max_cycles ()
  | [ "perf"; "--out"; file ] ->
      perf ~out:(Some file) ?max_cycles:!perf_max_cycles ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name Experiments.Figures.registry with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown figure %S; available: %s\n" name
                (String.concat ", "
                   (List.map fst Experiments.Figures.registry));
              exit 1)
        names);
  if args = [] || args = [ "all" ] then microbenchmarks ()

