(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (pass a figure name, or nothing for all), then runs a few
   Bechamel microbenchmarks of the toolchain itself.

   `main.exe perf [--out FILE]` instead emits one machine-readable JSON
   document of the simulated kernel side — per-kernel cycles and
   throughput, the model's prediction, the profiler's stall buckets, the
   chip schedule, the exchange and partition-search deltas — so
   successive changes can track a trajectory without scraping the
   human-readable tables. It holds no host time (perfbench/ measures
   that), so the document is byte-identical from run to run.

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
      Test.make ~name:"mech-load-heptane" (
        let m = Chem.Mech_gen.heptane () in
        let chemkin = Chem.Mech_io.chemkin_of_mechanism m
        and thermo = Chem.Mech_io.thermo_of_mechanism m
        and transport = Chem.Mech_io.transport_of_mechanism m
        and species_sets = Chem.Mech_io.species_sets_of_mechanism m in
        Staged.stage (fun () ->
            ignore (Chem.Mech_io.load_strings ~species_sets ~chemkin ~thermo
                      ~transport ~name:"heptane" ())));
      (* The two simulate benchmarks launch one-shot artifacts, which
         store nothing, so every iteration simulates and replays. The
         stored one launches a memoized artifact: after its first run
         each iteration copies the stored result and checks it against
         the oracle. It clears the memo first, so that an artifact the
         figures launched at another size does not hold the one stored
         run. *)
      Test.make ~name:"simulate-dme-viscosity-1batch" (
        let c = Singe.Diagnostics.ok_exn
                  (Singe.Compile.compile mech Singe.Kernel_abi.Viscosity
                     Singe.Compile.Warp_specialized opts) in
        Staged.stage (fun () ->
            ignore (Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32))));
      Test.make ~name:"simulate-dme-chemistry-ws" (
        let c = Singe.Diagnostics.ok_exn
                  (Singe.Compile.compile mech Singe.Kernel_abi.Chemistry
                     Singe.Compile.Warp_specialized chem_opts) in
        Staged.stage (fun () ->
            ignore (Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32))));
      Test.make ~name:"simulate-dme-viscosity-stored" (
        Singe.Compile.memo_clear ();
        let c = Singe.Diagnostics.ok_exn
                  (Singe.Compile.compile ~memo:true mech Singe.Kernel_abi.Viscosity
                     Singe.Compile.Warp_specialized opts) in
        Staged.stage (fun () ->
            ignore (Singe.Compile.run c ~total_points:(13 * 3 * 32))));
      Test.make ~name:"cuda-emit-viscosity" (
        let c = Singe.Diagnostics.ok_exn
                  (Singe.Compile.compile ~memo:true mech Singe.Kernel_abi.Viscosity
                     Singe.Compile.Warp_specialized opts) in
        let p = c.Singe.Compile.lowered.Singe.Lower.program in
        Staged.stage (fun () -> ignore (Singe.Cuda_emit.emit ~arch p)));
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

module J = Sutil.Json

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
  @ (* The stencil workload column: both bundled pipelines,
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
type perf_outcome = P_entry of J.t | P_skip of string | P_fault of string

(* The chip scheduler's outcome, shared by the per-entry "chip" field and
   the scaling sweep. *)
let chip_json (ch : Gpusim.Chip.schedule) =
  let ct = ch.Gpusim.Chip.contention in
  J.Obj
    [
      ("n_sms", J.of_int ch.Gpusim.Chip.n_sms);
      ("rounds_total", J.of_int ch.Gpusim.Chip.rounds_total);
      ("tail_ctas", J.of_int ch.Gpusim.Chip.tail_ctas);
      ("makespan_cycles", J.Num ch.Gpusim.Chip.makespan_cycles);
      ("cycle_spread", J.Num (Gpusim.Chip.cycle_spread ch));
      ("dispatch_imbalance", J.Num (Gpusim.Chip.dispatch_imbalance ch));
      ("dram_util", J.Num ct.Gpusim.Chip.dram_util);
      ("throttle_max", J.Num ct.Gpusim.Chip.throttle_max);
      ("spill_in_l2", J.Bool ct.Gpusim.Chip.spill_in_l2);
    ]

(* The searched counterpart of a hand-partitioned entry: a model-only
   Partition_search pass (jobs pinned to 1 — the entry itself already
   runs inside the snapshot's fan-out) recording the candidate funnel
   and whether the analytic ranking would have picked a different split.
   Baseline has no partition to search. *)
let partition_json mech kernel version options =
  let search =
    match version with
    | Singe.Compile.Baseline | Singe.Compile.Naive_warp_specialized -> J.Null
    | Singe.Compile.Warp_specialized -> (
        match
          Singe.Partition_search.search ~jobs:1 ~simulate:false mech kernel
            version ~base:options ()
        with
        | Error _ -> J.Null
        | Ok o ->
            let winner =
              match o.Singe.Partition_search.winner_spec with
              | None -> J.Null
              | Some s ->
                  J.Obj
                    [
                      ( "producer_warps",
                        J.of_int s.Singe.Mapping.producer_warps );
                      ("hub_threshold", J.of_int s.Singe.Mapping.hub_threshold);
                      ("chain_weight", J.Num s.Singe.Mapping.chain_weight);
                      ( "strategy",
                        J.Str
                          (Singe.Mapping.strategy_name
                             s.Singe.Mapping.auto_strategy) );
                      ( "buffer_slots",
                        J.of_int
                          o.Singe.Partition_search.winner
                            .Singe.Compile.buffer_slots );
                    ]
            in
            J.Obj
              [
                ("searched", J.of_int o.Singe.Partition_search.searched);
                ("gated", J.of_int o.Singe.Partition_search.gated);
                ( "rejected",
                  J.of_int (List.length o.Singe.Partition_search.rejections) );
                ("confirmed", J.Bool o.Singe.Partition_search.confirmed);
                ( "model_hand_cycles",
                  J.Num o.Singe.Partition_search.hand_cycles );
                ( "model_winner_cycles",
                  J.Num o.Singe.Partition_search.winner_cycles );
                ("winner", winner);
              ])
  in
  J.Obj [ ("mode", J.Str "hand"); ("search", search) ]

let perf ~out ?max_cycles () =
  let points = 8192 in
  (* Arm the watchdog even when the caller does not: a regression that
     hangs the simulator must fail the perf gate, not wedge it. *)
  let max_cycles =
    match max_cycles with Some n -> n | None -> 200_000_000
  in
  (* Each config is an independent compile+simulate job: fan them out and
     keep every print (stderr skips included) post-join so the output is
     byte-identical at any job count. *)
  let entry (mech, kernel, version, options) =
    let label =
      Printf.sprintf "%s %s"
        (Singe.Kernel_abi.kernel_name kernel)
        (Singe.Compile.version_name version)
    in
    let report = ref None in
    match
      Singe.Compile.compile ~validate:true
        ~report:(fun p -> report := Some p)
        mech kernel version options
    with
    | Error d ->
        P_skip
          (Printf.sprintf "perf: skipping %s: %s\n" label
             (Singe.Diagnostics.to_string d))
    | Ok c -> (
        let report = Option.get !report in
        let pred = Singe.Perf_model.predict c ~total_points:points in
        match
          Singe.Compile.run c ~total_points:points ~max_cycles
            ~profile:{ Gpusim.Sm.timeline_capacity = 0 }
        with
        | exception Gpusim.Sm.Simulation_fault f ->
            P_fault
              (Printf.sprintf
                 "perf: simulation fault in %s: %s at cycle %d: %s\n" label
                 (Gpusim.Sm.fault_kind_name f.Gpusim.Sm.fault_kind)
                 f.Gpusim.Sm.fault_cycle f.Gpusim.Sm.detail)
        | r ->
        let m = r.Singe.Compile.machine in
        let sm_cycles = m.Gpusim.Chip.sm_cycles in
        (* The exchange-rewrite delta: when the shuffle-exchange
           superoptimizer touched this entry, re-simulate with the rewrite
           forced off so the snapshot records the cycles it bought. *)
        let exchange =
          let ex = c.Singe.Compile.lowered.Singe.Lower.exchange in
          if ex.Singe.Shuffle_synth.sites_rewritten = 0 then J.Null
          else
            let off_cycles =
              match
                Singe.Compile.compile mech kernel version
                  { options with Singe.Compile.synth_exchange = Some false }
              with
              | Error _ -> sm_cycles
              | Ok c_off ->
                  let r_off =
                    Singe.Compile.run ~check:false c_off ~total_points:points
                      ~max_cycles
                  in
                  r_off.Singe.Compile.machine.Gpusim.Chip.sm_cycles
            in
            J.Obj
              [
                ( "sites_rewritten",
                  J.of_int ex.Singe.Shuffle_synth.sites_rewritten );
                ( "round_trips_removed",
                  J.of_int ex.Singe.Shuffle_synth.round_trips_removed );
                ( "stores_removed",
                  J.of_int ex.Singe.Shuffle_synth.stores_removed );
                ( "shuffle_steps",
                  J.of_int ex.Singe.Shuffle_synth.shuffle_steps );
                ( "shared_bytes_freed",
                  J.of_int ex.Singe.Shuffle_synth.shared_bytes_freed );
                ("cycle_delta", J.of_int (off_cycles - sm_cycles));
              ]
        in
        let profile =
          match m.Gpusim.Chip.sim.Gpusim.Sm.profile with
          | Some p -> Gpusim.Profile.to_json p
          | None -> J.Null
        in
        let partition = partition_json mech kernel version options in
        P_entry
          (J.Obj
             [
               ("mech", J.Str mech.Chem.Mechanism.name);
               ( "workload",
                 J.Str
                   (match kernel with
                   | Singe.Kernel_abi.Stencil _ -> "stencil"
                   | _ -> "combustion") );
               ("kernel", J.Str (Singe.Kernel_abi.kernel_name kernel));
               ("version", J.Str (Singe.Compile.version_name version));
               ( "arch",
                 let o = c.Singe.Compile.options in
                 J.Str o.Singe.Compile.arch.Gpusim.Arch.name );
               ("points", J.of_int points);
               ("points_per_sec", J.Num m.Gpusim.Chip.points_per_sec);
               ("gflops", J.Num m.Gpusim.Chip.gflops);
               ("dram_gbs", J.Num m.Gpusim.Chip.dram_gbs);
               ("sm_cycles", J.of_int sm_cycles);
               ("max_rel_err", J.Num r.Singe.Compile.max_rel_err);
               ( "model",
                 J.Obj
                   [
                     ("predicted_cycles", J.Num pred.Singe.Perf_model.cycles);
                     ("floor_cycles", J.Num pred.Singe.Perf_model.floor_cycles);
                     ( "rel_err",
                       J.Num
                         (Singe.Perf_model.rel_err
                            ~predicted:pred.Singe.Perf_model.cycles
                            ~measured:(float_of_int sm_cycles)) );
                     ("binding", J.Str pred.Singe.Perf_model.binding);
                   ] );
               ("partition", partition);
               ("chip", chip_json m.Gpusim.Chip.chip);
               ("exchange", exchange);
               ("profile", profile);
               ("report", Singe.Pass.report_to_json report);
             ]))
  in
  (* The autotune sweep: the same grid swept pruned by the performance
     model and exhaustively, recording what pruning skipped and where the
     model ranked the winner. Both modes compile every candidate, so the
     grid is compiled into the cache once, in parallel, up front. *)
  let tune_sweeps =
    let mech = Chem.Mech_gen.dme () in
    let arch = Gpusim.Arch.kepler_k20c in
    let kernel = Singe.Kernel_abi.Chemistry in
    let version = Singe.Compile.Warp_specialized in
    ignore
      (Sutil.Domain_pool.parallel_map_result
         (Singe.Compile.compile ~memo:true mech kernel version)
         (Singe.Autotune.candidate_options ~points:32768 kernel version arch
            (Singe.Autotune.default_warp_candidates mech kernel version)
            [ 1; 2 ]));
    let sweep mode =
      let o = Singe.Autotune.tune ~mode ~max_cycles mech kernel version arch in
      let best = o.Singe.Autotune.best in
      J.Obj
        [
          ( "sweep_mode",
            J.Str
              (match mode with
              | Singe.Autotune.Exhaustive -> "exhaustive"
              | Singe.Autotune.Pruned k -> Printf.sprintf "pruned-%d" k) );
          ("tried", J.of_int o.Singe.Autotune.tried);
          ("skipped", J.of_int o.Singe.Autotune.skipped);
          ("candidates_pruned", J.of_int o.Singe.Autotune.candidates_pruned);
          ( "model_rank_of_winner",
            J.of_int o.Singe.Autotune.model_rank_of_winner );
          ( "winner",
            J.Obj
              [
                ( "n_warps",
                  J.of_int best.Singe.Autotune.options.Singe.Compile.n_warps );
                ( "ctas_per_sm_target",
                  J.of_int
                    best.Singe.Autotune.options
                      .Singe.Compile.ctas_per_sm_target );
                ("points_per_sec", J.Num best.Singe.Autotune.throughput);
                ( "predicted_cycles",
                  J.Num best.Singe.Autotune.predicted.Singe.Perf_model.cycles
                );
              ] );
        ]
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
      Singe.Diagnostics.ok_exn
        (Singe.Compile.compile ~memo:true mech Singe.Kernel_abi.Viscosity
           Singe.Compile.Baseline
           (Singe.Target.options ~n_warps:8 arch Singe.Kernel_abi.Viscosity))
    in
    let row n_sms =
      let r =
        Singe.Compile.run ~check:false c ~total_points:points ~max_cycles
          ~n_sms
      in
      (n_sms, r.Singe.Compile.machine)
    in
    let sm_counts =
      List.sort_uniq compare
        (List.filter
           (fun n -> n <= arch.Gpusim.Arch.n_sms)
           [ 1; 2; 4; 8; arch.Gpusim.Arch.n_sms ])
    in
    let rows = Sutil.Domain_pool.parallel_map row sm_counts in
    let base =
      match rows with
      | (_, m) :: _ -> m.Gpusim.Chip.points_per_sec
      | [] -> assert false
    in
    List.map
      (fun (n_sms, m) ->
        let pps = m.Gpusim.Chip.points_per_sec in
        J.Obj
          [
            ("n_sms", J.of_int n_sms);
            ("points_per_sec", J.Num pps);
            ("speedup_vs_1", J.Num (pps /. base));
            ("chip", chip_json m.Gpusim.Chip.chip);
          ])
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
  let json =
    J.emit
      (J.Obj
         ([
            ("schema", J.Str "singe-perf-v12");
            ("jobs", J.of_int (Sutil.Domain_pool.default_jobs ()));
            ("max_cycles", J.of_int max_cycles);
            ( "faults_detected",
              J.of_int (count (function P_fault _ -> true | _ -> false)) );
            ( "candidates_skipped",
              J.of_int (count (function P_entry _ -> false | _ -> true)) );
          ]
         @ List.map
             (fun (name, s) -> (name, Sutil.Cache.stats_to_json s))
             (Singe.Compile.cache_stats ())
         @ [
             ("tune", J.List tune_sweeps);
             ("chip_scaling", J.List chip_scaling_rows);
             ("results", J.List entries);
           ]))
    ^ "\n"
  in
  match out with
  | None -> print_string json
  | Some file ->
      let oc = open_out file in
      output_string oc json;
      close_out oc;
      Printf.eprintf "perf snapshot written to %s\n" file

(* Strip a leading-anywhere [flag N] pair from the argument list and hand
   N to [set]; a malformed N exits 2 with [parse]'s message before any
   figure runs. *)
let rec extract flag parse set = function
  | f :: n :: rest when f = flag -> (
      match parse n with
      | Ok v ->
          set v;
          extract flag parse set rest
      | Error msg ->
          Printf.eprintf "bench: %s: %s\n" flag msg;
          exit 2)
  | [ f ] when f = flag ->
      Printf.eprintf "bench: %s expects a value\n" flag;
      exit 2
  | arg :: rest -> arg :: extract flag parse set rest
  | [] -> []

(* [--max-cycles N], the perf watchdog budget: the same plain positive
   decimal integer [--jobs] takes. *)
let perf_max_cycles = ref None

let max_cycles_of_string s =
  match Sutil.Domain_pool.jobs_of_string s with
  | Ok n -> Ok n
  | Error _ -> Error (Printf.sprintf "%S is not a positive decimal integer" s)

let () =
  let args =
    Array.to_list Sys.argv |> List.tl
    |> extract "--jobs" Sutil.Domain_pool.jobs_of_string
         Sutil.Domain_pool.set_jobs
    |> extract "--max-cycles" max_cycles_of_string (fun n ->
           perf_max_cycles := Some n)
  in
  (match args with
  | [ "microbench" ] -> microbenchmarks ()
  | [ "perf" ] -> perf ~out:None ?max_cycles:!perf_max_cycles ()
  | [ "perf"; "--out"; file ] ->
      perf ~out:(Some file) ?max_cycles:!perf_max_cycles ()
  | names -> (
      let names = if names = [] then [ "all" ] else names in
      match Experiments.Figures.run names with
      | Ok () -> ()
      | Error msg ->
          prerr_endline msg;
          exit 1));
  if args = [] || args = [ "all" ] then microbenchmarks ()
