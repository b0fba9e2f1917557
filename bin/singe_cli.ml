(* The Singe command-line driver.

   singe info      --mech dme
   singe compile   --mech heptane --kernel chemistry --arch kepler --warps 16 [--dump]
   singe run       --mech dme --kernel viscosity --arch kepler --points 32768
   singe profile   --mech dme --kernel viscosity --chrome-trace trace.json
   singe tune      --mech dme --kernel diffusion --arch fermi
   singe figures   [fig3 fig9 ... | all]

   Mechanisms: the bundled synthetic dme / heptane / hydrogen, or external
   CHEMKIN inputs via --chemkin/--thermo/--transport[/--sets].

   Exit codes: 0 success; 1 unexpected error; 2 the compile pipeline
   rejected the configuration (options or a validation pass, including
   the static deadlock verifier); 3 the simulation was contained by the
   runtime watchdog (deadlock, livelock or cycle-budget exhaustion) and
   a structured fault report was printed. *)

open Cmdliner

let exit_compile_rejected = 2
let exit_simulation_fault = 3

(* A compile target is one Singe.Target.t, which every command resolves
   with Singe.Target.resolve as serve does. Each target flag sets one
   field of it and parses through Target's name tables and bounds, so a
   bad value reads the same here as in serve's bad-request message. A
   name is looked up here, at parse, as well as by [resolve], so that
   cmdliner reports it as the [option '--x'] usage error (exit 124). *)
let name_conv of_string =
  let parse s =
    match of_string s with Ok _ -> Ok s | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, Format.pp_print_string)

(* A number flag checked by one of Target's bounds, rejected at parse as
   serve rejects the same member. *)
let bounded_conv of_string what print check flag =
  let parse s =
    match of_string s with
    | Some v ->
        Result.map_error
          (fun m -> `Msg (Printf.sprintf "--%s %s" flag m))
          (check v)
    | None -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
  in
  Arg.conv (parse, print)

(* Count flags: --sms takes Target's SM range; every other count has
   only a lower bound, 1 for warps, points, top-k, the cycle budget and
   serve's bounds, 0 for the profiler's counts, where 0 disables. *)
let int_conv =
  bounded_conv
    (fun s -> int_of_string_opt (String.trim s))
    "an integer" Format.pp_print_int

let count_conv ?(min = 1) flag = int_conv (Singe.Target.at_least min) flag

let dflt = Singe.Target.default

(* The one target field whose CLI default departs from serve's. *)
let cli_points = 32768

(* A flag that sets one field of the target. *)
let target_flag arg set = Term.(const (fun v t -> set t v) $ arg)

let kernel_conv = name_conv Singe.Target.kernel_of_string

let kernel_flag =
  target_flag
    Arg.(value & opt kernel_conv dflt.t_kernel
         & info [ "kernel" ] ~docv:"KERNEL"
             ~doc:"viscosity, conductivity, diffusion, chemistry, or a \
                   stencil pipeline: edge3, unsharp2.")
    (fun t v -> { t with Singe.Target.t_kernel = v })

let arch_flag =
  target_flag
    Arg.(value & opt (name_conv Singe.Target.arch_of_string) dflt.t_arch
         & info [ "arch" ] ~docv:"ARCH" ~doc:"fermi or kepler.")
    (fun t v -> { t with Singe.Target.t_arch = v })

let warps_flag =
  target_flag
    Arg.(value & opt (count_conv "warps") dflt.t_warps
         & info [ "warps" ] ~docv:"N" ~doc:"Warps per CTA.")
    (fun t v -> { t with Singe.Target.t_warps = v })

let version_conv = name_conv Singe.Target.version_of_string

let version_flag =
  target_flag
    Arg.(value & opt version_conv dflt.t_version
         & info [ "version" ] ~docv:"V" ~doc:"ws, baseline or naive.")
    (fun t v -> { t with Singe.Target.t_version = v })

let points_flag =
  target_flag
    Arg.(value & opt (count_conv "points") cli_points
         & info [ "points" ] ~docv:"N")
    (fun t v -> { t with Singe.Target.t_points = v })

(* The exchange-rewrite override shared by the compiling commands:
   unset = per-architecture auto (on exactly when the broadcast style is
   shuffle-based). *)
let synth_flag =
  target_flag
    Arg.(value & opt (some bool) None & info [ "synth-exchange" ] ~docv:"BOOL"
         ~doc:"Force the shuffle-exchange superoptimizer on or off: \
               same-warp shared-memory round-trips are rewritten into \
               register forwards and lane-shuffle programs, and the freed \
               exchange slots leave the shared footprint. Default: on when \
               the architecture broadcasts through shuffles (Kepler), off \
               otherwise.")
    (fun t v -> { t with Singe.Target.t_synth = v })

(* The tiling mode for stencil kernels; ignored by the combustion ones. *)
let overlap_flag =
  target_flag
    Arg.(value & opt bool dflt.t_overlap & info [ "stencil-overlap" ]
         ~docv:"BOOL"
         ~doc:"Warp-overlapped tiling for stencil pipelines: when on, \
               upstream bands compute halo-extended tiles (redundant \
               recompute at the seams) so every consumer warp reads from \
               exactly one producer; when off, each column is computed once \
               and halo taps read cross-warp through shared memory. Ignored \
               by the combustion kernels.")
    (fun t v -> { t with Singe.Target.t_overlap = v })

(* The partition mode shared by the compiling commands: hand keeps the
   paper's fixed producer/consumer split, auto derives one from the DFG
   with Partition_search (model-only resolution; [singe tune
   --partition auto] additionally confirms by simulation). *)
let partition_flag =
  target_flag
    Arg.(value
         & opt (name_conv Singe.Target.partition_of_string) dflt.t_partition
         & info [ "partition" ] ~docv:"MODE"
             ~doc:"Warp partition: $(b,hand) keeps the paper's fixed \
                   producer/consumer split; $(b,auto) searches \
                   structure-derived candidate partitions (fan-out hubs as \
                   producers, arithmetic chains onto consumers) crossed with \
                   pipeline depths, ranked by the analytic model and gated \
                   by the static deadlock verifier. A candidate that fails \
                   the gate is reported as partition-rejected and never \
                   simulated.")
    (fun t v -> { t with Singe.Target.t_partition = v })

(* Chip-scheduler flags shared by the simulating and predicting
   commands. *)
let sms_flag =
  target_flag
    Arg.(value & opt (some (int_conv Singe.Target.sms_in_range "sms")) None
         & info [ "sms" ] ~docv:"N"
         ~doc:"Dispatch the launch over N SMs (default: the architecture's \
               SM count). With 1 the CTAs run as back-to-back rounds on a \
               single SM; with more, the chip scheduler models tail waves \
               and shared L2/DRAM bandwidth contention.")
    (fun t v -> { t with Singe.Target.t_sms = v })

let skew_flag =
  let skew_conv =
    bounded_conv float_of_string_opt "a number"
      (fun ppf v -> Format.fprintf ppf "%g" v)
      Singe.Target.skew_in_range "skew"
  in
  target_flag
    Arg.(value & opt (some skew_conv) None & info [ "skew" ] ~docv:"S"
         ~doc:"Relative per-SM clock spread: SM clock factors ramp linearly \
               over [1-S/2, 1+S/2] (default: the architecture's, 0 on both \
               shipped machines).")
    (fun t v -> { t with Singe.Target.t_skew = v })

(* [target_term flags]: the --mech flag, an optional CHEMKIN file set
   that replaces the named mechanism (the one input serve cannot name),
   and the target the command's other [flags] set. *)
let target_term flags =
  let mech =
    Arg.(value & opt (name_conv Singe.Target.mech_of_string) dflt.t_mech
         & info [ "mech" ] ~docv:"NAME"
             ~doc:("Bundled mechanism: "
                   ^ String.concat ", " (List.map fst Chem.Mech_gen.bundled)
                   ^ "."))
  in
  let file kind =
    Arg.(value & opt (some file) None & info [ kind ] ~docv:"FILE")
  in
  let load chemkin thermo transport sets =
    match (chemkin, thermo, transport) with
    | Some c, Some th, Some tr -> (
        match
          Chem.Mech_io.load_files ?species_sets_path:sets ~chemkin_path:c
            ~thermo_path:th ~transport_path:tr ~name:"user" ()
        with
        | Ok m -> Ok (Some m)
        | Error e ->
            Error
              (`Msg
                (Singe.Diagnostics.to_string
                   (Singe.Diagnostics.of_srcloc ~pass:"parse" e))))
    | None, None, None -> Ok None
    | _ ->
        Error (`Msg "--chemkin, --thermo and --transport must be given together")
  in
  let files =
    Term.term_result
      Term.(const load $ file "chemkin" $ file "thermo" $ file "transport"
            $ file "sets")
  in
  let base mech =
    { dflt with Singe.Target.t_mech = mech; t_points = cli_points }
  in
  Term.(
    const (fun files t -> (files, t))
    $ files
    $ List.fold_left
        (fun acc flag -> const (fun t set -> set t) $ acc $ flag)
        (const base $ mech) flags)

(* The converters above already checked every name, so this cannot
   fail. *)
let resolve (files, t) = Result.get_ok (Singe.Target.resolve ?mech:files t)

(* Domain budget for the parallel sweep commands (tune, figures). The
   term's value is the side effect: it installs the override before the
   command body runs. *)
let jobs_term =
  let set = function
    | None -> ()
    | Some n -> Sutil.Domain_pool.set_jobs n
  in
  (* Strict: "--jobs 0", negatives and garbage are usage errors up front,
     not a pool that silently refuses to parallelize. *)
  let jobs_conv =
    let parse s =
      match Sutil.Domain_pool.jobs_of_string s with
      | Ok n -> Ok n
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Term.(
    const set
    $ Arg.(
        value
        & opt (some jobs_conv) None
        & info [ "jobs" ] ~docv:"N"
            ~doc:
              "Domains used for parallel sweeps (default: \\$(b,SINGE_JOBS) \
               or the machine's recommended domain count). Simulated \
               results are identical at every job count."))

(* Pipeline-introspection flags shared by the compile and run commands. *)
let timings_term =
  Arg.(value & flag & info [ "timings" ]
       ~doc:"Print per-pass wall-clock timings and artifact statistics.")

let validate_term =
  Arg.(value & flag & info [ "validate" ]
       ~doc:"Run the inter-pass validation passes (DFG well-formedness, \
             mapping invariants, schedule safety, lower consistency).")

(* Parse the stage name up front so a typo is rejected before the (possibly
   long) compile runs. *)
let ir_stage_conv =
  let parse s =
    match Singe.Compile.ir_stage_of_string s with
    | Some stage -> Ok stage
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown IR stage %s (expected dfg, mapping, schedule or lower)"
               s))
  in
  let print ppf stage =
    Format.pp_print_string ppf (Singe.Compile.ir_stage_name stage)
  in
  Arg.conv (parse, print)

let dump_ir_term =
  Arg.(value & opt (some ir_stage_conv) None & info [ "dump-ir" ] ~docv:"PASS"
       ~doc:"Dump the intermediate artifact after PASS: dfg, mapping, \
             schedule or lower.")

(* Typed pipeline entry, shared with serve: the target resolved, its
   launch checked at its points ([launch], default true), --partition
   auto resolved model-only (its pick printed), then the compile, with
   its pass report. Every user-reachable failure raises the diagnostic
   [catch_failures] prints as one line. *)
let compile_or_die ?(launch = true) ~validate ((_, t) as target) =
  let r = resolve target in
  let points = if launch then Some t.Singe.Target.t_points else None in
  let options =
    Singe.Diagnostics.ok_exn (Singe.Partition_search.resolve_target ?points r)
  in
  (if r.partition = Singe.Target.Auto then
     match options.Singe.Compile.partition with
     | Singe.Compile.Partition_auto _ ->
         Format.printf "partition auto: %a@."
           Singe.Partition_search.pp_candidate options
     | Singe.Compile.Partition_hand ->
         print_endline
           "partition auto: hand mapping retained (no candidate beat it)");
  let report = ref None in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile ~validate ~report:(fun p -> report := Some p)
         r.mech r.kernel r.version options)
  in
  (r, c, Option.get !report)

(* Every command's failure contract, in one place: a compile diagnostic,
   an occupancy rejection, a launch the chip cannot size (including the
   launch-grid check and the safety refusal inside [Compile.run]) and a
   fault spec matching nothing in the trace are configuration errors,
   one diagnostic line and exit 2; a contained simulation fault (injected
   or real) prints its report and exits 3. *)
let catch_failures f =
  try f () with
  | Gpusim.Chip.Occupancy_rejected r ->
      Printf.eprintf "singe: %s\n"
        (Singe.Diagnostics.to_string
           (Singe.Diagnostics.error ~pass:"occupancy"
              (Gpusim.Chip.reject_message r)));
      exit exit_compile_rejected
  | Singe.Diagnostics.Fail d ->
      Printf.eprintf "singe: %s\n" (Singe.Diagnostics.to_string d);
      exit exit_compile_rejected
  | Invalid_argument msg ->
      Printf.eprintf "singe: %s\n" msg;
      exit exit_compile_rejected
  | Gpusim.Sm.Simulation_fault report ->
      Format.eprintf "singe: simulation fault@.%a@." Gpusim.Sm.pp_fault report;
      exit exit_simulation_fault

(* Fault-containment flags shared by the simulating commands. *)
let max_cycles_term =
  Arg.(value & opt (some (count_conv "max-cycles")) None
       & info [ "max-cycles" ] ~docv:"N"
       ~doc:"Arm the simulator watchdog: a simulation still live after N \
             cycles is aborted with a structured fault report (exit code 3) \
             instead of running forever.")

let fault_conv =
  let parse s =
    match Gpusim.Fault.of_string s with Ok f -> Ok f | Error m -> Error (`Msg m)
  in
  let print ppf f = Format.pp_print_string ppf (Gpusim.Fault.to_string f) in
  Arg.conv (parse, print)

let faults_term =
  Arg.(value & opt_all fault_conv [] & info [ "fault" ] ~docv:"SPEC"
       ~doc:"Inject a trace-level fault before simulating (repeatable): \
             $(b,drop-arrive:warp=W,nth=K), \
             $(b,swap-bar:warp=W,nth=K,bar=B), \
             $(b,extra-arrive:warp=W,nth=K) or $(b,latency:warp=W,mult=M). \
             Used to exercise the watchdog and the containment paths.")

let print_report report =
  Format.printf "@[<v>%a@]@." Singe.Pass.pp_report report

let dump_ir c = function
  | None -> ()
  | Some stage -> Singe.Compile.dump_ir Format.std_formatter c stage

(* A "FILE or '-'" flag's output: [text ()] to stdout for [-], else to
   FILE, followed by the [written FILE] line. *)
let write_output dest ~written text =
  match dest with
  | None -> ()
  | Some "-" -> print_string (text ())
  | Some file ->
      Out_channel.with_open_text file (fun oc -> output_string oc (text ()));
      written file

(* [--check]: [f check] prints one line per [check name ok detail], and
   any failed check exits 1 once all are printed. *)
let run_checks f =
  let failed = ref false in
  f (fun name ok detail ->
      if ok then Printf.printf "check %-28s ok\n" name
      else begin
        failed := true;
        Printf.printf "check %-28s FAILED%s\n" name
          (if detail = "" then "" else ": " ^ detail)
      end);
  if !failed then exit 1

let info_cmd =
  let run target =
    let mech = (resolve target).mech in
    Format.printf "%a@." Chem.Mechanism.pp mech;
    let g = Chem.Qssa.build mech in
    Printf.printf "QSSA phase touches %d of %d reactions\n"
      (List.length (Chem.Qssa.reactions_touched g))
      (Chem.Mechanism.n_reactions mech);
    Printf.printf "viscosity pair constants: %.1f KB\n"
      (float_of_int
         (Chem.Transport.constant_bytes
            ~n:(Array.length (Chem.Mechanism.computed_species mech)))
      /. 1000.)
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe a mechanism.")
    Term.(const run $ target_term [])

let compile_cmd =
  let dump = Arg.(value & flag & info [ "dump" ] ~doc:"Print the generated code.") in
  let asm = Arg.(value & opt (some string) None & info [ "emit-asm" ] ~docv:"FILE"
                 ~doc:"Write the program's textual assembly to FILE ('-' for stdout).") in
  let cuda = Arg.(value & opt (some string) None & info [ "emit-cuda" ] ~docv:"FILE"
                  ~doc:"Write the kernel as CUDA C source to FILE ('-' for stdout).") in
  let run target dump asm cuda timings validate dump_ir_stage =
    catch_failures @@ fun () ->
    let r, c, report = compile_or_die ~launch:false ~validate target in
    let arch = r.arch in
    let p = c.Singe.Compile.lowered.Singe.Lower.program in
    Printf.printf
      "%s: %d instrs, %d double regs/thread (%d of them constant bank), %d \
       int regs, %.1f KB shared, %d named barriers, %d sync points, %d B \
       spilled per thread\n"
      p.Gpusim.Isa.name
      (Gpusim.Isa.static_instr_count p.Gpusim.Isa.body)
      p.Gpusim.Isa.n_fregs
      c.Singe.Compile.lowered.Singe.Lower.n_bank_regs
      p.Gpusim.Isa.n_iregs
      (float_of_int p.Gpusim.Isa.shared_doubles *. 8. /. 1024.)
      c.Singe.Compile.schedule.Singe.Schedule.barriers_used
      c.Singe.Compile.schedule.Singe.Schedule.n_sync_points
      c.Singe.Compile.lowered.Singe.Lower.spill_bytes_per_thread;
    let occ = Gpusim.Chip.occupancy arch p in
    Printf.printf "occupancy: %d CTAs/SM (limited by %s)\n"
      occ.Gpusim.Chip.resident_ctas occ.Gpusim.Chip.limited_by;
    if timings then print_report report;
    dump_ir c dump_ir_stage;
    if dump then Format.printf "@.== prologue ==@.%a== body ==@.%a@."
        Gpusim.Isa.pp_block p.Gpusim.Isa.prologue
        Gpusim.Isa.pp_block p.Gpusim.Isa.body;
    write_output asm
      ~written:(Printf.printf "assembly written to %s\n")
      (fun () -> Gpusim.Isa_text.emit p);
    write_output cuda
      ~written:(Printf.printf "CUDA source written to %s\n")
      (fun () -> Singe.Cuda_emit.emit ~arch p)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a kernel and report its resources.")
    Term.(const run
          $ target_term
              [ kernel_flag; arch_flag; warps_flag; version_flag; synth_flag;
                overlap_flag; partition_flag ]
          $ dump $ asm $ cuda $ timings_term $ validate_term $ dump_ir_term)

let run_cmd =
  let run ((_, t) as target) timings validate faults max_cycles =
    catch_failures @@ fun () ->
    let tgt, c, report = compile_or_die ~validate target in
    let r =
      Singe.Compile.run c ~total_points:t.t_points ~faults ?max_cycles
        ?n_sms:t.t_sms ?skew:t.t_skew
    in
    Printf.printf
      "%s on %s: %.4g points/s, %.1f GFLOPS, %.1f GB/s DRAM, worst rel. \
       error vs host reference %.2g\n"
      (Singe.Kernel_abi.kernel_name tgt.kernel)
      tgt.arch.Gpusim.Arch.name
      r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
      r.Singe.Compile.machine.Gpusim.Chip.gflops
      r.Singe.Compile.machine.Gpusim.Chip.dram_gbs
      r.Singe.Compile.max_rel_err;
    let ch = r.Singe.Compile.machine.Gpusim.Chip.chip in
    Printf.printf
      "chip: %d SM(s), %d round(s)%s, makespan %.0f cycles, dispatch \
       imbalance %.1f%%, DRAM util %.0f%% (throttle max %.2fx)%s\n"
      ch.Gpusim.Chip.n_sms ch.Gpusim.Chip.rounds_total
      (if ch.Gpusim.Chip.tail_ctas > 0 then
         Printf.sprintf " (tail wave of %d CTA(s))" ch.Gpusim.Chip.tail_ctas
       else "")
      ch.Gpusim.Chip.makespan_cycles
      (100.0 *. Gpusim.Chip.dispatch_imbalance ch)
      (100.0 *. ch.Gpusim.Chip.contention.Gpusim.Chip.dram_util)
      ch.Gpusim.Chip.contention.Gpusim.Chip.throttle_max
      (if ch.Gpusim.Chip.contention.Gpusim.Chip.spill_in_l2 then
         ", spills held in L2"
       else "");
    if timings then print_report report
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile, simulate and verify a kernel.")
    Term.(const run
          $ target_term
              [ kernel_flag; arch_flag; warps_flag; version_flag; synth_flag;
                overlap_flag; partition_flag; points_flag; sms_flag;
                skew_flag ]
          $ timings_term $ validate_term $ faults_term $ max_cycles_term)

let profile_cmd =
  let chrome =
    Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE"
         ~doc:"Write the profiler timeline as Chrome trace-event JSON to FILE \
               ('-' for stdout); open it at $(b,chrome://tracing) or in \
               Perfetto.")
  in
  let top =
    Arg.(value & opt (count_conv ~min:0 "top-stalls") 5
         & info [ "top-stalls" ] ~docv:"N"
         ~doc:"Print the N largest per-warp stall contributors (0 disables).")
  in
  let timeline =
    Arg.(value & opt (count_conv ~min:0 "timeline") 65536
         & info [ "timeline" ] ~docv:"SPANS"
         ~doc:"Timeline ring-buffer capacity in spans; when the simulation \
               produces more, the oldest are dropped (reported). 0 disables \
               the timeline but keeps buckets and histograms.")
  in
  let check_flag =
    Arg.(value & flag & info [ "check" ]
         ~doc:"Validate the profile: bucket conservation (sums equal cycles x \
               warps), Chrome-trace JSON well-formedness and timestamp \
               monotonicity. Exit nonzero on any failure.")
  in
  let run ((_, t) as target) chrome top timeline check_it faults max_cycles =
    catch_failures @@ fun () ->
    let _, c, _ = compile_or_die ~validate:false target in
    let profile = { Gpusim.Sm.timeline_capacity = timeline } in
    let r =
      Singe.Compile.run c ~check:false ~total_points:t.t_points ~faults
        ?max_cycles ~profile ?n_sms:t.t_sms ?skew:t.t_skew
    in
    let prof =
      match r.Singe.Compile.machine.Gpusim.Chip.sim.Gpusim.Sm.profile with
      | Some p -> p
      | None -> assert false
    in
    Format.printf "@[<v>%a@]@." Gpusim.Profile.pp_breakdown prof;
    if prof.Gpusim.Profile.bar_waits <> [] then begin
      print_endline "barrier waits:";
      Format.printf "@[<v>%a@]@." Gpusim.Profile.pp_bar_waits prof
    end;
    if top > 0 then begin
      Printf.printf "top stall contributors:\n";
      List.iter
        (fun (w, b, v) ->
          let cta, wid = prof.Gpusim.Profile.warps.(w) in
          Printf.printf "  cta%d/w%d %-11s %d cycles (%.1f%% of the warp's \
                         time)\n"
            cta wid
            Gpusim.Profile.bucket_names.(b)
            v
            (100.0 *. float_of_int v
            /. Float.max 1.0 (float_of_int prof.Gpusim.Profile.cycles)))
        (Gpusim.Profile.top_stalls ~n:top prof)
    end;
    let trace_json = Gpusim.Profile.to_chrome_trace prof in
    write_output chrome
      ~written:
        (Printf.printf "Chrome trace (%d spans%s) written to %s\n"
           (Array.length prof.Gpusim.Profile.timeline)
           (if prof.Gpusim.Profile.timeline_dropped > 0 then
              Printf.sprintf ", %d dropped" prof.Gpusim.Profile.timeline_dropped
            else ""))
      (fun () -> trace_json);
    if check_it then
      run_checks @@ fun check ->
      check "bucket conservation"
        (Gpusim.Profile.conservation_ok prof)
        (Printf.sprintf "residual %d warp-cycles"
           (Gpusim.Profile.conservation_residual prof));
      (match Sutil.Json_check.validate trace_json with
      | Ok () -> check "chrome-trace json" true ""
      | Error m -> check "chrome-trace json" false m);
      (* The exported timeline is end-ordered; the trace emitter re-sorts
         by start. Verify on the emitter's own ordering. *)
      let spans = Array.copy prof.Gpusim.Profile.timeline in
      Array.sort
        (fun (a : Gpusim.Profile.span) b ->
          compare a.Gpusim.Profile.sp_start b.Gpusim.Profile.sp_start)
        spans;
      let sorted_ok = ref true and prev = ref min_int in
      Array.iter
        (fun (s : Gpusim.Profile.span) ->
          if s.Gpusim.Profile.sp_start < !prev then sorted_ok := false;
          prev := s.Gpusim.Profile.sp_start;
          if s.Gpusim.Profile.sp_stop < s.Gpusim.Profile.sp_start then
            sorted_ok := false)
        spans;
      check "trace timestamps monotone" !sorted_ok ""
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Simulate a kernel with the per-warp cycle-attribution profiler \
             and print the stall breakdown.")
    Term.(const run
          $ target_term
              [ kernel_flag; arch_flag; warps_flag; version_flag; overlap_flag;
                points_flag; sms_flag; skew_flag ]
          $ chrome $ top $ timeline $ check_flag $ faults_term
          $ max_cycles_term)

let predict_cmd =
  let kernel_opt =
    Arg.(value & opt (some kernel_conv) None & info [ "kernel" ] ~docv:"KERNEL"
         ~doc:"Restrict to one kernel (default: viscosity, diffusion, \
               chemistry, edge3 and unsharp2).")
  in
  let version_opt =
    Arg.(value & opt (some version_conv) None & info [ "version" ] ~docv:"V"
         ~doc:"Restrict to one code version (default: ws and baseline).")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write the predicted-vs-measured rows as JSON to FILE ('-' for \
               stdout).")
  in
  let check_flag =
    Arg.(value & flag & info [ "check" ]
         ~doc:"Validate the run: the JSON payload is well-formed and the \
               simulator never beats the model's throughput floor. Exit \
               nonzero on any failure.")
  in
  let run (files, t) kernel_opt version_opt json check_it =
    catch_failures @@ fun () ->
    let base = resolve (files, t) in
    let mech = base.mech and arch = base.arch in
    let points = t.Singe.Target.t_points and warps = t.t_warps in
    let kernels =
      match kernel_opt with
      | Some k -> [ k ]
      | None -> [ "viscosity"; "diffusion"; "chemistry"; "edge3"; "unsharp2" ]
    in
    let versions =
      match version_opt with Some v -> [ v ] | None -> [ "ws"; "baseline" ]
    in
    let rows = ref [] and skipped = ref 0 in
    Printf.printf "%-13s %-9s %5s  %12s %12s %7s  %s\n" "kernel" "version"
      "warps" "predicted" "simulated" "err" "model binding";
    List.iter
      (fun t_kernel ->
        List.iter
          (fun t_version ->
            let row = resolve (Some mech, { t with t_kernel; t_version }) in
            let kernel = row.kernel and version = row.version in
            let name =
              Printf.sprintf "%s/%s"
                (Singe.Kernel_abi.kernel_name kernel)
                (Singe.Compile.version_name version)
            in
            (* A launch the baseline cannot size, and (with --partition
               auto, resolved per row model-only) a base compile failure,
               skip the row like any other, keeping predict's best-effort
               table semantics. *)
            match
              Result.bind
                (Singe.Partition_search.resolve_target ~points row)
                (Singe.Compile.compile mech kernel version)
            with
            | Error d ->
                incr skipped;
                Printf.printf "%-13s skipped: %s\n" name
                  (Singe.Diagnostics.to_string d)
            | Ok c ->
                let pred =
                  Singe.Perf_model.predict ?n_sms:t.t_sms ?skew:t.t_skew c
                    ~total_points:points
                in
                let r =
                  Singe.Compile.run c ~check:false ~total_points:points
                    ?n_sms:t.t_sms ?skew:t.t_skew
                in
                let measured =
                  float_of_int
                    r.Singe.Compile.machine.Gpusim.Chip.sm_cycles
                in
                let err =
                  Singe.Perf_model.rel_err
                    ~predicted:pred.Singe.Perf_model.cycles ~measured
                in
                Printf.printf "%-13s %-9s %5d  %12.0f %12.0f %6.1f%%  %s\n"
                  (Singe.Kernel_abi.kernel_name kernel)
                  (Singe.Compile.version_name version)
                  warps pred.Singe.Perf_model.cycles measured (100.0 *. err)
                  pred.Singe.Perf_model.binding;
                rows := (kernel, version, pred, r, err) :: !rows)
          versions)
      kernels;
    let rows = List.rev !rows in
    (* Every row rejected (say, a --points no launch can size) is a
       rejection of the whole command, like [run]'s. *)
    if rows = [] && !skipped > 0 then begin
      flush stdout;
      prerr_endline "singe: every row was rejected; nothing to predict";
      exit exit_compile_rejected
    end;
    (match rows with
    | [] -> ()
    | _ ->
        let worst =
          List.fold_left (fun acc (_, _, _, _, e) -> Float.max acc e) 0.0 rows
        in
        Printf.printf "worst relative error: %.1f%%\n" (100.0 *. worst));
    let payload =
      let open Sutil.Json in
      let row (kernel, version, (pred : Singe.Perf_model.prediction), r, err) =
        Obj
          [
            ("kernel", Str (Singe.Kernel_abi.kernel_name kernel));
            ("version", Str (Singe.Compile.version_name version));
            ("warps", of_int warps);
            ("predicted_cycles", Num pred.Singe.Perf_model.cycles);
            ( "measured_cycles",
              of_int r.Singe.Compile.machine.Gpusim.Chip.sm_cycles );
            ("rel_err", Num err);
            ("floor_cycles", Num pred.Singe.Perf_model.floor_cycles);
            ( "predicted_points_per_sec",
              Num pred.Singe.Perf_model.points_per_sec );
            ( "measured_points_per_sec",
              Num r.Singe.Compile.machine.Gpusim.Chip.points_per_sec );
            ("binding", Str pred.Singe.Perf_model.binding);
          ]
      in
      emit
        (Obj
           [
             ("schema", Str "singe-predict-v1");
             ("mech", Str mech.Chem.Mechanism.name);
             ("arch", Str arch.Gpusim.Arch.name);
             ("points", of_int points);
             ("rows", List (List.map row rows));
           ])
      ^ "\n"
    in
    write_output json
      ~written:(Printf.printf "prediction rows written to %s\n")
      (fun () -> payload);
    if check_it then
      run_checks @@ fun check ->
      (match Sutil.Json_check.validate payload with
      | Ok () -> check "predict json" true ""
      | Error m -> check "predict json" false m);
      List.iter
        (fun (kernel, version, (pred : Singe.Perf_model.prediction), r, _) ->
          let measured =
            float_of_int r.Singe.Compile.machine.Gpusim.Chip.sm_cycles
          in
          check
            (Printf.sprintf "floor %s/%s"
               (Singe.Kernel_abi.kernel_name kernel)
               (Singe.Compile.version_name version))
            (measured >= pred.Singe.Perf_model.floor_cycles /. 1.02)
            (Printf.sprintf "simulated %.0f beats floor %.0f" measured
               pred.Singe.Perf_model.floor_cycles))
        rows
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Predict kernel cycles with the analytic performance model and \
             compare against the simulator.")
    Term.(const run
          $ target_term
              [ arch_flag; warps_flag; synth_flag; overlap_flag; partition_flag;
                points_flag; sms_flag; skew_flag ]
          $ kernel_opt $ version_opt $ json $ check_flag)

let tune_mode_term =
  let mode_conv =
    let parse = function
      | "exhaustive" -> Ok `Exhaustive
      | "pruned" -> Ok `Pruned
      | s -> Error (`Msg ("unknown tune mode " ^ s ^ " (exhaustive|pruned)"))
    in
    let print ppf m =
      Format.pp_print_string ppf
        (match m with `Exhaustive -> "exhaustive" | `Pruned -> "pruned")
    in
    Arg.conv (parse, print)
  in
  Arg.(value & opt mode_conv `Exhaustive & info [ "tune-mode" ] ~docv:"MODE"
       ~doc:"Sweep strategy: $(b,exhaustive) simulates every candidate (the \
             paper's brute-force sweep); $(b,pruned) scores the grid with \
             the analytic performance model and simulates only the top \
             predicted candidates.")

let top_k_term =
  Arg.(value & opt (some (count_conv "top-k")) None
       & info [ "top-k" ] ~docv:"K"
         ~doc:
           (Printf.sprintf
              "How many model-ranked candidates to simulate: with \
               --tune-mode pruned, the top $(docv) of the grid (default \
               %d); with --partition auto, the top $(docv) searched \
               partitions, which reach the safety gate (default %d)."
              Singe.Autotune.default_prune_keep
              Singe.Partition_search.default_top_k))

let tune_cmd =
  let run ((_, t) as target) max_cycles tune_mode top_k () =
    catch_failures @@ fun () ->
    let r = resolve target in
    let points = t.Singe.Target.t_points in
    match r.partition with
    | Singe.Target.Auto -> (
        (* Full three-phase partition search: model ranking, deadlock
           gate, then one simulation each of the hand mapping and the
           gate's survivors. *)
        let o =
          Singe.Diagnostics.ok_exn
            (Singe.Partition_search.search ~points ?top_k ?max_cycles
               ?n_sms:t.t_sms ?skew:t.t_skew r.mech r.kernel r.version
               ~base:r.options ())
        in
        Format.printf "%a@." Singe.Partition_search.pp_outcome o;
        List.iter
          (fun (rej : Singe.Partition_search.rejection) ->
            Format.printf "  rejected %a: %s@."
              Singe.Partition_search.pp_candidate rej.rej_options
              (Singe.Diagnostics.to_string rej.rej_diag))
          o.Singe.Partition_search.rejections)
    | Singe.Target.Hand ->
    let mode =
      match tune_mode with
      | `Exhaustive -> Singe.Autotune.Exhaustive
      | `Pruned ->
          Singe.Autotune.Pruned
            (Option.value top_k ~default:Singe.Autotune.default_prune_keep)
    in
    let o =
      Singe.Autotune.tune ~points ?max_cycles ~mode ?n_sms:t.t_sms
        ?skew:t.t_skew ?synth_exchange:r.options.Singe.Compile.synth_exchange
        ~stencil_overlap:r.options.Singe.Compile.stencil_overlap r.mech
        r.kernel r.version r.arch
    in
    Printf.printf "tried %d configurations (%d skipped, %d pruned by model)\n"
      o.Singe.Autotune.tried o.Singe.Autotune.skipped
      o.Singe.Autotune.candidates_pruned;
    List.iter
      (fun (f : Singe.Autotune.failure) ->
        Printf.printf "  skipped warps=%d ctas=%d: %s\n"
          f.Singe.Autotune.failed_options.Singe.Compile.n_warps
          f.Singe.Autotune.failed_options.Singe.Compile.ctas_per_sm_target
          f.Singe.Autotune.reason)
      o.Singe.Autotune.failures;
    Printf.printf "best: %d warps, %d CTAs/SM target -> %.4g points/s\n"
      o.Singe.Autotune.best.Singe.Autotune.options.Singe.Compile.n_warps
      o.Singe.Autotune.best.Singe.Autotune.options.Singe.Compile.ctas_per_sm_target
      o.Singe.Autotune.best.Singe.Autotune.throughput;
    Printf.printf
      "model ranked the winner #%d (predicted %.4g points/s, measured %.4g)\n"
      o.Singe.Autotune.model_rank_of_winner
      o.Singe.Autotune.best.Singe.Autotune.predicted
        .Singe.Perf_model.points_per_sec
      o.Singe.Autotune.best.Singe.Autotune.throughput
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Autotune a kernel configuration (brute-force, or pruned by the \
             analytic performance model).")
    Term.(const run
          $ target_term
              [ kernel_flag; arch_flag; warps_flag; version_flag; synth_flag;
                overlap_flag; partition_flag; sms_flag; skew_flag ]
          $ max_cycles_term $ tune_mode_term $ top_k_term $ jobs_term)

let stats_cmd =
  let run target =
    catch_failures @@ fun () ->
    let r, c, _ = compile_or_die ~launch:false ~validate:false target in
    let arch = r.arch in
    let p = c.Singe.Compile.lowered.Singe.Lower.program in
    let occ = Gpusim.Chip.occupancy arch p in
    Format.printf "%s on %s@.%a@." p.Gpusim.Isa.name arch.Gpusim.Arch.name
      Gpusim.Isa_stats.pp
      (Gpusim.Isa_stats.of_program arch p);
    print_endline "roofline (tightest first):";
    List.iteri
      (fun i (resource, ceiling) ->
        Printf.printf "  %-28s %.3e points/s%s\n" resource ceiling
          (if i = 0 then "   <- binding" else ""))
      (Singe.Perf_model.bounds c);
    Printf.printf "occupancy: %d CTAs/SM (limited by %s)\n"
      occ.Gpusim.Chip.resident_ctas occ.Gpusim.Chip.limited_by
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Static instruction mix, code footprint and roofline bounds.")
    Term.(const run
          $ target_term [ kernel_flag; arch_flag; warps_flag; version_flag ])

let partition_cmd =
  (* Dumps the paper's partition diagrams: Fig. 5 (diffusion columns) and
     Figs. 6/7 (chemistry reaction + QSSA warp assignment). *)
  let run target =
    let r = resolve target in
    let mech = r.mech and kernel = r.kernel in
    let warps = r.options.Singe.Compile.n_warps in
    match kernel with
    | Singe.Kernel_abi.Diffusion ->
        let n = Array.length (Chem.Mechanism.computed_species mech) in
        Printf.printf
          "diffusion column partition (Fig. 5), N=%d species, %d warps\n" n
          warps;
        for i = 0 to n - 1 do
          let rows = Singe.Diffusion_dfg.cells ~n i in
          Printf.printf "  column %2d -> warp %d, rows [%s]\n" i
            (Singe.Diffusion_dfg.column_warp ~n ~n_warps:warps i)
            (String.concat ";" (List.map string_of_int rows))
        done;
        Printf.printf "covers every unordered pair exactly once: %b\n"
          (Singe.Diffusion_dfg.covers_all_pairs ~n)
    | Singe.Kernel_abi.Viscosity | Singe.Kernel_abi.Conductivity ->
        let n = Array.length (Chem.Mechanism.computed_species mech) in
        Printf.printf "%s species partition, N=%d species, %d warps\n"
          (Singe.Kernel_abi.kernel_name kernel) n warps;
        for w = 0 to warps - 1 do
          let owned =
            List.filter
              (fun k -> Singe.Viscosity_dfg.species_warp ~n ~n_warps:warps k = w)
              (List.init n Fun.id)
          in
          Printf.printf "  warp %2d: %d species [%s]\n" w (List.length owned)
            (String.concat ";" (List.map string_of_int owned))
        done
    | Singe.Kernel_abi.Chemistry ->
        let part = Singe.Chemistry_dfg.partition mech ~n_warps:warps in
        let nr = Array.length part.Singe.Chemistry_dfg.reaction_warp in
        Printf.printf
          "chemistry warp partition (Fig. 6): %d reactions over %d warps, %d \
           QSSA warp(s)\n"
          nr warps part.Singe.Chemistry_dfg.n_qssa_warps;
        for w = 0 to warps - 1 do
          let owned =
            List.filter
              (fun r -> part.Singe.Chemistry_dfg.reaction_warp.(r) = w)
              (List.init nr Fun.id)
          in
          Printf.printf "  warp %2d: cost %5d, %3d reactions\n" w
            part.Singe.Chemistry_dfg.warp_cost.(w)
            (List.length owned)
        done;
        let g = Chem.Qssa.build mech in
        if Array.length g.Chem.Qssa.nodes > 0 then begin
          Printf.printf "QSSA node assignment (Fig. 7):\n";
          Array.iteri
            (fun k (node : Chem.Qssa.node) ->
              Printf.printf "  node %2d (species %s) -> warp %d, deps [%s]\n" k
                mech.Chem.Mechanism.species.(node.Chem.Qssa.species)
                  .Chem.Species.name
                part.Singe.Chemistry_dfg.qssa_node_warp.(k)
                (String.concat ";"
                   (List.map string_of_int node.Chem.Qssa.deps)))
            g.Chem.Qssa.nodes
        end
    | Singe.Kernel_abi.Stencil id ->
        let p = Singe.Stencil_pipe.get id in
        let n_stages = List.length p.Singe.Stencil_pipe.stages in
        Printf.printf
          "stencil band partition (warp-overlapped tiling): %s, %d stage(s) \
           + loads, %d warps\n"
          p.Singe.Stencil_pipe.pipe_name n_stages warps;
        for s = 1 to n_stages do
          let lo, hi = Singe.Stencil_dfg.band ~n_warps:warps ~n_stages s in
          let stage = List.nth p.Singe.Stencil_pipe.stages (s - 1) in
          Printf.printf "  stage %d (%s, radius %d) -> warps [%d, %d)\n" s
            stage.Singe.Stencil_pipe.stage_name stage.Singe.Stencil_pipe.radius
            lo hi;
          for col = 0 to p.Singe.Stencil_pipe.width - 1 do
            if col mod 8 = 0 then
              Printf.printf "    col %2d -> warp %d\n" col
                (Singe.Stencil_dfg.owner_warp ~n_warps:warps ~n_stages
                   ~width:p.Singe.Stencil_pipe.width ~stage:s ~col)
          done
        done
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Dump the kernel's warp partition (Figs. 5-7).")
    Term.(const run $ target_term [ kernel_flag; warps_flag ])

let figures_cmd =
  (* Names are checked at parse time: a typo is a usage error before any
     figure runs. *)
  let name_conv =
    Arg.enum
      (List.map (fun n -> (n, n))
         ("all" :: List.map fst Experiments.Figures.registry))
  in
  let names =
    Arg.(value & pos_all name_conv [ "all" ] & info [] ~docv:"FIGURE")
  in
  let run names () =
    Result.iter_error invalid_arg (Experiments.Figures.run names)
  in
  Cmd.v (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ names $ jobs_term)

let serve_cmd =
  let opt_of name dflt doc =
    Arg.(value & opt (count_conv name) dflt & info [ name ] ~docv:"N" ~doc)
  in
  let d = Singe.Serve.default_config in
  let deadline =
    opt_of "deadline-ms" d.Singe.Serve.deadline_ms
      "Default per-request wall budget in milliseconds; also derives the \
       simulator cycle budget. Requests may override it per line."
  in
  let cycles_per_ms =
    opt_of "cycles-per-ms" d.Singe.Serve.cycles_per_ms
      "Deadline-to-cycle-budget conversion rate."
  in
  let max_queue =
    opt_of "max-queue" d.Singe.Serve.max_queue
      "Admission queue bound; overflow requests get an immediate busy \
       response with a retry_after_ms hint."
  in
  let retry_after =
    opt_of "retry-after-ms" d.Singe.Serve.retry_after_ms
      "Retry hint attached to busy responses."
  in
  let cache_entries =
    opt_of "cache-entries" d.Singe.Serve.cache_entries
      "Bound on the shared compile cache (LRU eviction beyond it)."
  in
  let run deadline_ms cycles_per_ms max_queue retry_after_ms cache_entries () =
    let config =
      {
        Singe.Serve.deadline_ms;
        cycles_per_ms;
        max_queue;
        retry_after_ms;
        cache_entries;
        id_cache_entries = d.Singe.Serve.id_cache_entries;
      }
    in
    let st = Singe.Serve.create ~config () in
    Singe.Serve.serve_fds st Unix.stdin Unix.stdout
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve compile/run/predict/tune/health/stats requests as \
          newline-delimited JSON on stdin/stdout until EOF or a shutdown \
          request. Every request is answered: failures become typed error \
          responses and deadline overruns degrade to the analytic model.")
    Term.(
      const run $ deadline $ cycles_per_ms $ max_queue $ retry_after
      $ cache_entries $ jobs_term)

let () =
  let doc = "Singe: a warp-specializing DSL compiler for combustion chemistry" in
  let code =
    try
      (* catch:false so Invalid_jobs reaches the handler below instead of
         cmdliner's generic uncaught-exception report (exit 125). *)
      Cmd.eval ~catch:false
        (Cmd.group (Cmd.info "singe" ~doc)
           [ info_cmd; compile_cmd; run_cmd; profile_cmd; predict_cmd;
             tune_cmd; stats_cmd; partition_cmd; figures_cmd; serve_cmd ])
    with
    | Sutil.Domain_pool.Invalid_jobs msg ->
        (* A garbage SINGE_JOBS is a usage error, same class as a bad flag. *)
        Printf.eprintf "singe: %s\n%!" msg;
        124
    | e ->
        (* Preserve cmdliner's uncaught-exception exit so 2 stays reserved
           for compile rejections. *)
        Printf.eprintf "singe: internal error, uncaught exception:\n%s\n%s%!"
          (Printexc.to_string e)
          (Printexc.get_backtrace ());
        125
  in
  exit code
