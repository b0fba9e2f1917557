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

(* Every compile-target name parses through Singe.Target, so a bad name
   reads the same here as in serve's bad-request message. *)
let target_conv of_string print =
  let parse s = Result.map_error (fun m -> `Msg m) (of_string s) in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (print v))

(* Every count flag (warps, points, SMs, top-k, cycle budget, serve's
   bounds) is a positive integer, rejected at parse as serve rejects a
   count below 1. *)
let pos_int_conv flag =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "--%s must be >= 1, got %d" flag n))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let points_term =
  Arg.(value & opt (pos_int_conv "points") 32768
       & info [ "points" ] ~docv:"N")

let mech_term =
  let mech =
    let mech_conv =
      target_conv Singe.Target.mech_of_string (fun m -> m.Chem.Mechanism.name)
    in
    Arg.(value & opt (some ~none:Singe.Target.default_mech mech_conv) None
         & info [ "mech" ] ~docv:"NAME"
             ~doc:("Bundled mechanism: "
                   ^ String.concat ", " (List.map fst Chem.Mech_gen.bundled)
                   ^ "."))
  in
  let file kind =
    Arg.(value & opt (some file) None & info [ kind ] ~docv:"FILE")
  in
  let build mech chemkin thermo transport sets =
    match (chemkin, thermo, transport) with
    | Some c, Some th, Some tr -> (
        match
          Chem.Mech_io.load_files ?species_sets_path:sets ~chemkin_path:c
            ~thermo_path:th ~transport_path:tr ~name:"user" ()
        with
        | Ok m -> Ok m
        | Error e ->
            Error
              (`Msg
                (Singe.Diagnostics.to_string
                   (Singe.Diagnostics.of_srcloc ~pass:"parse" e))))
    | None, None, None -> (
        match mech with
        | Some m -> Ok m
        | None ->
            Result.map_error
              (fun m -> `Msg m)
              (Singe.Target.mech_of_string Singe.Target.default_mech))
    | _ ->
        Error (`Msg "--chemkin, --thermo and --transport must be given together")
  in
  Term.term_result
    Term.(const build $ mech $ file "chemkin" $ file "thermo"
          $ file "transport" $ file "sets")

let kernel_conv =
  target_conv Singe.Target.kernel_of_string Singe.Kernel_abi.kernel_name

let kernel_term =
  Arg.(value & opt kernel_conv Singe.Target.default_kernel
       & info [ "kernel" ] ~docv:"KERNEL"
           ~doc:"viscosity, conductivity, diffusion, chemistry, or a stencil \
                 pipeline: edge3, unsharp2.")

let arch_term =
  Arg.(value
       & opt (target_conv Singe.Target.arch_of_string Singe.Target.arch_name)
           Singe.Target.default_arch
       & info [ "arch" ] ~docv:"ARCH" ~doc:"fermi or kepler.")

let warps_term =
  Arg.(value & opt (pos_int_conv "warps") Singe.Target.default_warps
       & info [ "warps" ] ~docv:"N" ~doc:"Warps per CTA.")

let version_conv =
  target_conv Singe.Target.version_of_string Singe.Compile.version_name

let version_term =
  Arg.(value & opt version_conv Singe.Target.default_version
       & info [ "version" ] ~docv:"V" ~doc:"ws, baseline or naive.")

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

(* Typed pipeline entry: every user-reachable failure prints one readable
   diagnostic line instead of an exception backtrace. *)
let compile_or_die ~validate mech kernel version options =
  match Singe.Compile.compile_checked ~validate mech kernel version options with
  | Ok (c, report) -> (c, report)
  | Error d ->
      Printf.eprintf "singe: %s\n" (Singe.Diagnostics.to_string d);
      exit exit_compile_rejected

(* An occupancy rejection is a configuration error like any other compile
   rejection: render it as a diagnostic line and use the same exit code,
   keeping the 0/2/3 contract (it is neither unexpected nor a contained
   simulation fault). Positioned diagnostics raised after the compile
   boundary (e.g. the launch-grid divisibility check inside
   [Compile.run]) are configuration errors too — render them the same
   way instead of letting them escape as an uncaught exception. *)
let catch_occupancy f =
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

(* Chip-scheduler flags shared by the simulating and predicting
   commands. *)
let sms_term =
  Arg.(value & opt (some (pos_int_conv "sms")) None & info [ "sms" ] ~docv:"N"
       ~doc:"Dispatch the launch over N SMs (default: the architecture's \
             SM count). With 1 the CTAs run as back-to-back rounds on a \
             single SM; with more, the chip scheduler models tail waves \
             and shared L2/DRAM bandwidth contention.")

let skew_term =
  let skew_conv =
    let parse s =
      match float_of_string_opt s with
      | Some v when Float.abs v < 2.0 -> Ok v
      | Some v ->
          Error
            (`Msg (Printf.sprintf "--skew must satisfy |S| < 2, got %g" v))
      | None -> Error (`Msg (Printf.sprintf "%S is not a number" s))
    in
    Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)
  in
  Arg.(value & opt (some skew_conv) None & info [ "skew" ] ~docv:"S"
       ~doc:"Relative per-SM clock spread: SM clock factors ramp linearly \
             over [1-S/2, 1+S/2] (default: the architecture's, 0 on both \
             shipped machines).")

(* Fault-containment flags shared by the simulating commands. *)
let max_cycles_term =
  Arg.(value & opt (some (pos_int_conv "max-cycles")) None
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

let info_cmd =
  let run mech =
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
    Term.(const run $ mech_term)

let options_of ?synth ?(overlap = true) arch warps kernel =
  { (Singe.Target.options ~n_warps:warps arch kernel) with
    Singe.Compile.synth_exchange = synth;
    stencil_overlap = overlap }

(* The tiling mode for stencil kernels; ignored by the combustion ones. *)
let overlap_term =
  Arg.(value & opt bool true & info [ "stencil-overlap" ] ~docv:"BOOL"
       ~doc:"Warp-overlapped tiling for stencil pipelines: when on, upstream \
             bands compute halo-extended tiles (redundant recompute at the \
             seams) so every consumer warp reads from exactly one producer; \
             when off, each column is computed once and halo taps read \
             cross-warp through shared memory. Ignored by the combustion \
             kernels.")

(* The exchange-rewrite override shared by the compiling commands:
   unset = per-architecture auto (on exactly when the broadcast style is
   shuffle-based). *)
let synth_term =
  Arg.(value & opt (some bool) None & info [ "synth-exchange" ] ~docv:"BOOL"
       ~doc:"Force the shuffle-exchange superoptimizer on or off: same-warp \
             shared-memory round-trips are rewritten into register forwards \
             and lane-shuffle programs, and the freed exchange slots leave \
             the shared footprint. Default: on when the architecture \
             broadcasts through shuffles (Kepler), off otherwise.")

(* The partition mode shared by the compiling commands: hand keeps the
   paper's fixed producer/consumer split, auto derives one from the DFG
   with Partition_search (model-only resolution; [singe tune
   --partition auto] additionally confirms by simulation). *)
let partition_term =
  let mode_conv =
    target_conv Singe.Target.partition_of_string
      Singe.Target.partition_mode_name
  in
  Arg.(value & opt mode_conv Singe.Target.Hand & info [ "partition" ]
       ~docv:"MODE"
       ~doc:"Warp partition: $(b,hand) keeps the paper's fixed \
             producer/consumer split; $(b,auto) searches structure-derived \
             candidate partitions (fan-out hubs as producers, arithmetic \
             chains onto consumers) crossed with pipeline depths, ranked by \
             the analytic model and gated by the static deadlock verifier. \
             A candidate that fails the gate is reported as \
             partition-rejected and never simulated.")

(* Resolve --partition for the one-configuration commands: model-only
   search, hand base retained when nothing beats it. A search failure is
   a compile rejection like any other (exit code 2). *)
let resolve_partition partition mech kernel version options =
  match partition with
  | Singe.Target.Hand -> options
  | Singe.Target.Auto -> (
      match
        Singe.Partition_search.resolve_options mech kernel version
          ~base:options
      with
      | resolved ->
          (match resolved.Singe.Compile.partition with
          | Singe.Compile.Partition_auto spec ->
              Format.printf "partition auto: %a (slots %d)@."
                Singe.Mapping.pp_auto_spec spec
                resolved.Singe.Compile.buffer_slots
          | Singe.Compile.Partition_hand ->
              print_endline
                "partition auto: hand mapping retained (no candidate beat it)");
          resolved
      | exception Singe.Diagnostics.Fail d ->
          Printf.eprintf "singe: %s\n" (Singe.Diagnostics.to_string d);
          exit exit_compile_rejected)

let compile_cmd =
  let dump = Arg.(value & flag & info [ "dump" ] ~doc:"Print the generated code.") in
  let asm = Arg.(value & opt (some string) None & info [ "emit-asm" ] ~docv:"FILE"
                 ~doc:"Write the program's textual assembly to FILE ('-' for stdout).") in
  let cuda = Arg.(value & opt (some string) None & info [ "emit-cuda" ] ~docv:"FILE"
                  ~doc:"Write the kernel as CUDA C source to FILE ('-' for stdout).") in
  let run mech kernel arch warps version synth overlap partition dump asm cuda
      timings validate dump_ir_stage =
    catch_occupancy @@ fun () ->
    let options =
      resolve_partition partition mech kernel version
        (options_of ?synth ~overlap arch warps kernel)
    in
    let c, report = compile_or_die ~validate mech kernel version options in
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
    let occ = Gpusim.Machine.occupancy arch p in
    Printf.printf "occupancy: %d CTAs/SM (limited by %s)\n"
      occ.Gpusim.Machine.resident_ctas occ.Gpusim.Machine.limited_by;
    if timings then print_report report;
    dump_ir c dump_ir_stage;
    if dump then Format.printf "@.== prologue ==@.%a== body ==@.%a@."
        Gpusim.Isa.pp_block p.Gpusim.Isa.prologue
        Gpusim.Isa.pp_block p.Gpusim.Isa.body;
    (match asm with
    | Some "-" -> print_string (Gpusim.Isa_text.emit p)
    | Some file ->
        let oc = open_out file in
        output_string oc (Gpusim.Isa_text.emit p);
        close_out oc;
        Printf.printf "assembly written to %s\n" file
    | None -> ());
    match cuda with
    | Some "-" -> print_string (Singe.Cuda_emit.emit ~arch p)
    | Some file ->
        let oc = open_out file in
        output_string oc (Singe.Cuda_emit.emit ~arch p);
        close_out oc;
        Printf.printf "CUDA source written to %s\n" file
    | None -> ()
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a kernel and report its resources.")
    Term.(const run $ mech_term $ kernel_term $ arch_term $ warps_term
          $ version_term $ synth_term $ overlap_term $ partition_term $ dump
          $ asm $ cuda $ timings_term $ validate_term $ dump_ir_term)

let run_cmd =
  let run mech kernel arch warps version synth overlap partition points timings
      validate faults max_cycles n_sms skew =
    catch_occupancy @@ fun () ->
    let options =
      resolve_partition partition mech kernel version
        (options_of ?synth ~overlap arch warps kernel)
    in
    let c, report = compile_or_die ~validate mech kernel version options in
    let r =
      (* A contained simulation fault (injected or real) and a fault spec
         that matches nothing in the trace each get their own exit code,
         distinct from a compile-pipeline rejection. *)
      match
        Singe.Compile.run c ~total_points:points ~faults ?max_cycles ?n_sms
          ?skew
      with
      | r -> r
      | exception Gpusim.Sm.Simulation_fault report ->
          Format.eprintf "singe: simulation fault@.%a@." Gpusim.Sm.pp_fault
            report;
          exit exit_simulation_fault
      | exception Invalid_argument msg ->
          Printf.eprintf "singe: %s\n" msg;
          exit exit_compile_rejected
    in
    Printf.printf
      "%s on %s: %.4g points/s, %.1f GFLOPS, %.1f GB/s DRAM, worst rel. \
       error vs host reference %.2g\n"
      (Singe.Kernel_abi.kernel_name kernel)
      arch.Gpusim.Arch.name
      r.Singe.Compile.machine.Gpusim.Machine.points_per_sec
      r.Singe.Compile.machine.Gpusim.Machine.gflops
      r.Singe.Compile.machine.Gpusim.Machine.dram_gbs
      r.Singe.Compile.max_rel_err;
    let ch = r.Singe.Compile.machine.Gpusim.Machine.chip in
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
    Term.(const run $ mech_term $ kernel_term $ arch_term $ warps_term
          $ version_term $ synth_term $ overlap_term $ partition_term
          $ points_term $ timings_term $ validate_term $ faults_term
          $ max_cycles_term $ sms_term $ skew_term)

let profile_cmd =
  let chrome =
    Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE"
         ~doc:"Write the profiler timeline as Chrome trace-event JSON to FILE \
               ('-' for stdout); open it at $(b,chrome://tracing) or in \
               Perfetto.")
  in
  let top =
    Arg.(value & opt int 5 & info [ "top-stalls" ] ~docv:"N"
         ~doc:"Print the N largest per-warp stall contributors (0 disables).")
  in
  let timeline =
    Arg.(value & opt int 65536 & info [ "timeline" ] ~docv:"SPANS"
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
  let run mech kernel arch warps version overlap points chrome top timeline
      check_it faults max_cycles n_sms skew =
    catch_occupancy @@ fun () ->
    let c, _ =
      compile_or_die ~validate:false mech kernel version
        (options_of ~overlap arch warps kernel)
    in
    let profile = { Gpusim.Sm.timeline_capacity = timeline } in
    let r =
      match
        Singe.Compile.run c ~check:false ~total_points:points ~faults
          ?max_cycles ~profile ?n_sms ?skew
      with
      | r -> r
      | exception Gpusim.Sm.Simulation_fault report ->
          Format.eprintf "singe: simulation fault@.%a@." Gpusim.Sm.pp_fault
            report;
          exit exit_simulation_fault
      | exception Invalid_argument msg ->
          Printf.eprintf "singe: %s\n" msg;
          exit exit_compile_rejected
    in
    let prof =
      match r.Singe.Compile.machine.Gpusim.Machine.sim.Gpusim.Sm.profile with
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
    (match chrome with
    | Some "-" -> print_string trace_json
    | Some file ->
        let oc = open_out file in
        output_string oc trace_json;
        close_out oc;
        Printf.printf "Chrome trace (%d spans%s) written to %s\n"
          (Array.length prof.Gpusim.Profile.timeline)
          (if prof.Gpusim.Profile.timeline_dropped > 0 then
             Printf.sprintf ", %d dropped" prof.Gpusim.Profile.timeline_dropped
           else "")
          file
    | None -> ());
    if check_it then begin
      let failed = ref false in
      let check name ok detail =
        if ok then Printf.printf "check %-28s ok\n" name
        else begin
          failed := true;
          Printf.printf "check %-28s FAILED%s\n" name
            (if detail = "" then "" else ": " ^ detail)
        end
      in
      check "bucket conservation"
        (Gpusim.Profile.conservation_ok prof)
        (Printf.sprintf "residual %d warp-cycles"
           (Gpusim.Profile.conservation_residual prof));
      (match Sutil.Json_check.validate trace_json with
      | Ok () -> check "chrome-trace json" true ""
      | Error m -> check "chrome-trace json" false m);
      let monotone = ref true and last = ref min_int in
      Array.iter
        (fun (s : Gpusim.Profile.span) ->
          if s.Gpusim.Profile.sp_start < !last then monotone := false;
          last := s.Gpusim.Profile.sp_start)
        prof.Gpusim.Profile.timeline;
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
      check "trace timestamps monotone" !sorted_ok "";
      if !failed then exit 1
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Simulate a kernel with the per-warp cycle-attribution profiler \
             and print the stall breakdown.")
    Term.(const run $ mech_term $ kernel_term $ arch_term $ warps_term
          $ version_term $ overlap_term $ points_term $ chrome $ top $ timeline
          $ check_flag $ faults_term $ max_cycles_term $ sms_term $ skew_term)

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
  let run mech arch warps synth overlap partition points kernel_opt version_opt
      json check_it n_sms skew =
    catch_occupancy @@ fun () ->
    let kernels =
      match kernel_opt with
      | Some k -> [ k ]
      | None ->
          [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion;
            Singe.Kernel_abi.Chemistry;
            Singe.Kernel_abi.Stencil Singe.Stencil_pipe.Edge3;
            Singe.Kernel_abi.Stencil Singe.Stencil_pipe.Unsharp2 ]
    in
    let versions =
      match version_opt with
      | Some v -> [ v ]
      | None -> [ Singe.Compile.Warp_specialized; Singe.Compile.Baseline ]
    in
    let rows = ref [] and skipped = ref 0 in
    Printf.printf "%-13s %-9s %5s  %12s %12s %7s  %s\n" "kernel" "version"
      "warps" "predicted" "simulated" "err" "model binding";
    List.iter
      (fun kernel ->
        List.iter
          (fun version ->
            let name =
              Printf.sprintf "%s/%s"
                (Singe.Kernel_abi.kernel_name kernel)
                (Singe.Compile.version_name version)
            in
            (* A launch the baseline cannot size, and (with --partition
               auto, resolved per row model-only) a base compile failure,
               skip the row like any other, keeping predict's best-effort
               table semantics. *)
            let base = options_of ?synth ~overlap arch warps kernel in
            let resolved =
              Result.bind
                (Singe.Compile.check_launch kernel version ~n_warps:warps
                   ~total_points:points)
                (fun () ->
                  match partition with
                  | Singe.Target.Hand -> Ok base
                  | Singe.Target.Auto -> (
                      try
                        Ok
                          (Singe.Partition_search.resolve_options mech kernel
                             version ~base)
                      with Singe.Diagnostics.Fail d -> Error d))
            in
            match
              Result.bind resolved (fun options ->
                  Singe.Compile.compile_checked ~validate:false mech kernel
                    version options)
            with
            | Error d ->
                incr skipped;
                Printf.printf "%-13s skipped: %s\n" name
                  (Singe.Diagnostics.to_string d)
            | Ok (c, _) ->
                let pred =
                  Singe.Perf_model.predict ?n_sms ?skew c
                    ~total_points:points
                in
                let r =
                  match
                    Singe.Compile.run c ~check:false ~total_points:points
                      ?n_sms ?skew
                  with
                  | r -> r
                  | exception Gpusim.Sm.Simulation_fault report ->
                      Format.eprintf "singe: simulation fault@.%a@."
                        Gpusim.Sm.pp_fault report;
                      exit exit_simulation_fault
                in
                let measured =
                  float_of_int
                    r.Singe.Compile.machine.Gpusim.Machine.sm_cycles
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
              of_int r.Singe.Compile.machine.Gpusim.Machine.sm_cycles );
            ("rel_err", Num err);
            ("floor_cycles", Num pred.Singe.Perf_model.floor_cycles);
            ( "predicted_points_per_sec",
              Num pred.Singe.Perf_model.points_per_sec );
            ( "measured_points_per_sec",
              Num r.Singe.Compile.machine.Gpusim.Machine.points_per_sec );
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
    (match json with
    | Some "-" -> print_string payload
    | Some file ->
        let oc = open_out file in
        output_string oc payload;
        close_out oc;
        Printf.printf "prediction rows written to %s\n" file
    | None -> ());
    if check_it then begin
      let failed = ref false in
      let check name ok detail =
        if ok then Printf.printf "check %-28s ok\n" name
        else begin
          failed := true;
          Printf.printf "check %-28s FAILED%s\n" name
            (if detail = "" then "" else ": " ^ detail)
        end
      in
      (match Sutil.Json_check.validate payload with
      | Ok () -> check "predict json" true ""
      | Error m -> check "predict json" false m);
      List.iter
        (fun (kernel, version, (pred : Singe.Perf_model.prediction), r, _) ->
          let measured =
            float_of_int r.Singe.Compile.machine.Gpusim.Machine.sm_cycles
          in
          check
            (Printf.sprintf "floor %s/%s"
               (Singe.Kernel_abi.kernel_name kernel)
               (Singe.Compile.version_name version))
            (measured >= pred.Singe.Perf_model.floor_cycles /. 1.02)
            (Printf.sprintf "simulated %.0f beats floor %.0f" measured
               pred.Singe.Perf_model.floor_cycles))
        rows;
      if !failed then exit 1
    end
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Predict kernel cycles with the analytic performance model and \
             compare against the simulator.")
    Term.(const run $ mech_term $ arch_term $ warps_term $ synth_term
          $ overlap_term $ partition_term $ points_term $ kernel_opt
          $ version_opt $ json $ check_flag $ sms_term $ skew_term)

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
  Arg.(value & opt (pos_int_conv "top-k") Singe.Autotune.default_prune_keep
       & info [ "top-k" ] ~docv:"K"
         ~doc:"With --tune-mode pruned: how many model-ranked candidates to \
               simulate.")

let tune_cmd =
  let run mech kernel arch warps version synth overlap partition max_cycles
      tune_mode top_k n_sms skew () =
    catch_occupancy @@ fun () ->
    match partition with
    | Singe.Target.Auto -> (
        (* Full three-phase partition search: model ranking, deadlock
           gate, then simulated confirmation through the autotuner with
           the hand mapping seeded into the grid. *)
        match
          Singe.Partition_search.search ~top_k ?max_cycles ?n_sms ?skew mech
            kernel version
            ~base:(options_of ?synth ~overlap arch warps kernel)
            ()
        with
        | Ok o ->
            Format.printf "%a@." Singe.Partition_search.pp_outcome o;
            List.iter
              (fun (r : Singe.Partition_search.rejection) ->
                Printf.printf "  rejected %s: %s\n"
                  (match r.Singe.Partition_search.rej_options
                           .Singe.Compile.partition with
                  | Singe.Compile.Partition_auto spec ->
                      Format.asprintf "%a" Singe.Mapping.pp_auto_spec spec
                  | Singe.Compile.Partition_hand -> "hand")
                  (Singe.Diagnostics.to_string
                     r.Singe.Partition_search.rej_diag))
              o.Singe.Partition_search.rejections
        | Error d ->
            Printf.eprintf "singe: %s\n" (Singe.Diagnostics.to_string d);
            exit exit_compile_rejected)
    | Singe.Target.Hand ->
    let mode =
      match tune_mode with
      | `Exhaustive -> Singe.Autotune.Exhaustive
      | `Pruned -> Singe.Autotune.Pruned top_k
    in
    let o =
      Singe.Autotune.tune ?max_cycles ~mode ?n_sms ?skew
        ?synth_exchange:synth ~stencil_overlap:overlap mech kernel version
        arch
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
    Term.(const run $ mech_term $ kernel_term $ arch_term $ warps_term
          $ version_term $ synth_term $ overlap_term $ partition_term
          $ max_cycles_term $ tune_mode_term $ top_k_term $ sms_term
          $ skew_term $ jobs_term)

let stats_cmd =
  let run mech kernel arch warps version =
    let c = Singe.Compile.compile mech kernel version (options_of arch warps kernel) in
    let p = c.Singe.Compile.lowered.Singe.Lower.program in
    Format.printf "%s on %s@.%a@.%a@." p.Gpusim.Isa.name arch.Gpusim.Arch.name
      Gpusim.Isa_stats.pp
      (Gpusim.Isa_stats.of_program arch p)
      Gpusim.Roofline.pp
      (Gpusim.Roofline.analyze arch p)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Static instruction mix, code footprint and roofline bounds.")
    Term.(const run $ mech_term $ kernel_term $ arch_term $ warps_term
          $ version_term)

let partition_cmd =
  (* Dumps the paper's partition diagrams: Fig. 5 (diffusion columns) and
     Figs. 6/7 (chemistry reaction + QSSA warp assignment). *)
  let run mech kernel warps =
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
    Term.(const run $ mech_term $ kernel_term $ warps_term)

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
    List.iter
      (function
        | "all" -> Experiments.Figures.all ()
        | n -> List.assoc n Experiments.Figures.registry ())
      names
  in
  Cmd.v (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ names $ jobs_term)

let serve_cmd =
  let opt_of name dflt doc =
    Arg.(value & opt (pos_int_conv name) dflt & info [ name ] ~docv:"N" ~doc)
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
