let fast () = Sys.getenv_opt "SINGE_FAST" <> None

let archs () = [ Gpusim.Arch.fermi_c2070; Gpusim.Arch.kepler_k20c ]

let sizes () =
  if fast () then [ (32768, "32^3") ]
  else [ (32768, "32^3"); (262144, "64^3"); (2097152, "128^3") ]

let line () = print_endline (String.make 78 '-')

(* Every figure compiles through the shared memo, and fails with its
   diagnostic on a configuration that does not compile. *)
let compiled mech kernel version options =
  Singe.Diagnostics.ok_exn
    (Singe.Compile.compile ~memo:true mech kernel version options)

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

let fig3 () =
  header "Figure 3: chemical mechanisms";
  Printf.printf "%-10s %9s %8s %5s %6s\n" "Mechanism" "Reactions" "Species"
    "QSSA" "Stiff";
  List.iter
    (fun mech -> print_endline (Chem.Mechanism.summary mech))
    [ Chem.Mech_gen.dme (); Chem.Mech_gen.heptane () ];
  print_newline ()

(* Tuned-configuration cache: figures share autotuning work. Guarded by
   a mutex so figure code running inside a [Domain_pool.parallel_map]
   worker can consult it safely; the tune itself runs outside the lock
   (it fans out its own candidate evaluations). *)
let tuned : (string, Singe.Autotune.candidate) Hashtbl.t = Hashtbl.create 32
let tuned_mutex = Mutex.create ()

let tune mech kernel version arch =
  let key =
    Printf.sprintf "%s/%s/%s/%s" mech.Chem.Mechanism.name
      (Singe.Kernel_abi.kernel_name kernel)
      (Singe.Compile.version_name version)
      arch.Gpusim.Arch.name
  in
  let cached =
    Mutex.lock tuned_mutex;
    let v = Hashtbl.find_opt tuned key in
    Mutex.unlock tuned_mutex;
    v
  in
  match cached with
  | Some c -> c
  | None ->
      let warp_candidates =
        if fast () then
          Some
            (match version with
            | Singe.Compile.Baseline -> [ 8 ]
            | _ -> [ 4; 8 ])
        else None
      in
      let outcome =
        Singe.Autotune.tune ?warp_candidates mech kernel version arch
      in
      Mutex.lock tuned_mutex;
      Hashtbl.replace tuned key outcome.Singe.Autotune.best;
      Mutex.unlock tuned_mutex;
      outcome.Singe.Autotune.best

let fig9 () =
  header
    "Figure 9: naive vs Singe (overlaid) warp-specialized code generation\n\
     DME viscosity on Kepler, 32^3 points; throughput in points/s";
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  Printf.printf "%-10s %14s %14s\n" "warps/CTA" "naive" "Singe";
  let warps = if fast () then [ 2; 4; 6; 8 ] else [ 2; 3; 4; 5; 6; 8; 10; 12; 15; 16 ] in
  (* One worker per warp count; each returns its fully formatted row and
     the rows print post-join, so the table is byte-identical to the
     serial sweep. *)
  let rows =
    Sutil.Domain_pool.parallel_map
      (fun n_warps ->
        let run version =
          let options =
            Singe.Target.options ~n_warps arch Singe.Kernel_abi.Viscosity
          in
          match
            Singe.Compile.compile ~memo:true mech Singe.Kernel_abi.Viscosity
              version options
          with
          | Ok c ->
              (* 8 point batches per CTA: the loop re-executes the kernel
                 body, so divergent instruction streams re-fetch every
                 pass. *)
              let r = Singe.Compile.run c ~total_points:32768 ~ctas:128 in
              Printf.sprintf "%14.3g" r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
          | Error _ -> Printf.sprintf "%14s" "(won't fit)"
        in
        Printf.sprintf "%-10d %s %s\n" n_warps
          (run Singe.Compile.Naive_warp_specialized)
          (run Singe.Compile.Warp_specialized))
      warps
  in
  List.iter print_string rows;
  print_newline ()

let fig10 () =
  header
    "Figure 10: constant registers per thread on Kepler\n\
     (representative configurations: 6/13 warps for viscosity and \
     diffusion, 16 for chemistry)";
  Printf.printf "%-10s %10s %10s %10s\n" "Mechanism" "Viscosity" "Diffusion"
    "Chemistry";
  let rows =
    Sutil.Domain_pool.parallel_map
      (fun (mech, vis_warps) ->
        let regs kernel n_warps =
          let options =
            Singe.Target.options ~n_warps Gpusim.Arch.kepler_k20c kernel
          in
          let c = compiled mech kernel Singe.Compile.Warp_specialized options in
          c.Singe.Compile.lowered.Singe.Lower.n_bank_regs
        in
        Printf.sprintf "%-10s %10d %10d %10d\n" mech.Chem.Mechanism.name
          (regs Singe.Kernel_abi.Viscosity vis_warps)
          (regs Singe.Kernel_abi.Diffusion vis_warps)
          (regs Singe.Kernel_abi.Chemistry 16))
      [ (Chem.Mech_gen.dme (), 6); (Chem.Mech_gen.heptane (), 13) ]
  in
  List.iter print_string rows;
  print_newline ()

let perf_figure mech kernel =
  header
    (Printf.sprintf
       "%s %s: data-parallel CUDA baseline vs warp-specialized (throughput, points/s)"
       mech.Chem.Mechanism.name
       (Singe.Kernel_abi.kernel_name kernel));
  List.iter
    (fun arch ->
      let base = tune mech kernel Singe.Compile.Baseline arch in
      let ws = tune mech kernel Singe.Compile.Warp_specialized arch in
      Printf.printf
        "%s  (baseline: %d warps/CTA; warp-specialized: %d warps/CTA, %d CTAs/SM)\n"
        arch.Gpusim.Arch.name
        base.Singe.Autotune.options.Singe.Compile.n_warps
        ws.Singe.Autotune.options.Singe.Compile.n_warps
        ws.Singe.Autotune.result.Singe.Compile.machine.Gpusim.Chip.occ
          .Gpusim.Chip.resident_ctas;
      Printf.printf "  %-8s %14s %14s %9s %10s %10s\n" "size" "baseline"
        "warp-spec" "speedup" "base-GF" "ws-GF";
      (* Each size reruns the tuned programs on an already-compiled,
         immutable artifact: the rows are independent simulations and fan
         out; printing stays in size order after the join. *)
      let rows =
        Sutil.Domain_pool.parallel_map
          (fun (points, label) ->
            let rerun (c : Singe.Autotune.candidate) =
              Singe.Compile.run c.Singe.Autotune.compiled ~total_points:points
            in
            let rb = rerun base and rw = rerun ws in
            let tb = rb.Singe.Compile.machine.Gpusim.Chip.points_per_sec in
            let tw = rw.Singe.Compile.machine.Gpusim.Chip.points_per_sec in
            Printf.sprintf "  %-8s %14.4g %14.4g %8.2fx %10.1f %10.1f\n" label tb
              tw (tw /. tb)
              rb.Singe.Compile.machine.Gpusim.Chip.gflops
              rw.Singe.Compile.machine.Gpusim.Chip.gflops)
          (sizes ())
      in
      List.iter print_string rows;
      let spill (c : Singe.Autotune.candidate) =
        c.Singe.Autotune.compiled.Singe.Compile.lowered.Singe.Lower.spill_bytes_per_thread
      in
      Printf.printf
        "  spill bytes/thread: baseline %d, warp-specialized %d; baseline \
         local-memory traffic %.0f GB/s\n"
        (spill base) (spill ws)
        base.Singe.Autotune.result.Singe.Compile.machine.Gpusim.Chip.local_gbs)
    (archs ());
  print_newline ()

let fig11 () = perf_figure (Chem.Mech_gen.dme ()) Singe.Kernel_abi.Viscosity
let fig12 () = perf_figure (Chem.Mech_gen.heptane ()) Singe.Kernel_abi.Viscosity
let fig13 () = perf_figure (Chem.Mech_gen.dme ()) Singe.Kernel_abi.Diffusion
let fig14 () = perf_figure (Chem.Mech_gen.heptane ()) Singe.Kernel_abi.Diffusion
let fig15 () = perf_figure (Chem.Mech_gen.dme ()) Singe.Kernel_abi.Chemistry
let fig16 () = perf_figure (Chem.Mech_gen.heptane ()) Singe.Kernel_abi.Chemistry

let stall_breakdown () =
  header
    "Stall breakdown (Fig. 11 style): where DME viscosity warps spend \
     their cycles on Kepler";
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let points = if fast () then 13 * 3 * 32 else 32768 in
  (* Tune serially (the tuner fans out its own candidates), then run the
     two profiled simulations concurrently. *)
  let base = tune mech Singe.Kernel_abi.Viscosity Singe.Compile.Baseline arch in
  let ws =
    tune mech Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized arch
  in
  Printf.printf "  %-10s" "";
  Array.iter
    (fun name -> Printf.printf " %11s" name)
    Gpusim.Profile.bucket_names;
  print_newline ();
  let rows =
    Sutil.Domain_pool.parallel_map
      (fun (label, (cand : Singe.Autotune.candidate)) ->
        (* The baseline maps one thread per point, so its point count
           must be a whole number of CTAs; round up to the tuned
           candidate's CTA footprint (shares are insensitive to the
           handful of extra points). *)
        let per_cta =
          32 * cand.Singe.Autotune.options.Singe.Compile.n_warps
        in
        let total_points = (points + per_cta - 1) / per_cta * per_cta in
        let r =
          Singe.Compile.run cand.Singe.Autotune.compiled ~total_points
            ~profile:{ Gpusim.Sm.timeline_capacity = 0 }
        in
        let prof =
          match
            r.Singe.Compile.machine.Gpusim.Chip.sim.Gpusim.Sm.profile
          with
          | Some p -> p
          | None -> assert false
        in
        let tot = Gpusim.Profile.bucket_totals prof in
        let denom =
          Float.max 1.0 (float_of_int (Gpusim.Profile.total_warp_cycles prof))
        in
        let b = Buffer.create 128 in
        Printf.bprintf b "  %-10s" label;
        Array.iter
          (fun v ->
            Printf.bprintf b " %10.1f%%" (100.0 *. float_of_int v /. denom))
          tot;
        Printf.bprintf b "   (%d cycles x %d warps%s)"
          prof.Gpusim.Profile.cycles
          (Gpusim.Profile.n_warps prof)
          (if Gpusim.Profile.conservation_ok prof then ""
           else ", NOT CONSERVED");
        Buffer.contents b)
      [ ("baseline", base); ("warp-spec", ws) ]
  in
  List.iter print_endline rows;
  print_newline ()

let ablation_barriers () =
  header
    "Ablation (§6.2): named-barrier synchronization cost in DME diffusion";
  let mech = Chem.Mech_gen.dme () in
  List.iter
    (fun arch ->
      (* Tune once (serial: the tuner fans out its own candidates), then
         run both sync policies concurrently. *)
      let best = tune mech Singe.Kernel_abi.Diffusion Singe.Compile.Warp_specialized arch in
      let run group_syncs =
        let options =
          { best.Singe.Autotune.options with Singe.Compile.group_syncs }
        in
        let c =
          compiled mech Singe.Kernel_abi.Diffusion
            Singe.Compile.Warp_specialized options
        in
        let r = Singe.Compile.run c ~total_points:32768 in
        (r, c)
      in
      let (grouped, cg), (ungrouped, cu) =
        match Sutil.Domain_pool.parallel_map run [ true; false ] with
        | [ g; u ] -> (g, u)
        | _ -> assert false
      in
      let stalls (r : Singe.Compile.run_result) =
        let s = r.Singe.Compile.machine.Gpusim.Chip.sim in
        s.Gpusim.Sm.counters.Gpusim.Sm.barrier_stalls
        + s.Gpusim.Sm.counters.Gpusim.Sm.cta_barrier_stalls
      in
      Printf.printf
        "%s: grouped syncs %.1f GFLOPS (%d sync points, %d warp-cycles \
         stalled); ungrouped %.1f GFLOPS (%d sync points, %d stalled)\n%!"
        arch.Gpusim.Arch.name
        grouped.Singe.Compile.machine.Gpusim.Chip.gflops
        cg.Singe.Compile.schedule.Singe.Schedule.n_sync_points
        (stalls grouped)
        ungrouped.Singe.Compile.machine.Gpusim.Chip.gflops
        cu.Singe.Compile.schedule.Singe.Schedule.n_sync_points
        (stalls ungrouped))
    (archs ());
  print_newline ()

let ablation_exp_constants () =
  header
    "Ablation (§6.1): Kepler DFMA throughput with constant-cache-fed vs \
     register-fed exponentials (DME viscosity)";
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let best = tune mech Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized arch in
  let rows =
    Sutil.Domain_pool.parallel_map
      (fun (flag, label) ->
        let options =
          { best.Singe.Autotune.options with Singe.Compile.exp_consts_in_registers = flag }
        in
        let c =
          compiled mech Singe.Kernel_abi.Viscosity
            Singe.Compile.Warp_specialized options
        in
        let r = Singe.Compile.run c ~total_points:32768 in
        Printf.sprintf "  %-22s %8.1f GFLOPS\n" label
          r.Singe.Compile.machine.Gpusim.Chip.gflops)
      [ (false, "constant-cache-fed"); (true, "register-fed") ]
  in
  List.iter print_string rows;
  print_newline ()


let ablation_chem_comm () =
  header
    "Ablation: chemistry communication policy (staged / mixed / recompute), \
     32^3 points";
  List.iter
    (fun (mech_name, mech) ->
      List.iter
        (fun arch ->
          let best =
            tune mech Singe.Kernel_abi.Chemistry Singe.Compile.Warp_specialized
              arch
          in
          Printf.printf "%s chemistry on %s (autotuned: %d warps):\n" mech_name
            arch.Gpusim.Arch.name
            best.Singe.Autotune.options.Singe.Compile.n_warps;
          let rows =
            Sutil.Domain_pool.parallel_map
              (fun (comm, label) ->
                let options =
                  { best.Singe.Autotune.options with Singe.Compile.chem_comm = Some comm }
                in
                match
                  Singe.Compile.compile ~memo:true mech
                    Singe.Kernel_abi.Chemistry Singe.Compile.Warp_specialized
                    options
                with
                | Ok c ->
                    let r = Singe.Compile.run c ~total_points:32768 in
                    let p = c.Singe.Compile.lowered.Singe.Lower.program in
                    Printf.sprintf
                      "  %-10s %10.3e points/s, %5.1f KB shared, %5d B spilled\n"
                      label
                      r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
                      (float_of_int (p.Gpusim.Isa.shared_doubles * 8) /. 1024.)
                      c.Singe.Compile.lowered.Singe.Lower.spill_bytes_per_thread
                | Error d ->
                    Printf.sprintf "  %-10s does not fit (%s)\n" label
                      d.Singe.Diagnostics.message)
              [
                (Singe.Compile.Chem_staged, "staged");
                (Singe.Compile.Chem_mixed, "mixed");
                (Singe.Compile.Chem_recompute, "recompute");
              ]
          in
          List.iter print_string rows)
        (archs ()))
    [ ("dme", Chem.Mech_gen.dme ()) ];
  print_newline ()

let ablation_weights () =
  header
    "Ablation: domain hints vs greedy mapping weights (DME viscosity on \
     Kepler). The DSL's partitioning hints pin the mapping; without them \
     the greedy assignment must rediscover the structure from its \
     FLOP/register/locality weights alone.";
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let best = tune mech Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized arch in
  (let r = Singe.Compile.run best.Singe.Autotune.compiled ~total_points:32768 in
   Printf.printf "  %-28s %8.3e points/s\n%!" "domain hints (the DSL)"
     r.Singe.Compile.machine.Gpusim.Chip.points_per_sec);
  let rows =
    Sutil.Domain_pool.parallel_map
      (fun (weights, label) ->
        (* Hints pin most of the viscosity mapping; drop them so the greedy
           weights actually decide the assignment. *)
        let options =
          { best.Singe.Autotune.options with
            Singe.Compile.weights;
            respect_hints = false }
        in
        match
          Singe.Compile.compile ~memo:true mech Singe.Kernel_abi.Viscosity
            Singe.Compile.Warp_specialized options
        with
        | Ok c ->
            let r = Singe.Compile.run c ~total_points:32768 in
            let imb =
              let loads =
                Singe.Mapping.warp_flops c.Singe.Compile.dfg c.Singe.Compile.mapping
              in
              let mx = Array.fold_left max 0 loads
              and mn = Array.fold_left min max_int loads in
              float_of_int mx /. float_of_int (max 1 mn)
            in
            Printf.sprintf "  %-28s %8.3e points/s  (max/min warp FLOPs %.2f)\n"
              label r.Singe.Compile.machine.Gpusim.Chip.points_per_sec imb
        | Error d ->
            Printf.sprintf "  %-28s does not fit (%s)\n" label
              d.Singe.Diagnostics.message)
      [
      (Singe.Mapping.default_weights, "default (1.0/0.25/0.5)");
      ({ Singe.Mapping.w_flops = 1.0; w_regs = 0.0; w_locality = 0.0 }, "flops only");
      ({ Singe.Mapping.w_flops = 0.0; w_regs = 1.0; w_locality = 0.0 }, "registers only");
      ({ Singe.Mapping.w_flops = 0.0; w_regs = 0.0; w_locality = 1.0 }, "locality only");
      ({ Singe.Mapping.w_flops = 1.0; w_regs = 1.0; w_locality = 1.0 }, "uniform");
    ]
  in
  List.iter print_string rows;
  print_newline ()

let model_accuracy () =
  header
    "Model accuracy: analytic performance model (Perf_model) vs simulator, \
     predicted and measured SM cycles per kernel/version";
  let mechs =
    if fast () then [ Chem.Mech_gen.dme () ]
    else [ Chem.Mech_gen.dme (); Chem.Mech_gen.heptane () ]
  in
  let arch = Gpusim.Arch.kepler_k20c in
  let points = 32768 in
  let configs =
    List.concat_map
      (fun mech ->
        List.concat_map
          (fun kernel ->
            List.map
              (fun version -> (mech, kernel, version))
              [ Singe.Compile.Warp_specialized; Singe.Compile.Baseline ])
          [
            Singe.Kernel_abi.Viscosity;
            Singe.Kernel_abi.Diffusion;
            Singe.Kernel_abi.Chemistry;
            Singe.Kernel_abi.Stencil Singe.Stencil_pipe.Edge3;
            Singe.Kernel_abi.Stencil Singe.Stencil_pipe.Unsharp2;
          ])
      mechs
  in
  Printf.printf "  %-8s %-10s %-5s %12s %12s %7s  %s\n" "mech" "kernel"
    "vers" "predicted" "simulated" "err" "binding";
  let rows =
    Sutil.Domain_pool.parallel_map
      (fun (mech, kernel, version) ->
        let options = Singe.Target.options arch kernel in
        let c = compiled mech kernel version options in
        let pred = Singe.Perf_model.predict c ~total_points:points in
        let r = Singe.Compile.run c ~total_points:points in
        let measured =
          float_of_int r.Singe.Compile.machine.Gpusim.Chip.sm_cycles
        in
        let err =
          Singe.Perf_model.rel_err
            ~predicted:pred.Singe.Perf_model.cycles ~measured
        in
        ( err,
          Printf.sprintf "  %-8s %-10s %-5s %12.0f %12.0f %6.1f%%  %s\n"
            mech.Chem.Mechanism.name
            (Singe.Kernel_abi.kernel_name kernel)
            (match version with
            | Singe.Compile.Warp_specialized -> "ws"
            | Singe.Compile.Baseline -> "base"
            | Singe.Compile.Naive_warp_specialized -> "naive")
            pred.Singe.Perf_model.cycles measured (100.0 *. err)
            pred.Singe.Perf_model.binding ))
      configs
  in
  List.iter (fun (_, s) -> print_string s) rows;
  let worst = List.fold_left (fun a (e, _) -> Float.max a e) 0.0 rows in
  Printf.printf "  worst relative error: %.1f%%\n" (100.0 *. worst);
  print_newline ()

let ablation_batches () =
  header
    "Ablation (§6.2): constant-load amortization across streaming batches \
     (DME diffusion on Kepler)";
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let best = tune mech Singe.Kernel_abi.Diffusion Singe.Compile.Warp_specialized arch in
  let rows =
    Sutil.Domain_pool.parallel_map
      (fun points ->
        let r =
          Singe.Compile.run best.Singe.Autotune.compiled ~total_points:points
        in
        Printf.sprintf "  %8d points: %10.3e points/s (%5.1f GFLOPS)\n" points
          r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
          r.Singe.Compile.machine.Gpusim.Chip.gflops)
      [ 416; 832; 1664; 3328; 6656; 13312; 32768; 262144 ]
  in
  List.iter print_string rows;
  print_newline ()

let ablation_exchange () =
  header
    "Ablation: shuffle-exchange superoptimizer (same-warp shared-memory \
     round-trips rewritten into register forwards and lane-shuffle \
     programs), DME warp-specialized on Kepler, 32^3 points";
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  Printf.printf "  %-10s %11s %11s %7s %8s %6s %8s %9s %9s\n" "kernel"
    "off-cycles" "on-cycles" "saved" "rewrites" "trips" "shuffles" "shmem-off"
    "shmem-on";
  let rows =
    Sutil.Domain_pool.parallel_map
      (fun kernel ->
        let eval synth =
          let options =
            { (Singe.Target.options arch kernel) with
              Singe.Compile.synth_exchange = Some synth }
          in
          let c = compiled mech kernel Singe.Compile.Warp_specialized options in
          (c, Singe.Compile.run c ~total_points:32768)
        in
        let c_on, r_on = eval true in
        let _, r_off = eval false in
        let cycles (r : Singe.Compile.run_result) =
          r.Singe.Compile.machine.Gpusim.Chip.sm_cycles
        in
        let ex = c_on.Singe.Compile.lowered.Singe.Lower.exchange in
        let kb (c : Singe.Compile.t) =
          float_of_int
            (c.Singe.Compile.lowered.Singe.Lower.program
               .Gpusim.Isa.shared_doubles * 8)
          /. 1024.
        in
        let c_off, _ = eval false in
        Printf.sprintf
          "  %-10s %11d %11d %6.2f%% %8d %6d %8d %8.1fK %8.1fK\n"
          (Singe.Kernel_abi.kernel_name kernel)
          (cycles r_off) (cycles r_on)
          (100.0
          *. float_of_int (cycles r_off - cycles r_on)
          /. Float.max 1.0 (float_of_int (cycles r_off)))
          ex.Singe.Shuffle_synth.sites_rewritten
          ex.Singe.Shuffle_synth.round_trips_removed
          ex.Singe.Shuffle_synth.shuffle_steps (kb c_off) (kb c_on))
      [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion;
        Singe.Kernel_abi.Chemistry ]
  in
  List.iter print_string rows;
  print_newline ()

let chip_scaling () =
  header
    "Chip scaling: DME viscosity throughput vs SM count on Kepler (fixed \
     grid, greedy CTA dispatch, shared DRAM arbiter)";
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let points = if fast () then 262144 else 2097152 in
  let c =
    compiled mech Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized
      (Singe.Target.options arch Singe.Kernel_abi.Viscosity)
  in
  Printf.printf "  %-6s %14s %9s %10s %10s %9s\n" "SMs" "points/s" "speedup"
    "DRAM-util" "throttle" "imbal";
  let sm_counts =
    List.filter
      (fun n -> n <= arch.Gpusim.Arch.n_sms)
      [ 1; 2; 4; 8; arch.Gpusim.Arch.n_sms ]
  in
  let rows =
    Sutil.Domain_pool.parallel_map
      (fun n_sms ->
        let r = Singe.Compile.run c ~total_points:points ~n_sms in
        let m = r.Singe.Compile.machine in
        let ch = m.Gpusim.Chip.chip in
        ( n_sms,
          m.Gpusim.Chip.points_per_sec,
          ch.Gpusim.Chip.contention.Gpusim.Chip.dram_util,
          ch.Gpusim.Chip.contention.Gpusim.Chip.throttle_max,
          Gpusim.Chip.dispatch_imbalance ch ))
      (List.sort_uniq compare sm_counts)
  in
  let base =
    match rows with (_, t, _, _, _) :: _ -> t | [] -> assert false
  in
  List.iter
    (fun (n_sms, pps, util, thr, imb) ->
      Printf.printf "  %-6d %14.4g %8.2fx %9.0f%% %9.2fx %8.1f%%\n" n_sms pps
        (pps /. base) (100.0 *. util) thr (100.0 *. imb))
    rows;
  print_newline ()

let partition_search () =
  header
    "Partition search: hand vs searched producer/consumer split\n\
     warp-specialized kernels on Kepler; SM cycles at 32^3 points";
  let arch = Gpusim.Arch.kepler_k20c in
  (* Fast mode stops at the analytic ranking; the full figure confirms
     every winner by simulation. *)
  let simulate = not (fast ()) in
  Printf.printf "  %-8s %-10s %12s %12s %7s %9s  %s\n" "mech" "kernel" "hand"
    "searched" "gain" "gate" "winner";
  List.iter
    (fun mech ->
      List.iter
        (fun kernel ->
          let base = Singe.Target.options ~n_warps:8 arch kernel in
          match
            Singe.Partition_search.search ~simulate mech kernel
              Singe.Compile.Warp_specialized ~base ()
          with
          | Error d ->
              Printf.printf "  %-8s %-10s skipped: %s\n"
                mech.Chem.Mechanism.name
                (Singe.Kernel_abi.kernel_name kernel)
                (Singe.Diagnostics.to_string d)
          | Ok o ->
              let gain =
                100.0
                *. (o.Singe.Partition_search.hand_cycles
                   -. o.Singe.Partition_search.winner_cycles)
                /. Float.max 1.0 o.Singe.Partition_search.hand_cycles
              in
              Printf.printf "  %-8s %-10s %12.0f %12.0f %6.1f%% %3d/%d/%-3d  %s\n"
                mech.Chem.Mechanism.name
                (Singe.Kernel_abi.kernel_name kernel)
                o.Singe.Partition_search.hand_cycles
                o.Singe.Partition_search.winner_cycles gain
                o.Singe.Partition_search.searched
                o.Singe.Partition_search.gated
                (List.length o.Singe.Partition_search.rejections)
                (match o.Singe.Partition_search.winner_spec with
                | Some _ ->
                    Format.asprintf "%a" Singe.Partition_search.pp_candidate
                      o.Singe.Partition_search.winner
                | None -> "hand mapping retained"))
        [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion;
          Singe.Kernel_abi.Chemistry ])
    [ Chem.Mech_gen.dme (); Chem.Mech_gen.heptane () ];
  Printf.printf
    "  (gate column: candidates scored / reached the gate / rejected; every \
     winner passed the static deadlock verifier%s)\n"
    (if simulate then " and was confirmed by simulation" else "");
  print_newline ()

let stencil_overlap () =
  header
    "Stencil tiling: warp-overlapped (halo recompute, single-producer tile \
     handoffs) vs non-overlapped (cross-warp halo reads through shared \
     memory), hand band mapping vs searched partition\n\
     stencil pipelines on Kepler; SM cycles at 32^3 points";
  let mech = Chem.Mech_gen.dme () in
  let arch = Gpusim.Arch.kepler_k20c in
  let points = 32768 in
  Printf.printf "  %-10s %-14s %12s %12s %7s  %s\n" "pipeline" "tiling" "hand"
    "auto" "gain" "winner";
  List.iter
    (fun id ->
      let kernel = Singe.Kernel_abi.Stencil id in
      List.iter
        (fun overlap ->
          let base =
            { (Singe.Target.options arch kernel) with
              Singe.Compile.stencil_overlap = overlap }
          in
          let cycles options =
            let c = compiled mech kernel Singe.Compile.Warp_specialized options in
            let r = Singe.Compile.run c ~total_points:points in
            float_of_int r.Singe.Compile.machine.Gpusim.Chip.sm_cycles
          in
          let hand = cycles base in
          match
            Singe.Partition_search.search ~simulate:false mech kernel
              Singe.Compile.Warp_specialized ~base ()
          with
          | Ok o ->
              let resolved = o.Singe.Partition_search.winner in
              let auto = cycles resolved in
              let gain = 100.0 *. (hand -. auto) /. Float.max 1.0 hand in
              Printf.printf "  %-10s %-14s %12.0f %12.0f %6.1f%%  %s\n"
                (Singe.Stencil_pipe.id_name id)
                (if overlap then "overlapped" else "non-overlapped")
                hand auto gain
                (match resolved.Singe.Compile.partition with
                | Singe.Compile.Partition_auto spec ->
                    Format.asprintf "%a" Singe.Mapping.pp_auto_spec spec
                | Singe.Compile.Partition_hand -> "hand mapping retained")
          | Error d ->
              Printf.printf "  %-10s %-14s %12.0f %12s  search rejected: %s\n"
                (Singe.Stencil_pipe.id_name id)
                (if overlap then "overlapped" else "non-overlapped")
                hand "-"
                (Singe.Diagnostics.to_string d))
        [ true; false ])
    Singe.Stencil_pipe.all_ids;
  print_newline ()

let registry =
  [
    ("fig3", fig3);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("stall-breakdown", stall_breakdown);
    ("ablation-barriers", ablation_barriers);
    ("ablation-exp-constants", ablation_exp_constants);
    ("ablation-chem-comm", ablation_chem_comm);
    ("ablation-weights", ablation_weights);
    ("ablation-batches", ablation_batches);
    ("ablation-exchange", ablation_exchange);
    ("model-accuracy", model_accuracy);
    ("chip-scaling", chip_scaling);
    ("partition-search", partition_search);
    ("stencil-overlap", stencil_overlap);
  ]

let all () = List.iter (fun (_, f) -> f ()) registry
