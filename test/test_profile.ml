(* Cycle-attribution profiler: the conservation invariant (every warp's
   buckets sum exactly to the run's cycle count) must hold on every
   shipped kernel; the Chrome trace export must be valid JSON with
   monotone timestamps; and turning the profiler on must not perturb the
   simulation in any observable way. *)

let dme = lazy (Chem.Mech_gen.dme ())
let heptane = lazy (Chem.Mech_gen.heptane ())
let arch = Gpusim.Arch.kepler_k20c
let points = 13 * 3 * 32

let options_for kernel =
  Singe.Target.options
    ~n_warps:(if kernel = Singe.Kernel_abi.Chemistry then 4 else 6)
    arch kernel

let compiled mech kernel =
  Singe.Compile.compile_cached mech kernel Singe.Compile.Warp_specialized
    (options_for kernel)

let run_profiled ?(timeline = 0) c =
  let r =
    Singe.Compile.run ~check:false c ~total_points:points
      ~profile:{ Gpusim.Sm.timeline_capacity = timeline }
  in
  match r.Singe.Compile.machine.Gpusim.Machine.sim.Gpusim.Sm.profile with
  | Some p -> (r, p)
  | None -> Alcotest.fail "profiled run returned no profile"

(* ---- conservation: buckets sum to cycles x warps, per warp ---- *)

let test_conservation_shipped () =
  List.iter
    (fun (mech_name, mech) ->
      List.iter
        (fun kernel ->
          let label =
            mech_name ^ " " ^ Singe.Kernel_abi.kernel_name kernel
          in
          let _, p = run_profiled (compiled (Lazy.force mech) kernel) in
          Alcotest.(check bool) (label ^ " has warps") true
            (Gpusim.Profile.n_warps p > 0);
          Array.iteri
            (fun w row ->
              Alcotest.(check int)
                (Printf.sprintf "%s warp %d sums to cycles" label w)
                p.Gpusim.Profile.cycles
                (Array.fold_left ( + ) 0 row))
            p.Gpusim.Profile.buckets;
          Alcotest.(check int) (label ^ " residual") 0
            (Gpusim.Profile.conservation_residual p);
          Alcotest.(check bool) (label ^ " conserved") true
            (Gpusim.Profile.conservation_ok p))
        [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion;
          Singe.Kernel_abi.Chemistry ])
    [ ("dme", dme); ("heptane", heptane) ]

(* ---- Chrome trace: valid JSON, monotone timestamps ---- *)

let check_json label s =
  match Sutil.Json_check.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.fail (label ^ ": " ^ e)

let test_chrome_trace_valid () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let _, p = run_profiled ~timeline:65536 c in
  Alcotest.(check bool) "spans recorded" true
    (Array.length p.Gpusim.Profile.timeline > 0);
  check_json "chrome trace" (Gpusim.Profile.to_chrome_trace p);
  check_json "profile json" (Sutil.Json.emit (Gpusim.Profile.to_json p));
  (* The trace emits spans sorted by start; mirror that sort and require
     non-decreasing ts with non-negative durations. *)
  let spans = Array.copy p.Gpusim.Profile.timeline in
  Array.sort
    (fun a b ->
      if a.Gpusim.Profile.sp_start <> b.Gpusim.Profile.sp_start then
        compare a.Gpusim.Profile.sp_start b.Gpusim.Profile.sp_start
      else
        compare
          (a.Gpusim.Profile.sp_warp, a.Gpusim.Profile.sp_stop)
          (b.Gpusim.Profile.sp_warp, b.Gpusim.Profile.sp_stop))
    spans;
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "span %d duration non-negative" i)
        true
        (s.Gpusim.Profile.sp_stop >= s.Gpusim.Profile.sp_start);
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "span %d ts monotone" i)
          true
          (s.Gpusim.Profile.sp_start
          >= spans.(i - 1).Gpusim.Profile.sp_start))
    spans;
  Alcotest.(check int) "nothing dropped at full capacity" 0
    p.Gpusim.Profile.timeline_dropped

let test_ring_truncation () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let _, p = run_profiled ~timeline:64 c in
  Alcotest.(check int) "ring filled" 64
    (Array.length p.Gpusim.Profile.timeline);
  Alcotest.(check bool) "older spans evicted" true
    (p.Gpusim.Profile.timeline_dropped > 0);
  (* A truncated ring must still export a valid trace. *)
  check_json "truncated chrome trace" (Gpusim.Profile.to_chrome_trace p)

(* ---- barrier wait histograms ---- *)

let test_bar_hist_sums () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let _, p = run_profiled c in
  Alcotest.(check bool) "some barrier saw a wait" true
    (p.Gpusim.Profile.bar_waits <> []);
  List.iter
    (fun (b : Gpusim.Profile.bar_wait) ->
      let label = Printf.sprintf "bar %d" b.Gpusim.Profile.bw_bar in
      Alcotest.(check bool) (label ^ " counted") true
        (b.Gpusim.Profile.bw_count > 0);
      Alcotest.(check int) (label ^ " hist sums to count")
        b.Gpusim.Profile.bw_count
        (Array.fold_left ( + ) 0 b.Gpusim.Profile.bw_hist);
      Alcotest.(check bool) (label ^ " max bounded by total") true
        (b.Gpusim.Profile.bw_max <= b.Gpusim.Profile.bw_total))
    p.Gpusim.Profile.bar_waits

(* ---- profiling must not perturb the simulation ---- *)

let test_profile_no_perturb () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Diffusion in
  let plain = Singe.Compile.run ~check:false c ~total_points:points in
  let profiled, _ = run_profiled ~timeline:4096 c in
  let sim (r : Singe.Compile.run_result) =
    r.Singe.Compile.machine.Gpusim.Machine.sim
  in
  Alcotest.(check int) "cycles identical"
    (sim plain).Gpusim.Sm.cycles
    (sim profiled).Gpusim.Sm.cycles;
  let cp = (sim plain).Gpusim.Sm.counters
  and cq = (sim profiled).Gpusim.Sm.counters in
  Alcotest.(check int) "issued" cp.Gpusim.Sm.issued cq.Gpusim.Sm.issued;
  Alcotest.(check int) "flops" cp.Gpusim.Sm.flops cq.Gpusim.Sm.flops;
  Alcotest.(check int) "barrier stalls" cp.Gpusim.Sm.barrier_stalls
    cq.Gpusim.Sm.barrier_stalls;
  Alcotest.(check int) "cta barrier stalls" cp.Gpusim.Sm.cta_barrier_stalls
    cq.Gpusim.Sm.cta_barrier_stalls;
  Alcotest.(check int) "icache stall cycles" cp.Gpusim.Sm.icache_stall_cycles
    cq.Gpusim.Sm.icache_stall_cycles;
  Alcotest.(check int) "ccache stall cycles" cp.Gpusim.Sm.ccache_stall_cycles
    cq.Gpusim.Sm.ccache_stall_cycles

(* The same on random programs: the random-DFG generator of the
   end-to-end property, each case lowered at two warp counts (hints folded
   into range) and simulated with and without the profiler. Cycles,
   counters and output memory must be identical, and every warp's buckets
   must sum to the cycle count. *)
let qcheck_profile_no_perturb_random =
  QCheck.Test.make ~count:30 ~name:"profiling does not perturb random programs"
    (QCheck.make (Test_singe.gen_dfg_with (QCheck.Gen.return 4)))
    (fun (_, n_loads, exprs, picks, hints, n_stores) ->
      List.for_all
        (fun n_warps ->
          let hints = List.map (fun h -> h mod n_warps) hints in
          let built =
            Test_singe.build_random_dfg (n_warps, n_loads, exprs, picks, hints, n_stores)
          in
          let lowered =
            Test_singe.lower_random_dfg ~strategy:Singe.Mapping.Mixed built
          in
          let plain = Test_singe.run_random_program lowered in
          let profiled =
            Test_singe.run_random_program ~profile:Gpusim.Sm.default_profile lowered
          in
          let sim (r : Gpusim.Machine.result) = r.Gpusim.Machine.sim in
          let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
          let same = function
            | true -> true
            | false -> QCheck.Test.fail_reportf "differs at %d warps" n_warps
          in
          same ((sim plain).Gpusim.Sm.cycles = (sim profiled).Gpusim.Sm.cycles)
          && same (bits (sim plain).Gpusim.Sm.counters = bits (sim profiled).Gpusim.Sm.counters)
          && same (bits plain.Gpusim.Machine.mem = bits profiled.Gpusim.Machine.mem)
          &&
          match (sim profiled).Gpusim.Sm.profile with
          | None -> QCheck.Test.fail_report "profiled run returned no profile"
          | Some p ->
              let cycles = (sim plain).Gpusim.Sm.cycles in
              p.Gpusim.Profile.cycles = cycles
              && Array.for_all
                   (fun row -> Array.fold_left ( + ) 0 row = cycles)
                   p.Gpusim.Profile.buckets)
        [ 2; 4 ])

(* ---- the once-per-fill counters lower-bound the per-warp buckets ----

   Counters charge each cache fill once; the profiler charges every warp
   that waits on the fill for its own wait, so summed over warps the
   profile can only exceed the counter. *)

let test_fill_counters_bound_buckets () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let r, p = run_profiled c in
  let counters =
    r.Singe.Compile.machine.Gpusim.Machine.sim.Gpusim.Sm.counters
  in
  let tot = Gpusim.Profile.bucket_totals p in
  Alcotest.(check bool) "icache bucket >= once-per-fill counter" true
    (tot.(Gpusim.Profile.icache) >= counters.Gpusim.Sm.icache_stall_cycles);
  Alcotest.(check bool) "ccache bucket >= once-per-fill counter" true
    (tot.(Gpusim.Profile.ccache) >= counters.Gpusim.Sm.ccache_stall_cycles)

let tests =
  [
    Alcotest.test_case "buckets conserve on every shipped kernel" `Slow
      test_conservation_shipped;
    Alcotest.test_case "chrome trace is valid and monotone" `Quick
      test_chrome_trace_valid;
    Alcotest.test_case "timeline ring truncates safely" `Quick
      test_ring_truncation;
    Alcotest.test_case "barrier histograms sum to their counts" `Quick
      test_bar_hist_sums;
    Alcotest.test_case "profiling does not perturb the simulation" `Quick
      test_profile_no_perturb;
    Alcotest.test_case "fill counters lower-bound cache buckets" `Quick
      test_fill_counters_bound_buckets;
    QCheck_alcotest.to_alcotest qcheck_profile_no_perturb_random;
  ]
