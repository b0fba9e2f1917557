(* The Chip layer: greedy CTA dispatch, the shared DRAM arbiter, per-SM
   clock skew, the pin-run batch extrapolation, and the structured
   occupancy rejections that replaced [Machine.occupancy]'s [failwith]. *)

let dme = Chem.Mech_gen.dme
let arch = Gpusim.Arch.kepler_k20c

let compile ?(kernel = Singe.Kernel_abi.Viscosity) () =
  Singe.Compile.compile_cached (dme ()) kernel
    Singe.Compile.Warp_specialized
    (Singe.Compile.default_options arch)

let program c = c.Singe.Compile.lowered.Singe.Lower.program

(* Synthetic round costs for the pure scheduler tests: every full round
   costs the same, the tail is proportionally cheaper. *)
let round_cycles k = 1000.0 *. float_of_int k /. 4.0
let no_bytes _ = 0.0

let sched ?(n_sms = 4) ?(skew = 0.0) ?(resident = 4) ?(ctas = 32)
    ?(round_dram_bytes = no_bytes) ?(dram_peak_bpc = 100.0)
    ?(spill_in_l2 = false) () =
  Gpusim.Chip.schedule ~n_sms ~skew ~resident ~ctas ~round_cycles
    ~round_dram_bytes ~dram_peak_bpc ~spill_in_l2

let total_ctas (s : Gpusim.Chip.schedule) =
  Array.fold_left
    (fun acc (st : Gpusim.Chip.sm_stat) -> acc + st.Gpusim.Chip.sm_ctas)
    0 s.Gpusim.Chip.sms

(* ---- pure scheduler: dispatch, conservation, determinism, skew ---- *)

let test_dispatch_conservation () =
  (* 32 CTAs at 4 resident = 8 rounds over 4 SMs: 2 rounds each, no
     tail, perfectly balanced. *)
  let s = sched () in
  Alcotest.(check int) "every CTA dispatched" 32 (total_ctas s);
  Alcotest.(check int) "rounds" 8 s.Gpusim.Chip.rounds_total;
  Alcotest.(check int) "no tail" 0 s.Gpusim.Chip.tail_ctas;
  Alcotest.(check (float 1e-9)) "balanced: zero imbalance" 0.0
    (Gpusim.Chip.dispatch_imbalance s);
  Alcotest.(check (float 1e-9)) "balanced: zero spread" 0.0
    (Gpusim.Chip.cycle_spread s);
  (* Two rounds of 1000 cycles back to back on every SM. *)
  Alcotest.(check (float 1e-6)) "makespan = 2 rounds" 2000.0
    s.Gpusim.Chip.makespan_cycles;
  (* A partial wave: 33 CTAs = 8 full rounds + a 1-CTA tail round. The
     tail is genuinely scheduled (9 rounds), not averaged away. *)
  let s = sched ~ctas:33 () in
  Alcotest.(check int) "tail CTAs" 1 s.Gpusim.Chip.tail_ctas;
  Alcotest.(check int) "rounds with tail" 9 s.Gpusim.Chip.rounds_total;
  Alcotest.(check int) "every CTA dispatched (tail)" 33 (total_ctas s);
  Alcotest.(check bool) "tail round extends the makespan" true
    (s.Gpusim.Chip.makespan_cycles > 2000.0);
  (* The old fractional-waves model would have charged
     33/16 waves x 1000 = 2062.5 cycles; the real dispatcher pays a
     whole extra (cheap) tail round on one SM. *)
  Alcotest.(check bool) "dispatcher >= fractional waves" true
    (s.Gpusim.Chip.makespan_cycles >= 33.0 /. 16.0 *. 1000.0)

let test_scheduler_determinism () =
  let a = sched ~ctas:37 ~skew:0.15 () in
  let b = sched ~ctas:37 ~skew:0.15 () in
  Alcotest.(check bool) "schedules identical" true (a = b);
  (* End to end: a real 4-SM launch (the warp-specialized grid at 32768
     points is min 1024 (points/32) CTAs) run serially and on two
     concurrent domains yields the same machine snapshot, and dispatches
     every CTA. *)
  let c =
    Singe.Compile.compile_cached (dme ()) Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized
      (Singe.Target.options ~n_warps:8 arch Singe.Kernel_abi.Viscosity)
  in
  let launch () =
    (Singe.Compile.run ~check:false c ~total_points:32768 ~n_sms:4)
      .Singe.Compile.machine
  in
  let serial = launch () in
  List.iter
    (fun m -> Alcotest.(check bool) "concurrent = serial" true (m = serial))
    (Sutil.Domain_pool.parallel_map ~jobs:2 launch [ (); () ]);
  let ch = serial.Gpusim.Machine.chip in
  Alcotest.(check int) "4 SMs dispatched" 4 ch.Gpusim.Chip.n_sms;
  Alcotest.(check int) "every CTA of the launch dispatched" 1024
    (total_ctas ch);
  Alcotest.(check bool) "makespan positive" true
    (ch.Gpusim.Chip.makespan_cycles > 0.0)

let test_skew_imbalance () =
  let flat = sched () in
  let skewed = sched ~skew:0.2 () in
  Alcotest.(check bool) "skew stretches the makespan" true
    (skewed.Gpusim.Chip.makespan_cycles > flat.Gpusim.Chip.makespan_cycles);
  Alcotest.(check bool) "skew spreads SM finish times" true
    (Gpusim.Chip.cycle_spread skewed > 0.0);
  (* The slowest SM runs at factor 1 - skew/2; the makespan cannot
     exceed all rounds landing there. *)
  Alcotest.(check bool) "makespan below worst-case bound" true
    (skewed.Gpusim.Chip.makespan_cycles <= 8.0 *. 1000.0 /. 0.9 +. 1e-6);
  (* clock_factor is a linear ramp centred on 1. *)
  Alcotest.(check (float 1e-9)) "slowest factor" 0.9
    (Gpusim.Chip.clock_factor ~n_sms:4 ~skew:0.2 0);
  Alcotest.(check (float 1e-9)) "fastest factor" 1.1
    (Gpusim.Chip.clock_factor ~n_sms:4 ~skew:0.2 3);
  Alcotest.(check (float 1e-9)) "single SM never skews" 1.0
    (Gpusim.Chip.clock_factor ~n_sms:1 ~skew:0.2 0)

(* ---- the arbiter: bandwidth-bound scaling is sub-linear ---- *)

let test_bandwidth_throttle () =
  (* Each full round wants 60 bytes/cycle of a 100 bytes/cycle chip
     budget: one SM streams unthrottled, four SMs demand 240 and are
     stretched by 2.4x. *)
  let bytes k = 60.0 *. round_cycles k in
  let t1 =
    sched ~n_sms:1 ~round_dram_bytes:bytes ()
  in
  let t4 = sched ~n_sms:4 ~round_dram_bytes:bytes () in
  Alcotest.(check (float 1e-6)) "one SM unthrottled" 1.0
    t1.Gpusim.Chip.contention.Gpusim.Chip.throttle_max;
  Alcotest.(check (float 1e-6)) "four SMs throttled 2.4x" 2.4
    t4.Gpusim.Chip.contention.Gpusim.Chip.throttle_max;
  let speedup =
    t1.Gpusim.Chip.makespan_cycles /. t4.Gpusim.Chip.makespan_cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "bandwidth-bound speedup %.2f sub-linear" speedup)
    true
    (speedup < 4.0 -. 1e-6);
  (* Saturated: the makespan is exactly total bytes over peak
     bandwidth (8 rounds x 60 B/cyc x 1000 cyc / 100 B/cyc). *)
  Alcotest.(check (float 1e-3)) "makespan = total bytes / peak" 4800.0
    t4.Gpusim.Chip.makespan_cycles;
  Alcotest.(check (float 1e-6)) "DRAM fully utilized" 1.0
    t4.Gpusim.Chip.contention.Gpusim.Chip.dram_util;
  (* Spill-in-L2 exemption: the same schedule with traffic declared
     L2-resident must not throttle (the bytes never reach DRAM). *)
  let exempt =
    sched ~n_sms:4 ~round_dram_bytes:no_bytes ~spill_in_l2:true ()
  in
  Alcotest.(check (float 1e-6)) "L2-served traffic unthrottled" 1.0
    exempt.Gpusim.Chip.contention.Gpusim.Chip.throttle_max

(* ---- whole-launch runs: bit-identity and extrapolation ---- *)

let test_single_sm_identity () =
  (* The per-SM core must be untouched by the chip layer: the same
     launch at 1 and 13 SMs simulates the identical SM-round (cycles,
     counters, outputs); only the chip-level aggregation differs. *)
  let c = compile () in
  let r1 = Singe.Compile.run c ~total_points:8192 ~n_sms:1 in
  let r13 = Singe.Compile.run c ~total_points:8192 ~n_sms:13 in
  let m1 = r1.Singe.Compile.machine and m13 = r13.Singe.Compile.machine in
  Alcotest.(check int) "sm_cycles identical" m1.Gpusim.Machine.sm_cycles
    m13.Gpusim.Machine.sm_cycles;
  Alcotest.(check bool) "sim counters identical" true
    (m1.Gpusim.Machine.sim.Gpusim.Sm.counters
    = m13.Gpusim.Machine.sim.Gpusim.Sm.counters);
  Alcotest.(check (float 1e-12)) "numerical outputs identical"
    r1.Singe.Compile.max_rel_err r13.Singe.Compile.max_rel_err;
  (* And the single-SM schedule is rounds run back to back: makespan =
     rounds x the full-round cycles (no tail here: 256 CTAs divide). *)
  let ch = m1.Gpusim.Machine.chip in
  Alcotest.(check int) "one SM" 1 ch.Gpusim.Chip.n_sms;
  Alcotest.(check int) "no tail" 0 ch.Gpusim.Chip.tail_ctas;
  Alcotest.(check (float 1e-6)) "serial makespan"
    (float_of_int
       (ch.Gpusim.Chip.rounds_total * m1.Gpusim.Machine.sm_cycles))
    ch.Gpusim.Chip.makespan_cycles;
  (* Determinism of the whole path. *)
  let r1' = Singe.Compile.run c ~total_points:8192 ~n_sms:1 in
  Alcotest.(check bool) "rerun bit-identical" true
    (r1.Singe.Compile.machine.Gpusim.Machine.chip
    = r1'.Singe.Compile.machine.Gpusim.Machine.chip)

let test_extrapolation_exact () =
  (* Pin-run extrapolation: for a launch streaming more batches than
     [max_sim_batches], the steady-state pin pair must reproduce the
     full simulation EXACTLY — diffusion's per-batch cost settles
     within the simulated window, so the extrapolation has no
     residual. *)
  let c = compile ~kernel:Singe.Kernel_abi.Diffusion () in
  let p = program c in
  let occ = Gpusim.Machine.occupancy arch p in
  let resident = occ.Gpusim.Machine.resident_ctas in
  let batches = 11 in
  let l =
    {
      Gpusim.Machine.program = p;
      total_points = resident * 32 * batches;
      ctas = resident;
    }
  in
  (* One round (ctas = resident), one SM: makespan IS the round cost. *)
  let extrapolated = Gpusim.Machine.run ~n_sms:1 arch l in
  let full = Gpusim.Machine.run ~max_sim_batches:batches ~n_sms:1 arch l in
  Alcotest.(check bool) "launch really extrapolates" true
    (extrapolated.Gpusim.Machine.sim.Gpusim.Sm.cycles
    < full.Gpusim.Machine.sim.Gpusim.Sm.cycles);
  Alcotest.(check (float 0.0)) "prologue + body x batches exact"
    (float_of_int full.Gpusim.Machine.sim.Gpusim.Sm.cycles)
    extrapolated.Gpusim.Machine.chip.Gpusim.Chip.makespan_cycles

let test_tail_wave_regression () =
  (* A grid of 4 full waves + 1 CTA on 4 SMs. The old model charged a
     fractional wave (ctas / (resident x n_sms)); the dispatcher pays a
     real tail round, so the new makespan is never below the old
     estimate (and the tail round is genuinely simulated). *)
  let c = compile () in
  let p = program c in
  let occ = Gpusim.Machine.occupancy arch p in
  let resident = occ.Gpusim.Machine.resident_ctas in
  let n_sms = 4 in
  let ctas = (resident * n_sms) + 1 in
  let batches = 2 in
  let l =
    {
      Gpusim.Machine.program = p;
      total_points = ctas * 32 * batches;
      ctas;
    }
  in
  let r = Gpusim.Machine.run ~n_sms arch l in
  let ch = r.Gpusim.Machine.chip in
  Alcotest.(check int) "tail of one CTA" 1 ch.Gpusim.Chip.tail_ctas;
  Alcotest.(check bool) "tail round simulated" true
    (r.Gpusim.Machine.tail_sim <> None);
  let old_waves =
    float_of_int ctas /. float_of_int (resident * n_sms)
  in
  let old_total = float_of_int r.Gpusim.Machine.sm_cycles *. old_waves in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %.0f >= old fractional-waves %.0f"
       ch.Gpusim.Chip.makespan_cycles old_total)
    true
    (ch.Gpusim.Chip.makespan_cycles >= old_total -. 1e-6);
  (* Sanity ceiling: the tail can cost at most one extra full round. *)
  Alcotest.(check bool) "makespan <= 2 full rounds + tail" true
    (ch.Gpusim.Chip.makespan_cycles
    <= 2.0 *. float_of_int r.Gpusim.Machine.sm_cycles +. 1e-6)

(* ---- structured occupancy rejections (the old failwith paths) ---- *)

let test_occupancy_rejections () =
  let c = compile () in
  let p = program c in
  (* Per-thread register demand above the hardware maximum. *)
  let fat = { p with Gpusim.Isa.n_fregs = 400 } in
  (match Gpusim.Machine.occupancy arch fat with
  | _ -> Alcotest.fail "expected Occupancy_rejected (registers)"
  | exception Gpusim.Chip.Occupancy_rejected r -> (
      match r.Gpusim.Chip.kind with
      | Gpusim.Chip.Regs_per_thread { regs32; limit } ->
          Alcotest.(check bool) "demand above limit" true (regs32 > limit);
          Alcotest.(check bool) "message names the program" true
            (String.length (Gpusim.Chip.reject_message r) > 0)
      | Gpusim.Chip.Does_not_fit _ ->
          Alcotest.fail "wrong kind: expected Regs_per_thread"));
  (* Zero CTAs fit: shared memory exhausted. *)
  let hog =
    { p with Gpusim.Isa.shared_doubles = arch.Gpusim.Arch.shared_bytes_per_sm }
  in
  (match Gpusim.Machine.occupancy arch hog with
  | _ -> Alcotest.fail "expected Occupancy_rejected (shared)"
  | exception Gpusim.Chip.Occupancy_rejected r -> (
      match r.Gpusim.Chip.kind with
      | Gpusim.Chip.Does_not_fit { limited_by } ->
          Alcotest.(check string) "limited by shared memory" "shared memory"
            limited_by
      | Gpusim.Chip.Regs_per_thread _ ->
          Alcotest.fail "wrong kind: expected Does_not_fit"));
  (* The facade re-exports are the same exception. *)
  Alcotest.(check bool) "Machine.occupancy = Chip.occupancy" true
    (Gpusim.Machine.occupancy arch p = Gpusim.Chip.occupancy arch p)

let tests =
  [
    Alcotest.test_case "dispatch conservation + tail" `Quick
      test_dispatch_conservation;
    Alcotest.test_case "scheduler determinism" `Quick
      test_scheduler_determinism;
    Alcotest.test_case "clock skew" `Quick test_skew_imbalance;
    Alcotest.test_case "bandwidth throttle sub-linear" `Quick
      test_bandwidth_throttle;
    Alcotest.test_case "n_sms=1 bit-identity" `Quick test_single_sm_identity;
    Alcotest.test_case "pin-run extrapolation exact" `Quick
      test_extrapolation_exact;
    Alcotest.test_case "tail-wave vs fractional waves" `Quick
      test_tail_wave_regression;
    Alcotest.test_case "occupancy rejection kinds" `Quick
      test_occupancy_rejections;
  ]
