(* GPU-simulator tests: architecture constants, ISA validation, functional
   execution, named barriers (including deadlock detection), cache models,
   and occupancy. *)

open Gpusim

let empty_banks n_warps = Array.init n_warps (fun _ -> Array.init 32 (fun _ -> [||]))
let empty_ibanks n_warps = Array.init n_warps (fun _ -> Array.init 32 (fun _ -> [||]))

let base_program ?(n_warps = 2) ?(barriers = 2) ~body () =
  {
    Isa.name = "test";
    n_warps;
    n_fregs = 8;
    n_iregs = 1;
    shared_doubles = 128;
    local_doubles = 0;
    barriers_used = barriers;
    point_map = Isa.Thread_per_point;
    prologue = Isa.Instrs [];
    body;
    const_bank = empty_banks n_warps;
    param_bank = empty_ibanks n_warps;
    const_mem = [| 3.5 |];
    groups =
      [|
        { Isa.group_name = "a"; fields = 1 };
        { Isa.group_name = "out"; fields = 1 };
      |];
    exp_consts_in_registers = false;
  }

let run_program ?(points = 128) p ~fill =
  let ctas = points / (p.Isa.n_warps * 32) in
  Machine.run ~fill_inputs:fill Arch.kepler_k20c
    { Machine.program = p; total_points = points; ctas }

let test_arch_peaks () =
  Alcotest.(check (float 1.0)) "fermi peak" 513.9
    (Arch.peak_dp_gflops Arch.fermi_c2070);
  Alcotest.(check (float 1.0)) "kepler peak" 1173.1
    (Arch.peak_dp_gflops Arch.kepler_k20c);
  Alcotest.(check bool) "by_name" true (Arch.by_name "fermi" <> None);
  Alcotest.(check bool) "16 barriers" true
    (Arch.fermi_c2070.Arch.named_barriers_per_sm = 16
    && Arch.kepler_k20c.Arch.named_barriers_per_sm = 16)

let test_isa_validation () =
  let bad =
    base_program
      ~body:
        (Isa.Instrs
           [ Isa.Arith { op = Isa.Add; dst = 99; srcs = [| Isa.Sreg 0; Isa.Sreg 1 |]; pred = None } ])
      ()
  in
  (match Isa.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted out-of-range register");
  let bad2 =
    base_program
      ~body:(Isa.Instrs [ Isa.Bar_sync { bar = 7; count = 2 } ])
      ~barriers:2 ()
  in
  match Isa.validate bad2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted out-of-range barrier"

let test_functional_fma () =
  let p =
    base_program
      ~body:
        (Isa.Instrs
           [
             Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = true; pred = None };
             Isa.Arith { op = Isa.Fma; dst = 1; srcs = [| Isa.Sreg 0; Isa.Sconst 0; Isa.Simm 1.0 |]; pred = None };
             Isa.St_global { src = Isa.Sreg 1; group = 1; field = Isa.F_static 0; pred = None };
           ])
      ()
  in
  let r =
    run_program p ~fill:(fun mem n ->
        Memstate.set_field mem ~group:0 ~field:0
          (Array.init n (fun i -> float_of_int i)))
  in
  let out = Memstate.get_field r.Machine.mem ~group:1 ~field:0 in
  for i = 0 to r.Machine.simulated_points - 1 do
    Alcotest.(check (float 1e-12)) "fma" (Float.fma (float_of_int i) 3.5 1.0) out.(i)
  done

let test_barrier_producer_consumer () =
  (* Warp 0 produces through shared memory; warp 1 consumes after a named
     barrier. *)
  let p =
    base_program ~n_warps:2
      ~body:
        (Isa.Seq
           [
             Isa.If_warps
               { mask = 1;
                 body =
                   Isa.Instrs
                     [
                       Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = true; pred = None };
                       Isa.St_shared { src = Isa.Sreg 0; addr = Isa.sh_lane 0; pred = None };
                       Isa.Bar_arrive { bar = 0; count = 2 };
                     ] };
             Isa.If_warps
               { mask = 2;
                 body =
                   Isa.Instrs
                     [
                       Isa.Bar_sync { bar = 0; count = 2 };
                       Isa.Ld_shared { dst = 1; addr = Isa.sh_lane 0; pred = None };
                       Isa.Arith { op = Isa.Mul; dst = 2; srcs = [| Isa.Sreg 1; Isa.Simm 2.0 |]; pred = None };
                       Isa.St_global { src = Isa.Sreg 2; group = 1; field = Isa.F_static 0; pred = None };
                     ] };
           ])
      ()
  in
  let p = { p with Isa.point_map = Isa.Coop } in
  let r =
    run_program ~points:64 p ~fill:(fun mem n ->
        Memstate.set_field mem ~group:0 ~field:0
          (Array.init n (fun i -> float_of_int (i + 1))))
  in
  let out = Memstate.get_field r.Machine.mem ~group:1 ~field:0 in
  for i = 0 to r.Machine.simulated_points - 1 do
    Alcotest.(check (float 1e-12)) "relayed" (2.0 *. float_of_int (i + 1)) out.(i)
  done

let test_deadlock_detected () =
  (* A sync with no matching arrival must be caught, not spin forever. *)
  let p =
    base_program ~n_warps:2
      ~body:
        (Isa.If_warps
           { mask = 2; body = Isa.Instrs [ Isa.Bar_sync { bar = 0; count = 2 } ] })
      ()
  in
  let p = { p with Isa.point_map = Isa.Coop } in
  match run_program ~points:64 p ~fill:(fun _ _ -> ()) with
  | exception Sm.Simulation_fault f ->
      Alcotest.(check string)
        "barrier deadlock kind" "barrier deadlock"
        (Sm.fault_kind_name f.Sm.fault_kind);
      Alcotest.(check bool) "dumps the stuck warps" true (f.Sm.warp_dumps <> [])
  | _ -> Alcotest.fail "deadlock not detected"

let test_icache_streams () =
  let ic = Caches.Icache.create Arch.kepler_k20c in
  (* A sequential stream: first touch misses, the rest ride prefetch. *)
  let cold = Caches.Icache.access ic ~now:0 ~line:1000 in
  Alcotest.(check bool) "cold miss" true (cold >= 100);
  let costs = List.init 20 (fun i -> Caches.Icache.access ic ~now:(i * 200) ~line:(1001 + i)) in
  List.iter (fun c -> Alcotest.(check bool) "stream cheap" true (c < 20)) costs;
  (* Many concurrent streams exceed the tracker and each miss is cold. *)
  let ic2 = Caches.Icache.create Arch.kepler_k20c in
  let miss_count = ref 0 in
  for round = 0 to 19 do
    for stream = 0 to 7 do
      let line = (stream * 100000) + (round * 17) in
      if Caches.Icache.access ic2 ~now:(round * 100) ~line >= 100 then incr miss_count
    done
  done;
  Alcotest.(check bool) "8 strided streams thrash" true (!miss_count > 100)

let test_ccache_capacity () =
  let cc = Caches.Ccache.create Arch.kepler_k20c in
  (* 8 KB = 1024 slots (128 lines); a 512-slot working set is resident
     after the cold pass... *)
  for pass = 0 to 2 do
    for s = 0 to 511 do
      ignore (Caches.Ccache.access cc ~now:(pass * 100000) ~slot:s)
    done
  done;
  let st = Caches.Ccache.stats cc in
  Alcotest.(check bool) "small set resident" true (st.Caches.Ccache.misses <= 64);
  (* ...but a 2048-slot cyclic sweep misses every line every pass. *)
  let cc2 = Caches.Ccache.create Arch.kepler_k20c in
  for pass = 0 to 2 do
    for s = 0 to 2047 do
      ignore (Caches.Ccache.access cc2 ~now:(pass * 1000000) ~slot:s)
    done
  done;
  let st2 = Caches.Ccache.stats cc2 in
  Alcotest.(check bool) "oversized set thrashes" true
    (st2.Caches.Ccache.misses > 700)

let test_occupancy_limits () =
  let p = base_program ~n_warps:8 ~body:(Isa.Instrs []) () in
  let p = { p with Isa.n_fregs = 100; shared_doubles = 128; barriers_used = 0 } in
  let occ = Machine.occupancy Arch.kepler_k20c p in
  (* 8 warps * 32 threads * (2*100+1+10) regs32 > 64K: register-limited. *)
  Alcotest.(check string) "limited by registers" "registers" occ.Machine.limited_by;
  let p2 = { p with Isa.n_fregs = 8; shared_doubles = 4096 } in
  let occ2 = Machine.occupancy Arch.kepler_k20c p2 in
  Alcotest.(check string) "limited by shared" "shared memory" occ2.Machine.limited_by;
  (* Named barriers divide occupancy (the paper's footnote). *)
  let p3 = { p with Isa.n_fregs = 8; shared_doubles = 16; barriers_used = 16 } in
  let occ3 = Machine.occupancy Arch.kepler_k20c p3 in
  Alcotest.(check int) "16 barriers = 1 CTA" 1 occ3.Machine.resident_ctas

let test_batch_extrapolation () =
  (* A long streaming launch must agree with simulating it outright. *)
  let p =
    base_program ~n_warps:2
      ~body:
        (Isa.Instrs
           [
             Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = true; pred = None };
             Isa.Arith { op = Isa.Mul; dst = 1; srcs = [| Isa.Sreg 0; Isa.Simm 2.0 |]; pred = None };
             Isa.St_global { src = Isa.Sreg 1; group = 1; field = Isa.F_static 0; pred = None };
           ])
      ()
  in
  let fill mem n =
    Memstate.set_field mem ~group:0 ~field:0 (Array.init n float_of_int)
  in
  let launch = { Machine.program = p; total_points = 2048; ctas = 2 } in
  let full = Machine.run ~fill_inputs:fill ~max_sim_batches:1000 Arch.kepler_k20c launch in
  let extra = Machine.run ~fill_inputs:fill ~max_sim_batches:4 Arch.kepler_k20c launch in
  let rel =
    abs_float (full.Machine.time_s -. extra.Machine.time_s) /. full.Machine.time_s
  in
  Alcotest.(check bool) "within 15%" true (rel < 0.15)


(* Lane predicates that leave no lane or a single lane active. The
   validator accepts [Lane_lt 0]; such an instruction still issues and
   occupies its pipes like an unpredicated one, counts FLOPs for its
   active lanes only, and never evaluates an operand on an inactive lane:
   the shared addresses below are in range only on lane 31 (or on no
   lane), and slot 1000 lies past [const_mem]. *)
let test_empty_and_single_lane_predicates () =
  let saddr base = { Isa.s_base = base; s_warp_mul = 0; s_lane_mul = 1; s_ireg = Some 0; s_ireg_mul = 0 } in
  let program ~pred ~addr ~const =
    let p =
      base_program ~n_warps:1 ~barriers:0
        ~body:
          (Isa.Instrs
             [
               Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = true; pred = None };
               Isa.St_shared { src = Isa.Sreg 0; addr; pred };
               Isa.Arith { op = Isa.Add; dst = 1; srcs = [| Isa.Sshared addr; Isa.Sconst const |]; pred };
               Isa.Mov { dst = 2; src = Isa.Sshared addr; pred };
               Isa.St_global { src = Isa.Sreg 1; group = 1; field = Isa.F_static 0; pred = None };
               Isa.St_global { src = Isa.Sreg 2; group = 1; field = Isa.F_static 1; pred = None };
             ])
        ()
    in
    { p with Isa.groups = [| { Isa.group_name = "a"; fields = 1 }; { Isa.group_name = "out"; fields = 2 } |] }
  in
  let run p =
    run_program ~points:32 p ~fill:(fun mem n ->
        Memstate.set_field mem ~group:0 ~field:0 (Array.init n float_of_int))
  in
  let full = run (program ~pred:None ~addr:(saddr 0) ~const:0) in
  let none = run (program ~pred:(Some (Isa.Lane_lt 0)) ~addr:(saddr (-1000)) ~const:1000) in
  let one = run (program ~pred:(Some (Isa.Lane_eq 31)) ~addr:(saddr (-31)) ~const:0) in
  let c (r : Machine.result) = r.Machine.sim.Sm.counters in
  List.iter
    (fun (name, r) ->
      Alcotest.(check int) (name ^ ": cycles as unpredicated") full.Machine.sm_cycles r.Machine.sm_cycles;
      Alcotest.(check int) (name ^ ": issued") (c full).Sm.issued (c r).Sm.issued;
      Alcotest.(check int) (name ^ ": dp instrs") 1 (c r).Sm.dp_warp_instrs;
      Alcotest.(check int) (name ^ ": shared accesses") 3 (c r).Sm.shared_accesses;
      Alcotest.(check int) (name ^ ": no conflicts") 0 (c r).Sm.bank_conflict_slots)
    [ ("lane<0", none); ("lane==31", one) ];
  Alcotest.(check int) "full warp flops" 32 (c full).Sm.flops;
  Alcotest.(check int) "no lane, no flops" 0 (c none).Sm.flops;
  Alcotest.(check int) "one lane, one flop" 1 (c one).Sm.flops;
  let out (r : Machine.result) f = Memstate.get_field r.Machine.mem ~group:1 ~field:f in
  for lane = 0 to 31 do
    let l = float_of_int lane in
    Alcotest.(check (float 0.0)) "full add" (l +. 3.5) (out full 0).(lane);
    Alcotest.(check (float 0.0)) "full mov" l (out full 1).(lane);
    Alcotest.(check (float 0.0)) "lane<0 add untouched" 0.0 (out none 0).(lane);
    Alcotest.(check (float 0.0)) "lane<0 mov untouched" 0.0 (out none 1).(lane);
    Alcotest.(check (float 0.0)) "lane==31 add" (if lane = 31 then 31.0 +. 3.5 else 0.0) (out one 0).(lane);
    Alcotest.(check (float 0.0)) "lane==31 mov" (if lane = 31 then 31.0 else 0.0) (out one 1).(lane)
  done;
  Alcotest.(check (float 0.0)) "lane<0 stores nothing" 0.0
    (Array.fold_left (fun a v -> a +. abs_float v) 0.0 none.Machine.mem.Memstate.shared.(0));
  Alcotest.(check (float 0.0)) "lane==31 stores its value" 31.0 one.Machine.mem.Memstate.shared.(0).(0)

(* A warp blocked on a long-latency load is not a deadlock while every
   other warp waits on the barrier it will arrive at; the run finishes.
   When the last warp can never arrive, the deadlock is still reported, at
   a pinned cycle. *)
let test_blocked_warp_not_deadlock () =
  let program last =
    let p =
      base_program ~n_warps:4 ~barriers:2
        ~body:
          (Isa.Seq
             [
               Isa.If_warps { mask = 0b0111; body = Isa.Instrs [ Isa.Bar_sync { bar = 0; count = 4 } ] };
               Isa.If_warps
                 {
                   mask = 0b1000;
                   body =
                     Isa.Instrs
                       ([
                          Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = false; pred = None };
                          Isa.Arith { op = Isa.Exp; dst = 1; srcs = [| Isa.Sreg 0 |]; pred = None };
                          Isa.Arith { op = Isa.Mul; dst = 2; srcs = [| Isa.Sreg 1; Isa.Simm 2.0 |]; pred = None };
                        ]
                       @ last);
                 };
             ])
        ()
    in
    { p with Isa.point_map = Isa.Coop }
  in
  let fill mem n = Memstate.set_field mem ~group:0 ~field:0 (Array.make n 0.5) in
  let ok = run_program ~points:128 (program [ Isa.Bar_arrive { bar = 0; count = 4 } ]) ~fill in
  Alcotest.(check bool) "finishes" true (ok.Machine.sm_cycles > 0);
  match run_program ~points:128 (program [ Isa.Bar_sync { bar = 1; count = 2 } ]) ~fill with
  | exception Sm.Simulation_fault f ->
      Alcotest.(check string) "kind" "barrier deadlock" (Sm.fault_kind_name f.Sm.fault_kind);
      Alcotest.(check int) "fault cycle" 633 f.Sm.fault_cycle
  | _ -> Alcotest.fail "deadlock not detected"

let tests =
  [
    Alcotest.test_case "arch peaks" `Quick test_arch_peaks;
    Alcotest.test_case "isa validation" `Quick test_isa_validation;
    Alcotest.test_case "functional fma" `Quick test_functional_fma;
    Alcotest.test_case "named barrier producer/consumer" `Quick test_barrier_producer_consumer;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
    Alcotest.test_case "icache stream model" `Quick test_icache_streams;
    Alcotest.test_case "ccache capacity" `Quick test_ccache_capacity;
    Alcotest.test_case "occupancy limits" `Quick test_occupancy_limits;
    Alcotest.test_case "batch extrapolation" `Quick test_batch_extrapolation;
    Alcotest.test_case "empty and single-lane predicates" `Quick
      test_empty_and_single_lane_predicates;
    Alcotest.test_case "blocked warp is not a deadlock" `Quick
      test_blocked_warp_not_deadlock;
  ]
