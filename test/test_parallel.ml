(* Multicore determinism: the Domain_pool fan-out must be observably
   identical to the serial sweep (result order, exception choice,
   simulated cycles, autotune winners), and the SM scheduler's
   event-queue fast paths must preserve the original cycle-stepping
   semantics (exact fast-forward, live deadlock detection). *)

open Gpusim

(* ---- Domain_pool ---- *)

let test_map_order () =
  let xs = List.init 100 Fun.id in
  let f x = (x * 7) mod 31 in
  let serial = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d equals serial" jobs)
        serial
        (Sutil.Domain_pool.parallel_map ~jobs f xs))
    [ 1; 2; 4 ]

exception Boom of int

let test_map_exception_order () =
  (* Items 3 and 7 fail; whichever worker hits its failure first, the
     caller must see the input-order-first one (3). *)
  let f x = if x = 3 || x = 7 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Sutil.Domain_pool.parallel_map ~jobs f (List.init 10 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d raises first failure" jobs)
            3 n)
    [ 1; 2; 4 ]

let test_map_nested_serial () =
  (* A parallel_map from inside a worker degrades to List.map, so the
     domain count stays bounded and the result is still in order. The
     degradation is counted, so a long-lived driver can see sweeps that
     accidentally stack parallelism. *)
  let before = Sutil.Domain_pool.nested_serial_calls () in
  let inner x = Sutil.Domain_pool.parallel_map ~jobs:4 (fun y -> x + y) [ 1; 2; 3 ] in
  let got = Sutil.Domain_pool.parallel_map ~jobs:2 inner [ 10; 20 ] in
  Alcotest.(check (list (list int))) "nested" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] got;
  Alcotest.(check int)
    "nested degradations counted" (before + 2)
    (Sutil.Domain_pool.nested_serial_calls ());
  Alcotest.(check int) "no leaked domains" 0 (Sutil.Domain_pool.live_domains ())

(* ---- strict job-count validation (--jobs / SINGE_JOBS) ---- *)

let test_jobs_of_string () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "%S parses" s)
        expect
        (match Sutil.Domain_pool.jobs_of_string s with
        | Ok n -> n
        | Error m -> Alcotest.failf "%S rejected: %s" s m))
    [ ("1", 1); ("4", 4); (" 8 ", 8); ("32", 32) ];
  List.iter
    (fun s ->
      match Sutil.Domain_pool.jobs_of_string s with
      | Ok n -> Alcotest.failf "%S accepted as %d" s n
      | Error _ -> ())
    [
      "0"; "-2"; "+3"; ""; "  "; "0x10"; "2_0"; "two"; "4.0";
      "99999999999999999999999999";
    ]

let test_env_jobs_rejected () =
  (* SINGE_JOBS garbage must raise the typed error, not silently fall
     back to some other parallelism. *)
  let orig = Sys.getenv_opt "SINGE_JOBS" in
  let restore () =
    (* There is no unsetenv in stdlib Unix: restore the original value,
       or pin the documented unset-default explicitly. *)
    Unix.putenv "SINGE_JOBS"
      (match orig with
      | Some v -> v
      | None -> string_of_int (Domain.recommended_domain_count ()))
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "SINGE_JOBS" "O2";
      (match Sutil.Domain_pool.default_jobs () with
      | n -> Alcotest.failf "SINGE_JOBS=O2 accepted as %d" n
      | exception Sutil.Domain_pool.Invalid_jobs msg ->
          Alcotest.(check bool)
            "message names the variable" true
            (String.length msg >= 10 && String.sub msg 0 10 = "SINGE_JOBS"));
      Unix.putenv "SINGE_JOBS" "0";
      match Sutil.Domain_pool.default_jobs () with
      | n -> Alcotest.failf "SINGE_JOBS=0 accepted as %d" n
      | exception Sutil.Domain_pool.Invalid_jobs _ -> ())

(* ---- simulated results across job counts ---- *)

let dme = lazy (Chem.Mech_gen.dme ())

let conductivity_result n_warps =
  let mech = Lazy.force dme in
  let arch = Arch.kepler_k20c in
  let options =
    { (Singe.Compile.default_options arch) with Singe.Compile.n_warps }
  in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile ~memo:true mech Singe.Kernel_abi.Conductivity
         Singe.Compile.Warp_specialized options)
  in
  let r = Singe.Compile.run ~check:false c ~total_points:8192 in
  let s = r.Singe.Compile.machine.Chip.sim in
  ( r.Singe.Compile.machine.Chip.sm_cycles,
    s.Sm.counters.Sm.issued,
    s.Sm.counters.Sm.flops,
    s.Sm.counters.Sm.barrier_stalls,
    s.Sm.counters.Sm.icache_stall_cycles )

let test_sim_identical_across_jobs () =
  let warps = [ 2; 4; 8 ] in
  let serial = List.map conductivity_result warps in
  let parallel =
    Sutil.Domain_pool.parallel_map ~jobs:4 conductivity_result warps
  in
  List.iter2
    (fun (c1, i1, f1, b1, ic1) (c2, i2, f2, b2, ic2) ->
      Alcotest.(check int) "cycles" c1 c2;
      Alcotest.(check int) "issued" i1 i2;
      Alcotest.(check int) "flops" f1 f2;
      Alcotest.(check int) "barrier stalls" b1 b2;
      Alcotest.(check int) "icache stalls" ic1 ic2)
    serial parallel

(* The launch-inputs memo and the launch-shape stores are shared across
   domains: runs racing to insert the same grid, at --jobs 2, check the
   same outputs with the same oracle error as one domain does, and so do
   runs of one artifact racing to store, then replay, its one launch
   shape. *)
let dme_compile ?(memo = true) kernel =
  Singe.Diagnostics.ok_exn
    (Singe.Compile.compile ~memo (Lazy.force dme) kernel
       Singe.Compile.Warp_specialized
       (Singe.Target.options ~n_warps:4 Arch.kepler_k20c kernel))

let checked_run c seed =
  let r = Singe.Compile.run ~seed c ~total_points:4096 in
  ( Array.map (Array.map Int64.bits_of_float) r.Singe.Compile.outputs,
    Int64.bits_of_float r.Singe.Compile.max_rel_err )

let checked_result (kernel, seed) = checked_run (dme_compile kernel) seed

let test_oracle_identical_across_jobs () =
  let targets =
    Singe.Kernel_abi.
      [
        (Viscosity, 1L); (Viscosity, 1L); (Diffusion, 2L); (Diffusion, 2L);
        (Viscosity, 2L); (Conductivity, 1L);
      ]
  in
  let at jobs =
    Singe.Compile.memo_clear ();
    Sutil.Domain_pool.parallel_map ~jobs checked_result targets
  in
  let serial = at 1 in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (serial = at 2);
  (* Every cold run on its own fresh artifact, so nothing is stored
     before it simulates. *)
  let seeds = [ 1L; 1L; 2L; 2L; 3L; 3L ] in
  let cold =
    List.map
      (fun seed ->
        checked_run (dme_compile ~memo:false Singe.Kernel_abi.Diffusion) seed)
      seeds
  in
  let one_shape jobs =
    let c = dme_compile Singe.Kernel_abi.Diffusion in
    Sutil.Domain_pool.parallel_map ~jobs (checked_run c) seeds
  in
  Singe.Compile.memo_clear ();
  let stats = Singe.Compile.shape_store_stats in
  let shapes0 = (stats ()).Singe.Compile.shapes_stored in
  let racing = one_shape 2 in
  let served0 = (stats ()).Singe.Compile.runs_served in
  let warm = one_shape 2 in
  Alcotest.(check bool) "one shape: racing = serial" true (racing = cold);
  Alcotest.(check bool) "one shape: warm = serial" true (warm = cold);
  Alcotest.(check bool) "the shape was stored" true
    ((stats ()).Singe.Compile.shapes_stored > shapes0);
  Alcotest.(check bool) "warm runs replay it" true
    ((stats ()).Singe.Compile.runs_served >= served0 + List.length seeds)

let test_autotune_winner_across_jobs () =
  let mech = Lazy.force dme in
  let tune jobs =
    Singe.Autotune.tune ~warp_candidates:[ 2; 4 ] ~jobs mech
      Singe.Kernel_abi.Conductivity Singe.Compile.Warp_specialized
      Arch.kepler_k20c
  in
  let a = tune 1 and b = tune 4 in
  Alcotest.(check int) "tried" a.Singe.Autotune.tried b.Singe.Autotune.tried;
  Alcotest.(check int) "skipped" a.Singe.Autotune.skipped
    b.Singe.Autotune.skipped;
  Alcotest.(check int) "winner warps"
    a.Singe.Autotune.best.Singe.Autotune.options.Singe.Compile.n_warps
    b.Singe.Autotune.best.Singe.Autotune.options.Singe.Compile.n_warps;
  Alcotest.(check int) "winner ctas"
    a.Singe.Autotune.best.Singe.Autotune.options.Singe.Compile.ctas_per_sm_target
    b.Singe.Autotune.best.Singe.Autotune.options.Singe.Compile.ctas_per_sm_target;
  Alcotest.(check (float 0.0)) "winner throughput"
    a.Singe.Autotune.best.Singe.Autotune.throughput
    b.Singe.Autotune.best.Singe.Autotune.throughput

(* ---- SM event-queue fast paths ---- *)

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
  Chip.run ~fill_inputs:fill Arch.kepler_k20c
    { Chip.program = p; total_points = points; ctas }

(* A single warp whose whole body is one long-latency dependence chain:
   after each issue every warp is stalled, so the scheduler spends almost
   all its time in the idle fast-forward. The fast-forward must land
   exactly on the wake-up cycle: issuing the dependent instruction late
   would inflate the total, waking early would deflate it below the chain
   latency. *)
let test_fast_forward_exact () =
  let chain =
    Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = true; pred = None }
    :: List.concat
         (List.init 8 (fun i ->
              [
                Isa.Arith
                  { op = Isa.Div;
                    dst = (i + 1) mod 2;
                    srcs = [| Isa.Sreg (i mod 2); Isa.Simm 1.5 |];
                    pred = None };
              ]))
    @ [ Isa.St_global { src = Isa.Sreg 0; group = 1; field = Isa.F_static 0; pred = None } ]
  in
  let p = base_program ~n_warps:1 ~body:(Isa.Instrs chain) () in
  let r = run_program ~points:32 p ~fill:(fun _ _ -> ()) in
  let cycles = r.Chip.sm_cycles in
  (* Eight dependent double-precision divides dominate: each costs
     [3 * dp_latency] (the Div latency multiplier) before its consumer
     may issue, so the total must be at least that and — fast-forward
     being exact — not meaningfully more than the chain plus fetch and
     memory overheads. *)
  let a = Arch.kepler_k20c in
  let chain_lower = 8 * 3 * a.Arch.arith_latency in
  Alcotest.(check bool)
    (Printf.sprintf "cycles %d >= dependence chain %d" cycles chain_lower)
    true (cycles >= chain_lower);
  let upper =
    chain_lower + a.Arch.global_latency + (2 * a.Arch.icache_miss_latency) + 200
  in
  Alcotest.(check bool)
    (Printf.sprintf "cycles %d <= %d (no overshoot)" cycles upper)
    true (cycles <= upper);
  (* Deterministic: a second identical run reproduces the count. *)
  let r2 = run_program ~points:32 p ~fill:(fun _ _ -> ()) in
  Alcotest.(check int) "rerun identical" cycles r2.Chip.sm_cycles

let test_deadlock_still_fires () =
  (* With the ready-bitset + event-queue loop, a cycle where no warp is
     ready and no stall event is pending must still be diagnosed, not
     fast-forwarded past. *)
  let p =
    base_program ~n_warps:2
      ~body:
        (Isa.If_warps
           { mask = 2; body = Isa.Instrs [ Isa.Bar_sync { bar = 0; count = 2 } ] })
      ()
  in
  let p = { p with Isa.point_map = Isa.Coop } in
  match run_program ~points:64 p ~fill:(fun _ _ -> ()) with
  | exception Sm.Simulation_fault _ -> ()
  | _ -> Alcotest.fail "deadlock not detected"

let tests =
  [
    Alcotest.test_case "parallel_map order" `Quick test_map_order;
    Alcotest.test_case "parallel_map exception order" `Quick
      test_map_exception_order;
    Alcotest.test_case "parallel_map nested" `Quick test_map_nested_serial;
    Alcotest.test_case "jobs_of_string strict" `Quick test_jobs_of_string;
    Alcotest.test_case "SINGE_JOBS garbage rejected" `Quick
      test_env_jobs_rejected;
    Alcotest.test_case "sim identical across jobs" `Slow
      test_sim_identical_across_jobs;
    Alcotest.test_case "autotune winner across jobs" `Slow
      test_autotune_winner_across_jobs;
    Alcotest.test_case "fast-forward exact" `Quick test_fast_forward_exact;
    Alcotest.test_case "deadlock still fires" `Quick test_deadlock_still_fires;
    Alcotest.test_case "oracle identical across jobs" `Quick
      test_oracle_identical_across_jobs;
  ]
