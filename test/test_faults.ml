(* Fault containment: the static deadlock verifier must accept every
   shipped schedule and reject seeded deadlocking mutants; an injected
   hang must terminate in a structured [Sm.Simulation_fault] within the
   watchdog budget; and a poisoned autotune sweep must skip the bad
   candidate and still return the clean sweep's winner. *)

let dme = lazy (Chem.Mech_gen.dme ())
let heptane = lazy (Chem.Mech_gen.heptane ())
let arch = Gpusim.Arch.kepler_k20c

let options_for kernel =
  Singe.Target.options
    ~n_warps:(if kernel = Singe.Kernel_abi.Chemistry then 4 else 6)
    arch kernel

let compiled mech kernel =
  Singe.Compile.compile_cached mech kernel Singe.Compile.Warp_specialized
    (options_for kernel)

(* ---- static verifier: positive on everything we ship ---- *)

let test_verifier_accepts_shipped () =
  List.iter
    (fun (mech_name, mech) ->
      List.iter
        (fun kernel ->
          let c = compiled (Lazy.force mech) kernel in
          match Singe.Deadlock_check.check c.Singe.Compile.schedule with
          | Ok () -> ()
          | Error problems ->
              Alcotest.fail
                (Printf.sprintf "%s %s rejected: %s" mech_name
                   (Singe.Kernel_abi.kernel_name kernel)
                   (String.concat "; " problems)))
        [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion;
          Singe.Kernel_abi.Chemistry ])
    [ ("dme", dme); ("heptane", heptane) ]

(* ---- static verifier: negative on every seeded mutant ---- *)

let test_verifier_rejects_mutants () =
  let rejected = ref [] in
  List.iter
    (fun kernel ->
      let c = compiled (Lazy.force dme) kernel in
      let schedule = c.Singe.Compile.schedule in
      (match Singe.Deadlock_check.check schedule with
      | Ok () -> ()
      | Error p -> Alcotest.fail ("original rejected: " ^ String.concat "; " p));
      let muts = Singe.Deadlock_check.mutants ~seed:7 schedule in
      Alcotest.(check bool)
        (Singe.Kernel_abi.kernel_name kernel ^ " has mutants")
        true
        (List.length muts >= 5);
      List.iter
        (fun (m : Singe.Deadlock_check.mutant) ->
          match Singe.Deadlock_check.check m.Singe.Deadlock_check.schedule with
          | Error _ ->
              rejected :=
                (Singe.Kernel_abi.kernel_name kernel ^ "/"
                ^ m.Singe.Deadlock_check.label)
                :: !rejected
          | Ok () ->
              Alcotest.fail
                (Printf.sprintf "mutant %s of %s accepted"
                   m.Singe.Deadlock_check.label
                   (Singe.Kernel_abi.kernel_name kernel)))
        muts;
      (* Mutation must not corrupt the input schedule. *)
      match Singe.Deadlock_check.check schedule with
      | Ok () -> ()
      | Error p ->
          Alcotest.fail ("original damaged by mutation: " ^ String.concat "; " p))
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Chemistry ];
  let distinct = List.sort_uniq compare !rejected in
  Alcotest.(check bool)
    (Printf.sprintf "at least 10 distinct rejected mutants (got %d)"
       (List.length distinct))
    true
    (List.length distinct >= 10)

(* ---- runtime watchdog: injected hangs terminate, structurally ---- *)

(* A warp of the compiled viscosity kernel that issues at least one named
   barrier arrival (warp-specialized schedules always have one). *)
let arriving_warp (c : Singe.Compile.t) =
  let per_warp = c.Singe.Compile.schedule.Singe.Schedule.per_warp in
  let has_arrive w =
    Array.exists
      (function Singe.Schedule.A_arrive _ -> true | _ -> false)
      per_warp.(w)
  in
  let rec find w =
    if w >= Array.length per_warp then Alcotest.fail "no warp ever arrives"
    else if has_arrive w then w
    else find (w + 1)
  in
  find 0

let test_drop_arrive_contained () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let warp = arriving_warp c in
  match
    Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32)
      ~faults:[ Gpusim.Fault.Drop_arrive { warp; nth = 0 } ]
      ~max_cycles:50_000_000
  with
  | _ -> Alcotest.fail "dropped arrival did not fault"
  | exception Gpusim.Sm.Simulation_fault f ->
      Alcotest.(check bool) "warp dumps present" true
        (f.Gpusim.Sm.warp_dumps <> []);
      Alcotest.(check bool) "cycle recorded" true (f.Gpusim.Sm.fault_cycle >= 0)

let test_swap_barrier_contained () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let warp = arriving_warp c in
  let unused = c.Singe.Compile.schedule.Singe.Schedule.barriers_used in
  Alcotest.(check bool) "an unused id exists" true (unused < 16);
  match
    Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32)
      ~faults:[ Gpusim.Fault.Swap_barrier { warp; nth = 0; bar = unused } ]
      ~max_cycles:50_000_000
  with
  | _ -> Alcotest.fail "swapped barrier did not fault"
  | exception Gpusim.Sm.Simulation_fault f ->
      Alcotest.(check bool) "barrier dumps present" true
        (f.Gpusim.Sm.barrier_dumps <> [])

let test_cycle_budget_trips () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  (* A tiny budget must abort even a healthy run, with the budget kind;
     a generous budget must not perturb the simulation at all. *)
  (match
     Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32)
       ~max_cycles:100
   with
  | _ -> Alcotest.fail "budget of 100 cycles did not trip"
  | exception Gpusim.Sm.Simulation_fault f ->
      Alcotest.(check string) "kind" "cycle budget exceeded"
        (Gpusim.Sm.fault_kind_name f.Gpusim.Sm.fault_kind));
  let clean = Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32) in
  let budgeted =
    Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32)
      ~max_cycles:200_000_000
  in
  Alcotest.(check int) "budget does not perturb the simulation"
    clean.Singe.Compile.machine.Gpusim.Machine.sm_cycles
    budgeted.Singe.Compile.machine.Gpusim.Machine.sm_cycles

let test_latency_fault_is_functional () =
  (* Barrier schedules are order-independent (§4.4): a latency
     perturbation may change the cycle count but never the outputs. *)
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let r =
    Singe.Compile.run c ~total_points:(13 * 3 * 32)
      ~faults:[ Gpusim.Fault.Latency { warp = 0; mult = 7 } ]
      ~max_cycles:200_000_000
  in
  Alcotest.(check bool) "outputs still correct" true
    (r.Singe.Compile.max_rel_err <= 1e-6)

let test_unmatchable_fault_rejected () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  match
    Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32)
      ~faults:[ Gpusim.Fault.Drop_arrive { warp = 0; nth = 100000 } ]
  with
  | _ -> Alcotest.fail "unmatchable fault accepted"
  | exception Invalid_argument _ -> ()

(* ---- fault specs round-trip (the CLI's --fault surface) ---- *)

let test_fault_spec_roundtrip () =
  List.iter
    (fun f ->
      match Gpusim.Fault.of_string (Gpusim.Fault.to_string f) with
      | Ok f' ->
          Alcotest.(check string) "round-trips" (Gpusim.Fault.to_string f)
            (Gpusim.Fault.to_string f')
      | Error e -> Alcotest.fail e)
    [
      Gpusim.Fault.Drop_arrive { warp = 1; nth = 0 };
      Gpusim.Fault.Swap_barrier { warp = 2; nth = 3; bar = 5 };
      Gpusim.Fault.Extra_arrive { warp = 0; nth = 2 };
      Gpusim.Fault.Latency { warp = 4; mult = 3 };
      Gpusim.Fault.Corrupt_shfl { warp = 0; nth = 1 };
    ];
  List.iter
    (fun bad ->
      match Gpusim.Fault.of_string bad with
      | Ok _ -> Alcotest.fail ("accepted bad spec " ^ bad)
      | Error _ -> ())
    [ "nonsense"; "drop-arrive:warp=1"; "latency:warp=x,mult=2"; "zap:a=1" ]

(* Strict parsing: trailing garbage, unknown or duplicated fields, and
   non-decimal values must all be rejected — silent truncation of a fault
   spec means injecting a different fault than the one asked for. *)
let test_fault_spec_strict () =
  List.iter
    (fun bad ->
      match Gpusim.Fault.of_string bad with
      | Ok f ->
          Alcotest.fail
            (Printf.sprintf "accepted %S as %s" bad (Gpusim.Fault.to_string f))
      | Error _ -> ())
    [
      (* trailing garbage after a complete spec *)
      "drop-arrive:warp=1,nth=0,";
      "drop-arrive:warp=1,nth=0,junk";
      "latency:warp=4,mult=3 trailing";
      (* unknown and duplicate fields *)
      "drop-arrive:warp=1,nth=0,bar=2";
      "latency:warp=1,warp=2,mult=3";
      (* values that int_of_string would happily take *)
      "latency:warp=0x10,mult=2";
      "drop-arrive:warp=+1,nth=0";
      "drop-arrive:warp=-1,nth=0";
      "swap-bar:warp=1,nth=0,bar=1_0";
      (* overlong digit strings (would overflow int_of_string) *)
      "latency:warp=9999999999999999999999,mult=2";
      (* missing field *)
      "swap-bar:warp=1,bar=0";
      (* corrupt-shfl: same strictness as the barrier faults *)
      "corrupt-shfl:warp=1";
      "corrupt-shfl:warp=1,nth=0,mult=2";
      "corrupt-shfl:warp=1,nth=0x2";
      "corrupt-shfl:nth=0";
    ]

let fault_spec_qcheck_roundtrip =
  let gen =
    QCheck.(
      make
        ~print:(fun f -> Gpusim.Fault.to_string f)
        Gen.(
          let nat = int_bound 1_000_000 in
          oneof
            [
              map2
                (fun warp nth -> Gpusim.Fault.Drop_arrive { warp; nth })
                nat nat;
              map3
                (fun warp nth bar ->
                  Gpusim.Fault.Swap_barrier { warp; nth; bar })
                nat nat (int_bound 63);
              map2
                (fun warp nth -> Gpusim.Fault.Extra_arrive { warp; nth })
                nat nat;
              map2
                (fun warp mult -> Gpusim.Fault.Latency { warp; mult })
                nat (int_range 1 64);
              map2
                (fun warp nth -> Gpusim.Fault.Corrupt_shfl { warp; nth })
                nat nat;
            ]))
  in
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count:500 ~name:"fault spec to_string/of_string" gen
       (fun f ->
         match Gpusim.Fault.of_string (Gpusim.Fault.to_string f) with
         | Ok f' -> f = f'
         | Error e -> QCheck.Test.fail_report e))

(* An out-of-range barrier id in Swap_barrier is rejected up front by
   [Machine.run] (which knows the architecture's named-barrier file size)
   rather than silently simulating a barrier that cannot exist. *)
let test_swap_barrier_out_of_range_rejected () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let warp = arriving_warp c in
  match
    Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32)
      ~faults:[ Gpusim.Fault.Swap_barrier { warp; nth = 0; bar = 99 } ]
      ~max_cycles:50_000_000
  with
  | _ -> Alcotest.fail "out-of-range barrier id accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the id (%s)" msg)
        true
        (String.length msg > 0)

(* ---- sweep containment: one bad candidate cannot sink the sweep ---- *)

let test_poisoned_sweep_same_winner () =
  let mech = Lazy.force dme in
  let kernel = Singe.Kernel_abi.Conductivity in
  let version = Singe.Compile.Warp_specialized in
  let warp_candidates = [ 2; 4 ] and cta_targets = [ 1; 2 ] in
  let clean =
    Singe.Autotune.tune ~warp_candidates ~cta_targets ~jobs:2 mech kernel
      version arch
  in
  let grid =
    Singe.Autotune.candidate_options ~points:32768 kernel version arch
      warp_candidates cta_targets
  in
  (* Poison a candidate that is not the clean winner, with a dropped
     arrival targeted at a warp that provably arrives in that candidate's
     own schedule. *)
  let bad_idx =
    match
      List.find_index
        (fun o -> o <> clean.Singe.Autotune.best.Singe.Autotune.options)
        grid
    with
    | Some i -> i
    | None -> Alcotest.fail "grid has a single candidate"
  in
  let bad_options = List.nth grid bad_idx in
  let bad_c = Singe.Compile.compile_cached mech kernel version bad_options in
  let warp = arriving_warp bad_c in
  let inject i =
    if i = bad_idx then [ Gpusim.Fault.Drop_arrive { warp; nth = 0 } ] else []
  in
  let poisoned =
    Singe.Autotune.tune ~warp_candidates ~cta_targets ~jobs:2
      ~max_cycles:50_000_000 ~inject mech kernel version arch
  in
  Alcotest.(check bool) "same winner options" true
    (poisoned.Singe.Autotune.best.Singe.Autotune.options
    = clean.Singe.Autotune.best.Singe.Autotune.options);
  Alcotest.(check (float 1e-9)) "same winner throughput"
    clean.Singe.Autotune.best.Singe.Autotune.throughput
    poisoned.Singe.Autotune.best.Singe.Autotune.throughput;
  Alcotest.(check int) "exactly one extra skip"
    (clean.Singe.Autotune.skipped + 1)
    poisoned.Singe.Autotune.skipped;
  Alcotest.(check int) "failure recorded"
    (List.length clean.Singe.Autotune.failures + 1)
    (List.length poisoned.Singe.Autotune.failures);
  let injected_failures =
    List.filter
      (fun (f : Singe.Autotune.failure) ->
        f.Singe.Autotune.failed_options = bad_options)
      poisoned.Singe.Autotune.failures
  in
  match injected_failures with
  | [ f ] ->
      Alcotest.(check bool) "classified as a simulation fault" true
        (f.Singe.Autotune.fault <> None)
  | _ -> Alcotest.fail "poisoned candidate's failure not captured"

let test_parallel_map_result () =
  let f x = if x mod 3 = 0 then failwith (string_of_int x) else x * 2 in
  List.iter
    (fun jobs ->
      let got =
        Sutil.Domain_pool.parallel_map_result ~jobs f (List.init 7 Fun.id)
      in
      List.iteri
        (fun i outcome ->
          match outcome with
          | Ok v -> Alcotest.(check int) "value" (i * 2) v
          | Error (Failure msg) ->
              Alcotest.(check bool) "failing index" true (i mod 3 = 0);
              Alcotest.(check string) "message" (string_of_int i) msg
          | Error e -> raise e)
        got)
    [ 1; 4 ]

(* ---- positioned parser errors ---- *)

let test_parser_positions () =
  (match Chem.Chemkin_parser.parse ~file:"in.mech" "REACTIONS\n???\nEND" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e ->
      Alcotest.(check (option string)) "file" (Some "in.mech")
        e.Chem.Srcloc.loc.Chem.Srcloc.file;
      Alcotest.(check int) "line" 2 e.Chem.Srcloc.loc.Chem.Srcloc.line;
      Alcotest.(check bool) "rendered position" true
        (String.length (Chem.Srcloc.to_string e) > String.length "in.mech:2:"
        && String.sub (Chem.Srcloc.to_string e) 0 9 = "in.mech:2"));
  (match
     Chem.Transport_parser.parse ~file:"t.tran"
       "H2  1  38.000  2.920  0.000  0.790  XO\n"
   with
  | Ok _ -> Alcotest.fail "accepted bad number"
  | Error e ->
      Alcotest.(check (option string)) "token" (Some "XO")
        e.Chem.Srcloc.loc.Chem.Srcloc.token;
      Alcotest.(check int) "line" 1 e.Chem.Srcloc.loc.Chem.Srcloc.line);
  (match Chem.Thermo_parser.parse ~file:"x.therm" "JUSTONELINE\n" with
  | Ok _ -> Alcotest.fail "accepted incomplete entry"
  | Error e ->
      Alcotest.(check (option string)) "file" (Some "x.therm")
        e.Chem.Srcloc.loc.Chem.Srcloc.file);
  (* An unreadable input file is a positioned error, not an exception. *)
  match
    Chem.Mech_io.load_files ~chemkin_path:"/nonexistent/x.mech"
      ~thermo_path:"/nonexistent/x.therm" ~transport_path:"/nonexistent/x.tran"
      ~name:"ghost" ()
  with
  | Ok _ -> Alcotest.fail "loaded a ghost mechanism"
  | Error _ -> ()

let test_diagnostics_carry_loc () =
  match Chem.Chemkin_parser.parse ~file:"in.mech" "REACTIONS\n???\nEND" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e ->
      let d = Singe.Diagnostics.of_srcloc ~pass:"parse" e in
      Alcotest.(check (option string)) "loc" (Some "in.mech:2")
        d.Singe.Diagnostics.loc;
      let rendered = Singe.Diagnostics.to_string d in
      Alcotest.(check bool)
        (Printf.sprintf "renders position (%s)" rendered)
        true
        (String.sub rendered 0 23 = "error[parse]: in.mech:2")

(* ---- corrupt-shfl: silent data-movement corruption across the
   synthesized-exchange shuffles — the run completes (no deadlock, the
   lane selector is not a barrier), but the functional output check
   catches the wrong data movement. ---- *)

let test_corrupt_shfl_corrupts_outputs () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let r =
    Singe.Compile.run c ~total_points:(13 * 3 * 32)
      ~faults:[ Gpusim.Fault.Corrupt_shfl { warp = 0; nth = 0 } ]
      ~max_cycles:50_000_000
  in
  Alcotest.(check bool)
    "outputs corrupted" true
    (r.Singe.Compile.max_rel_err > 1e-6);
  let clean = Singe.Compile.run c ~total_points:(13 * 3 * 32) ~max_cycles:50_000_000 in
  Alcotest.(check bool)
    "clean run stays clean" true
    (clean.Singe.Compile.max_rel_err < 1e-9)

(* The host reference is memoized per target, but the comparison is not:
   a corrupted run right after a clean run of the same target (a memo
   hit) is still caught, and a clean run after it is clean again. *)
let test_oracle_memo_still_compares () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  let run faults =
    (Singe.Compile.run c ~total_points:(13 * 3 * 32) ~faults
       ~max_cycles:50_000_000)
      .Singe.Compile.max_rel_err
  in
  let corrupt = [ Gpusim.Fault.Corrupt_shfl { warp = 0; nth = 0 } ] in
  Alcotest.(check bool) "clean" true (run [] < 1e-9);
  Alcotest.(check bool) "corrupted after clean" true (run corrupt > 1e-6);
  Alcotest.(check bool) "clean after corrupted" true (run [] < 1e-9)

let test_corrupt_shfl_unmatchable_rejected () =
  let c = compiled (Lazy.force dme) Singe.Kernel_abi.Viscosity in
  match
    Singe.Compile.run ~check:false c ~total_points:(13 * 3 * 32)
      ~faults:[ Gpusim.Fault.Corrupt_shfl { warp = 0; nth = 100_000 } ]
      ~max_cycles:50_000_000
  with
  | _ -> Alcotest.fail "unmatchable corrupt-shfl accepted"
  | exception Invalid_argument _ -> ()

let tests =
  [
    Alcotest.test_case "verifier accepts shipped schedules" `Slow
      test_verifier_accepts_shipped;
    Alcotest.test_case "verifier rejects seeded mutants" `Quick
      test_verifier_rejects_mutants;
    Alcotest.test_case "dropped arrival contained" `Quick
      test_drop_arrive_contained;
    Alcotest.test_case "swapped barrier contained" `Quick
      test_swap_barrier_contained;
    Alcotest.test_case "cycle budget trips and is exact" `Quick
      test_cycle_budget_trips;
    Alcotest.test_case "latency fault stays functional" `Quick
      test_latency_fault_is_functional;
    Alcotest.test_case "unmatchable fault rejected" `Quick
      test_unmatchable_fault_rejected;
    Alcotest.test_case "fault specs round-trip" `Quick test_fault_spec_roundtrip;
    Alcotest.test_case "fault specs parsed strictly" `Quick
      test_fault_spec_strict;
    fault_spec_qcheck_roundtrip;
    Alcotest.test_case "corrupt-shfl corrupts outputs" `Quick
      test_corrupt_shfl_corrupts_outputs;
    Alcotest.test_case "unmatchable corrupt-shfl rejected" `Quick
      test_corrupt_shfl_unmatchable_rejected;
    Alcotest.test_case "out-of-range barrier id rejected" `Quick
      test_swap_barrier_out_of_range_rejected;
    Alcotest.test_case "poisoned sweep keeps winner" `Slow
      test_poisoned_sweep_same_winner;
    Alcotest.test_case "parallel_map_result order" `Quick
      test_parallel_map_result;
    Alcotest.test_case "parser errors are positioned" `Quick
      test_parser_positions;
    Alcotest.test_case "diagnostics carry source locations" `Quick
      test_diagnostics_carry_loc;
    Alcotest.test_case "memoized oracle still compares every run" `Quick
      test_oracle_memo_still_compares;
  ]
