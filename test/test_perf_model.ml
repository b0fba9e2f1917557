(* The analytic performance model (Perf_model), the model-guided autotune
   pruning, and the diagnostics that replaced partial functions in
   lowering, expression evaluation and CHEMKIN parsing. *)

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme
let arch = Gpusim.Arch.kepler_k20c

let compile mech kernel version =
  Singe.Diagnostics.ok_exn
    (Singe.Compile.compile ~memo:true mech kernel version
       (Singe.Target.options arch kernel))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let version_name = function
  | Singe.Compile.Baseline -> "base"
  | _ -> "ws"

let config_name mech kernel version =
  Printf.sprintf "%s %s %s" mech.Chem.Mechanism.name
    (Singe.Kernel_abi.kernel_name kernel)
    (version_name version)

(* Property: on every mechanism x kernel x version, the two stencil
   pipelines, and both architectures, the simulator never beats either
   static bound — the tightest Perf_model.bounds ceiling (throughput) or
   the model's provable floor (cycles). *)
let test_floor_and_roofline () =
  let kernels =
    [
      Singe.Kernel_abi.Viscosity;
      Singe.Kernel_abi.Diffusion;
      Singe.Kernel_abi.Chemistry;
    ]
  in
  let stencils =
    List.map (fun id -> Singe.Kernel_abi.Stencil id) Singe.Stencil_pipe.all_ids
  in
  let targets =
    List.concat_map (fun mech -> List.map (fun k -> (mech, k)) kernels)
      [ hydrogen (); dme () ]
    @ List.map (fun k -> (hydrogen (), k)) stencils
  in
  let versions = [ Singe.Compile.Warp_specialized; Singe.Compile.Baseline ] in
  List.iter
    (fun (arch : Gpusim.Arch.t) ->
      List.iter
        (fun (mech, kernel) ->
          List.iter
            (fun version ->
              let name =
                config_name mech kernel version ^ " on " ^ arch.Gpusim.Arch.name
              in
              let c =
                Singe.Diagnostics.ok_exn
                  (Singe.Compile.compile ~memo:true mech kernel version
                     (Singe.Target.options arch kernel))
              in
              let points = 2048 in
              let pred = Singe.Perf_model.predict c ~total_points:points in
              let r = Singe.Compile.run c ~total_points:points in
              let measured =
                float_of_int r.Singe.Compile.machine.Gpusim.Chip.sm_cycles
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: simulated %.0f >= model floor %.0f" name
                   measured pred.Singe.Perf_model.floor_cycles)
                true
                (measured >= pred.Singe.Perf_model.floor_cycles /. 1.02);
              let achieved =
                r.Singe.Compile.machine.Gpusim.Chip.points_per_sec
              in
              let ceiling = snd (List.hd (Singe.Perf_model.bounds c)) in
              Alcotest.(check bool)
                (Printf.sprintf "%s: achieved %.3e <= roofline %.3e" name
                   achieved ceiling)
                true
                (achieved <= ceiling *. 1.02))
            versions)
        targets)
    [ Gpusim.Arch.kepler_k20c; Gpusim.Arch.fermi_c2070 ]

(* Regression guard on the model's headline accuracy claim: predicted SM
   cycles stay within 35% of the simulator on representative configs at
   the calibration problem size. *)
let test_model_accuracy () =
  let configs =
    [
      (dme (), Singe.Kernel_abi.Viscosity, Singe.Compile.Warp_specialized);
      (dme (), Singe.Kernel_abi.Viscosity, Singe.Compile.Baseline);
      (dme (), Singe.Kernel_abi.Chemistry, Singe.Compile.Warp_specialized);
      (hydrogen (), Singe.Kernel_abi.Diffusion, Singe.Compile.Warp_specialized);
    ]
  in
  List.iter
    (fun (mech, kernel, version) ->
      let c = compile mech kernel version in
      let points = 32768 in
      let pred = Singe.Perf_model.predict c ~total_points:points in
      let r = Singe.Compile.run c ~total_points:points in
      let err =
        Singe.Perf_model.rel_err ~predicted:pred.Singe.Perf_model.cycles
          ~measured:
            (float_of_int r.Singe.Compile.machine.Gpusim.Chip.sm_cycles)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: model off by %.1f%% (limit 35%%)"
           (config_name mech kernel version)
           (100.0 *. err))
        true (err <= 0.35))
    configs

(* The model-pruned sweep must find the same winner as the exhaustive
   sweep once its keep-window covers the winner's model rank. *)
let test_pruned_matches_exhaustive () =
  let mech = hydrogen () in
  let ex =
    Singe.Autotune.tune ~jobs:2 mech Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized arch
  in
  Alcotest.(check bool) "exhaustive winner is model-ranked" true
    (ex.Singe.Autotune.model_rank_of_winner >= 1);
  Alcotest.(check int) "exhaustive prunes nothing" 0
    ex.Singe.Autotune.candidates_pruned;
  let keep = max 2 ex.Singe.Autotune.model_rank_of_winner in
  let pr =
    Singe.Autotune.tune ~jobs:2 ~mode:(Singe.Autotune.Pruned keep) mech
      Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized arch
  in
  Alcotest.(check bool) "same winner options" true
    (pr.Singe.Autotune.best.Singe.Autotune.options
    = ex.Singe.Autotune.best.Singe.Autotune.options);
  Alcotest.(check bool) "same winner throughput" true
    (pr.Singe.Autotune.best.Singe.Autotune.throughput
    = ex.Singe.Autotune.best.Singe.Autotune.throughput);
  Alcotest.(check int) "same grid" ex.Singe.Autotune.tried
    pr.Singe.Autotune.tried;
  (match pr.Singe.Autotune.mode with
  | Singe.Autotune.Pruned k -> Alcotest.(check int) "mode recorded" keep k
  | Singe.Autotune.Exhaustive -> Alcotest.fail "pruned sweep reported exhaustive");
  let compilable = ex.Singe.Autotune.tried - ex.Singe.Autotune.skipped in
  if compilable > keep then
    Alcotest.(check bool) "pruning actually excluded candidates" true
      (pr.Singe.Autotune.candidates_pruned > 0)

(* The sweep's winner (and its pinned lowest-index tie-break) must not
   depend on how many domains evaluate the grid. *)
let test_tune_jobs_deterministic () =
  let mech = hydrogen () in
  let run jobs =
    Singe.Autotune.tune ~jobs mech Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized arch
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "same winner options" true
    (a.Singe.Autotune.best.Singe.Autotune.options
    = b.Singe.Autotune.best.Singe.Autotune.options);
  Alcotest.(check bool) "same winner throughput" true
    (a.Singe.Autotune.best.Singe.Autotune.throughput
    = b.Singe.Autotune.best.Singe.Autotune.throughput);
  Alcotest.(check int) "same tried" a.Singe.Autotune.tried
    b.Singe.Autotune.tried;
  Alcotest.(check int) "same skipped" a.Singe.Autotune.skipped
    b.Singe.Autotune.skipped;
  Alcotest.(check int) "same model rank" a.Singe.Autotune.model_rank_of_winner
    b.Singe.Autotune.model_rank_of_winner

(* Seeded mutation: injecting a send of a value no warp ever produces must
   surface as a positioned lowering diagnostic, never as a Not_found or an
   out-of-bounds index into the lowering's dense per-warp tables — in the
   overlaid forest, whose grouping key classifies the value first, and in
   naive lowering, which looks the register up directly. *)
let test_lower_unproduced_value () =
  let mech = hydrogen () in
  let dfg = Singe.Viscosity_dfg.build mech ~n_warps:2 in
  let m =
    Singe.Mapping.map dfg ~n_warps:2 ~weights:Singe.Mapping.default_weights
      ~strategy:Singe.Mapping.Store ~respect_hints:true
  in
  let s = Singe.Schedule.build dfg m in
  let mutate value =
    let per_warp = Array.map Array.copy s.Singe.Schedule.per_warp in
    let stamps = Array.map Array.copy s.Singe.Schedule.stamps in
    per_warp.(0) <-
      Array.append [| Singe.Schedule.A_send { value; slot = 0 } |] per_warp.(0);
    stamps.(0) <- Array.append [| -1 |] stamps.(0);
    { s with Singe.Schedule.per_warp; stamps }
  in
  let cfg =
    {
      Singe.Lower.arch;
      overlay = true;
      const_policy = Singe.Lower.Bank;
      exp_consts_in_registers = false;
      param_stripe_threshold = 8;
      freg_budget = 60;
      synth_exchange = false;
      list_schedule = true;
    }
  in
  let groups = Singe.Kernel_abi.groups mech Singe.Kernel_abi.Viscosity in
  let lower_mutated ?(overlay = true) value =
    Singe.Lower.lower
      (if overlay then cfg
       else { cfg with Singe.Lower.overlay; const_policy = Singe.Lower.Immediate })
      ~name:"mutated" ~point_map:Gpusim.Isa.Coop ~out_warps:2 ~groups dfg m
      (mutate value)
  in
  let expect_lower_diag ?overlay what value needles =
    match lower_mutated ?overlay value with
    | _ -> Alcotest.failf "lowering accepted a send of %s" what
    | exception Singe.Diagnostics.Fail d ->
        Alcotest.(check (option string))
          (what ^ ": diagnostic names the pass")
          (Some "lower") d.Singe.Diagnostics.pass;
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: diagnostic mentions %S" what needle)
              true
              (contains d.Singe.Diagnostics.message needle))
          needles
  in
  expect_lower_diag "a negative value" (-1) [ "-1"; "outside the graph" ];
  expect_lower_diag ~overlay:false "a negative value (naive)" (-1)
    [ "-1"; "is not in a register for warp 0" ];
  (* a value id outside the graph entirely *)
  (match lower_mutated 987_654_321 with
  | _ -> Alcotest.fail "lowering accepted a send of an out-of-range value"
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "diagnostic names the pass" (Some "lower") d.Singe.Diagnostics.pass;
      Alcotest.(check bool) "diagnostic names the value" true
        (contains d.Singe.Diagnostics.message "987654321"));
  (* a real register-placed value no warp has produced yet at stream start *)
  let unproduced = ref (-1) in
  Array.iteri
    (fun v place ->
      if !unproduced < 0 && place = Singe.Mapping.P_reg then unproduced := v)
    m.Singe.Mapping.value_place;
  Alcotest.(check bool) "found a register-placed value" true (!unproduced >= 0);
  expect_lower_diag ~overlay:false "a never-produced value (naive)"
    !unproduced
    [ string_of_int !unproduced; "is not in a register for warp 0" ];
  match lower_mutated !unproduced with
  | _ -> Alcotest.fail "lowering accepted a send of a never-produced value"
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "diagnostic names the pass" (Some "lower") d.Singe.Diagnostics.pass;
      Alcotest.(check bool) "diagnostic names the warp" true
        (contains d.Singe.Diagnostics.message "warp 0");
      Alcotest.(check bool) "diagnostic explains the cause" true
        (contains d.Singe.Diagnostics.message "no register copy")

(* An out-of-scope Var in an s-expression is a diagnostic, not a List.nth
   failure; bound vars still evaluate. *)
let test_sexpr_var_diagnostic () =
  (match
     Singe.Sexpr.eval (Singe.Sexpr.Var 0) ~consts:[||] ~input:(fun _ -> 0.0)
   with
  | _ -> Alcotest.fail "evaluated an unbound Var"
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "diagnostic names the pass" (Some "sexpr-eval")
        d.Singe.Diagnostics.pass);
  let v =
    Singe.Sexpr.(eval (Let (Imm 2.0, Var 0))) ~consts:[||]
      ~input:(fun _ -> 0.0)
  in
  Alcotest.(check (float 0.0)) "bound var evaluates" 2.0 v

(* A stoichiometric coefficient too large for an int is a positioned
   parse error (file/line/token), not an int_of_string exception. *)
let test_chemkin_coeff_overflow () =
  let text = "REACTIONS\n99999999999999999999h2 = h2 1.0 0.0 0.0\nEND" in
  match Chem.Chemkin_parser.parse text with
  | Ok _ -> Alcotest.fail "accepted an overflowing stoichiometric coefficient"
  | Error e ->
      Alcotest.(check bool) "message names the coefficient" true
        (contains e.Chem.Srcloc.msg "coefficient");
      Alcotest.(check int) "positioned at line 2" 2
        e.Chem.Srcloc.loc.Chem.Srcloc.line;
      Alcotest.(check (option string))
        "offending token isolated"
        (Some "99999999999999999999")
        e.Chem.Srcloc.loc.Chem.Srcloc.token

(* ---- golden bit-identity of the model and the flattener ---- *)

(* A structural MD5 over every field of a prediction and of the trace it
   was built from, floats by their bit patterns, so a rewrite of the
   model's internals cannot move any number without this test seeing it.
   Each field is marshalled on its own without sharing, so the digest
   depends on values only, never on which sub-values are physically
   shared. *)
let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)
let add_int b i = Buffer.add_int64_le b (Int64.of_int i)

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_value b v = add_string b (Marshal.to_string v [ Marshal.No_sharing ])

let add_trace b (tr : Gpusim.Trace.t) =
  let open Gpusim.Trace in
  add_int b (Array.length tr.entries);
  Array.iter
    (fun e ->
      add_value b e.instr;
      add_int b e.addr;
      add_value b e.srcs;
      add_value b e.shared_srcs;
      add_int b (Bool.to_int e.has_const);
      add_int b e.lat_mult;
      add_float b e.dp_slots;
      add_int b e.flops)
    tr.entries;
  let ids a =
    add_int b (Array.length a);
    Array.iter (add_int b) a
  in
  add_int b (Array.length tr.prologue);
  Array.iter ids tr.prologue;
  add_int b (Array.length tr.body);
  Array.iter ids tr.body;
  add_int b tr.code_bytes;
  (* largest operand count over all entries *)
  add_int b
    (Array.fold_left (fun m e -> max m (Array.length e.srcs)) 0 tr.entries)

let add_prediction b (p : Singe.Perf_model.prediction) =
  let open Singe.Perf_model in
  add_int b p.occ.Gpusim.Chip.resident_ctas;
  add_string b p.occ.Gpusim.Chip.limited_by;
  add_int b p.occ.Gpusim.Chip.warps_per_sm;
  add_int b p.resident;
  add_int b p.batches;
  add_int b p.sim_batches;
  List.iter (add_float b)
    [
      p.prologue_cycles;
      p.batch_cycles;
      p.throughput_cycles;
      p.sync_cycles;
      p.icache_cycles;
    ];
  add_string b p.binding;
  add_float b p.cycles;
  add_float b p.floor_cycles;
  let c = p.chip in
  add_int b (Array.length c.Gpusim.Chip.sms);
  Array.iter
    (fun (s : Gpusim.Chip.sm_stat) ->
      add_int b s.sm_ctas;
      add_int b s.sm_rounds;
      add_float b s.sm_finish;
      add_float b s.sm_busy)
    c.Gpusim.Chip.sms;
  let k = c.Gpusim.Chip.contention in
  List.iter (add_float b)
    [
      k.Gpusim.Chip.dram_peak_bpc;
      k.demand_peak_bpc;
      k.throttle_max;
      k.dram_util;
    ];
  add_int b (Bool.to_int k.spill_in_l2);
  add_float b c.makespan_cycles;
  add_int b c.tail_ctas;
  add_int b c.rounds_total;
  add_int b c.n_sms;
  add_float b c.skew;
  add_float b p.time_s;
  add_float b p.points_per_sec

(* The golden prediction set: every partition candidate (and the hand
   partition) of a chemistry, a transport and a stencil target, on both
   architectures, plus the hand programs of three DME transport kernels
   whose constants overflow into constant memory on Fermi (one of them
   thrashes the constant cache). Calls [f arch c] on each compiled
   program in a fixed order, and [on_fail ()] for a candidate that fails
   to compile or to fit. *)
let iter_golden_set ~on_fail f =
  let version = Singe.Compile.Warp_specialized in
  let visit arch mech kernel options =
    match Singe.Compile.compile ~memo:true mech kernel version options with
    | Error _ -> on_fail ()
    | Ok c -> f arch c
  in
  let mech = hydrogen () in
  List.iter
    (fun arch ->
      List.iter
        (fun (kernel, n_warps) ->
          let base = Singe.Target.options ~n_warps arch kernel in
          let hand =
            Singe.Diagnostics.ok_exn
              (Singe.Compile.compile ~memo:true mech kernel version base)
          in
          List.iter
            (visit arch mech kernel)
            (base
            :: Singe.Partition_search.candidate_options base
                 hand.Singe.Compile.dfg))
        [
          (Singe.Kernel_abi.Chemistry, 4);
          (Singe.Kernel_abi.Diffusion, 4);
          (Singe.Kernel_abi.Stencil Singe.Stencil_pipe.Edge3, 8);
        ])
    [ Gpusim.Arch.kepler_k20c; Gpusim.Arch.fermi_c2070 ];
  let dme = dme () and fermi = Gpusim.Arch.fermi_c2070 in
  List.iter
    (fun (kernel, n_warps) ->
      visit fermi dme kernel (Singe.Target.options ~n_warps fermi kernel))
    [
      (Singe.Kernel_abi.Viscosity, 4);
      (Singe.Kernel_abi.Diffusion, 4);
      (Singe.Kernel_abi.Diffusion, 8);
    ]

(* Each program of the golden set with its trace and its predictions at
   three launch sizes; a failed candidate contributes a marker, so the
   candidate set itself is pinned too. *)
let golden_digest () =
  let b = Buffer.create (1 lsl 20) in
  let programs = ref 0 in
  iter_golden_set
    ~on_fail:(fun () -> add_string b "compile-failed")
    (fun arch c ->
      incr programs;
      let p = c.Singe.Compile.lowered.Singe.Lower.program in
      add_trace b (Gpusim.Trace.flatten arch p);
      List.iter
        (fun total_points ->
          match Singe.Perf_model.predict c ~total_points with
          | exception _ -> add_string b "predict-failed"
          | pred -> add_prediction b pred)
        [ 2048; 32768; 262144 ]);
  (!programs, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_golden_bit_identity () =
  let programs, digest = golden_digest () in
  Alcotest.(check int) "programs digested" 273 programs;
  Alcotest.(check string) "prediction and trace digest"
    "4e31401a8c906494061f1ec37460e352" digest

(* The same programs launched with fewer CTAs than their occupancy: one
   CTA, and one short of the occupancy, at 2 and 8 batches per CTA (the
   second past the simulated rounds, so the steady-state walks run too).
   Only these predictions walk the program themselves instead of reading
   the walk stored at its occupancy; a one-CTA launch of a program whose
   occupancy is one reads the stored walk, and is digested all the same. *)
let below_occupancy_digest () =
  let b = Buffer.create (1 lsl 18) in
  let launches = ref 0 and below = ref 0 in
  iter_golden_set
    ~on_fail:(fun () -> add_string b "compile-failed")
    (fun arch c ->
      let p = c.Singe.Compile.lowered.Singe.Lower.program in
      match Gpusim.Chip.occupancy arch p with
      | exception Gpusim.Chip.Occupancy_rejected _ ->
          add_string b "occupancy-rejected"
      | occ ->
          let occupancy = occ.Gpusim.Chip.resident_ctas in
          add_int b occupancy;
          List.iter
            (fun ctas ->
              if ctas < occupancy then below := !below + 2;
              List.iter
                (fun per_cta ->
                  incr launches;
                  match
                    Singe.Perf_model.predict ~ctas c
                      ~total_points:(ctas * per_cta)
                  with
                  | exception _ -> add_string b "predict-failed"
                  | pred -> add_prediction b pred)
                [ 64; 256 ])
            (if occupancy > 2 then [ 1; occupancy - 1 ] else [ 1 ]));
  (!launches, !below, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_below_occupancy_bit_identity () =
  let launches, below, digest = below_occupancy_digest () in
  Alcotest.(check int) "launches digested" 506 launches;
  Alcotest.(check int) "launches below occupancy" 430 below;
  Alcotest.(check string) "below-occupancy prediction digest"
    "0ceaf0c50d9b4b8f50ecefd1bf74dfa8" digest

(* ---- the model's program-only facts are a compile output ---- *)

let facts_name (c : Singe.Compile.t) =
  Printf.sprintf "%s on %s"
    c.Singe.Compile.lowered.Singe.Lower.program.Gpusim.Isa.name
    c.Singe.Compile.options.Singe.Compile.arch.Gpusim.Arch.name

(* What a prediction reads from the artifact is exactly what the program
   it describes yields, on every program the golden digest predicts: the
   facts, and the walk at the program's occupancy (none for a program no
   CTA of which fits). *)
let test_facts_match_program () =
  let programs = ref 0 and walked = ref 0 in
  iter_golden_set ~on_fail:ignore (fun _ c ->
      incr programs;
      let arch = c.Singe.Compile.options.Singe.Compile.arch in
      let p = c.Singe.Compile.lowered.Singe.Lower.program in
      let facts = c.Singe.Compile.facts in
      if facts <> Singe.Model_facts.of_layout arch p then
        Alcotest.failf "%s: stored facts differ from the program's"
          (facts_name c);
      let expected =
        match Gpusim.Chip.occupancy arch p with
        | exception Gpusim.Chip.Occupancy_rejected _ -> None
        | occ ->
            incr walked;
            Some
              (Singe.Model_facts.walk arch p facts
                 ~resident:occ.Gpusim.Chip.resident_ctas)
      in
      if facts.Singe.Model_facts.own_walk <> expected then
        Alcotest.failf "%s: stored walk differs from the walk at occupancy"
          (facts_name c));
  Alcotest.(check int) "programs checked" 273 !programs;
  Alcotest.(check int) "programs walked" 249 !walked

(* A cached compile equals an uncached one, facts, stored walk and
   verdict included, and every one of these targets fits, so
   stores a walk. *)
let test_facts_cached_equal_uncached () =
  let arch = Gpusim.Arch.kepler_k20c in
  let versions =
    Singe.Compile.[ Warp_specialized; Baseline; Naive_warp_specialized ]
  in
  List.iter
    (fun (mech, kernels) ->
      List.iter
        (fun kernel ->
          let options = Singe.Target.options ~n_warps:4 arch kernel in
          List.iter
            (fun version ->
              let compile ?memo () =
                Singe.Diagnostics.ok_exn
                  (Singe.Compile.compile ?memo mech kernel version options)
              in
              let c = compile () and cached = compile ~memo:true () in
              if c.Singe.Compile.facts <> cached.Singe.Compile.facts then
                Alcotest.failf "%s: cached facts differ from uncached"
                  (facts_name c);
              if c.Singe.Compile.verdict <> cached.Singe.Compile.verdict then
                Alcotest.failf "%s: cached verdict differs from uncached"
                  (facts_name c);
              if cached.Singe.Compile.facts.Singe.Model_facts.own_walk = None
              then Alcotest.failf "%s: no stored walk" (facts_name c))
            versions)
        kernels)
    [
      ( hydrogen (),
        Singe.Kernel_abi.
          [ Viscosity; Diffusion; Chemistry; Stencil Singe.Stencil_pipe.Edge3 ]
      );
      (dme (), Singe.Kernel_abi.[ Viscosity; Diffusion ]);
    ]

(* [Isa.static_instr_count] sums list lengths; it counts exactly the
   instructions [iter_instrs] visits, on both phases of every golden
   program and of two naive programs (whose bodies are warp switches). *)
let test_static_instr_count () =
  let visited block =
    let n = ref 0 in
    Gpusim.Isa.iter_instrs block (fun _ -> incr n);
    !n
  in
  let programs = ref 0 in
  let check (c : Singe.Compile.t) =
    incr programs;
    let p = c.Singe.Compile.lowered.Singe.Lower.program in
    List.iter
      (fun (phase, block) ->
        Alcotest.(check int)
          (Printf.sprintf "%s %s" (facts_name c) phase)
          (visited block)
          (Gpusim.Isa.static_instr_count block))
      [ ("prologue", p.Gpusim.Isa.prologue); ("body", p.Gpusim.Isa.body) ]
  in
  iter_golden_set ~on_fail:ignore (fun _ c -> check c);
  List.iter
    (fun kernel ->
      check
        (Singe.Diagnostics.ok_exn
           (Singe.Compile.compile ~memo:true (hydrogen ()) kernel
              Singe.Compile.Naive_warp_specialized
              (Singe.Target.options ~n_warps:4 Gpusim.Arch.kepler_k20c kernel))))
    Singe.Kernel_abi.[ Viscosity; Chemistry ];
  Alcotest.(check int) "programs counted" 275 !programs

(* ---- golden bit-identity of lowering ---- *)

(* A structural MD5 over every [Lower.output] of the compile-cold
   benchmark's compiling configurations (mechanism x kernel x version x
   warps) on both architectures, plus one naive (overlay off, Fig. 9)
   target, one Fermi target with the exchange rewrite forced on, and
   targets compiled with the list scheduler off. Naive and baseline
   lowering, where the allocator and the scheduler do most of their
   work, are pinned here; the prediction digest above covers only
   warp-specialized programs. *)
let add_lowered b (l : Singe.Lower.output) =
  add_value b l.Singe.Lower.program;
  List.iter (add_int b)
    [
      l.Singe.Lower.n_spill_slots;
      l.Singe.Lower.spill_bytes_per_thread;
      l.Singe.Lower.n_bank_regs;
      l.Singe.Lower.n_params;
      l.Singe.Lower.n_logical_consts;
    ];
  add_value b l.Singe.Lower.exchange

let lowering_configs =
  [
    ("dme", "viscosity", "ws", 4);
    ("dme", "viscosity", "ws", 8);
    ("dme", "viscosity", "naive", 8);
    ("dme", "viscosity", "baseline", 4);
    ("dme", "diffusion", "ws", 4);
    ("dme", "diffusion", "ws", 8);
    ("dme", "diffusion", "baseline", 4);
    ("dme", "diffusion", "naive", 8);
    ("dme", "chemistry", "naive", 4);
    ("dme", "chemistry", "baseline", 8);
    ("methane", "diffusion", "ws", 8);
    ("methane", "diffusion", "naive", 4);
    ("methane", "chemistry", "naive", 8);
    ("heptane", "diffusion", "ws", 8);
    ("heptane", "diffusion", "naive", 4);
    ("heptane", "diffusion", "baseline", 4);
    ("heptane", "chemistry", "naive", 4);
    ("hydrogen", "chemistry", "ws", 8);
    ("hydrogen", "viscosity", "baseline", 8);
    ("heptane", "edge3", "ws", 4);
    ("methane", "unsharp2", "ws", 8);
    ("heptane", "edge3", "naive", 8);
    ("methane", "unsharp2", "baseline", 4);
  ]

let lowering_digest () =
  let b = Buffer.create (1 lsl 20) in
  let programs = ref 0 in
  let mech name =
    List.assoc name
      (List.map (fun (n, g) -> (n, g ())) Chem.Mech_gen.bundled)
  in
  let digest_compile mech kernel version options =
    match Singe.Compile.compile mech kernel version options with
    | Error d -> add_string b ("failed: " ^ Singe.Diagnostics.to_string d)
    | Ok c ->
        incr programs;
        add_lowered b c.Singe.Compile.lowered
  in
  let target arch (m, k, v, n_warps) =
    let kernel = Result.get_ok (Singe.Target.kernel_of_string k) in
    ( mech m,
      kernel,
      Result.get_ok (Singe.Target.version_of_string v),
      Singe.Target.options ~n_warps arch kernel )
  in
  let kepler = Gpusim.Arch.kepler_k20c and fermi = Gpusim.Arch.fermi_c2070 in
  List.iter
    (fun arch ->
      List.iter
        (fun cfg ->
          let m, k, v, o = target arch cfg in
          digest_compile m k v o)
        lowering_configs)
    [ kepler; fermi ];
  (let m, k, v, o = target kepler ("dme", "viscosity", "naive", 6) in
   digest_compile m k v o);
  (let m, k, v, o = target fermi ("dme", "diffusion", "ws", 8) in
   digest_compile m k v { o with Singe.Compile.synth_exchange = Some true });
  List.iter
    (fun (arch, cfg) ->
      let m, k, v, o = target arch cfg in
      digest_compile m k v { o with Singe.Compile.list_schedule = false })
    [
      (kepler, ("dme", "diffusion", "ws", 8));
      (fermi, ("dme", "viscosity", "naive", 4));
    ];
  (!programs, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_lowering_bit_identity () =
  let programs, digest = lowering_digest () in
  Alcotest.(check int) "programs lowered" 50 programs;
  Alcotest.(check string) "lowering digest"
    "96dc6902ea6ac9b9c2fa4cbdd9b52cd6" digest

(* ---- golden bit-identity of simulation ---- *)

(* A structural MD5 over every field of [Chip.run]'s result for the
   serve-warm benchmark targets (Kepler), Fermi versions of three of them,
   and three fault injections: full-round and tail-round [Sm.result]s
   (cycles, counters, cache stats, the full profile with its timeline),
   the chip schedule, the output memory and the host oracle's error; a
   run that faults contributes its whole report instead. Each target runs
   with and without the profiler, so both paths are pinned. *)
let add_sm_result b (r : Gpusim.Sm.result) =
  add_int b r.Gpusim.Sm.cycles;
  add_value b r.Gpusim.Sm.counters;
  add_value b r.Gpusim.Sm.icache;
  add_value b r.Gpusim.Sm.ccache;
  add_value b r.Gpusim.Sm.profile

let add_chip_result b (m : Gpusim.Chip.result) =
  let open Gpusim.Chip in
  add_value b m.occ;
  add_float b m.waves;
  add_int b m.sm_cycles;
  List.iter (add_float b)
    [ m.time_s; m.points_per_sec; m.gflops; m.dram_gbs; m.local_gbs ];
  add_sm_result b m.sim;
  (match m.tail_sim with
  | None -> add_string b "no tail"
  | Some t -> add_sm_result b t);
  add_value b m.mem;
  add_int b m.simulated_points;
  add_value b m.chip

let serve_warm_targets =
  [
    ("hydrogen", "viscosity", "ws", 4, 4096);
    ("hydrogen", "viscosity", "ws", 8, 8192);
    ("hydrogen", "diffusion", "ws", 4, 4096);
    ("hydrogen", "diffusion", "naive", 4, 2048);
    ("hydrogen", "chemistry", "baseline", 8, 2048);
    ("hydrogen", "chemistry", "ws", 4, 8192);
    ("hydrogen", "edge3", "baseline", 4, 4096);
    ("hydrogen", "unsharp2", "baseline", 8, 2048);
    ("dme", "viscosity", "ws", 8, 4096);
    ("dme", "diffusion", "ws", 4, 8192);
    ("dme", "diffusion", "ws", 8, 2048);
    ("hydrogen", "viscosity", "naive", 4, 4096);
    ("hydrogen", "viscosity", "baseline", 4, 2048);
    ("hydrogen", "diffusion", "baseline", 4, 4096);
    ("hydrogen", "diffusion", "ws", 8, 8192);
    ("dme", "viscosity", "ws", 4, 2048);
    ("hydrogen", "unsharp2", "ws", 4, 4096);
  ]

let compile_target =
  let mechs = lazy [ ("hydrogen", hydrogen ()); ("dme", dme ()) ] in
  fun arch (m, k, v, n_warps, _) ->
    let kernel = Result.get_ok (Singe.Target.kernel_of_string k) in
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile ~memo:true
         (List.assoc m (Lazy.force mechs))
         kernel
         (Result.get_ok (Singe.Target.version_of_string v))
         (Singe.Target.options ~n_warps arch kernel))

let simulation_digest () =
  let b = Buffer.create (1 lsl 22) in
  let runs = ref 0 in
  let compile = compile_target in
  let digest_run ?faults ?max_cycles ?profile c total_points =
    incr runs;
    match
      Singe.Compile.run ?faults ?max_cycles ?profile c ~total_points
    with
    | r ->
        add_chip_result b r.Singe.Compile.machine;
        add_float b r.Singe.Compile.max_rel_err
    | exception Gpusim.Sm.Simulation_fault f -> add_value b f
  in
  let digest_target arch ((_, _, _, _, points) as t) =
    let c = compile arch t in
    digest_run ~profile:Gpusim.Sm.default_profile c points;
    digest_run c points
  in
  let kepler = Gpusim.Arch.kepler_k20c and fermi = Gpusim.Arch.fermi_c2070 in
  List.iter (digest_target kepler) serve_warm_targets;
  List.iter (digest_target fermi)
    [
      ("hydrogen", "viscosity", "ws", 4, 4096);
      ("dme", "diffusion", "ws", 4, 8192);
      ("hydrogen", "chemistry", "baseline", 8, 2048);
    ];
  let dme_visc = compile kepler ("dme", "viscosity", "ws", 6, 2048) in
  List.iter
    (fun spec ->
      digest_run
        ~faults:[ Result.get_ok (Gpusim.Fault.of_string spec) ]
        dme_visc 2048)
    [ "drop-arrive:warp=1,nth=0"; "extra-arrive:warp=1,nth=0" ];
  digest_run ~max_cycles:3000
    (compile kepler ("hydrogen", "viscosity", "ws", 4, 4096))
    4096;
  (!runs, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_simulation_bit_identity () =
  let runs, digest = simulation_digest () in
  Alcotest.(check int) "runs digested" 43 runs;
  Alcotest.(check string) "simulation digest"
    "05731a07faa951774dcca46ea28413f4" digest

(* ---- golden bit-identity under pipe contention ---- *)

(* Hand-built programs whose 16-64 warps pile onto one pipe wait class
   each: the DP pipe (with multi-slot Div/Sqrt/Exp and constant
   operands), the ALU (shuffles, synthetic warp branches, barriers), the
   load-store pipe (global, local, parameter and constant-bank loads),
   load-store plus shared (shared loads and stores with bank conflicts)
   and arith with shared-memory operands, which on Kepler needs the DP
   and then the shared pipe. The compiled golden set reaches some of
   these classes only rarely, so a change to how the issue loop retries
   parked warps is pinned here on Kepler and Fermi, with and without the
   profiler. *)
let contention_program ~name ~n_warps ?(local_doubles = 0) body =
  let open Gpusim in
  {
    Isa.name;
    n_warps;
    n_fregs = 16;
    n_iregs = 2;
    shared_doubles = 4096;
    local_doubles;
    barriers_used = 1;
    point_map = Isa.Thread_per_point;
    prologue = Isa.Instrs [];
    body;
    const_bank =
      Array.init n_warps (fun w ->
          Array.init 32 (fun l ->
              [| float_of_int ((w * 32) + l) *. 0.25; float_of_int l |]));
    param_bank =
      Array.init n_warps (fun w ->
          Array.init 32 (fun l -> [| (w + l) land 1; (w * 64) + (l * 2) |]));
    const_mem = Array.init 80 (fun i -> 1.0 +. (float_of_int i /. 8.0));
    groups =
      [|
        { Isa.group_name = "a"; fields = 3 };
        { Isa.group_name = "out"; fields = 2 };
      |];
    exp_consts_in_registers = false;
  }

let contention_programs () =
  let open Gpusim.Isa in
  let ld dst f = Ld_global { dst; group = 0; field = F_static f; via_tex = true; pred = None } in
  let st src f = St_global { src = Sreg src; group = 1; field = F_static f; pred = None } in
  let ar ?pred op dst srcs = Arith { op; dst; srcs; pred } in
  let warp_lane ?(mul = 1) base =
    { s_base = base; s_warp_mul = 64; s_lane_mul = mul; s_ireg = None; s_ireg_mul = 0 }
  in
  let dp =
    Instrs
      [
        ld 0 0;
        ar Mul 1 [| Simm 1.5; Simm 2.5 |];
        ar Add 2 [| Simm 0.25; Sconst 0 |];
        ar Div 3 [| Simm 1.0; Simm 3.0 |];
        ar Fma 4 [| Sreg 1; Sreg 2; Simm 0.5 |];
        ar Sqrt 5 [| Sreg 1 |];
        ar Fma 6 [| Sreg 0; Sconst_warp 1; Sreg 3 |];
        ar Exp 7 [| Simm 0.125 |];
        ar ~pred:(Lane_lt 16) Mul 8 [| Sreg 4; Sreg 5 |];
        ar Div 9 [| Sreg 6; Sreg 7 |];
        ar ~pred:(Lane_eq 3) Sub 10 [| Sreg 8; Sreg 9 |];
        ar Max 11 [| Sreg 10; Sreg 2 |];
        ar Min 12 [| Sreg 11; Sconst 2 |];
        ar Neg 13 [| Sreg 12 |];
        ar Log 14 [| Simm 2.0 |];
        ar Fma 15 [| Sreg 13; Sreg 14; Sreg 0 |];
        st 15 0;
      ]
  in
  let alu n_warps =
    let arm w =
      match w mod 3 with
      | 0 ->
          Instrs
            [
              Mov { dst = 0; src = Simm 0.5; pred = None };
              Shfl { dst = 1; src = 0; lane = 3 };
              Shfl_rot { dst = 2; src = 0; delta = 5 };
              Shfl_bfly { dst = 3; src = 0; xor_mask = 7 };
              Shfl { dst = 4; src = 0; lane = 30 };
              Shfl_rot { dst = 5; src = 0; delta = 31 };
              Shfl_bfly { dst = 6; src = 0; xor_mask = 1 };
              Shfl_rot { dst = 7; src = 3; delta = 2 };
              Mov { dst = 8; src = Sreg 7; pred = None };
              st 8 0;
            ]
      | 1 ->
          Instrs
            [
              Ld_param { dst_i = 0; slot = 0 };
              Mov { dst = 1; src = Simm 0.5; pred = Some (Lane_lt 20) };
              Shfl_bfly { dst = 2; src = 1; xor_mask = 1 };
              Shfl_rot { dst = 3; src = 1; delta = 31 };
              Shfl { dst = 4; src = 1; lane = 19 };
              Shfl_bfly { dst = 5; src = 1; xor_mask = 16 };
              Ishfl { dst_i = 1; src_i = 0; lane = 2 };
              Shfl_rot { dst = 6; src = 5; delta = 7 };
              st 6 1;
            ]
      | _ ->
          Instrs
            [
              Mov { dst = 0; src = Sconst 3; pred = None };
              Shfl { dst = 1; src = 0; lane = 0 };
              Shfl_rot { dst = 2; src = 0; delta = 1 };
              Shfl { dst = 3; src = 0; lane = 31 };
              Shfl_bfly { dst = 4; src = 0; xor_mask = 3 };
              Shfl_rot { dst = 5; src = 4; delta = 9 };
              st 5 0;
            ]
    in
    let even = ref 0 in
    for w = 0 to n_warps - 1 do
      if w land 1 = 0 then even := !even lor (1 lsl w)
    done;
    Seq
      [
        Switch_warp (Array.init n_warps arm);
        If_warps { mask = !even; body = Instrs [ Bar_arrive { bar = 0; count = n_warps } ] };
        If_warps
          {
            mask = lnot !even land ((1 lsl n_warps) - 1);
            body = Instrs [ Bar_sync { bar = 0; count = n_warps } ];
          };
        Instrs [ Shfl_bfly { dst = 5; src = 0; xor_mask = 16 }; Bar_cta ];
      ]
  in
  let lsu =
    Instrs
      [
        Ld_param { dst_i = 0; slot = 0 };
        Ld_global { dst = 0; group = 0; field = F_ireg 0; via_tex = false; pred = None };
        ld 1 1;
        Ld_const_bank { dst = 2; slot = 0 };
        St_local { src = 2; slot = 0 };
        Ld_local { dst = 3; slot = 1 };
        Ld_global { dst = 4; group = 0; field = F_static 2; via_tex = false; pred = Some (Lane_lt 8) };
        St_local { src = 1; slot = 1 };
        Ld_local { dst = 5; slot = 0 };
        Ld_const_bank { dst = 6; slot = 1 };
        St_global { src = Sreg 0; group = 1; field = F_static 0; pred = None };
        St_global { src = Sreg 5; group = 1; field = F_ireg 0; pred = None };
        St_global { src = Sreg 3; group = 1; field = F_static 1; pred = Some (Lane_eq 5) };
        St_global { src = Sreg 6; group = 1; field = F_static 1; pred = Some (Lane_lt 3) };
      ]
  in
  let shared =
    Instrs
      [
        St_shared { src = Simm 1.0; addr = warp_lane ~mul:2 0; pred = None };
        Ld_shared { dst = 1; addr = warp_lane 1; pred = None };
        Ld_shared { dst = 2; addr = sh 5; pred = None };
        Ld_shared { dst = 7; addr = sh_lane ~mul:2 0; pred = None };
        Ld_shared { dst = 8; addr = sh_lane ~mul:4 3; pred = Some (Lane_lt 24) };
        St_shared { src = Simm 2.0; addr = warp_lane ~mul:0 3; pred = Some (Lane_lt 4) };
        Ld_shared { dst = 9; addr = warp_lane ~mul:8 0; pred = None };
        Ld_param { dst_i = 0; slot = 1 };
        ld 0 0;
        Ld_shared { dst = 3; addr = sh_ireg ~lane_mul:3 ~base:0 ~ireg:0 ~mul:1 (); pred = None };
        St_shared { src = Sreg 0; addr = warp_lane ~mul:2 0; pred = None };
        St_shared { src = Sshared (sh_lane 7); addr = warp_lane 32; pred = None };
        Mov { dst = 4; src = Sshared (sh_lane ~mul:4 16); pred = None };
        ar Add 5 [| Sreg 1; Sreg 2 |];
        ar Fma 6 [| Sreg 3; Sreg 4; Sreg 7 |];
        ar Fma 10 [| Sreg 8; Sreg 9; Sreg 6 |];
        st 5 0;
        st 10 1;
      ]
  in
  let shared_operand =
    Instrs
      [
        ld 0 0;
        St_shared { src = Sreg 0; addr = warp_lane 0; pred = None };
        ar Fma 1 [| Sreg 0; Sshared (sh_lane ~mul:2 0); Simm 1.0 |];
        ar Mul 2 [| Sshared (sh 3); Sshared (warp_lane 1) |];
        ar Add 3 [| Simm 1.0; Simm 2.0 |];
        ar Div 4 [| Sshared (sh_lane ~mul:8 0); Simm 3.0 |];
        Ld_shared { dst = 5; addr = sh_lane ~mul:2 1; pred = None };
        ar ~pred:(Lane_lt 12) Sqrt 6 [| Sshared (warp_lane 2) |];
        ar Sub 7 [| Sreg 1; Sreg 2 |];
        ar Fma 8 [| Sreg 4; Sreg 5; Sshared (sh_ireg ~base:0 ~ireg:0 ~mul:0 ()) |];
        ar Add 9 [| Sreg 7; Sreg 8 |];
        st 9 0;
        st 6 1;
      ]
  in
  [
    (contention_program ~name:"dp" ~n_warps:24 dp, 2);
    (contention_program ~name:"alu" ~n_warps:32 (alu 32), 1);
    (contention_program ~name:"lsu" ~n_warps:32 ~local_doubles:2 lsu, 2);
    (contention_program ~name:"shared" ~n_warps:16 shared, 2);
    (contention_program ~name:"shared-operand" ~n_warps:32 shared_operand, 1);
  ]

(* A three-batch job of one contention program, its trace and its
   memory, the inputs filled. *)
let contention_job arch ((p : Gpusim.Isa.program), resident_ctas) =
  let open Gpusim in
  let batches = 3 in
  let per_cta = batches * p.Isa.n_warps * 32 in
  let n_points = resident_ctas * per_cta in
  let mem = Memstate.create p ~n_points ~resident_ctas in
  for f = 0 to 2 do
    Memstate.set_field mem ~group:0 ~field:f
      (Array.init n_points (fun i -> float_of_int ((i * 7) + f) /. 16.0))
  done;
  ( {
      Sm.arch;
      program = p;
      resident_ctas;
      batches;
      cta_point_base = Array.init resident_ctas (fun c -> c * per_cta);
    },
    Trace.flatten arch p,
    mem )

let contention_digest () =
  let open Gpusim in
  let b = Buffer.create (1 lsl 20) in
  let runs = ref 0 in
  let digest_run arch prog profile =
    incr runs;
    let job, trace, mem = contention_job arch prog in
    let r, order = Sm.run ?profile job trace in
    Sm.replay job trace mem order;
    add_sm_result b r;
    add_value b mem
  in
  List.iter
    (fun arch ->
      List.iter
        (fun ((p, _) as prog) ->
          (match Isa.validate p with
          | Ok () -> ()
          | Error es -> Alcotest.fail (String.concat "; " es));
          digest_run arch prog (Some Sm.default_profile);
          digest_run arch prog None)
        (contention_programs ()))
    [ Arch.kepler_k20c; Arch.fermi_c2070 ];
  (!runs, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_contention_bit_identity () =
  let runs, digest = contention_digest () in
  Alcotest.(check int) "runs digested" 20 runs;
  Alcotest.(check string) "contention digest"
    "7e5662e49cf7bae16b3750d6b98e0228" digest

(* ---- issue-order replay ---- *)

(* A compiled serve target's job at up to three batches, its trace with
   [faults] applied, and its memory filled with the target's inputs. *)
let compiled_job ?(faults = []) arch ((_, _, _, _, total_points) as t) =
  let open Gpusim in
  let c = compile_target arch t in
  let mech = c.Singe.Compile.mech and kernel = c.Singe.Compile.kernel in
  let p = c.Singe.Compile.lowered.Singe.Lower.program in
  let ctas = Singe.Compile.default_ctas c ~total_points in
  let launch = { Chip.program = p; total_points; ctas } in
  let resident_ctas = min (Chip.occupancy arch p).Chip.resident_ctas ctas in
  let all_batches = Chip.batches_per_cta launch in
  let batches = min 3 all_batches in
  let per_cta = batches * (Chip.points_per_cta launch / all_batches) in
  let n_points = resident_ctas * per_cta in
  let mem = Memstate.create p ~n_points ~resident_ctas in
  Singe.Kernel_abi.fill_inputs mech
    (Chem.Grid.create mech ~points:n_points ~seed:0x5EEDL)
    kernel p mem n_points;
  ( {
      Sm.arch;
      program = p;
      resident_ctas;
      batches;
      cta_point_base = Array.init resident_ctas (fun c -> c * per_cta);
    },
    Fault.apply ~named_barriers:arch.Arch.named_barriers_per_sm faults
      (Trace.flatten arch p),
    mem )

(* [Sm.run] returns its issue order (its own assertion checks one byte
   per issue), and the profiler perturbs neither the order nor the
   result apart from its [profile] field, nor the report of a run that
   aborts; the order fits the job, so replaying it on the job's memory
   completes. (The memory a replay leaves is pinned by the simulation
   and contention digests.) Checked
   on the serve-warm targets (Kepler) and three Fermi ones, at their
   resident CTA count and at one CTA (a tail round's shape), on the
   contention programs on both architectures, under two barrier fault
   injections and under an exhausted cycle budget. *)
let test_replay_equals_full_run () =
  let open Gpusim in
  let runs = ref 0 in
  let bytes v = Marshal.to_string v [ Marshal.No_sharing ] in
  let outcome ?max_cycles ?profile job trace =
    match Sm.run ?max_cycles ?profile job trace with
    | r, order -> Ok ({ r with Sm.profile = None }, order)
    | exception Sm.Simulation_fault f -> Error f
  in
  let check ?max_cycles label (job, trace, mem) =
    incr runs;
    let plain = outcome ?max_cycles job trace in
    let profiled = outcome ?max_cycles ~profile:Sm.default_profile job trace in
    Alcotest.(check bool)
      (label ^ ": the profiler changes neither result nor order")
      true
      (bytes plain = bytes profiled);
    match plain with
    | Error _ -> ()
    | Ok (_, order) -> Sm.replay job trace mem order
  in
  let check_target arch ((m, k, v, w, n) as t) =
    let label = Printf.sprintf "%s %s %s %s w%d %d" arch.Arch.name m k v w n in
    let job, trace, mem = compiled_job arch t in
    check label (job, trace, mem);
    check (label ^ " one CTA")
      ({ job with Sm.resident_ctas = 1; cta_point_base = [| 0 |] }, trace, mem)
  in
  let kepler = Arch.kepler_k20c and fermi = Arch.fermi_c2070 in
  List.iter (check_target kepler) serve_warm_targets;
  List.iter (check_target fermi)
    [
      ("hydrogen", "viscosity", "ws", 4, 4096);
      ("dme", "diffusion", "ws", 4, 8192);
      ("hydrogen", "chemistry", "baseline", 8, 2048);
    ];
  List.iter
    (fun arch ->
      List.iter
        (fun ((p, _) as prog) ->
          check
            (Printf.sprintf "%s contention %s" arch.Arch.name p.Isa.name)
            (contention_job arch prog))
        (contention_programs ()))
    [ kepler; fermi ];
  List.iter
    (fun spec ->
      check spec
        (compiled_job
           ~faults:[ Result.get_ok (Fault.of_string spec) ]
           kepler
           ("dme", "viscosity", "ws", 6, 2048)))
    [ "drop-arrive:warp=1,nth=0"; "extra-arrive:warp=1,nth=0" ];
  check ~max_cycles:3000 "cycle budget"
    (compiled_job kepler ("hydrogen", "viscosity", "ws", 4, 4096));
  Alcotest.(check int) "jobs compared" 53 !runs

(* ---- predictions served from an artifact's launch state ---- *)

let prediction_bytes (p : Singe.Perf_model.prediction) =
  Marshal.to_string p [ Marshal.No_sharing ]

(* One launch's prediction, as bytes. *)
let predicted ?ctas ?n_sms ?skew c total_points =
  prediction_bytes (Singe.Perf_model.predict ?ctas ?n_sms ?skew c ~total_points)

let predictions () = Singe.Compile.launch_state_stats ()
let stored () = (predictions ()).Singe.Compile.predictions_stored
let served () = (predictions ()).Singe.Compile.predictions_served
let ws kernel = compile (hydrogen ()) kernel Singe.Compile.Warp_specialized

(* The same target compiled outside the memo: an artifact with no launch
   state, so every prediction on it is computed afresh. *)
let one_shot (c : Singe.Compile.t) =
  Singe.Diagnostics.ok_exn
    (Singe.Compile.compile c.Singe.Compile.mech c.Singe.Compile.kernel
       c.Singe.Compile.version c.Singe.Compile.options)

(* Every golden-set program at the golden digest's three launch sizes and
   at the below-occupancy launches: the second prediction on the
   memoized artifact is served, and marshals to the bytes of a fresh
   prediction on a one-shot compile, which stores nothing. A launch the
   model rejects raises the same exception every time. *)
let test_served_equals_fresh () =
  let launches = ref 0 in
  iter_golden_set ~on_fail:ignore (fun arch c ->
      let p = c.Singe.Compile.lowered.Singe.Lower.program in
      let c1 = one_shot c in
      let below =
        match Gpusim.Chip.occupancy arch p with
        | exception Gpusim.Chip.Occupancy_rejected _ -> []
        | occ ->
            let occupancy = occ.Gpusim.Chip.resident_ctas in
            List.concat_map
              (fun ctas -> [ (Some ctas, ctas * 64); (Some ctas, ctas * 256) ])
              (if occupancy > 2 then [ 1; occupancy - 1 ] else [ 1 ])
      in
      List.iter
        (fun (ctas, total_points) ->
          incr launches;
          let predict c =
            match predicted ?ctas c total_points with
            | bytes -> Ok bytes
            | exception e -> Error (Printexc.to_string e)
          in
          let first = predict c in
          let stored0 = stored () and served0 = served () in
          let fresh = predict c1 in
          let again = predict c in
          let name =
            Printf.sprintf "%s, %d points" (facts_name c) total_points
          in
          if stored () <> stored0 then
            Alcotest.failf "%s: a one-shot prediction was stored" name;
          if Result.is_ok fresh && served () <> served0 + 1 then
            Alcotest.failf "%s: the repeated prediction was not served" name;
          if first <> fresh || again <> fresh then
            Alcotest.failf "%s: a served prediction differs from a fresh one"
              name)
        ([ (None, 2048); (None, 32768); (None, 262144) ] @ below));
  Alcotest.(check int) "launches compared" 1325 !launches

(* Launches that differ in one resolved field (points, CTAs, SMs, skew,
   and the sign of a zero skew) each miss and store their own answer,
   equal to a fresh one; repeating them serves each its own. The key is
   the resolved launch: one that leaves every field to its default is
   served the answer of the same launch spelled out. *)
let test_launch_keys_apart () =
  Singe.Compile.memo_clear ();
  let c = ws Singe.Kernel_abi.Viscosity in
  let launches =
    [
      ("skew 0.0", None, 32768, None, Some 0.0);
      ("points", None, 65536, None, None);
      ("ctas", Some 512, 32768, None, None);
      ("sms", None, 32768, Some 4, None);
      ("skew", None, 32768, None, Some 0.25);
      ("skew -0.0", None, 32768, None, Some (-0.0));
    ]
  in
  let n = List.length launches in
  let predict c (_, ctas, total_points, n_sms, skew) =
    predicted ?ctas ?n_sms ?skew c total_points
  in
  let fresh = List.map (predict (one_shot c)) launches in
  Alcotest.(check int) "distinct answers" n
    (List.length (List.sort_uniq compare fresh));
  let check_all how =
    List.iter2
      (fun ((what, _, _, _, _) as l) f ->
        Alcotest.(check bool) (what ^ how) true (predict c l = f))
      launches fresh
  in
  let stored0 = stored () and served0 = served () in
  check_all ": computed equals fresh";
  Alcotest.(check int) "each launch stored its own answer" (stored0 + n)
    (stored ());
  Alcotest.(check int) "none served another's" served0 (served ());
  check_all ": served equals fresh";
  Alcotest.(check int) "repeats are served" (served0 + n) (served ());
  let defaults = predicted c 32768 in
  Alcotest.(check int) "the defaulted launch is served" (served0 + n + 1)
    (served ());
  Alcotest.(check bool) "the spelled-out launch's answer" true
    (defaults = List.hd fresh)

(* A [{ c with schedule; verdict }] copy of a memoized artifact, as the
   partition tests build to poison a verdict, shares [c]'s launch state:
   it is served [c]'s answers, and [c] is served what it stores. Every
   answer equals a one-shot compile's. *)
let test_copy_shares_state () =
  Singe.Compile.memo_clear ();
  let c = ws Singe.Kernel_abi.Diffusion in
  let c1 = one_shot c in
  let fresh = predicted c1 32768 and fresh' = predicted c1 65536 in
  let original = predicted c 32768 in
  let copy =
    {
      c with
      Singe.Compile.schedule = c.Singe.Compile.schedule;
      verdict = Error ("deadlock-check", [ "poisoned for the test" ]);
    }
  in
  let stored0 = stored () and served0 = served () in
  let copied = predicted copy 32768 in
  Alcotest.(check int) "the copy is served c's answer" (served0 + 1)
    (served ());
  let copied' = predicted copy 65536 in
  Alcotest.(check int) "a new launch of the copy is stored" (stored0 + 1)
    (stored ());
  let original' = predicted c 65536 in
  Alcotest.(check int) "and served to c" (served0 + 2) (served ());
  Alcotest.(check bool) "all equal a one-shot compile's" true
    (original = fresh && copied = fresh && copied' = fresh'
    && original' = fresh')

(* A served answer is a copy: writing into its [chip.sms] (or into the
   answer computed when it was stored) leaves the next answer as fresh. *)
let test_served_answers_are_copies () =
  Singe.Compile.memo_clear ();
  let c = ws Singe.Kernel_abi.Conductivity in
  let fresh = predicted (one_shot c) 32768 in
  let poison (p : Singe.Perf_model.prediction) =
    let sms = p.Singe.Perf_model.chip.Gpusim.Chip.sms in
    Array.iteri
      (fun i s ->
        sms.(i) <- { s with Gpusim.Chip.sm_ctas = -1; sm_finish = nan })
      sms
  in
  poison (Singe.Perf_model.predict c ~total_points:32768);
  let served0 = served () in
  let p = Singe.Perf_model.predict c ~total_points:32768 in
  Alcotest.(check int) "served" (served0 + 1) (served ());
  Alcotest.(check bool) "after the stored answer was poisoned" true
    (prediction_bytes p = fresh);
  poison p;
  Alcotest.(check bool) "after a served answer was poisoned" true
    (predicted c 32768 = fresh)

(* An artifact evicted from the compile memo and no longer held is
   collected with its launch state, answers included: the occupancy
   record an answer shares with the stored one goes with it. *)
let test_answers_die_with_artifact () =
  let prev_limit = (Singe.Compile.memo_stats ()).Sutil.Cache.limit in
  Fun.protect
    ~finally:(fun () -> Singe.Compile.set_memo_limit prev_limit)
    (fun () ->
      Singe.Compile.memo_clear ();
      Singe.Compile.set_memo_limit 1;
      let artifact = Weak.create 1 and answer = Weak.create 1 in
      let predict_and_forget kernel =
        let c = ws kernel in
        let stored0 = stored () in
        let p = Singe.Perf_model.predict c ~total_points:32768 in
        Alcotest.(check int) "stored" (stored0 + 1) (stored ());
        Weak.set artifact 0 (Some c);
        Weak.set answer 0 (Some p.Singe.Perf_model.occ)
      in
      (Sys.opaque_identity predict_and_forget) Singe.Kernel_abi.Viscosity;
      Gc.full_major ();
      Alcotest.(check bool) "a memoized artifact stays" true
        (Weak.check artifact 0);
      Alcotest.(check bool) "with its answer" true (Weak.check answer 0);
      (* Evict it. *)
      let resident = ws Singe.Kernel_abi.Diffusion in
      Gc.full_major ();
      Alcotest.(check bool) "an evicted artifact is collected" false
        (Weak.check artifact 0);
      Alcotest.(check bool) "with its answer" false (Weak.check answer 0);
      ignore (Sys.opaque_identity resident))

(* An artifact the memo evicted, while a caller still holds it, keeps
   its launch state: it is served the answers it stored and stores new
   ones. The target compiled again is a new artifact with a fresh state,
   which computes its answers afresh. *)
let test_evicted_artifact_keeps_state () =
  let prev_limit = (Singe.Compile.memo_stats ()).Sutil.Cache.limit in
  Fun.protect
    ~finally:(fun () -> Singe.Compile.set_memo_limit prev_limit)
    (fun () ->
      Singe.Compile.memo_clear ();
      Singe.Compile.set_memo_limit 1;
      let c = ws Singe.Kernel_abi.Viscosity in
      let c1 = one_shot c in
      let fresh = predicted c1 32768 and fresh' = predicted c1 65536 in
      ignore (predicted c 32768);
      let evictions () = (Singe.Compile.memo_stats ()).Sutil.Cache.evictions in
      let evictions0 = evictions () in
      let resident = ws Singe.Kernel_abi.Diffusion in
      Alcotest.(check int) "evicted" (evictions0 + 1) (evictions ());
      let stored0 = stored () and served0 = served () in
      Alcotest.(check bool) "the evicted artifact is served its answer" true
        (predicted c 32768 = fresh);
      Alcotest.(check int) "served" (served0 + 1) (served ());
      Alcotest.(check bool) "and predicts a new launch" true
        (predicted c 65536 = fresh');
      Alcotest.(check int) "which it stores" (stored0 + 1) (stored ());
      let again = ws Singe.Kernel_abi.Viscosity in
      Alcotest.(check bool) "compiled again, a new artifact" true
        (again != c);
      Alcotest.(check bool) "whose answer is computed afresh" true
        (predicted again 32768 = fresh);
      Alcotest.(check int) "and stored" (stored0 + 2) (stored ());
      Alcotest.(check int) "not served" (served0 + 1) (served ());
      ignore (Sys.opaque_identity resident))

(* An artifact compiled outside the memo has no launch state: predicting
   or running it stores and serves nothing, and keeps no state alive. *)
let test_one_shot_stores_nothing () =
  Singe.Compile.memo_clear ();
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile (hydrogen ()) Singe.Kernel_abi.Viscosity
         Singe.Compile.Warp_specialized
         (Singe.Target.options arch Singe.Kernel_abi.Viscosity))
  in
  let s0 = predictions () in
  let a = predicted c 32768 in
  let b = predicted c 32768 in
  let s1 = predictions () in
  Alcotest.(check bool) "equal answers" true (a = b);
  Alcotest.(check int) "nothing stored" s0.Singe.Compile.predictions_stored
    s1.Singe.Compile.predictions_stored;
  Alcotest.(check int) "nothing served" s0.Singe.Compile.predictions_served
    s1.Singe.Compile.predictions_served;
  ignore (Singe.Compile.run c ~total_points:4096);
  ignore (Singe.Compile.run c ~total_points:4096);
  let s2 = predictions () in
  Alcotest.(check int) "no run stored" s1.Singe.Compile.launches_stored
    s2.Singe.Compile.launches_stored;
  Alcotest.(check int) "no run served" s1.Singe.Compile.launches_served
    s2.Singe.Compile.launches_served

let tests =
  [
    Alcotest.test_case "golden model and trace bit-identity" `Quick
      test_golden_bit_identity;
    Alcotest.test_case "golden lowering bit-identity" `Quick
      test_lowering_bit_identity;
    Alcotest.test_case "golden simulation bit-identity" `Quick
      test_simulation_bit_identity;
    Alcotest.test_case "golden below-occupancy predictions" `Quick
      test_below_occupancy_bit_identity;
    Alcotest.test_case "stored facts match the program" `Quick
      test_facts_match_program;
    Alcotest.test_case "cached facts equal uncached" `Quick
      test_facts_cached_equal_uncached;
    Alcotest.test_case "static instruction count matches iter_instrs" `Quick
      test_static_instr_count;
    Alcotest.test_case "sim never beats floor or roofline" `Quick
      test_floor_and_roofline;
    Alcotest.test_case "model accuracy within 35%" `Quick test_model_accuracy;
    Alcotest.test_case "pruned sweep finds exhaustive winner" `Quick
      test_pruned_matches_exhaustive;
    Alcotest.test_case "tune deterministic across jobs" `Quick
      test_tune_jobs_deterministic;
    Alcotest.test_case "lower rejects unproduced value" `Quick
      test_lower_unproduced_value;
    Alcotest.test_case "sexpr unbound var diagnostic" `Quick
      test_sexpr_var_diagnostic;
    Alcotest.test_case "chemkin coefficient overflow positioned" `Quick
      test_chemkin_coeff_overflow;
    Alcotest.test_case "golden simulation under pipe contention" `Quick
      test_contention_bit_identity;
    Alcotest.test_case "replayed issue order equals the full run" `Quick
      test_replay_equals_full_run;
    Alcotest.test_case "served predictions equal fresh ones" `Quick
      test_served_equals_fresh;
    Alcotest.test_case "launch keys keep launches apart" `Quick
      test_launch_keys_apart;
    Alcotest.test_case "an artifact copy shares its state" `Quick
      test_copy_shares_state;
    Alcotest.test_case "served predictions are copies" `Quick
      test_served_answers_are_copies;
    Alcotest.test_case "answers die with their artifact" `Quick
      test_answers_die_with_artifact;
    Alcotest.test_case "an evicted artifact keeps its state" `Quick
      test_evicted_artifact_keeps_state;
    Alcotest.test_case "one-shot artifacts store no predictions" `Quick
      test_one_shot_stores_nothing;
  ]
