(* The automatic partition searcher and the bugfix sweep that rode along
   with it: degenerate mapping inputs become positioned diagnostics
   instead of array faults, bad auto-specs are rejected before the
   pipeline runs, the deadlock gate kills every seeded mutant before the
   simulator sees it, the search is deterministic under any domain count
   and never loses to the hand partition, and the lowering satellites
   (register-file-derived live-range slack, striped-parameter temporary
   accounting) stay fixed. *)

let hydrogen = lazy (Chem.Mech_gen.hydrogen ())
let arch = Gpusim.Arch.kepler_k20c

let base_options kernel = Singe.Target.options ~n_warps:8 arch kernel

let compiled kernel =
  Singe.Compile.compile_cached (Lazy.force hydrogen) kernel
    Singe.Compile.Warp_specialized (base_options kernel)

(* A four-op graph — two loads, one add, one store — small enough that
   every warp count above it exercises the degenerate surplus-warp path. *)
let tiny_dfg () =
  let b = Singe.Dfg.Builder.create "tiny" in
  let x = Singe.Dfg.Builder.load b ~name:"x" ~group:"in" ~field:0 () in
  let y = Singe.Dfg.Builder.load b ~name:"y" ~group:"in" ~field:1 () in
  let s =
    Singe.Dfg.Builder.compute b ~name:"sum" ~inputs:[| x; y |]
      (Singe.Sexpr.add (Singe.Sexpr.In 0) (Singe.Sexpr.In 1))
  in
  Singe.Dfg.Builder.store b ~name:"out" ~group:"out" ~field:0 s;
  Singe.Dfg.Builder.finish b

(* ---- satellite: degenerate mapping inputs ---- *)

(* Regression: [Mapping.map] with a non-positive warp count used to walk
   off its per-warp accumulators; it must raise a positioned diagnostic
   from the mapping pass instead. *)
let test_degenerate_warp_count_is_diagnosed () =
  let dfg = tiny_dfg () in
  List.iter
    (fun n_warps ->
      match
        Singe.Mapping.map dfg ~n_warps ~weights:Singe.Mapping.default_weights
          ~strategy:Singe.Mapping.Store ~respect_hints:true
      with
      | _ -> Alcotest.failf "map accepted n_warps = %d" n_warps
      | exception Singe.Diagnostics.Fail d ->
          Alcotest.(check (option string))
            "pass" (Some "mapping") d.Singe.Diagnostics.pass;
          Alcotest.(check (option string))
            "positioned at the graph" (Some "tiny") d.Singe.Diagnostics.loc)
    [ 0; -1; -8 ];
  match
    Singe.Mapping.map_auto dfg ~n_warps:0
      ~weights:Singe.Mapping.default_weights
      ~spec:
        {
          Singe.Mapping.producer_warps = 1;
          hub_threshold = 3;
          chain_weight = 1.0;
          auto_strategy = Singe.Mapping.Store;
        }
  with
  | _ -> Alcotest.fail "map_auto accepted n_warps = 0"
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "pass" (Some "mapping") d.Singe.Diagnostics.pass

(* More warps than operations is NOT degenerate: surplus warps simply
   stay empty, and the mapping still validates. *)
let test_surplus_warps_map_cleanly () =
  let dfg = tiny_dfg () in
  List.iter
    (fun n_warps ->
      let m =
        Singe.Mapping.map dfg ~n_warps ~weights:Singe.Mapping.default_weights
          ~strategy:Singe.Mapping.Store ~respect_hints:true
      in
      match Singe.Mapping.validate dfg m with
      | Ok () -> ()
      | Error p ->
          Alcotest.failf "n_warps = %d: %s" n_warps (String.concat "; " p))
    [ 1; 4; 16 ]

(* ---- auto-spec hygiene ---- *)

let test_bad_auto_spec_rejected () =
  let mech = Lazy.force hydrogen in
  let kernel = Singe.Kernel_abi.Viscosity in
  let with_spec spec =
    { (base_options kernel) with
      Singe.Compile.partition = Singe.Compile.Partition_auto spec
    }
  in
  let good =
    {
      Singe.Mapping.producer_warps = 2;
      hub_threshold = 3;
      chain_weight = 1.5;
      auto_strategy = Singe.Mapping.Store;
    }
  in
  (match
     Singe.Compile.check_options mech kernel Singe.Compile.Warp_specialized
       (with_spec good)
   with
  | Ok () -> ()
  | Error d ->
      Alcotest.failf "valid spec rejected: %s" (Singe.Diagnostics.to_string d));
  List.iter
    (fun (label, spec) ->
      match
        Singe.Compile.check_options mech kernel Singe.Compile.Warp_specialized
          (with_spec spec)
      with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" label)
    [
      ("producer_warps = 0", { good with Singe.Mapping.producer_warps = 0 });
      ( "producer_warps = n_warps",
        { good with Singe.Mapping.producer_warps = 8 } );
      ("hub_threshold = 1", { good with Singe.Mapping.hub_threshold = 1 });
      ("chain_weight = 0", { good with Singe.Mapping.chain_weight = 0.0 });
      ( "chain_weight < 0",
        { good with Singe.Mapping.chain_weight = -2.0 } );
    ]

(* Every spec the searcher proposes yields a mapping that passes the
   full inter-pass validation. *)
let test_proposed_specs_map_validly () =
  let c = compiled Singe.Kernel_abi.Viscosity in
  let dfg = c.Singe.Compile.dfg in
  let specs = Singe.Partition_search.propose dfg ~n_warps:8 in
  Alcotest.(check bool) "proposals exist" true (List.length specs > 0);
  List.iter
    (fun spec ->
      let m =
        Singe.Mapping.map_auto dfg ~n_warps:8
          ~weights:Singe.Mapping.default_weights ~spec
      in
      match Singe.Mapping.validate dfg m with
      | Ok () -> ()
      | Error p ->
          Alcotest.failf "%s: %s"
            (Format.asprintf "%a" Singe.Mapping.pp_auto_spec spec)
            (String.concat "; " p))
    specs

(* ---- the safety gate vs the 11 seeded mutation operators ---- *)

let test_gate_rejects_every_mutant () =
  List.iter
    (fun kernel ->
      let c = compiled kernel in
      let schedule = c.Singe.Compile.schedule in
      (match Singe.Partition_search.gate_schedule schedule with
      | Ok () -> ()
      | Error d ->
          Alcotest.failf "original gated: %s" (Singe.Diagnostics.to_string d));
      let muts = Singe.Deadlock_check.mutants ~seed:42 schedule in
      (* hydrogen viscosity is sync-rich enough that every one of the 11
         operators applies; diffusion's sparse schedule yields fewer *)
      Alcotest.(check int)
        (Singe.Kernel_abi.kernel_name kernel ^ " mutant count")
        (if kernel = Singe.Kernel_abi.Viscosity then 11 else 1)
        (List.length muts);
      List.iter
        (fun (m : Singe.Deadlock_check.mutant) ->
          match
            Singe.Partition_search.gate_schedule m.Singe.Deadlock_check.schedule
          with
          | Ok () ->
              Alcotest.failf "mutant %s slipped the gate"
                m.Singe.Deadlock_check.label
          | Error d ->
              let msg = Singe.Diagnostics.to_string d in
              let contains hay needle =
                let nh = String.length hay and nn = String.length needle in
                let rec go i =
                  i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
                in
                go 0
              in
              Alcotest.(check bool)
                (m.Singe.Deadlock_check.label ^ " tagged partition-rejected")
                true
                (contains msg "partition-rejected"))
        muts)
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion ]

(* ---- the gate reads the compile's safety verdict ---- *)

(* What the gate used to compute per call: the mapping validator, then,
   only if it passes, the deadlock checker. *)
let fresh_verdict (c : Singe.Compile.t) =
  match Singe.Mapping.validate c.Singe.Compile.dfg c.Singe.Compile.mapping with
  | Error msgs -> Error ("mapping-validate", msgs)
  | Ok () -> (
      match Singe.Deadlock_check.check c.Singe.Compile.schedule with
      | Ok () -> Ok ()
      | Error msgs -> Error ("deadlock-check", msgs))

let gate_text c =
  match Singe.Partition_search.gate c with
  | Ok () -> "ok"
  | Error d -> Singe.Diagnostics.to_string d

(* The diagnostic the gate gave when it re-ran both checks itself. *)
let fresh_gate_text c =
  match fresh_verdict c with
  | Ok () -> "ok"
  | Error (what, msgs) ->
      Printf.sprintf "error[partition-search]: partition-rejected: %s: %s" what
        (String.concat "; " msgs)

(* A cached compile's stored verdict equals a fresh check's and an
   uncached compile's, and the gate turns it into the diagnostic a fresh
   check gives. *)
let check_verdict what kernel options (cached : Singe.Compile.t) =
  if cached.Singe.Compile.safety <> fresh_verdict cached then
    Alcotest.failf "%s: stored verdict differs from a fresh check" what;
  let uncached =
    Singe.Compile.compile (Lazy.force hydrogen) kernel
      Singe.Compile.Warp_specialized options
  in
  if uncached.Singe.Compile.safety <> cached.Singe.Compile.safety then
    Alcotest.failf "%s: cached verdict differs from uncached" what;
  Alcotest.(check string) (what ^ ": gate text") (fresh_gate_text cached)
    (gate_text cached)

(* Every candidate of hydrogen viscosity's search (and its hand mapping)
   carries the verdict a fresh check gives; so does a compile whose
   mapping the validator rejects (zero mapping weights without the
   domain hints pile every op onto warp 0). *)
let test_gate_reads_stored_verdict () =
  let mech = Lazy.force hydrogen and kernel = Singe.Kernel_abi.Viscosity in
  let version = Singe.Compile.Warp_specialized in
  let base = base_options kernel in
  let hand = compiled kernel and n_compiled = ref 0 in
  List.iter
    (fun options ->
      match Singe.Compile.compile_cached mech kernel version options with
      | exception _ -> ()
      | cached ->
          incr n_compiled;
          check_verdict
            (Format.asprintf "%a" Singe.Partition_search.pp_candidate options)
            kernel options cached)
    (base :: Singe.Partition_search.candidate_options base hand.Singe.Compile.dfg);
  Alcotest.(check int) "candidates compiled" 73 !n_compiled;
  (* Locality alone glues every op to warp 0 (all-zero weights, which did
     the same, are now an options error: see the test below). *)
  let kernel = Singe.Kernel_abi.Conductivity in
  let options =
    {
      (Singe.Target.options ~n_warps:16 arch kernel) with
      Singe.Compile.respect_hints = false;
      weights = { Singe.Mapping.w_flops = 0.; w_regs = 0.; w_locality = 1. };
    }
  in
  let c = Singe.Compile.compile_cached mech kernel version options in
  (match c.Singe.Compile.safety with
  | Error ("mapping-validate", _ :: _) -> ()
  | Ok () | Error _ -> Alcotest.fail "overloaded mapping not rejected");
  check_verdict "overloaded mapping" kernel options c;
  (* Validating, the same single check fails the mapping-validate pass. *)
  match Singe.Compile.compile_checked ~validate:true mech kernel version options with
  | Ok _ -> Alcotest.fail "validating compile accepted the overloaded mapping"
  | Error d ->
      Alcotest.(check (option string))
        "failing pass" (Some "mapping-validate") d.Singe.Diagnostics.pass

(* Mapping weights that balance nothing are rejected up front: the
   all-zero reproduction (hydrogen conductivity, 16 warps, hints off) gets
   the [options] diagnostic from every entry point instead of a compile
   whose stored verdict is an error, and so do negative and non-finite
   weights. *)
let test_bad_weights_rejected () =
  let mech = Lazy.force hydrogen and kernel = Singe.Kernel_abi.Conductivity in
  let version = Singe.Compile.Warp_specialized in
  let with_weights w_flops w_regs w_locality =
    {
      (Singe.Target.options ~n_warps:16 arch kernel) with
      Singe.Compile.respect_hints = false;
      weights = { Singe.Mapping.w_flops; w_regs; w_locality };
    }
  in
  let is_options_error label = function
    | Error (d : Singe.Diagnostics.t) ->
        Alcotest.(check (option string))
          (label ^ ": failing pass") (Some "options") d.Singe.Diagnostics.pass
    | Ok () -> Alcotest.failf "%s accepted" label
  in
  List.iter
    (fun (label, options) ->
      is_options_error label
        (Singe.Compile.check_options mech kernel version options);
      is_options_error (label ^ ", validating compile")
        (Result.map ignore
           (Singe.Compile.compile_checked ~validate:true mech kernel version
              options));
      match Singe.Compile.compile_cached mech kernel version options with
      | exception Singe.Diagnostics.Fail d ->
          Alcotest.(check (option string))
            (label ^ ": cached compile pass") (Some "options")
            d.Singe.Diagnostics.pass
      | _ -> Alcotest.failf "%s: cached compile returned an artifact" label)
    [
      ("all-zero weights", with_weights 0. 0. 0.);
      ("negative weight", with_weights 1. (-0.25) 0.5);
      ("NaN weight", with_weights Float.nan 0.25 0.5);
      ("infinite weight", with_weights 1. 0.25 Float.infinity);
    ];
  match
    Singe.Compile.check_options mech kernel version (with_weights 0. 0. 1.)
  with
  | Ok () -> ()
  | Error d ->
      Alcotest.failf "one non-zero weight rejected: %s"
        (Singe.Diagnostics.to_string d)

(* ---- search determinism and the never-worse guarantee ---- *)

let outcome_fingerprint (o : Singe.Partition_search.outcome) =
  Format.asprintf "%s|%.3f|%.3f|%d|%d|%d|%b|%s"
    (match o.Singe.Partition_search.winner_spec with
    | None -> "hand"
    | Some s -> Format.asprintf "%a" Singe.Mapping.pp_auto_spec s)
    o.Singe.Partition_search.hand_cycles
    o.Singe.Partition_search.winner_cycles o.Singe.Partition_search.searched
    o.Singe.Partition_search.gated o.Singe.Partition_search.simulated
    o.Singe.Partition_search.confirmed
    (String.concat ";"
       (List.map
          (fun (r : Singe.Partition_search.rejection) ->
            Singe.Diagnostics.to_string r.rej_diag)
          o.Singe.Partition_search.rejections))

let test_search_deterministic_across_jobs () =
  let mech = Lazy.force hydrogen in
  let kernel = Singe.Kernel_abi.Viscosity in
  let run jobs =
    match
      Singe.Partition_search.search ~jobs ~simulate:false mech kernel
        Singe.Compile.Warp_specialized ~base:(base_options kernel) ()
    with
    | Ok o -> outcome_fingerprint o
    | Error d -> Alcotest.failf "search failed: %s" (Singe.Diagnostics.to_string d)
  in
  Alcotest.(check string) "--jobs 1 vs --jobs 4" (run 1) (run 4)

(* The simulation-confirmed search is as deterministic as the model-only
   one, and the hand cycles it reports are the hand mapping's own run at
   the search size. *)
let test_confirmed_search_deterministic_across_jobs () =
  let mech = Lazy.force hydrogen in
  let kernel = Singe.Kernel_abi.Viscosity in
  let version = Singe.Compile.Warp_specialized in
  let base = base_options kernel in
  let search jobs =
    match Singe.Partition_search.search ~points:8192 ~jobs mech kernel version
            ~base ()
    with
    | Ok o -> o
    | Error d -> Alcotest.failf "search failed: %s" (Singe.Diagnostics.to_string d)
  in
  let o = search 1 in
  Alcotest.(check string) "--jobs 1 vs --jobs 4" (outcome_fingerprint o)
    (outcome_fingerprint (search 4));
  let hand =
    Singe.Compile.run
      (Singe.Compile.compile_cached mech kernel version base)
      ~total_points:8192
  in
  Alcotest.(check (float 0.0)) "hand cycles = a direct run of hand"
    (float_of_int hand.Singe.Compile.machine.Gpusim.Chip.sm_cycles)
    o.Singe.Partition_search.hand_cycles

let test_search_never_loses_to_hand () =
  let mech = Lazy.force hydrogen in
  List.iter
    (fun kernel ->
      match
        Singe.Partition_search.search ~simulate:false mech kernel
          Singe.Compile.Warp_specialized ~base:(base_options kernel) ()
      with
      | Error d ->
          Alcotest.failf "search failed: %s" (Singe.Diagnostics.to_string d)
      | Ok o ->
          Alcotest.(check bool)
            (Singe.Kernel_abi.kernel_name kernel ^ " winner <= hand")
            true
            (o.Singe.Partition_search.winner_cycles
            <= o.Singe.Partition_search.hand_cycles);
          (* whatever won must itself clear the safety gate *)
          let c =
            Singe.Compile.compile_cached mech kernel
              Singe.Compile.Warp_specialized o.Singe.Partition_search.winner
          in
          (match Singe.Partition_search.gate c with
          | Ok () -> ()
          | Error d ->
              Alcotest.failf "winner fails the gate: %s"
                (Singe.Diagnostics.to_string d)))
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion ];
  (* The full search, simulation-confirmed, on viscosity: the confirmed
     winner is still no worse than hand, recompiles cleanly and clears
     the gate, and every gate rejection carries its diagnostic. *)
  let kernel = Singe.Kernel_abi.Viscosity in
  match
    Singe.Partition_search.search ~points:8192 mech kernel
      Singe.Compile.Warp_specialized ~base:(base_options kernel) ()
  with
  | Error d ->
      Alcotest.failf "confirmed search failed: %s"
        (Singe.Diagnostics.to_string d)
  | Ok o -> (
      Alcotest.(check bool) "simulation confirmed" true
        o.Singe.Partition_search.confirmed;
      Alcotest.(check bool) "confirmed winner <= hand" true
        (o.Singe.Partition_search.winner_cycles
        <= o.Singe.Partition_search.hand_cycles);
      List.iter
        (fun (r : Singe.Partition_search.rejection) ->
          Alcotest.(check (option string))
            "rejection from partition-search" (Some "partition-search")
            r.rej_diag.Singe.Diagnostics.pass)
        o.Singe.Partition_search.rejections;
      match
        Singe.Compile.compile_checked ~validate:false mech kernel
          Singe.Compile.Warp_specialized o.Singe.Partition_search.winner
      with
      | Error d ->
          Alcotest.failf "confirmed winner does not recompile: %s"
            (Singe.Diagnostics.to_string d)
      | Ok (c, _) -> (
          match Singe.Partition_search.gate c with
          | Ok () -> ()
          | Error d ->
              Alcotest.failf "confirmed winner fails the gate: %s"
                (Singe.Diagnostics.to_string d)))

(* ---- lowering satellites ---- *)

(* The live-range slack the exchange synthesizer may spend is derived
   from the register file: monotone in the budget, never negative, and
   positive as soon as the file has any real capacity. *)
let test_derived_live_slack_tracks_budget () =
  let c = compiled Singe.Kernel_abi.Viscosity in
  let dfg = c.Singe.Compile.dfg and mapping = c.Singe.Compile.mapping in
  let slack b = Singe.Lower.derived_live_slack ~freg_budget:b dfg mapping in
  let prev = ref (-1) in
  List.iter
    (fun b ->
      let s = slack b in
      Alcotest.(check bool)
        (Printf.sprintf "slack(%d) >= 0" b)
        true (s >= 0);
      Alcotest.(check bool)
        (Printf.sprintf "slack monotone at %d" b)
        true (s >= !prev);
      prev := s)
    [ 0; 8; 16; 24; 32; 48; 64 ];
  Alcotest.(check bool) "a real budget buys a real window" true (slack 24 > 0)

(* Regression: searched partitions can stripe parameters hard enough
   that one instruction needs more than the two resolver temporaries the
   lowering used to hardcode; the under-declared integer register file
   then faulted inside [Perf_model.walk_step]. Compile such a candidate
   and predict it — both used to throw. *)
let test_striped_param_temps_accounted () =
  let mech = Lazy.force hydrogen in
  let spec =
    {
      Singe.Mapping.producer_warps = 1;
      hub_threshold = 3;
      chain_weight = 2.5;
      auto_strategy = Singe.Mapping.Store;
    }
  in
  let o =
    { (base_options Singe.Kernel_abi.Diffusion) with
      Singe.Compile.partition = Singe.Compile.Partition_auto spec
    }
  in
  let c =
    Singe.Compile.compile mech Singe.Kernel_abi.Diffusion
      Singe.Compile.Warp_specialized o
  in
  let pred = Singe.Perf_model.predict c ~total_points:4096 in
  Alcotest.(check bool)
    "prediction is finite and positive" true
    (Float.is_finite pred.Singe.Perf_model.cycles
    && pred.Singe.Perf_model.cycles > 0.0)

(* Regression: [tune --partition auto] listed hydrogen viscosity's 24
   rejected candidates under 12 labels, because a label named the spec
   but not the pipeline depth [candidate_options] crosses it with. *)
let test_rejection_labels_distinct () =
  match
    Singe.Partition_search.search ~simulate:false (Lazy.force hydrogen)
      Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized
      ~base:(base_options Singe.Kernel_abi.Viscosity) ()
  with
  | Error d -> Alcotest.fail (Singe.Diagnostics.to_string d)
  | Ok o ->
      let labels =
        List.map
          (fun (r : Singe.Partition_search.rejection) ->
            Format.asprintf "%a" Singe.Partition_search.pp_candidate
              r.rej_options)
          o.Singe.Partition_search.rejections
      in
      Alcotest.(check int) "rejections" 24 (List.length labels);
      Alcotest.(check int) "distinct labels" 24
        (List.length (List.sort_uniq compare labels))

let tests =
  [
    Alcotest.test_case "degenerate warp count diagnosed" `Quick
      test_degenerate_warp_count_is_diagnosed;
    Alcotest.test_case "surplus warps map cleanly" `Quick
      test_surplus_warps_map_cleanly;
    Alcotest.test_case "bad auto-spec rejected" `Quick
      test_bad_auto_spec_rejected;
    Alcotest.test_case "proposed specs map validly" `Quick
      test_proposed_specs_map_validly;
    Alcotest.test_case "gate rejects every mutant" `Quick
      test_gate_rejects_every_mutant;
    Alcotest.test_case "gate reads the stored verdict" `Quick
      test_gate_reads_stored_verdict;
    Alcotest.test_case "bad mapping weights rejected" `Quick
      test_bad_weights_rejected;
    Alcotest.test_case "search deterministic across jobs" `Quick
      test_search_deterministic_across_jobs;
    Alcotest.test_case "confirmed search deterministic across jobs" `Quick
      test_confirmed_search_deterministic_across_jobs;
    Alcotest.test_case "search never loses to hand" `Quick
      test_search_never_loses_to_hand;
    Alcotest.test_case "derived live slack tracks budget" `Quick
      test_derived_live_slack_tracks_budget;
    Alcotest.test_case "striped param temps accounted" `Quick
      test_striped_param_temps_accounted;
    Alcotest.test_case "rejection labels distinct" `Quick
      test_rejection_labels_distinct;
  ]
