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

let compile ?memo ?validate ?(kernel = Singe.Kernel_abi.Viscosity) options =
  Singe.Compile.compile ?memo ?validate (Lazy.force hydrogen) kernel
    Singe.Compile.Warp_specialized options

let compiled kernel =
  Singe.Diagnostics.ok_exn (compile ~memo:true ~kernel (base_options kernel))

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

(* ---- the deadlock checker vs the 11 seeded mutation operators ---- *)

(* The checker rejects every mutant, and an artifact carrying a mutant's
   [deadlock-check] verdict is refused by [Compile.run] with that
   diagnostic before anything is simulated. *)
let test_gate_rejects_every_mutant () =
  List.iter
    (fun kernel ->
      let c = compiled kernel in
      let schedule = c.Singe.Compile.schedule in
      (match Singe.Deadlock_check.check schedule with
      | Ok () -> ()
      | Error p -> Alcotest.failf "original rejected: %s" (String.concat "; " p));
      let muts = Singe.Deadlock_check.mutants ~seed:42 schedule in
      (* hydrogen viscosity is sync-rich enough that every one of the 11
         operators applies; diffusion's sparse schedule yields fewer *)
      Alcotest.(check int)
        (Singe.Kernel_abi.kernel_name kernel ^ " mutant count")
        (if kernel = Singe.Kernel_abi.Viscosity then 11 else 1)
        (List.length muts);
      List.iter
        (fun (m : Singe.Deadlock_check.mutant) ->
          let label = m.Singe.Deadlock_check.label in
          match Singe.Deadlock_check.check m.Singe.Deadlock_check.schedule with
          | Ok () -> Alcotest.failf "mutant %s slipped the checker" label
          | Error problems -> (
              let mutant =
                {
                  c with
                  Singe.Compile.schedule = m.Singe.Deadlock_check.schedule;
                  verdict = Error ("deadlock-check", problems);
                }
              in
              match Singe.Compile.run mutant ~total_points:2048 with
              | _ -> Alcotest.failf "mutant %s was simulated" label
              | exception Singe.Diagnostics.Fail d ->
                  Alcotest.(check string)
                    (label ^ ": run refuses with the verdict")
                    (Singe.Diagnostics.to_string
                       (Singe.Diagnostics.of_problems ~pass:"deadlock-check"
                          problems))
                    (Singe.Diagnostics.to_string d)))
        muts)
    [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Diffusion ]

(* ---- the gate reads the compile's safety verdict ---- *)

(* What the gate used to compute per call: the mapping validator, then,
   only if it passes, the deadlock checker; then whether one CTA's shared
   memory fits an SM (the problem text is the stored one, the condition
   is checked here). *)
let fresh_verdict (c : Singe.Compile.t) =
  match Singe.Mapping.validate c.Singe.Compile.dfg c.Singe.Compile.mapping with
  | Error msgs -> Error ("mapping-validate", msgs)
  | Ok () -> (
      match Singe.Deadlock_check.check c.Singe.Compile.schedule with
      | Error msgs -> Error ("deadlock-check", msgs)
      | Ok () ->
          let p = c.Singe.Compile.lowered.Singe.Lower.program in
          if
            p.Gpusim.Isa.shared_doubles * 8
            <= c.Singe.Compile.options.Singe.Compile.arch.Gpusim.Arch
                 .shared_bytes_per_sm
          then Ok ()
          else
            Error
              ( "lower",
                match c.Singe.Compile.verdict with
                | Error ("lower", msgs) -> msgs
                | Ok () | Error _ -> [ "no shared-fit verdict stored" ] ))

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
  if cached.Singe.Compile.verdict <> fresh_verdict cached then
    Alcotest.failf "%s: stored verdict differs from a fresh check" what;
  let uncached = Singe.Diagnostics.ok_exn (compile ~kernel options) in
  if uncached.Singe.Compile.verdict <> cached.Singe.Compile.verdict then
    Alcotest.failf "%s: cached verdict differs from uncached" what;
  Alcotest.(check string) (what ^ ": gate text") (fresh_gate_text cached)
    (gate_text cached)

(* Every candidate of hydrogen viscosity's search (and its hand mapping)
   carries the verdict a fresh check gives; so does a compile whose
   mapping the validator rejects (zero mapping weights without the
   domain hints pile every op onto warp 0). *)
let test_gate_reads_stored_verdict () =
  let kernel = Singe.Kernel_abi.Viscosity in
  let base = base_options kernel in
  let hand = compiled kernel and n_compiled = ref 0 in
  List.iter
    (fun options ->
      match compile ~memo:true ~kernel options with
      | Error _ -> ()
      | Ok cached ->
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
  let c = Singe.Diagnostics.ok_exn (compile ~memo:true ~kernel options) in
  (match c.Singe.Compile.verdict with
  | Error ("mapping-validate", _ :: _) -> ()
  | Ok () | Error _ -> Alcotest.fail "overloaded mapping not rejected");
  check_verdict "overloaded mapping" kernel options c;
  (* Validating, the same single check fails the mapping-validate pass,
     and [Compile.run] refuses the memoized artifact with that
     diagnostic: both paths give one answer. *)
  match compile ~validate:true ~kernel options with
  | Ok _ -> Alcotest.fail "validating compile accepted the overloaded mapping"
  | Error d -> (
      Alcotest.(check (option string))
        "failing pass" (Some "mapping-validate") d.Singe.Diagnostics.pass;
      match Singe.Compile.run c ~total_points:2048 with
      | _ -> Alcotest.fail "run simulated the overloaded mapping"
      | exception Singe.Diagnostics.Fail r ->
          Alcotest.(check string)
            "run refuses with the validating compile's diagnostic"
            (Singe.Diagnostics.to_string d)
            (Singe.Diagnostics.to_string r))

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
        (Result.map ignore (compile ~validate:true ~kernel options));
      is_options_error (label ^ ", cached compile")
        (Result.map ignore (compile ~memo:true ~kernel options)))
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

(* A warm search reads every candidate's prediction from its artifact's
   launch state: on a memo the first search filled, the two-domain
   search stores nothing, is served the same answers as the serial one,
   and returns the cold search's outcome, field for field. *)
let test_warm_search_across_jobs () =
  let mech = Lazy.force hydrogen in
  let kernel = Singe.Kernel_abi.Viscosity in
  let search jobs =
    match
      Singe.Partition_search.search ~jobs ~simulate:false mech kernel
        Singe.Compile.Warp_specialized ~base:(base_options kernel) ()
    with
    | Ok o -> Marshal.to_string o [ Marshal.No_sharing ]
    | Error d ->
        Alcotest.failf "search failed: %s" (Singe.Diagnostics.to_string d)
  in
  let stats = Singe.Compile.launch_state_stats in
  let counts () =
    let s = stats () in
    (s.Singe.Compile.predictions_stored, s.Singe.Compile.predictions_served)
  in
  Singe.Compile.memo_clear ();
  let cold = search 1 in
  let stored, served0 = counts () in
  let warm2 = search 2 in
  let stored2, served2 = counts () in
  let warm1 = search 1 in
  let stored1, served1 = counts () in
  Alcotest.(check bool) "warm --jobs 2 = cold" true (warm2 = cold);
  Alcotest.(check bool) "warm --jobs 1 = cold" true (warm1 = cold);
  Alcotest.(check (pair int int)) "warm searches store nothing" (stored, stored)
    (stored2, stored1);
  Alcotest.(check bool) "the two-domain search is served" true
    (served2 > served0);
  Alcotest.(check int) "as much as the serial one" (served2 - served0)
    (served1 - served2)

(* ---- the compile memo keys on the mechanism's content ----
   [Compile] digests each physical mechanism once and keeps the digest in
   a short identity-matched table; the memo key must still be a function
   of the mechanism's content alone. *)

let memo_counts () =
  let s = Singe.Compile.memo_stats () in
  (s.Sutil.Cache.hits, s.Sutil.Cache.misses)

(* [m] re-made from copies of its fields: a new physical value, equal in
   content unless [species] or [reactions] edits its copied array. *)
let remake ?(species = Fun.id) ?(reactions = Fun.id) (m : Chem.Mechanism.t) =
  Chem.Mechanism.make ~name:m.Chem.Mechanism.name
    ~species:(Array.map Fun.id m.Chem.Mechanism.species |> species)
    ~reactions:(Array.map Fun.id m.Chem.Mechanism.reactions |> reactions)
    ~thermo:m.Chem.Mechanism.thermo ~qssa:m.Chem.Mechanism.qssa
    ~stiff:m.Chem.Mechanism.stiff ()

(* Species 0's transport diameter scaled by [f]. *)
let scale_diameter f (sp : Chem.Species.t array) =
  let s = sp.(0) in
  sp.(0) <-
    {
      s with
      Chem.Species.transport =
        {
          s.Chem.Species.transport with
          Chem.Species.diameter =
            s.Chem.Species.transport.Chem.Species.diameter *. f;
        };
    };
  sp

let search_bytes mech =
  let kernel = Singe.Kernel_abi.Viscosity in
  match
    Singe.Partition_search.search ~simulate:false mech kernel
      Singe.Compile.Warp_specialized ~base:(base_options kernel) ()
  with
  | Ok o -> (o, Marshal.to_string o [ Marshal.No_sharing ])
  | Error d -> Alcotest.failf "search failed: %s" (Singe.Diagnostics.to_string d)

let test_remade_mechanism_hits () =
  let mech = Lazy.force hydrogen in
  let _, warm = search_bytes mech in
  let copy = remake mech in
  Alcotest.(check bool) "a distinct physical value" true (copy != mech);
  let _, misses = memo_counts () in
  let _, again = search_bytes copy in
  Alcotest.(check int) "no misses" misses (snd (memo_counts ()));
  Alcotest.(check bool) "the same outcome" true (again = warm)

(* A compile that fails after its options are accepted is memoized as its
   diagnostic. DME diffusion at 8 warps proposes 16-slot rings its graph
   cannot use, and those candidates fail in the schedule pass: a warm
   search compiles none of them again and rejects them alike. *)
let test_failures_hit_the_memo () =
  let kernel = Singe.Kernel_abi.Diffusion in
  let search () =
    match
      Singe.Partition_search.search ~jobs:1 ~simulate:false
        (Chem.Mech_gen.dme ()) kernel Singe.Compile.Warp_specialized
        ~base:(base_options kernel) ()
    with
    | Ok o -> o
    | Error d ->
        Alcotest.failf "search failed: %s" (Singe.Diagnostics.to_string d)
  in
  let cold = search () in
  let failed =
    List.filter
      (fun (r : Singe.Partition_search.rejection) ->
        r.rej_diag.Singe.Diagnostics.pass = Some "schedule")
      cold.Singe.Partition_search.rejections
  in
  Alcotest.(check bool) "some candidates fail to compile" true (failed <> []);
  let _, misses = memo_counts () in
  let warm = search () in
  Alcotest.(check int) "no misses" misses (snd (memo_counts ()));
  Alcotest.(check bool) "identical rejections" true
    (warm.Singe.Partition_search.rejections
    = cold.Singe.Partition_search.rejections)

let test_changed_mechanism_misses () =
  let mech = Lazy.force hydrogen in
  let original = compiled Singe.Kernel_abi.Viscosity in
  let own what variant =
    let compile m =
      Singe.Diagnostics.ok_exn
        (Singe.Compile.compile ~memo:true m Singe.Kernel_abi.Viscosity
           Singe.Compile.Warp_specialized
           (base_options Singe.Kernel_abi.Viscosity))
    in
    let _, misses = memo_counts () in
    let c = compile variant in
    Alcotest.(check int) (what ^ ": misses") (misses + 1) (snd (memo_counts ()));
    Alcotest.(check bool) (what ^ ": its own artifact") true (c != original);
    Alcotest.(check bool) (what ^ ": kept") true (compile variant == c);
    Alcotest.(check bool) (what ^ ": the original kept") true
      (compile mech == original)
  in
  own "transport diameter" (remake ~species:(scale_diameter 1.01) mech);
  own "reaction rate"
    (remake mech ~reactions:(fun rs ->
         rs.(0) <-
           {
             (rs.(0)) with
             Chem.Reaction.rate =
               Chem.Reaction.Simple
                 { pre_exp = 1.5e13; temp_exp = 0.25; activation = 1234.5 };
           };
         rs))

let test_digest_table_bound () =
  let mech = Lazy.force hydrogen in
  let original = compiled Singe.Kernel_abi.Viscosity in
  (* More distinct mechanisms than the table holds, each keyed. *)
  for i = 1 to 20 do
    let m =
      remake ~species:(scale_diameter (1.0 +. (0.001 *. float_of_int i))) mech
    in
    ignore
      (Singe.Compile.compile ~memo:true m Singe.Kernel_abi.Viscosity
         Singe.Compile.Warp_specialized
         (base_options Singe.Kernel_abi.Viscosity))
  done;
  let hits, misses = memo_counts () in
  Alcotest.(check bool) "the first still hits" true
    (compiled Singe.Kernel_abi.Viscosity == original);
  Alcotest.(check (pair int int)) "one hit" (hits + 1, misses) (memo_counts ())

let test_memo_clear_misses_every_candidate () =
  let _, warm = search_bytes (Lazy.force hydrogen) in
  Singe.Compile.memo_clear ();
  let hits, misses = memo_counts () in
  let o, cold = search_bytes (Lazy.force hydrogen) in
  Alcotest.(check (pair int int))
    "the hand mapping and every candidate miss"
    (hits, misses + 1 + o.Singe.Partition_search.searched)
    (memo_counts ());
  Alcotest.(check bool) "the same outcome" true (cold = warm)

(* ---- the compile memo keys on the options' structure ----
   The key holds the options themselves, compared field by field with
   floats by their bits (the relation a digest of the marshalled options
   drew), not by identity and not by [=]. *)

let memo_compile options =
  Singe.Diagnostics.ok_exn (compile ~memo:true options)

(* [o] rebuilt field by field: equal to it, sharing none of its records. *)
let rebuilt (o : Singe.Compile.options) =
  let w = o.Singe.Compile.weights in
  {
    o with
    Singe.Compile.arch =
      { o.arch with Gpusim.Arch.name = o.arch.Gpusim.Arch.name };
    weights = { w with Singe.Mapping.w_flops = w.Singe.Mapping.w_flops };
    partition =
      (match o.partition with
      | Singe.Compile.Partition_auto s ->
          let hub_threshold = s.Singe.Mapping.hub_threshold in
          Singe.Compile.Partition_auto { s with hub_threshold }
      | Singe.Compile.Partition_hand -> Singe.Compile.Partition_hand);
  }

let test_equal_options_hit () =
  let kernel = Singe.Kernel_abi.Viscosity in
  let o =
    List.hd
      (Singe.Partition_search.candidate_options (base_options kernel)
         (compiled kernel).Singe.Compile.dfg)
  in
  let c = memo_compile o in
  let copy = rebuilt o in
  Alcotest.(check bool) "physically distinct" true
    (copy != o
    && copy.Singe.Compile.arch != o.Singe.Compile.arch
    && copy.weights != o.weights
    && copy.partition != o.partition);
  let hits, misses = memo_counts () in
  Alcotest.(check bool) "the same artifact" true (memo_compile copy == c);
  Alcotest.(check (pair int int)) "one hit" (hits + 1, misses) (memo_counts ())

(* [a] and [b] differ only in a zero's sign: two entries, each kept. *)
let keyed_apart what a b =
  let c = memo_compile a in
  let _, misses = memo_counts () in
  let d = memo_compile b in
  Alcotest.(check int) (what ^ ": misses") (misses + 1) (snd (memo_counts ()));
  Alcotest.(check bool) (what ^ ": its own artifact") true (d != c);
  Alcotest.(check bool) (what ^ ": both kept") true
    (memo_compile a == c && memo_compile b == d)

let test_signed_zeros_key_apart () =
  let base = base_options Singe.Kernel_abi.Viscosity in
  let regs w =
    let weights = base.Singe.Compile.weights in
    { base with weights = { weights with Singe.Mapping.w_regs = w } }
  in
  keyed_apart "weight" (regs 0.0) (regs (-0.0));
  let skew s =
    { base with arch = { arch with Gpusim.Arch.sm_clock_skew = s } }
  in
  keyed_apart "clock skew" (skew 0.0) (skew (-0.0))

(* Generated hydrogen targets, each with one options field redrawn
   (sometimes to an equal value in a fresh record): the memoized compile
   of the mutant either misses or returns an artifact that marshals to
   the bytes of a fresh compile of the mutant. A key blind to a field
   would serve the original's artifact, which carries the original's
   options. The pattern in [mutations] names every options field, so a
   new field does not compile until it is given a mutation here. *)
let memo_key_covers_every_field =
  let open QCheck.Gen in
  let mutations
      ({
         Singe.Compile.arch;
         n_warps;
         weights = _;
         respect_hints = _;
         group_syncs = _;
         buffer_slots = _;
         exp_consts_in_registers = _;
         freg_budget = _;
         list_schedule = _;
         max_barriers = _;
         ctas_per_sm_target = _;
         chem_comm = _;
         full_range_thermo = _;
         synth_exchange = _;
         stencil_overlap = _;
         partition = _;
       } as o) =
    let set name g f = map (fun v -> (name, f v)) g in
    let weight = oneofl [ 0.0; -0.0; 0.25; 1.0 ] in
    let spec =
      map4
        (fun producer_warps hub_threshold chain_weight auto_strategy ->
          {
            Singe.Mapping.producer_warps;
            hub_threshold;
            chain_weight;
            auto_strategy;
          })
        (int_range 1 (n_warps - 1))
        (int_range 2 4)
        (oneofl [ 0.5; 1.0; 2.0 ])
        (oneofl Singe.Mapping.[ Store; Buffer; Mixed ])
    in
    Singe.Compile.
      [
        set "arch"
          (oneofl
             Gpusim.Arch.
               [
                 fermi_c2070;
                 { arch with name = arch.name };
                 { arch with n_sms = 1 };
                 { arch with sm_clock_skew = -0.0 };
               ])
          (fun arch -> { o with arch });
        set "n_warps" (int_range 2 12) (fun n_warps -> { o with n_warps });
        set "weights" (triple weight weight weight)
          (fun (w_flops, w_regs, w_locality) ->
            { o with weights = { Singe.Mapping.w_flops; w_regs; w_locality } });
        set "respect_hints" bool (fun respect_hints ->
            { o with respect_hints });
        set "group_syncs" bool (fun group_syncs -> { o with group_syncs });
        set "buffer_slots" (int_range 1 64) (fun buffer_slots ->
            { o with buffer_slots });
        set "exp_consts_in_registers" bool (fun exp_consts_in_registers ->
            { o with exp_consts_in_registers });
        set "freg_budget" (opt (int_range 6 64)) (fun freg_budget ->
            { o with freg_budget });
        set "list_schedule" bool (fun list_schedule ->
            { o with list_schedule });
        set "max_barriers" (int_range 1 16) (fun max_barriers ->
            { o with max_barriers });
        set "ctas_per_sm_target" (int_range 1 3) (fun ctas_per_sm_target ->
            { o with ctas_per_sm_target });
        set "chem_comm"
          (opt (oneofl [ Chem_staged; Chem_recompute; Chem_mixed ]))
          (fun chem_comm -> { o with chem_comm });
        set "full_range_thermo" bool (fun full_range_thermo ->
            { o with full_range_thermo });
        set "synth_exchange" (opt bool) (fun synth_exchange ->
            { o with synth_exchange });
        set "stencil_overlap" bool (fun stencil_overlap ->
            { o with stencil_overlap });
        set "partition"
          (oneof
             [ return Partition_hand; map (fun s -> Partition_auto s) spec ])
          (fun partition -> { o with partition });
      ]
  in
  let gen =
    let* kernel =
      oneofl Singe.Kernel_abi.[ Viscosity; Conductivity; Diffusion ]
    in
    let* n_warps = int_range 2 12 and* respect_hints = bool in
    let base =
      { (base_options kernel) with Singe.Compile.n_warps; respect_hints }
    in
    let* name, mutant = oneof (mutations base) in
    return (kernel, base, name, mutant)
  in
  let print (kernel, _, name, _) =
    Printf.sprintf "%s, %s redrawn" (Singe.Kernel_abi.kernel_name kernel) name
  in
  let prop (kernel, base, _, mutant) =
    let compile ?memo o = compile ?memo ~kernel o in
    ignore (compile ~memo:true base);
    let _, misses = memo_counts () in
    match compile ~memo:true mutant with
    | _ when snd (memo_counts ()) > misses -> true
    | Error d ->
        QCheck.Test.fail_reportf "a hit failed: %s"
          (Singe.Diagnostics.to_string d)
    | Ok served -> (
        match compile mutant with
        | Ok fresh ->
            (* A memoized state may hold answers already. *)
            Marshal.to_string { served with Singe.Compile.launch = None } []
            = Marshal.to_string fresh []
            || QCheck.Test.fail_report "the hit differs from a fresh compile"
        | Error d ->
            QCheck.Test.fail_reportf "a hit where a fresh compile fails: %s"
              (Singe.Diagnostics.to_string d))
  in
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count:60 ~name:"memo key covers every options field"
       (QCheck.make ~print gen) prop)

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
      (Singe.Diagnostics.ok_exn (compile ~memo:true ~kernel base))
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
            Singe.Diagnostics.ok_exn
              (compile ~memo:true ~kernel o.Singe.Partition_search.winner)
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
      match compile ~kernel o.Singe.Partition_search.winner with
      | Error d ->
          Alcotest.failf "confirmed winner does not recompile: %s"
            (Singe.Diagnostics.to_string d)
      | Ok c -> (
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
    Singe.Diagnostics.ok_exn (compile ~kernel:Singe.Kernel_abi.Diffusion o)
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

(* ---- the frontend reads only its own options ---- *)

(* The frontend reads [chem_comm], [full_range_thermo], [stencil_overlap]
   and the mapped warp count, nothing a partition search varies: every
   candidate's graph equals the hand mapping's (what a search that builds
   the graph once relies on). The baseline stages chemistry's species
   vectors whatever [chem_comm] says; the warp-specialized graph follows
   it. *)
let test_frontend_reads_only_its_options () =
  let dme = Chem.Mech_gen.dme () in
  List.iter
    (fun (mech, kernel) ->
      let name = Singe.Kernel_abi.kernel_name kernel in
      let frontend = Singe.Compile.frontend mech kernel in
      let base = base_options kernel in
      let hand = frontend Singe.Compile.Warp_specialized base in
      let candidates = Singe.Partition_search.candidate_options base hand in
      Alcotest.(check bool) (name ^ ": candidates proposed") true
        (candidates <> []);
      List.iteri
        (fun i o ->
          if frontend Singe.Compile.Warp_specialized o <> hand then
            Alcotest.failf "%s %s: candidate %d builds another graph"
              mech.Chem.Mechanism.name name i)
        candidates;
      let baseline = frontend Singe.Compile.Baseline base in
      List.iter
        (fun chem_comm ->
          if
            frontend Singe.Compile.Baseline
              { base with Singe.Compile.chem_comm = Some chem_comm }
            <> baseline
          then
            Alcotest.failf "%s %s: the baseline's graph read chem_comm"
              mech.Chem.Mechanism.name name)
        Singe.Compile.[ Chem_staged; Chem_recompute; Chem_mixed ])
    [
      (Lazy.force hydrogen, Singe.Kernel_abi.Viscosity);
      (dme, Singe.Kernel_abi.Diffusion);
      (Lazy.force hydrogen, Singe.Kernel_abi.Chemistry);
    ];
  let ws chem_comm =
    Singe.Compile.frontend (Lazy.force hydrogen) Singe.Kernel_abi.Chemistry
      Singe.Compile.Warp_specialized
      {
        (base_options Singe.Kernel_abi.Chemistry) with
        Singe.Compile.chem_comm = Some chem_comm;
      }
  in
  Alcotest.(check bool) "the warp-specialized graph follows chem_comm" true
    (ws Singe.Compile.Chem_staged <> ws Singe.Compile.Chem_recompute)

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
    Alcotest.test_case "warm search equal across jobs" `Quick
      test_warm_search_across_jobs;
    Alcotest.test_case "re-made mechanism hits the memo" `Quick
      test_remade_mechanism_hits;
    Alcotest.test_case "changed mechanism misses the memo" `Quick
      test_changed_mechanism_misses;
    Alcotest.test_case "failed candidates hit the memo" `Quick
      test_failures_hit_the_memo;
    Alcotest.test_case "digest table bound keeps keys" `Quick
      test_digest_table_bound;
    Alcotest.test_case "memo_clear misses every candidate" `Quick
      test_memo_clear_misses_every_candidate;
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
    Alcotest.test_case "equal options hit the memo" `Quick
      test_equal_options_hit;
    Alcotest.test_case "signed zeros key apart" `Quick
      test_signed_zeros_key_apart;
    memo_key_covers_every_field;
    Alcotest.test_case "frontend reads only its options" `Quick
      test_frontend_reads_only_its_options;
  ]
