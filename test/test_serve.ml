(* The serve loop's contract: the wire protocol round-trips, every
   failure mode at the request boundary maps to its documented error
   class, deadline overruns degrade to the analytic model instead of
   erroring, idempotent ids replay bit-identically, backpressure answers
   with busy + retry hint, and the shared compile memo stays bounded and
   re-verified. Every response asserted on here is also re-validated
   with Json_check — the loop's own self-check, exercised directly. *)

module Serve = Singe.Serve
module J = Sutil.Json

let parse_doc line =
  (match Sutil.Json_check.validate line with
  | Ok () -> ()
  | Error m -> Alcotest.failf "response fails Json_check: %s (%s)" m line);
  match J.parse line with
  | Ok doc -> doc
  | Error m -> Alcotest.failf "response not parseable: %s (%s)" m line

(* Answer one line on [st], asserting the response validates. *)
let handle st line =
  let resp, stop = Serve.handle_line st line in
  ignore (parse_doc resp);
  (resp, stop)

let sfield line key =
  Option.bind (J.member key (parse_doc line)) J.str

let bfield line key =
  Option.bind (J.member key (parse_doc line)) J.bool

let check_class line expect =
  Alcotest.(check (option string)) "status" (Some "error") (sfield line "status");
  Alcotest.(check (option string)) "class" (Some expect) (sfield line "class")

(* ---- wire protocol: qcheck round-trip ---- *)

let request_roundtrip_qcheck =
  let open QCheck in
  let str_gen =
    Gen.oneof
      [
        Gen.oneofl
          [
            "dme"; "hydrogen"; "viscosity"; "ws"; "";
            "a\"quote"; "back\\slash"; "tab\tnl\n"; "h\xc3\xa9llo";
          ];
        Gen.string_size ~gen:Gen.printable (Gen.int_bound 12);
      ]
  in
  (* Every target member, at any in-bounds value: the skew is any float
     with |S| < 2, which %.17g prints exactly. *)
  let target_gen =
    let open Gen in
    let+ t_mech = str_gen
    and+ t_kernel = str_gen
    and+ t_arch = str_gen
    and+ t_version = str_gen
    and+ t_warps = int_range 1 1024
    and+ t_points = int_range 1 1_000_000
    and+ t_synth = opt bool
    and+ t_overlap = bool
    and+ t_partition = oneof [ oneofl [ "hand"; "auto" ]; str_gen ]
    and+ t_sms = opt (int_range 1 1024)
    and+ t_skew =
      opt
        (map2
           (fun neg s -> if neg then -.s else s)
           bool (float_bound_exclusive 2.0))
    in
    {
      Singe.Target.t_mech;
      t_kernel;
      t_arch;
      t_version;
      t_warps;
      t_points;
      t_synth;
      t_overlap;
      t_partition;
      t_sms;
      t_skew;
    }
  in
  let payload_gen =
    Gen.oneof
      [
        Gen.map (fun t -> Serve.Compile_req t) target_gen;
        Gen.map (fun t -> Serve.Predict_req t) target_gen;
        Gen.map
          (fun (t, faults, max_cycles) ->
            Serve.Run_req { target = t; faults; max_cycles })
          Gen.(
            triple target_gen
              (list_size (int_bound 3) str_gen)
              (opt (int_range 1 1_000_000_000)));
        Gen.map
          (fun (t, top_k) -> Serve.Tune_req { target = t; top_k })
          Gen.(pair target_gen (opt (int_range 1 64)));
        Gen.return Serve.Health_req;
        Gen.return Serve.Stats_req;
        Gen.return Serve.Shutdown_req;
      ]
  in
  let request_gen =
    Gen.map
      (fun ((id, deadline), payload) ->
        { Serve.req_id = id; req_deadline_ms = deadline; req = payload })
      Gen.(pair (pair (opt str_gen) (opt (int_range 1 1_000_000))) payload_gen)
  in
  let arb = make ~print:Serve.request_to_json request_gen in
  QCheck_alcotest.to_alcotest ~verbose:false
    (Test.make ~count:500 ~name:"serve request encode/decode round-trip" arb
       (fun r ->
         let line = Serve.request_to_json r in
         (match Sutil.Json_check.validate line with
         | Ok () -> ()
         | Error m -> Test.fail_reportf "encoded request invalid: %s" m);
         match Serve.parse_request line with
         | Ok r' -> r = r'
         | Error m -> Test.fail_reportf "decode failed: %s" m))

(* ---- one test per error class at the request boundary ---- *)

let test_bad_request_class () =
  let st = Serve.create () in
  let resp, stop = handle st "this is not json" in
  Alcotest.(check bool) "keeps serving" false stop;
  check_class resp "bad-request";
  let resp, _ = handle st {|{"kind":"frobnicate"}|} in
  check_class resp "bad-request";
  let resp, _ = handle st {|{"kind":"run","bogus":1}|} in
  check_class resp "bad-request";
  let resp, _ = handle st {|{"kind":"run","warps":0}|} in
  check_class resp "bad-request";
  let resp, _ = handle st {|{"kind":"run","mech":"unobtainium"}|} in
  check_class resp "bad-request";
  (* a fault spec that does not parse is a client error, not a server one *)
  let resp, _ =
    handle st {|{"kind":"run","mech":"hydrogen","faults":["zap:a=1"]}|}
  in
  check_class resp "bad-request";
  (* the id is echoed even on a rejected envelope *)
  let resp, _ = handle st {|{"id":"e1","kind":"run","bogus":1}|} in
  Alcotest.(check (option string)) "id echoed" (Some "e1") (sfield resp "id")

(* Regression: [deadline_ms <= 0] used to be clamped silently — on the
   wire it must be a bad-request, and in the config it must be rejected
   at [create] time, never defaulted into every request. *)
let test_nonpositive_deadline_rejected () =
  let st = Serve.create () in
  let resp, stop =
    handle st {|{"kind":"run","mech":"hydrogen","deadline_ms":0}|}
  in
  Alcotest.(check bool) "keeps serving" false stop;
  check_class resp "bad-request";
  let resp, _ =
    handle st {|{"kind":"run","mech":"hydrogen","deadline_ms":-5}|}
  in
  check_class resp "bad-request";
  (* a positive deadline on the same session still works *)
  let resp, _ =
    handle st
      {|{"kind":"predict","mech":"hydrogen","kernel":"viscosity","deadline_ms":2000}|}
  in
  Alcotest.(check (option string)) "status" (Some "ok") (sfield resp "status");
  List.iter
    (fun deadline_ms ->
      match
        Serve.create ~config:{ Serve.default_config with deadline_ms } ()
      with
      | exception Invalid_argument _ -> ()
      | _st ->
          Alcotest.failf "Serve.create accepted deadline_ms = %d" deadline_ms)
    [ 0; -1 ]

let test_compile_rejected_class () =
  let st = Serve.create () in
  (* warp specialization needs at least two warps: typed rejection *)
  let resp, _ = handle st {|{"kind":"run","mech":"hydrogen","warps":1}|} in
  check_class resp "compile-rejected";
  Alcotest.(check (option string))
    "exit analog" (Some "2")
    (Option.map string_of_int
       (Option.bind (J.member "exit_analog" (parse_doc resp)) J.int));
  (* a parseable fault spec that matches nothing in the trace *)
  let resp, _ =
    handle st
      {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4,"faults":["corrupt-shfl:warp=0,nth=100000"]}|}
  in
  check_class resp "compile-rejected";
  (* baseline divisibility is checked up front, not by an assert *)
  let resp, _ =
    handle st {|{"kind":"run","mech":"hydrogen","version":"baseline","points":100,"warps":4}|}
  in
  check_class resp "compile-rejected"

(* Serve rejects a bad compile-target name with the message the CLI's
   argument conv prints: both come from Singe.Target. *)
let test_bad_names_match_target () =
  let st = Serve.create () in
  let error_of = function
    | Ok _ -> Alcotest.fail "a bad name was accepted"
    | Error msg -> msg
  in
  List.iter
    (fun (field, expected) ->
      let line =
        if field = "mech" then {|{"kind":"compile","mech":"nope"}|}
        else
          Printf.sprintf {|{"kind":"compile","mech":"hydrogen",%S:"nope"}|}
            field
      in
      let resp, _ = handle st line in
      check_class resp "bad-request";
      Alcotest.(check (option string)) field (Some expected)
        (sfield resp "message"))
    [
      ("mech", error_of (Singe.Target.mech_of_string "nope"));
      ("kernel", error_of (Singe.Target.kernel_of_string "nope"));
      ("arch", error_of (Singe.Target.arch_of_string "nope"));
      ("version", error_of (Singe.Target.version_of_string "nope"));
      ("partition", error_of (Singe.Target.partition_of_string "nope"));
    ]

(* A baseline launch that does not divide into whole CTAs answers with
   the [launch] diagnostic [singe run] prints for the same target. *)
let test_baseline_launch_message () =
  let st = Serve.create () in
  let resp, _ =
    handle st
      {|{"kind":"run","mech":"hydrogen","version":"baseline","points":100,"warps":4}|}
  in
  check_class resp "compile-rejected";
  Alcotest.(check (option int)) "exit analog" (Some 2)
    (Option.bind (J.member "exit_analog" (parse_doc resp)) J.int);
  let kernel = Singe.Kernel_abi.Viscosity in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile (Chem.Mech_gen.hydrogen ()) kernel
         Singe.Compile.Baseline
         (Singe.Target.options ~n_warps:4 Gpusim.Arch.kepler_k20c kernel))
  in
  let cli =
    match Singe.Compile.default_ctas c ~total_points:100 with
    | n -> Alcotest.failf "non-divisible launch sized to %d CTAs" n
    | exception Singe.Diagnostics.Fail d -> Singe.Diagnostics.to_string d
  in
  Alcotest.(check (option string)) "same as singe run" (Some cli)
    (sfield resp "message");
  Alcotest.(check string) "launch diagnostic"
    "error[launch]: viscosity: baseline viscosity launches one thread per \
     point: 100 points do not divide into 128-thread CTAs (4 warps x 32); \
     pick a multiple or pass an explicit CTA count"
    cli

(* A warp-specialized launch whose default grid of min 1024 (points / 32)
   CTAs cannot split the points into whole 32-point batches used to die
   on an assertion in the chip layer and answer [internal]; run and
   predict now reject it with [singe run]'s [launch] diagnostic. *)
let test_ws_launch_rejected () =
  let st = Serve.create () in
  let kernel = Singe.Kernel_abi.Viscosity in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile (Chem.Mech_gen.hydrogen ()) kernel
         Singe.Compile.Warp_specialized
         (Singe.Target.options ~n_warps:4 Gpusim.Arch.kepler_k20c kernel))
  in
  let cli =
    match Singe.Compile.default_ctas c ~total_points:2000 with
    | n -> Alcotest.failf "2000 points sized to %d CTAs" n
    | exception Singe.Diagnostics.Fail d -> Singe.Diagnostics.to_string d
  in
  Alcotest.(check bool) "a launch diagnostic" true
    (String.starts_with ~prefix:"error[launch]: viscosity: ws viscosity" cli);
  List.iter
    (fun kind ->
      let resp, _ =
        handle st
          (Printf.sprintf
             {|{"kind":"%s","mech":"hydrogen","points":2000,"warps":4}|} kind)
      in
      check_class resp "compile-rejected";
      Alcotest.(check (option int)) (kind ^ " exit analog") (Some 2)
        (Option.bind (J.member "exit_analog" (parse_doc resp)) J.int);
      Alcotest.(check (option string)) (kind ^ ": same as singe run")
        (Some cli) (sfield resp "message"))
    [ "run"; "predict" ];
  let resp, _ =
    handle st {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4}|}
  in
  Alcotest.(check (option string)) "a dividing launch still runs" None
    (sfield resp "class")

let test_simulation_fault_class () =
  let st = Serve.create () in
  let resp, _ =
    handle st
      {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4,"faults":["drop-arrive:warp=1,nth=0"]}|}
  in
  check_class resp "simulation-fault";
  let doc = parse_doc resp in
  (match J.member "fault" doc with
  | Some f ->
      Alcotest.(check (option string))
        "fault kind" (Some "barrier deadlock")
        (Option.bind (J.member "kind" f) J.str)
  | None -> Alcotest.fail "no fault object");
  Alcotest.(check (option string))
    "exit analog" (Some "3")
    (Option.map string_of_int (Option.bind (J.member "exit_analog" doc) J.int))

let test_busy_class () =
  let st = Serve.create () in
  let resp = Serve.busy_line st {|{"id":"b7","kind":"health"}|} in
  check_class resp "busy";
  Alcotest.(check (option string)) "id echoed" (Some "b7") (sfield resp "id");
  Alcotest.(check (option string))
    "retry hint" (Some "50")
    (Option.map string_of_int
       (Option.bind (J.member "retry_after_ms" (parse_doc resp)) J.int))

(* ---- corrupted outputs are reported, not hidden ---- *)

let test_corrupt_run_reported () =
  let st = Serve.create () in
  let resp, _ =
    handle st
      {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4,"faults":["corrupt-shfl:warp=0,nth=0"]}|}
  in
  Alcotest.(check (option string)) "status" (Some "ok") (sfield resp "status");
  Alcotest.(check (option bool))
    "outputs flagged" (Some false) (bfield resp "outputs_ok")

(* ---- deadline degradation ---- *)

(* cycles_per_ms = 1 pins any deadline at the 10k-cycle floor budget,
   which even the smallest kernel exceeds — the deterministic way to
   exercise the degraded paths. *)
let tight_config =
  { Serve.default_config with Serve.cycles_per_ms = 1 }

let test_run_degrades_to_model () =
  let st = Serve.create ~config:tight_config () in
  let resp, _ =
    handle st
      {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4,"deadline_ms":1}|}
  in
  Alcotest.(check (option string)) "status" (Some "ok") (sfield resp "status");
  Alcotest.(check (option bool)) "degraded" (Some true) (bfield resp "degraded");
  let doc = parse_doc resp in
  (match J.member "model" doc with
  | Some m ->
      let pos k =
        match Option.bind (J.member k m) J.num with
        | Some v when v > 0.0 -> ()
        | v ->
            Alcotest.failf "model.%s not positive: %s" k
              (match v with Some f -> string_of_float f | None -> "<missing>")
      in
      pos "predicted_cycles";
      pos "predicted_points_per_sec";
      pos "floor_cycles"
  | None -> Alcotest.fail "no model payload");
  match sfield resp "caveat" with
  | Some c ->
      Alcotest.(check bool)
        "caveat names the model" true
        (String.length c > 0)
  | None -> Alcotest.fail "no caveat on a degraded response"

let test_tune_degrades_to_model_ranking () =
  let st = Serve.create ~config:tight_config () in
  let resp, _ =
    handle st
      {|{"kind":"tune","mech":"hydrogen","kernel":"viscosity","points":2048,"top_k":2,"deadline_ms":1}|}
  in
  Alcotest.(check (option string)) "status" (Some "ok") (sfield resp "status");
  Alcotest.(check (option bool)) "degraded" (Some true) (bfield resp "degraded");
  let doc = parse_doc resp in
  (match Option.bind (J.member "candidates_ranked" doc) J.int with
  | Some n when n >= 1 -> ()
  | v ->
      Alcotest.failf "candidates_ranked = %s"
        (match v with Some n -> string_of_int n | None -> "<missing>"));
  (* The degraded answer is the model's first pick: the candidate a
     pruned sweep that keeps one pick would simulate. *)
  let r =
    Result.get_ok
      (Singe.Target.resolve
         {
           Singe.Target.default with
           t_mech = "hydrogen";
           t_kernel = "viscosity";
           t_points = 2048;
         })
  in
  let first_pick =
    (Singe.Autotune.tune ~points:2048 ~mode:(Singe.Autotune.Pruned 1)
       ?synth_exchange:r.options.Singe.Compile.synth_exchange
       ~stencil_overlap:r.options.Singe.Compile.stencil_overlap r.mech
       r.kernel r.version r.arch)
      .Singe.Autotune.best.Singe.Autotune.options
  in
  match J.member "best" doc with
  | Some b ->
      Alcotest.(check (option int))
        "warps" (Some first_pick.Singe.Compile.n_warps)
        (Option.bind (J.member "warps" b) J.int);
      Alcotest.(check (option int))
        "ctas_per_sm" (Some first_pick.Singe.Compile.ctas_per_sm_target)
        (Option.bind (J.member "ctas_per_sm" b) J.int)
  | None -> Alcotest.fail "no best candidate"

(* hard deadlocks must NOT degrade — wrong is worse than slow *)
let test_deadlock_not_degraded () =
  let st = Serve.create ~config:tight_config () in
  let resp, _ =
    handle st
      {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4,"deadline_ms":100000,"faults":["drop-arrive:warp=1,nth=0"]}|}
  in
  check_class resp "simulation-fault"

(* ---- idempotent retries ---- *)

let test_idempotent_replay () =
  let st = Serve.create () in
  let line =
    {|{"id":"r9","kind":"run","mech":"hydrogen","points":2048,"warps":4,"deadline_ms":600000}|}
  in
  let first, _ = handle st line in
  let second, _ = handle st line in
  Alcotest.(check string) "bit-identical replay" first second;
  (* the same id with a different payload is a client bug, not a cache hit *)
  let resp, _ = handle st {|{"id":"r9","kind":"health"}|} in
  check_class resp "bad-request"

let test_identical_requests_deterministic () =
  (* Two cold processes (modeled as two fresh states) must produce the
     same bytes for the same request — nothing wall-clock-dependent in a
     normal response. *)
  let line =
    {|{"kind":"run","mech":"hydrogen","points":2048,"warps":4,"deadline_ms":600000}|}
  in
  let a, _ = handle (Serve.create ()) line in
  let b, _ = handle (Serve.create ()) line in
  Alcotest.(check string) "deterministic across states" a b

(* ---- lifecycle ---- *)

let test_shutdown_and_health () =
  let st = Serve.create () in
  let resp, _ = handle st {|{"kind":"health"}|} in
  Alcotest.(check (option bool)) "live" (Some true) (bfield resp "live");
  (match J.member "compile_cache" (parse_doc resp) with
  | Some _ -> ()
  | None -> Alcotest.fail "health has no compile_cache");
  let resp, stop = handle st {|{"kind":"shutdown"}|} in
  Alcotest.(check (option string)) "status" (Some "ok") (sfield resp "status");
  Alcotest.(check bool) "stops" true stop;
  Alcotest.(check int) "requests counted" 2 (Serve.requests_total st)

(* ---- the bounded compile memo ---- *)

let test_memo_lru_bound () =
  let prev_limit = (Singe.Compile.memo_stats ()).Sutil.Cache.limit in
  Fun.protect
    ~finally:(fun () -> Singe.Compile.set_memo_limit prev_limit)
    (fun () ->
      Singe.Compile.memo_clear ();
      Singe.Compile.set_memo_limit 2;
      let mech = Chem.Mech_gen.hydrogen () in
      let arch = Gpusim.Arch.kepler_k20c in
      let compile warps =
        ignore
          (Singe.Diagnostics.ok_exn
             (Singe.Compile.compile ~memo:true mech Singe.Kernel_abi.Viscosity
                Singe.Compile.Warp_specialized
                {
                  (Singe.Compile.default_options arch) with
                  Singe.Compile.n_warps = warps;
                }))
      in
      let before = Singe.Compile.memo_stats () in
      compile 2;
      compile 3;
      compile 4;
      let after = Singe.Compile.memo_stats () in
      Alcotest.(check bool)
        "size bounded" true
        (after.Sutil.Cache.size <= 2);
      Alcotest.(check bool)
        "eviction counted" true
        (after.Sutil.Cache.evictions > before.Sutil.Cache.evictions);
      (* LRU: warps=2 was evicted, warps=4 is still cached *)
      let h0 = after.Sutil.Cache.hits in
      compile 4;
      Alcotest.(check int)
        "recent entry still hits" (h0 + 1)
        ((Singe.Compile.memo_stats ()).Sutil.Cache.hits);
      let m0 = (Singe.Compile.memo_stats ()).Sutil.Cache.misses in
      compile 2;
      Alcotest.(check int)
        "oldest entry was evicted" (m0 + 1)
        ((Singe.Compile.memo_stats ()).Sutil.Cache.misses))

let test_memo_reverification () =
  let prev_limit = (Singe.Compile.memo_stats ()).Sutil.Cache.limit in
  Fun.protect
    ~finally:(fun () -> Singe.Compile.set_memo_limit prev_limit)
    (fun () ->
      Singe.Compile.memo_clear ();
      let mech = Chem.Mech_gen.hydrogen () in
      let arch = Gpusim.Arch.kepler_k20c in
      let compile () =
        Singe.Diagnostics.ok_exn
          (Singe.Compile.compile ~memo:true mech Singe.Kernel_abi.Viscosity
             Singe.Compile.Warp_specialized
             (Singe.Compile.default_options arch))
      in
      (* a warp's prologue stream swapped in place in the memoized
         artifact: the next hit must see it *)
      (match (compile ()).Singe.Compile.facts.Singe.Model_facts.own_walk with
      | None -> Alcotest.fail "no stored walk"
      | Some w -> w.Singe.Model_facts.prologue.(0) <- [||]);
      let before = Singe.Compile.memo_stats () in
      let c = compile () in
      let after = Singe.Compile.memo_stats () in
      Alcotest.(check int)
        "corruption detected" (before.Sutil.Cache.corruptions + 1)
        after.Sutil.Cache.corruptions;
      (* the recompiled artifact is sound: it simulates correctly *)
      let r = Singe.Compile.run c ~total_points:2048 ~max_cycles:50_000_000 in
      Alcotest.(check bool)
        "recompiled artifact verifies" true
        (r.Singe.Compile.max_rel_err < 1e-9);
      (* the model's stored walk is re-verified too: a warp's item stream
         dropped in place is a corruption, not a served artifact *)
      (match c.Singe.Compile.facts.Singe.Model_facts.own_walk with
      | None -> Alcotest.fail "no stored walk"
      | Some w -> w.Singe.Model_facts.body.(0) <- [||]);
      let before = Singe.Compile.memo_stats () in
      let c' = compile () in
      let after = Singe.Compile.memo_stats () in
      Alcotest.(check int)
        "walk corruption detected" (before.Sutil.Cache.corruptions + 1)
        after.Sutil.Cache.corruptions;
      Alcotest.(check bool) "recompiled, not served" true (c' != c))

(* A naive program switches on the warp id at top level: its
   [Switch_warp] arm array is the one slot of a lowered program a bug
   could rewrite in place. A hit checks each arm by identity, so an arm
   swapped for a block of the same instruction count, which no count of
   instructions can see, is caught, and so is an arm swapped for a
   shorter one. *)
let test_memo_catches_arm_swaps () =
  Singe.Compile.memo_clear ();
  let mech = Chem.Mech_gen.hydrogen () in
  let compile () =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile ~memo:true mech Singe.Kernel_abi.Viscosity
         Singe.Compile.Naive_warp_specialized
         (Singe.Compile.default_options Gpusim.Arch.kepler_k20c))
  in
  let rec arms = function
    | Gpusim.Isa.Switch_warp a -> Some a
    | Gpusim.Isa.Seq bs -> List.find_map arms bs
    | Gpusim.Isa.If_warps { body; _ } -> arms body
    | Gpusim.Isa.Instrs _ -> None
  in
  let swap what ~same_size replace =
    let c = compile () in
    let p = c.Singe.Compile.lowered.Singe.Lower.program in
    let a =
      match arms p.Gpusim.Isa.body with
      | Some a -> a
      | None -> Alcotest.fail "naive body has no warp switch"
    in
    let count = Gpusim.Isa.static_instr_count a.(0) in
    a.(0) <- replace a.(0);
    Alcotest.(check bool)
      (what ^ ": instruction count kept") same_size
      (Gpusim.Isa.static_instr_count a.(0) = count);
    let before = Singe.Compile.memo_stats () in
    let c' = compile () in
    let after = Singe.Compile.memo_stats () in
    Alcotest.(check int)
      (what ^ ": corruption detected")
      (before.Sutil.Cache.corruptions + 1)
      after.Sutil.Cache.corruptions;
    Alcotest.(check bool) (what ^ ": recompiled, not served") true (c' != c)
  in
  ignore (compile ());
  swap "same-size swap" ~same_size:true (fun arm -> Gpusim.Isa.Seq [ arm ]);
  swap "shorter swap" ~same_size:false (fun _ -> Gpusim.Isa.Instrs [])

(* ---- the target members CLI and serve share ---- *)

let stats_int st path =
  let resp, _ = handle st {|{"kind":"stats"}|} in
  let v =
    List.fold_left
      (fun v key -> Option.bind v (J.member key))
      (Some (parse_doc resp)) path
  in
  Option.bind v J.int

(* The digest an idempotent retry is checked against covers the new
   members: an id reused with another sms is a different request, and a
   tune differing only in skew is not answered from the tune cache. *)
let test_cache_keys_cover_target () =
  let st = Serve.create () in
  let line = {|{"id":"k1","kind":"predict","mech":"hydrogen","points":2048,"warps":4}|} in
  let first, _ = handle st line in
  Alcotest.(check (option string)) "first answer" (Some "ok")
    (sfield first "status");
  let resp, _ =
    handle st
      {|{"id":"k1","kind":"predict","mech":"hydrogen","points":2048,"warps":4,"sms":2}|}
  in
  check_class resp "bad-request";
  let st = Serve.create ~config:tight_config () in
  let tune skew =
    ignore
      (handle st
         (Printf.sprintf
            {|{"kind":"tune","mech":"hydrogen","points":2048,"top_k":2,"deadline_ms":1%s}|}
            skew))
  in
  tune "";
  tune "";
  Alcotest.(check (option int)) "a repeat hits" (Some 1)
    (stats_int st [ "tune_cache"; "hits" ]);
  tune {|,"skew":0.5|};
  Alcotest.(check (option int)) "another skew misses" (Some 1)
    (stats_int st [ "tune_cache"; "hits" ]);
  Alcotest.(check (option int)) "and is cached apart" (Some 2)
    (stats_int st [ "tune_cache"; "size" ])

(* Run the CLI and reduce its stderr to the message: cmdliner's usage
   lines, its line wrapping, and the "singe: " and "option '--x': --x "
   prefixes go. *)
let cli_rejection args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/singe_cli.exe"
  in
  let out, inp, err =
    Unix.open_process_args_full exe
      (Array.of_list (exe :: args))
      (Unix.environment ())
  in
  close_out inp;
  let stderr = In_channel.input_all err in
  ignore (In_channel.input_all out);
  let code =
    match Unix.close_process_full (out, inp, err) with
    | Unix.WEXITED c -> c
    | _ -> -1
  in
  let rec message = function
    | l :: _ when String.starts_with ~prefix:"Usage:" l -> []
    | l :: rest -> l :: message rest
    | [] -> []
  in
  let words =
    String.split_on_char '\n' stderr
    |> message |> String.concat " " |> String.split_on_char ' '
    |> List.filter (( <> ) "")
  in
  let words =
    match words with
    | "singe:" :: "option" :: _quoted :: flag :: rest
      when String.starts_with ~prefix:"--" flag ->
        rest
    | "singe:" :: "option" :: _quoted :: rest -> rest
    | "singe:" :: rest -> rest
    | rest -> rest
  in
  (code, String.concat " " words)

(* Serve's answer to the same target: exit analog and message, minus its
   [field "x"] prefix. *)
let serve_rejection st members =
  let resp, _ = handle st (Printf.sprintf {|{"kind":"run",%s}|} members) in
  let doc = parse_doc resp in
  let msg = Option.value ~default:"" (sfield resp "message") in
  let msg =
    match String.split_on_char ' ' msg with
    | "field" :: _key :: rest -> String.concat " " rest
    | _ -> msg
  in
  (Option.value ~default:0 (Option.bind (J.member "exit_analog" doc) J.int), msg)

let test_cli_serve_parity () =
  let st = Serve.create () in
  let h args = "--mech" :: "hydrogen" :: args in
  let hj members = {|"mech":"hydrogen",|} ^ members in
  List.iter
    (fun (what, cli, serve) ->
      let code, cli_msg = cli_rejection ("run" :: cli) in
      let analog, serve_msg = serve_rejection st serve in
      Alcotest.(check string) (what ^ ": message") cli_msg serve_msg;
      Alcotest.(check int) (what ^ ": exit code") code analog)
    [
      ("mech", [ "--mech"; "nope" ], {|"mech":"nope"|});
      ("kernel", h [ "--kernel"; "nope" ], hj {|"kernel":"nope"|});
      ("arch", h [ "--arch"; "nope" ], hj {|"arch":"nope"|});
      ("version", h [ "--version"; "nope" ], hj {|"version":"nope"|});
      ("partition", h [ "--partition"; "nope" ], hj {|"partition":"nope"|});
      ("warps 1", h [ "--warps"; "1" ], hj {|"warps":1|});
      ("warps 64", h [ "--warps"; "64" ], hj {|"warps":64|});
      ( "baseline points",
        h [ "--version"; "baseline"; "--points"; "1000" ],
        hj {|"version":"baseline","points":1000|} );
      ("sms 0", h [ "--sms"; "0" ], hj {|"sms":0|});
      ( "sms 10^9",
        h [ "--sms"; "1000000000" ],
        hj {|"sms":1000000000|} );
      ("skew 2.5", h [ "--skew"; "2.5" ], hj {|"skew":2.5|});
      ( "register fit",
        h [ "--arch"; "fermi"; "--warps"; "32" ],
        hj {|"arch":"fermi","warps":32|} );
    ]

(* ---- the launch-inputs memo ---- *)

let bits rows = Array.map (Array.map Int64.bits_of_float) rows

(* [Compile.run] takes its input grid and host reference from a memo: a
   warm run builds no grid, its outputs and oracle error are bit-identical
   to a cold run's, and the memo keeps grids and references together
   within its budget. *)
let test_inputs_memo () =
  Singe.Compile.memo_clear ();
  let mech = Chem.Mech_gen.hydrogen () in
  let arch = Gpusim.Arch.kepler_k20c in
  let compile kernel version =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile ~memo:true mech kernel version
         (Singe.Target.options ~n_warps:4 arch kernel))
  in
  let stats () = List.assoc "launch_inputs" (Singe.Compile.cache_stats ()) in
  (* Each miss builds a grid. *)
  let built () = (stats ()).Sutil.Cache.misses in
  let visc =
    compile Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized
  in
  let run ?seed c = Singe.Compile.run ?seed c ~total_points:4096 in
  let same label (a : Singe.Compile.run_result) (b : Singe.Compile.run_result) =
    Alcotest.(check bool)
      (label ^ ": outputs bit-identical")
      true
      (bits a.Singe.Compile.outputs = bits b.Singe.Compile.outputs);
    Alcotest.(check int64)
      (label ^ ": max_rel_err bit-identical")
      (Int64.bits_of_float a.Singe.Compile.max_rel_err)
      (Int64.bits_of_float b.Singe.Compile.max_rel_err)
  in
  let b0 = built () in
  let cold = run visc in
  Alcotest.(check int) "a cold run builds its grid" (b0 + 1) (built ());
  let warm = run visc in
  Alcotest.(check int) "a warm run builds none" (b0 + 1) (built ());
  same "cold vs warm" cold warm;
  let edge3 =
    compile (Singe.Kernel_abi.Stencil Singe.Stencil_pipe.Edge3)
      Singe.Compile.Baseline
  in
  for seed = 1 to 16 do
    ignore (run ~seed:(Int64.of_int seed) edge3);
    let s = stats () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: %d doubles within the budget of %d" seed
         s.Sutil.Cache.cost s.Sutil.Cache.limit)
      true
      (s.Sutil.Cache.cost <= s.Sutil.Cache.limit)
  done;
  Alcotest.(check bool)
    "the budget evicted grids" true
    ((stats ()).Sutil.Cache.size < 17);
  Singe.Compile.memo_clear ();
  Alcotest.(check int) "memo_clear drops every grid" 0
    (stats ()).Sutil.Cache.size;
  same "cold again" cold (run visc)

(* ---- launch state ---- *)

(* A run's whole result: the chip result (memory, main and tail
   simulations, schedule), the outputs and the oracle error, bit for
   bit. *)
let run_bytes (r : Singe.Compile.run_result) =
  Marshal.to_string
    (r.Singe.Compile.machine, r.Singe.Compile.outputs, r.Singe.Compile.max_rel_err)
    [ Marshal.No_sharing ]

let fault_bytes f = Marshal.to_string f [ Marshal.No_sharing ]

let state_stats = Singe.Compile.launch_state_stats

(* Targets with a tail round (128 CTAs, 6 resident) and without one, and
   one that also extrapolates from pin runs (1024 CTAs of 8 batches, 13
   resident, a tail of 10): a stored launch holds main, pin and tail
   rounds. *)
let store_targets =
  Singe.Kernel_abi.
    [
      (Viscosity, Singe.Compile.Warp_specialized, 4096);
      (Chemistry, Singe.Compile.Baseline, 2048);
      (Conductivity, Singe.Compile.Warp_specialized, 262144);
    ]

let store_compile ?(memo = true) kernel version =
  let mech = Chem.Mech_gen.hydrogen () in
  let n_warps = match version with Singe.Compile.Baseline -> 8 | _ -> 4 in
  Singe.Diagnostics.ok_exn
    (Singe.Compile.compile ~memo mech kernel version
       (Singe.Target.options ~n_warps Gpusim.Arch.kepler_k20c kernel))

(* The launch state lives as long as its artifact: an artifact evicted
   from the compile memo and no longer held is collected with its launch
   state, so a server cycling through targets keeps no dead programs
   alive. *)
let test_launch_state_lifetime () =
  let prev_limit = (Singe.Compile.memo_stats ()).Sutil.Cache.limit in
  Fun.protect
    ~finally:(fun () -> Singe.Compile.set_memo_limit prev_limit)
    (fun () ->
      Singe.Compile.memo_clear ();
      Singe.Compile.set_memo_limit 1;
      let weak = Weak.create 1 in
      let run_and_forget kernel =
        let c = store_compile kernel Singe.Compile.Warp_specialized in
        ignore (Singe.Compile.run c ~total_points:4096);
        Weak.set weak 0 (Some c.Singe.Compile.lowered.Singe.Lower.program)
      in
      (Sys.opaque_identity run_and_forget) Singe.Kernel_abi.Viscosity;
      Gc.full_major ();
      Alcotest.(check bool) "a memoized program stays" true
        (Weak.check weak 0);
      (* Evict it. *)
      let resident =
        store_compile Singe.Kernel_abi.Conductivity
          Singe.Compile.Warp_specialized
      in
      Gc.full_major ();
      Alcotest.(check bool) "an evicted program is collected" false
        (Weak.check weak 0);
      ignore (Sys.opaque_identity resident))

(* ---- stored launches ---- *)

let launches_served () = (state_stats ()).Singe.Compile.launches_served
let launches_stored () = (state_stats ()).Singe.Compile.launches_stored

(* Every mutable part of a returned result: the simulations' counters and
   cache stats, the memory and the chip's per-SM stats. *)
let poison_result (r : Singe.Compile.run_result) =
  let m = r.Singe.Compile.machine in
  let poison (s : Gpusim.Sm.result) =
    s.Gpusim.Sm.counters.Gpusim.Sm.issued <- -1;
    s.Gpusim.Sm.icache.Gpusim.Caches.Icache.misses <- -1;
    s.Gpusim.Sm.ccache.Gpusim.Caches.Ccache.hits <- -1
  in
  poison m.Gpusim.Chip.sim;
  Option.iter poison m.Gpusim.Chip.tail_sim;
  let mem = m.Gpusim.Chip.mem in
  Array.iter (Array.iter (fun f -> Array.fill f 0 (Array.length f) nan))
    mem.Gpusim.Memstate.globals;
  Array.iter (fun a -> a.(0) <- nan) mem.Gpusim.Memstate.shared;
  Array.iter (fun a -> a.(0) <- nan) mem.Gpusim.Memstate.local;
  let sms = m.Gpusim.Chip.chip.Gpusim.Chip.sms in
  sms.(0) <- { (sms.(0)) with Gpusim.Chip.sm_ctas = -1 }

(* A repeated clean run is answered from the artifact's stored launch,
   and its whole result equals a fresh artifact's run. Poisoning a
   returned result leaves the next one intact. *)
let test_stored_launch_served () =
  Singe.Compile.memo_clear ();
  List.iter
    (fun (kernel, version, total_points) ->
      let label = Singe.Kernel_abi.kernel_name kernel in
      let run ?memo () =
        Singe.Compile.run (store_compile ?memo kernel version) ~total_points
      in
      let stored0 = launches_stored () in
      let cold = run () in
      Alcotest.(check int) (label ^ ": a cold run is stored") (stored0 + 1)
        (launches_stored ());
      let l0 = launches_served () in
      let warm = run () in
      Alcotest.(check int) (label ^ ": a repeated run is served") (l0 + 1)
        (launches_served ());
      let fresh = run_bytes (run ~memo:false ()) in
      Alcotest.(check bool) (label ^ ": cold = fresh") true
        (run_bytes cold = fresh);
      Alcotest.(check bool) (label ^ ": served = fresh") true
        (run_bytes warm = fresh);
      poison_result warm;
      poison_result cold;
      Alcotest.(check bool)
        (label ^ ": poisoned results leave the stored launch intact")
        true
        (run_bytes (run ()) = fresh);
      Alcotest.(check int) (label ^ ": stored once") (stored0 + 1)
        (launches_stored ()))
    store_targets

(* The key is everything a run's result depends on: changing any one of
   the CTAs, points, SM count, skew (by its bits), seed or temperature
   range misses, and so does its repeat, since an artifact keeps only
   its first launch's run; each equals a fresh artifact's run, and the
   first launch is still served. *)
let test_stored_launch_key () =
  Singe.Compile.memo_clear ();
  let kernel = Singe.Kernel_abi.Viscosity
  and version = Singe.Compile.Warp_specialized in
  let run ?(memo = true) ?ctas ?(total_points = 4096) ?n_sms ?skew ?seed
      ?t_range () =
    Singe.Compile.run (store_compile ~memo kernel version) ?ctas ?n_sms ?skew
      ?seed ?t_range ~total_points
  in
  let stored0 = launches_stored () in
  let first = run_bytes (run ()) in
  Alcotest.(check int) "the first launch is stored" (stored0 + 1)
    (launches_stored ());
  let variants =
    [
      ("ctas", fun memo -> run ~memo ~ctas:64 ());
      ("points", fun memo -> run ~memo ~total_points:8192 ());
      ("n_sms", fun memo -> run ~memo ~n_sms:1 ());
      ("skew", fun memo -> run ~memo ~skew:0.5 ());
      ("skew -0.0", fun memo -> run ~memo ~skew:(-0.0) ());
      ("seed", fun memo -> run ~memo ~seed:7L ());
      ("t_range", fun memo -> run ~memo ~t_range:(1000.0, 2400.0) ());
    ]
  in
  List.iter
    (fun (what, launch) ->
      let stored0 = launches_stored () and l0 = launches_served () in
      let once = launch true in
      let again = launch true in
      Alcotest.(check int) (what ^ ": misses, repeated too") l0
        (launches_served ());
      Alcotest.(check int) (what ^ ": is not stored") stored0
        (launches_stored ());
      let fresh = run_bytes (launch false) in
      Alcotest.(check bool) (what ^ ": equals a fresh run") true
        (run_bytes once = fresh && run_bytes again = fresh))
    variants;
  let l0 = launches_served () in
  Alcotest.(check bool) "the first launch is served" true
    (run_bytes (run ()) = first && launches_served () = l0 + 1)

(* A budget below the largest round the stored launch simulated (main,
   pin or tail) raises the fault a fresh run raises, byte for byte, and
   serves nothing; a budget of exactly that round is served. Runs with
   faults or a profile, one-shot artifacts and results over 2^18
   doubles serve and store nothing. *)
let test_stored_launch_bypass () =
  Singe.Compile.memo_clear ();
  let kernel = Singe.Kernel_abi.Conductivity
  and version = Singe.Compile.Warp_specialized
  and total_points = 262144 in
  let c = store_compile kernel version in
  let cold = Singe.Compile.run c ~total_points in
  let m = cold.Singe.Compile.machine in
  let cycles = m.Gpusim.Chip.max_round_cycles in
  Alcotest.(check bool) "the largest round bounds the main round" true
    (cycles >= m.Gpusim.Chip.sim.Gpusim.Sm.cycles);
  let fault ?(c = c) max_cycles =
    match Singe.Compile.run c ~total_points ~max_cycles with
    | _ -> Alcotest.failf "a budget of %d cycles did not fault" max_cycles
    | exception Gpusim.Sm.Simulation_fault f -> f
  in
  List.iter
    (fun budget ->
      let l0 = launches_served () in
      let stored = fault budget in
      Alcotest.(check int)
        (Printf.sprintf "budget %d serves nothing" budget)
        l0 (launches_served ());
      let fresh = fault ~c:(store_compile ~memo:false kernel version) budget in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d: the fresh run's fault" budget)
        true
        (fault_bytes stored = fault_bytes fresh))
    [ cycles - 1; cycles / 2; 100 ];
  let l0 = launches_served () in
  let exact = Singe.Compile.run c ~total_points ~max_cycles:cycles in
  Alcotest.(check int) "a budget of the largest round is served" (l0 + 1)
    (launches_served ());
  Alcotest.(check bool) "and equals the cold run" true
    (run_bytes cold = run_bytes exact);
  let l0 = launches_served () and stored0 = launches_stored () in
  ignore (Singe.Compile.run c ~total_points ~profile:Gpusim.Sm.default_profile);
  ignore
    (Singe.Compile.run c ~total_points
       ~faults:
         [ Result.get_ok (Gpusim.Fault.of_string "corrupt-shfl:warp=0,nth=0") ]);
  let one_shot = store_compile ~memo:false kernel version in
  ignore (Singe.Compile.run one_shot ~total_points:4096);
  ignore (Singe.Compile.run one_shot ~total_points:4096);
  (* A heptane baseline's spill arrays put its memory over 2^18 doubles. *)
  let heptane =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile ~memo:true (Chem.Mech_gen.heptane ())
         Singe.Kernel_abi.Viscosity Singe.Compile.Baseline
         (Singe.Target.options ~n_warps:8 Gpusim.Arch.kepler_k20c
            Singe.Kernel_abi.Viscosity))
  in
  let large = Singe.Compile.run heptane ~total_points:32768 in
  Alcotest.(check bool) "a heptane baseline holds over 2^18 doubles" true
    (Gpusim.Memstate.doubles large.Singe.Compile.machine.Gpusim.Chip.mem
    > 1 lsl 18);
  Alcotest.(check bool) "and its repeat equals it" true
    (run_bytes (Singe.Compile.run heptane ~total_points:32768)
    = run_bytes large);
  Alcotest.(check int)
    "faults, profiles, one-shots and large results serve nothing" l0
    (launches_served ());
  Alcotest.(check int) "and store nothing" stored0 (launches_stored ())

(* A launch whose tail round outlasts its main round: hydrogen edge3,
   naive warp-specialized, 6 warps on Fermi, 3 CTAs of one batch on one
   SM (2 resident, a tail of 1). A budget of the main round's cycles
   finishes the main round and stops the tail, so the stored launch is
   not served and the run raises a fresh run's fault; a budget of the
   tail round's cycles is served. *)
let test_stored_launch_tail_budget () =
  Singe.Compile.memo_clear ();
  let kernel = Singe.Kernel_abi.Stencil Singe.Stencil_pipe.Edge3 in
  let compile memo =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile ~memo (Chem.Mech_gen.hydrogen ()) kernel
         Singe.Compile.Naive_warp_specialized
         (Singe.Target.options ~n_warps:6 Gpusim.Arch.fermi_c2070 kernel))
  in
  let c = compile true in
  let total_points =
    3 * Gpusim.Isa.points_per_batch c.Singe.Compile.lowered.Singe.Lower.program
  in
  let run ?max_cycles c =
    Singe.Compile.run c ~ctas:3 ~n_sms:1 ~total_points ?max_cycles
  in
  let cold = run c in
  let m = cold.Singe.Compile.machine in
  let main = m.Gpusim.Chip.sim.Gpusim.Sm.cycles in
  Alcotest.(check int) "a tail of one" 1
    m.Gpusim.Chip.chip.Gpusim.Chip.tail_ctas;
  let tail = (Option.get m.Gpusim.Chip.tail_sim).Gpusim.Sm.cycles in
  Alcotest.(check bool) "the tail round outlasts the main round" true
    (tail > main);
  let fault c =
    match run ~max_cycles:main c with
    | _ -> Alcotest.failf "a budget of %d cycles did not fault" main
    | exception Gpusim.Sm.Simulation_fault f -> f
  in
  let l0 = launches_served () in
  let stored = fault c in
  Alcotest.(check int) "a budget of the main round serves nothing" l0
    (launches_served ());
  Alcotest.(check bool) "and raises the fresh run's fault" true
    (fault_bytes stored = fault_bytes (fault (compile false)));
  let exact = run ~max_cycles:tail c in
  Alcotest.(check int) "a budget of the tail round is served" (l0 + 1)
    (launches_served ());
  Alcotest.(check bool) "and equals the cold run" true
    (run_bytes exact = run_bytes cold)

(* Generated launches of generated hydrogen targets: a memoized
   artifact's second run equals its first, and both equal the run of an
   artifact compiled outside the memo (a cached result equals an
   uncached one). *)
let stored_launch_qcheck =
  let open QCheck in
  let gen =
    let open Gen in
    let+ kernel =
      oneofl
        Singe.Kernel_abi.
          [
            Viscosity; Conductivity; Diffusion; Chemistry;
            Stencil Singe.Stencil_pipe.Edge3; Stencil Singe.Stencil_pipe.Unsharp2;
          ]
    and+ version =
      oneofl
        Singe.Compile.[ Warp_specialized; Naive_warp_specialized; Baseline ]
    and+ n_warps = int_range 2 8
    and+ batches = int_range 1 4
    and+ n_sms = int_range 1 16
    and+ skew = oneof [ return 0.0; float_bound_exclusive 1.0 ]
    and+ seed = map Int64.of_int (int_bound 1_000_000) in
    (kernel, version, n_warps, n_warps * 32 * batches, n_sms, skew, seed)
  in
  let print (kernel, version, n_warps, points, n_sms, skew, seed) =
    Printf.sprintf "%s %s, %d warps, %d points, %d SMs, skew %h, seed %Ld"
      (Singe.Kernel_abi.kernel_name kernel)
      (Singe.Compile.version_name version)
      n_warps points n_sms skew seed
  in
  let mech = Chem.Mech_gen.hydrogen () in
  let prop (kernel, version, n_warps, total_points, n_sms, skew, seed) =
    let options = Singe.Target.options ~n_warps Gpusim.Arch.kepler_k20c kernel in
    let run memo =
      match Singe.Compile.compile ~memo mech kernel version options with
      | Error _ -> None
      | Ok c -> (
          match Singe.Compile.run c ~n_sms ~skew ~seed ~total_points with
          | r -> Some (run_bytes r)
          | exception Singe.Diagnostics.Fail _ -> None)
    in
    let first = run true in
    let second = run true and uncached = run false in
    first = second && first = uncached
  in
  QCheck_alcotest.to_alcotest ~verbose:false
    (Test.make ~count:40 ~name:"stored launch equals an uncached run"
       (make ~print gen) prop)

let tests =
  [
    request_roundtrip_qcheck;
    Alcotest.test_case "bad-request class" `Quick test_bad_request_class;
    Alcotest.test_case "non-positive deadline rejected" `Quick
      test_nonpositive_deadline_rejected;
    Alcotest.test_case "compile-rejected class" `Quick
      test_compile_rejected_class;
    Alcotest.test_case "bad names match Target" `Quick
      test_bad_names_match_target;
    Alcotest.test_case "baseline launch message" `Quick
      test_baseline_launch_message;
    Alcotest.test_case "ws launch rejected" `Quick test_ws_launch_rejected;
    Alcotest.test_case "simulation-fault class" `Quick
      test_simulation_fault_class;
    Alcotest.test_case "busy class" `Quick test_busy_class;
    Alcotest.test_case "corrupted outputs reported" `Quick
      test_corrupt_run_reported;
    Alcotest.test_case "run degrades to model" `Quick
      test_run_degrades_to_model;
    Alcotest.test_case "tune degrades to model ranking" `Quick
      test_tune_degrades_to_model_ranking;
    Alcotest.test_case "deadlock is not degraded" `Quick
      test_deadlock_not_degraded;
    Alcotest.test_case "idempotent replay bit-identical" `Quick
      test_idempotent_replay;
    Alcotest.test_case "identical requests deterministic" `Quick
      test_identical_requests_deterministic;
    Alcotest.test_case "shutdown and health" `Quick test_shutdown_and_health;
    Alcotest.test_case "compile memo LRU bound" `Quick test_memo_lru_bound;
    Alcotest.test_case "compile memo re-verification" `Quick
      test_memo_reverification;
    Alcotest.test_case "compile memo catches arm swaps" `Quick
      test_memo_catches_arm_swaps;
    Alcotest.test_case "cache keys cover the target" `Quick
      test_cache_keys_cover_target;
    Alcotest.test_case "CLI and serve reject alike" `Quick
      test_cli_serve_parity;
    Alcotest.test_case "launch-inputs memo" `Quick test_inputs_memo;
    Alcotest.test_case "launch state: lifetime of its artifact" `Quick
      test_launch_state_lifetime;
    Alcotest.test_case "stored launch: a repeated run is served" `Quick
      test_stored_launch_served;
    Alcotest.test_case "stored launch: every key field misses" `Quick
      test_stored_launch_key;
    Alcotest.test_case "stored launch: budgets, faults, profiles" `Quick
      test_stored_launch_bypass;
    Alcotest.test_case "stored launch: a tail round longer than the main"
      `Quick test_stored_launch_tail_budget;
    stored_launch_qcheck;
  ]
