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

(* ---- the launch-shape store ---- *)

(* A run's whole result: the chip result (memory, main and tail
   simulations, schedule), the outputs and the oracle error, bit for
   bit. *)
let run_bytes (r : Singe.Compile.run_result) =
  Marshal.to_string
    (r.Singe.Compile.machine, r.Singe.Compile.outputs, r.Singe.Compile.max_rel_err)
    [ Marshal.No_sharing ]

let fault_bytes f = Marshal.to_string f [ Marshal.No_sharing ]

let store_stats = Singe.Compile.shape_store_stats
let served () = (store_stats ()).Singe.Compile.runs_served
let flattened () = (store_stats ()).Singe.Compile.traces_flattened

(* Targets with a tail round (128 CTAs, 6 resident) and without one, and
   one that also extrapolates from pin runs (1024 CTAs of 8 batches, 13
   resident, a tail of 10): main, pin, tail and tail-pin simulations all
   go through the store. The last field counts them. *)
let store_targets =
  Singe.Kernel_abi.
    [
      (Viscosity, Singe.Compile.Warp_specialized, 4096, 2);
      (Chemistry, Singe.Compile.Baseline, 2048, 1);
      (Conductivity, Singe.Compile.Warp_specialized, 262144, 4);
    ]

let store_compile ?(memo = true) kernel version =
  let mech = Chem.Mech_gen.hydrogen () in
  let n_warps = match version with Singe.Compile.Baseline -> 8 | _ -> 4 in
  Singe.Diagnostics.ok_exn
    (Singe.Compile.compile ~memo mech kernel version
       (Singe.Target.options ~n_warps Gpusim.Arch.kepler_k20c kernel))

(* A warm run serves every simulation of its launch from the store,
   flattens nothing, and equals the cold run that filled it (which
   flattened once) and a run after [memo_clear], whole result for whole
   result. Mutating a returned result's counters and cache stats does
   not reach the store. *)
let test_shape_store_warm_equals_cold () =
  Singe.Compile.memo_clear ();
  List.iter
    (fun (kernel, version, total_points, sims) ->
      let label = Singe.Kernel_abi.kernel_name kernel in
      let run () =
        Singe.Compile.run (store_compile kernel version) ~total_points
      in
      let s0 = served () and f0 = flattened () in
      let cold = run () in
      Alcotest.(check int) (label ^ ": a cold run simulates") s0 (served ());
      Alcotest.(check int) (label ^ ": and flattens once") (f0 + 1)
        (flattened ());
      let warm = run () in
      Alcotest.(check int)
        (label ^ ": a warm run serves every simulation")
        (s0 + sims) (served ());
      Alcotest.(check int)
        (label ^ ": and flattens nothing")
        (f0 + 1) (flattened ());
      Alcotest.(check bool)
        (label ^ ": warm = cold")
        true
        (run_bytes cold = run_bytes warm);
      let poison (r : Gpusim.Sm.result) =
        r.Gpusim.Sm.counters.Gpusim.Sm.issued <- -1;
        r.Gpusim.Sm.counters.Gpusim.Sm.flops <- -1;
        r.Gpusim.Sm.icache.Gpusim.Caches.Icache.misses <- -1;
        r.Gpusim.Sm.ccache.Gpusim.Caches.Ccache.hits <- -1
      in
      poison warm.Singe.Compile.machine.Gpusim.Chip.sim;
      Option.iter poison warm.Singe.Compile.machine.Gpusim.Chip.tail_sim;
      Alcotest.(check bool)
        (label ^ ": a mutated result leaves the store intact")
        true
        (run_bytes cold = run_bytes (run ()));
      Singe.Compile.memo_clear ();
      Alcotest.(check int)
        (label ^ ": memo_clear drops every store")
        0 (store_stats ()).Singe.Compile.stores;
      Alcotest.(check bool)
        (label ^ ": after memo_clear = cold")
        true
        (run_bytes cold = run_bytes (run ())))
    store_targets

(* Every shape is stored with its issue order, whichever round first
   simulated it. At 262,144 points the conductivity launch is 1,024 CTAs
   of 8 batches, 13 resident: main (13, 6), pin (13, 4), tail (10, 6) and
   tail-pin (10, 4). At 131,072 points it has 4 batches and no pin runs,
   so its main round (13, 4) and tail round (10, 4) are the earlier pin
   shapes: both are served, the main one by replaying the pin run's
   order, and the run equals a fresh artifact's. *)
let test_shape_store_serves_pin_shapes () =
  Singe.Compile.memo_clear ();
  let kernel = Singe.Kernel_abi.Conductivity
  and version = Singe.Compile.Warp_specialized in
  let run ?memo total_points =
    Singe.Compile.run (store_compile ?memo kernel version) ~total_points
  in
  let shape (r : Singe.Compile.run_result) =
    let m = r.Singe.Compile.machine in
    ( m.Gpusim.Chip.occ.Gpusim.Chip.resident_ctas,
      m.Gpusim.Chip.chip.Gpusim.Chip.tail_ctas,
      m.Gpusim.Chip.simulated_points )
  in
  let long = run 262144 in
  Alcotest.(check (triple int int int))
    "262,144 points: 13 resident, a tail of 10, 6 batches simulated"
    (13, 10, 13 * 32 * 6) (shape long);
  let s0 = served () and f0 = flattened () in
  let short = run 131072 in
  Alcotest.(check (triple int int int))
    "131,072 points: 13 resident, a tail of 10, 4 batches simulated"
    (13, 10, 13 * 32 * 4) (shape short);
  Alcotest.(check int) "main and tail rounds served" (s0 + 2) (served ());
  Alcotest.(check int) "nothing flattened" f0 (flattened ());
  Alcotest.(check bool) "equals a fresh artifact's run" true
    (run_bytes short = run_bytes (run ~memo:false 131072))

(* Budgets, faults and profiles: a budget below the stored cycles raises
   the fault a fresh simulation raises (same cycle, same dumps), a budget
   of exactly the stored cycles is served, and a run with faults or the
   profiler simulates as without a store. *)
let test_shape_store_bypass () =
  Singe.Compile.memo_clear ();
  let kernel = Singe.Kernel_abi.Conductivity
  and version = Singe.Compile.Warp_specialized
  and total_points = 262144 in
  let c = store_compile kernel version in
  let cold = Singe.Compile.run c ~total_points in
  let cycles = cold.Singe.Compile.machine.Gpusim.Chip.sim.Gpusim.Sm.cycles in
  let fault ?(c = c) max_cycles =
    match Singe.Compile.run c ~total_points ~max_cycles with
    | _ -> Alcotest.failf "a budget of %d cycles did not fault" max_cycles
    | exception Gpusim.Sm.Simulation_fault f -> f
  in
  List.iter
    (fun budget ->
      let s0 = served () in
      let stored = fault budget in
      Alcotest.(check int)
        (Printf.sprintf "budget %d simulates" budget)
        s0 (served ());
      let fresh = fault ~c:(store_compile ~memo:false kernel version) budget in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d: the fresh run's fault" budget)
        true
        (fault_bytes stored = fault_bytes fresh))
    [ cycles - 1; cycles / 2; 100 ];
  let s0 = served () in
  let exact = Singe.Compile.run c ~total_points ~max_cycles:cycles in
  Alcotest.(check bool) "a budget of the stored cycles is served" true
    (served () > s0);
  Alcotest.(check bool) "and equals the cold run" true
    (run_bytes cold = run_bytes exact);
  let shapes0 = (store_stats ()).Singe.Compile.shapes_stored in
  let s0 = served () in
  let mem_bytes (r : Singe.Compile.run_result) =
    Marshal.to_string r.Singe.Compile.machine.Gpusim.Chip.mem []
  in
  (* Each replays the view of the trace it flattened itself, with the
     store's view already there. *)
  let f0 = flattened () in
  let profiled =
    Singe.Compile.run c ~total_points ~profile:Gpusim.Sm.default_profile
  in
  Alcotest.(check bool) "a profiled run has its profile" true
    (profiled.Singe.Compile.machine.Gpusim.Chip.sim.Gpusim.Sm.profile <> None);
  Alcotest.(check int) "a profiled run flattens its own trace" (f0 + 1)
    (flattened ());
  Alcotest.(check bool) "and replays the clean memory" true
    (mem_bytes profiled = mem_bytes cold);
  let corrupt =
    [ Result.get_ok (Gpusim.Fault.of_string "corrupt-shfl:warp=0,nth=0") ]
  in
  let faulted = Singe.Compile.run c ~total_points ~faults:corrupt in
  Alcotest.(check int) "a faulted run flattens its own trace" (f0 + 2)
    (flattened ());
  Alcotest.(check bool) "and replays its faults" false
    (mem_bytes faulted = mem_bytes cold);
  Alcotest.(check bool) "as a fresh artifact's faulted run does" true
    (mem_bytes faulted
    = mem_bytes
        (Singe.Compile.run (store_compile ~memo:false kernel version)
           ~total_points ~faults:corrupt));
  let drop =
    match
      Singe.Compile.run c ~total_points
        ~faults:[ Result.get_ok (Gpusim.Fault.of_string "drop-arrive:warp=1,nth=0") ]
    with
    | _ -> None
    | exception Gpusim.Sm.Simulation_fault f -> Some f
  in
  Alcotest.(check bool) "a dropped arrive still deadlocks" true (drop <> None);
  Alcotest.(check int) "faults and profiles serve nothing" s0 (served ());
  Alcotest.(check int) "and store nothing" shapes0
    (store_stats ()).Singe.Compile.shapes_stored

(* The stored view replays like a fresh trace. A launch of [2r + 1] CTAs
   of 8 batches, [r] resident, simulates four shapes: main (r, 6), pin
   (r, 4), tail (1, 6) and tail pin (1, 4). A later launch whose only
   round has one of those shapes is served from the store, flattens
   nothing, replays the stored order through the stored view, and equals
   bit for bit the run of a fresh artifact, which simulates and replays
   its own freshly flattened trace. *)
let test_shape_store_view_equals_fresh_trace () =
  Singe.Compile.memo_clear ();
  List.iter
    (fun kernel ->
      let label = Singe.Kernel_abi.kernel_name kernel
      and version = Singe.Compile.Warp_specialized in
      let launch ?memo (ctas, batches) =
        Singe.Compile.run (store_compile ?memo kernel version) ~ctas
          ~total_points:(ctas * 32 * batches)
      in
      let r =
        (Gpusim.Chip.occupancy Gpusim.Arch.kepler_k20c
           (store_compile kernel version).Singe.Compile.lowered
             .Singe.Lower.program)
          .Gpusim.Chip.resident_ctas
      in
      Alcotest.(check bool) (label ^ ": two or more resident") true (r >= 2);
      let cold = launch ((2 * r) + 1, 8) in
      Alcotest.(check int)
        (label ^ ": a tail of one")
        1 cold.Singe.Compile.machine.Gpusim.Chip.chip.Gpusim.Chip.tail_ctas;
      List.iter
        (fun (what, shape) ->
          let s0 = served () and f0 = flattened () in
          let warm = launch shape in
          Alcotest.(check int)
            (Printf.sprintf "%s %s shape: served" label what)
            (s0 + 1) (served ());
          Alcotest.(check int)
            (Printf.sprintf "%s %s shape: nothing flattened" label what)
            f0 (flattened ());
          Alcotest.(check bool)
            (Printf.sprintf "%s %s shape: equals a fresh trace's replay" label
               what)
            true
            (run_bytes warm = run_bytes (launch ~memo:false shape)))
        [ ("main", (r, 6)); ("pin", (r, 4)); ("tail", (1, 6)); ("tail pin", (1, 4)) ])
    Singe.Kernel_abi.[ Chemistry; Stencil Singe.Stencil_pipe.Edge3 ]

(* The store lives as long as its artifact: an artifact evicted from the
   compile memo and no longer held is collected with its launch state,
   so a server cycling through targets keeps no dead programs alive. The
   memo creates a state for each artifact it inserts, so the artifact
   that evicts the first one holds the only state left. *)
let test_shape_store_lifetime () =
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
      Alcotest.(check int) "one store" 1 (store_stats ()).Singe.Compile.stores;
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
      Alcotest.(check int) "with its store" 1
        (store_stats ()).Singe.Compile.stores;
      ignore (Sys.opaque_identity resident))

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
    Alcotest.test_case "shape store: warm equals cold" `Quick
      test_shape_store_warm_equals_cold;
    Alcotest.test_case "shape store: pin shapes serve main rounds" `Quick
      test_shape_store_serves_pin_shapes;
    Alcotest.test_case "shape store: budgets, faults, profiles" `Quick
      test_shape_store_bypass;
    Alcotest.test_case "shape store: lifetime of its program" `Quick
      test_shape_store_lifetime;
    Alcotest.test_case "shape store: stored view equals a fresh trace" `Quick
      test_shape_store_view_equals_fresh_trace;
  ]
