(* The pass-pipeline refactor: report structure (per-pass timings and
   artifact statistics), typed diagnostics for invalid options, and
   seeded-mutation negative tests proving each inter-pass validator catches
   the breakage it is responsible for — not a generic crash elsewhere. *)

let hydrogen = Chem.Mech_gen.hydrogen

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let all_kernels =
  [ Singe.Kernel_abi.Viscosity; Singe.Kernel_abi.Conductivity;
    Singe.Kernel_abi.Diffusion; Singe.Kernel_abi.Chemistry ]

let options ?(arch = Gpusim.Arch.kepler_k20c) ?(nw = 4) kernel =
  Singe.Target.options ~n_warps:nw arch kernel

let compile ?arch ?nw ?(mech = hydrogen ())
    ?(version = Singe.Compile.Warp_specialized) kernel =
  let report = ref None in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile ~validate:true
         ~report:(fun r -> report := Some r)
         mech kernel version (options ?arch ?nw kernel))
  in
  (c, Option.get !report)

(* ---- report structure ---- *)

let expected_passes =
  [ "dfg-build"; "dfg-validate"; "mapping"; "mapping-validate"; "schedule";
    "schedule-validate"; "deadlock-check"; "lower"; "lower-validate" ]

let test_report_covers_pipeline () =
  let mech = Chem.Mech_gen.dme () in
  List.iter
    (fun kernel ->
      let _, report = compile ~mech kernel in
      let names =
        List.map
          (fun (r : Singe.Pass.record) -> r.Singe.Pass.pass_name)
          report.Singe.Pass.records
      in
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has pass %s"
               (Singe.Kernel_abi.kernel_name kernel) n)
            true (List.mem n names))
        expected_passes;
      List.iter
        (fun (r : Singe.Pass.record) ->
          Alcotest.(check bool)
            (r.Singe.Pass.pass_name ^ " timing sane")
            true
            (r.Singe.Pass.wall_ns >= 0. && r.Singe.Pass.runs >= 1);
          Alcotest.(check bool) (r.Singe.Pass.pass_name ^ " ok") true
            r.Singe.Pass.ok;
          if r.Singe.Pass.kind = Singe.Pass.Transform then
            Alcotest.(check bool)
              (r.Singe.Pass.pass_name ^ " has artifact stats")
              true
              (r.Singe.Pass.stats <> []))
        report.Singe.Pass.records)
    all_kernels

let test_report_json () =
  let _, report = compile Singe.Kernel_abi.Viscosity in
  let json = Sutil.Json.emit (Singe.Pass.report_to_json report) in
  Alcotest.(check bool) "valid JSON" true
    (Sutil.Json_check.validate json = Ok ());
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains json needle))
    [ "\"passes\""; "\"dfg-build\""; "\"stats\"" ];
  (* Wall times stay out, so the rendering is a pure function of the
     compile: a second, uncached compile renders byte-identically. *)
  Alcotest.(check bool) "no wall time" false (contains json "_ms");
  let _, again = compile Singe.Kernel_abi.Viscosity in
  Alcotest.(check string) "deterministic" json
    (Sutil.Json.emit (Singe.Pass.report_to_json again))

(* ---- typed option diagnostics ---- *)

let check_rejected name opts kernel version =
  match
    Singe.Compile.compile ~validate:true (hydrogen ()) kernel version opts
  with
  | Ok _ -> Alcotest.fail (name ^ ": accepted invalid options")
  | Error d ->
      Alcotest.(check (option string))
        (name ^ " provenance") (Some "options") d.Singe.Diagnostics.pass;
      Alcotest.(check bool)
        (name ^ " has a message") true
        (String.length d.Singe.Diagnostics.message > 0)

let test_invalid_options_are_typed () =
  let k = Singe.Kernel_abi.Viscosity in
  let base = options k in
  check_rejected "n_warps below ws minimum"
    { base with Singe.Compile.n_warps = 1 }
    k Singe.Compile.Warp_specialized;
  check_rejected "n_warps zero"
    { base with Singe.Compile.n_warps = 0 }
    k Singe.Compile.Baseline;
  check_rejected "n_warps beyond the architecture"
    { base with Singe.Compile.n_warps = 64 }
    k Singe.Compile.Warp_specialized;
  check_rejected "empty buffer ring"
    { base with Singe.Compile.buffer_slots = 0 }
    k Singe.Compile.Warp_specialized;
  check_rejected "max_barriers zero"
    { base with Singe.Compile.max_barriers = 0 }
    k Singe.Compile.Warp_specialized;
  check_rejected "max_barriers beyond hardware"
    { base with Singe.Compile.max_barriers = 17 }
    k Singe.Compile.Warp_specialized;
  check_rejected "zero occupancy target"
    { base with Singe.Compile.ctas_per_sm_target = 0 }
    k Singe.Compile.Warp_specialized;
  check_rejected "unloweable register budget"
    { base with Singe.Compile.freg_budget = Some 2 }
    k Singe.Compile.Warp_specialized;
  check_rejected "register budget below the allocator's floor"
    { base with Singe.Compile.freg_budget = Some (Singe.Lower.min_fregs - 1) }
    k Singe.Compile.Warp_specialized;
  (* The same options get the same diagnostic through the memo... *)
  (match
     Singe.Compile.compile ~memo:true (hydrogen ()) k
       Singe.Compile.Warp_specialized
       { base with Singe.Compile.n_warps = 0 }
   with
  | Ok _ -> Alcotest.fail "memoized compile accepted n_warps = 0"
  | Error d ->
      Alcotest.(check (option string))
        "memoized provenance" (Some "options") d.Singe.Diagnostics.pass);
  (* ...and valid options still compile. *)
  match
    Singe.Compile.compile ~validate:true (hydrogen ()) k
      Singe.Compile.Warp_specialized base
  with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Singe.Diagnostics.to_string d)

(* ---- seeded-mutation negative tests ---- *)

let expect_rejected name = function
  | Ok () -> Alcotest.fail (name ^ ": validator accepted the mutation")
  | Error problems ->
      Alcotest.(check bool)
        (name ^ " reports problems") true (problems <> [])

(* Breaking a dependence edge so the graph cycles must be caught by the
   DFG well-formedness pass. *)
let test_dfg_cycle_is_caught () =
  let c, _ = compile Singe.Kernel_abi.Viscosity in
  let dfg = c.Singe.Compile.dfg in
  (* Find a compute op with an input and an output, and feed it its own
     result. *)
  let victim =
    Array.to_list dfg.Singe.Dfg.ops
    |> List.find (fun (op : Singe.Dfg.op) ->
           Array.length op.Singe.Dfg.inputs > 0
           && op.Singe.Dfg.output <> None)
  in
  let self = Option.get victim.Singe.Dfg.output in
  let ops =
    Array.map
      (fun (op : Singe.Dfg.op) ->
        if op.Singe.Dfg.id = victim.Singe.Dfg.id then
          { op with
            Singe.Dfg.inputs =
              Array.mapi
                (fun i v -> if i = 0 then self else v)
                op.Singe.Dfg.inputs }
        else op)
      dfg.Singe.Dfg.ops
  in
  let mutant = { dfg with Singe.Dfg.ops } in
  expect_rejected "self-cycle" (Singe.Dfg.validate mutant)

(* Every partitioner emits its graph in dependence order, so the order
   check returns the identity and validation passes; each value's
   consumers are the ops reading it, ascending and distinct. *)
let test_dfg_dependence_order () =
  let check name dfg =
    let n = Array.length dfg.Singe.Dfg.ops in
    Alcotest.(check (array int))
      (name ^ ": topo_order is the identity")
      (Array.init n Fun.id) (Singe.Dfg.topo_order dfg);
    let readers = Array.make (Array.length dfg.Singe.Dfg.values) [] in
    Array.iter
      (fun (op : Singe.Dfg.op) ->
        Array.iter
          (fun v -> readers.(v) <- op.Singe.Dfg.id :: readers.(v))
          op.Singe.Dfg.inputs)
      dfg.Singe.Dfg.ops;
    Array.iter
      (fun (v : Singe.Dfg.value) ->
        Alcotest.(check (list int))
          (name ^ ": consumers of " ^ v.Singe.Dfg.vname)
          (List.sort_uniq compare readers.(v.Singe.Dfg.vid))
          v.Singe.Dfg.consumers)
      dfg.Singe.Dfg.values;
    match Singe.Dfg.validate dfg with
    | Ok () -> ()
    | Error es -> Alcotest.failf "%s: %s" name (String.concat "; " es)
  in
  let build ?chem_comm mech kernel n_warps =
    Singe.Compile.frontend mech kernel Singe.Compile.Warp_specialized
      {
        (Singe.Compile.default_options Gpusim.Arch.kepler_k20c) with
        Singe.Compile.n_warps;
        chem_comm;
      }
  in
  List.iter
    (fun n_warps ->
      List.iter
        (fun (mech_name, mechf) ->
          let mech = mechf () in
          let tag k = Printf.sprintf "%s %s w%d" mech_name k n_warps in
          List.iter
            (fun kernel ->
              check
                (tag (Singe.Kernel_abi.kernel_name kernel))
                (build mech kernel n_warps))
            Singe.Kernel_abi.[ Viscosity; Conductivity; Diffusion ];
          List.iter
            (fun (cname, chem_comm) ->
              check
                (tag ("chemistry " ^ cname))
                (build ~chem_comm mech Singe.Kernel_abi.Chemistry n_warps))
            Singe.Compile.
              [ ("staged", Chem_staged); ("recompute", Chem_recompute);
                ("mixed", Chem_mixed) ])
        Chem.Mech_gen.bundled;
      List.iter
        (fun id ->
          let kernel = Singe.Kernel_abi.Stencil id in
          check
            (Printf.sprintf "%s w%d" (Singe.Kernel_abi.kernel_name kernel)
               n_warps)
            (build (hydrogen ()) kernel n_warps))
        Singe.Stencil_pipe.all_ids)
    [ 1; 4; 8; 16 ]

(* An acyclic graph whose op 0 reads op 1's value is out of dependence
   order: rejected with the positioned diagnostic, not reordered. *)
let test_dfg_forward_reference_is_rejected () =
  let op id name inputs kind output =
    { Singe.Dfg.id; name; kind; inputs; output; hint = None;
      shared_hint = false; align = None }
  in
  let dfg =
    {
      Singe.Dfg.graph_name = "forward";
      ops =
        [|
          op 0 "use" [| 0 |]
            (Singe.Dfg.Store { group = "out"; field = 0 }) None;
          op 1 "def" [||]
            (Singe.Dfg.Load
               { group = "temperature"; field = 0; via_tex = true })
            (Some 0);
        |];
      values =
        [|
          { Singe.Dfg.vid = 0; vname = "def"; producer = 1; consumers = [ 0 ] };
        |];
    }
  in
  (match Singe.Dfg.topo_order dfg with
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "pass" (Some "dfg-build") d.Singe.Diagnostics.pass;
      Alcotest.(check (option string))
        "position" (Some "forward") d.Singe.Diagnostics.loc;
      Alcotest.(check bool)
        "names the op" true
        (contains d.Singe.Diagnostics.message "use")
  | _ -> Alcotest.fail "out-of-order graph accepted by topo_order");
  expect_rejected "forward reference" (Singe.Dfg.validate dfg)

let test_builder_rejects_future_input () =
  let b = Singe.Dfg.Builder.create "future" in
  let a = Singe.Dfg.Builder.load b ~name:"a" ~group:"temperature" ~field:0 () in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: input %d accepted before it exists" name (a + 1)
  in
  raises "compute" (fun () ->
      ignore
        (Singe.Dfg.Builder.compute b ~name:"c" ~inputs:[| a; a + 1 |]
           (Singe.Sexpr.add (Singe.Sexpr.In 0) (Singe.Sexpr.In 1))));
  raises "store" (fun () ->
      Singe.Dfg.Builder.store b ~name:"s" ~group:"out" ~field:0 (a + 1));
  raises "fence" (fun () -> Singe.Dfg.Builder.fence b ~inputs:[| a + 1 |])

let test_dfg_broken_producer_is_caught () =
  let c, _ = compile Singe.Kernel_abi.Conductivity in
  let dfg = c.Singe.Compile.dfg in
  (* Rewire value 0 to claim a producer that defines a different value. *)
  let wrong =
    Array.to_list dfg.Singe.Dfg.ops
    |> List.find (fun (op : Singe.Dfg.op) ->
           match op.Singe.Dfg.output with
           | Some v -> v <> 0
           | None -> false)
  in
  let values =
    Array.map
      (fun (v : Singe.Dfg.value) ->
        if v.Singe.Dfg.vid = 0 then
          { v with Singe.Dfg.producer = wrong.Singe.Dfg.id }
        else v)
      dfg.Singe.Dfg.values
  in
  let mutant = { dfg with Singe.Dfg.values } in
  expect_rejected "broken producer edge" (Singe.Dfg.validate mutant)

let test_mapping_unmapped_op_is_caught () =
  let c, _ = compile Singe.Kernel_abi.Viscosity in
  let m = c.Singe.Compile.mapping in
  let op_warp = Array.copy m.Singe.Mapping.op_warp in
  op_warp.(Array.length op_warp / 2) <- m.Singe.Mapping.n_warps;
  expect_rejected "op mapped out of range"
    (Singe.Mapping.validate c.Singe.Compile.dfg
       { m with Singe.Mapping.op_warp })

(* Piling every operation onto one warp blows the FLOP and register-demand
   budgets the mapping validator enforces. *)
let test_mapping_overloaded_warp_is_caught () =
  let c, _ = compile ~nw:16 Singe.Kernel_abi.Viscosity in
  let m = c.Singe.Compile.mapping in
  let mutant =
    { m with
      Singe.Mapping.op_warp = Array.map (fun _ -> 0) m.Singe.Mapping.op_warp }
  in
  expect_rejected "all ops on one warp"
    (Singe.Mapping.validate c.Singe.Compile.dfg mutant)

(* Dropping a barrier wait from one warp's stream breaks the per-epoch
   producer/consumer pairing the schedule validator checks. *)
let test_schedule_dropped_barrier_is_caught () =
  let c, _ = compile Singe.Kernel_abi.Viscosity in
  let s = c.Singe.Compile.schedule in
  let victim = ref None in
  Array.iteri
    (fun w actions ->
      if !victim = None then
        Array.iteri
          (fun i a ->
            match a with
            | Singe.Schedule.A_wait _ when !victim = None ->
                victim := Some (w, i)
            | _ -> ())
          actions)
    s.Singe.Schedule.per_warp;
  match !victim with
  | None -> Alcotest.fail "schedule has no barrier wait to drop"
  | Some (w, i) ->
      let drop arr =
        Array.init
          (Array.length arr - 1)
          (fun j -> if j < i then arr.(j) else arr.(j + 1))
      in
      let per_warp = Array.copy s.Singe.Schedule.per_warp in
      let stamps = Array.copy s.Singe.Schedule.stamps in
      per_warp.(w) <- drop per_warp.(w);
      stamps.(w) <- drop stamps.(w);
      let mutant = { s with Singe.Schedule.per_warp; stamps } in
      expect_rejected "dropped barrier wait"
        (Singe.Schedule.validate mutant c.Singe.Compile.dfg
           c.Singe.Compile.mapping)

(* Over-assigning registers past the architectural cap must be caught by
   the lower-consistency pass. *)
let test_lower_overassigned_registers_is_caught () =
  let c, _ = compile Singe.Kernel_abi.Viscosity in
  let out = c.Singe.Compile.lowered in
  let program =
    { out.Singe.Lower.program with Gpusim.Isa.n_fregs = 200 }
  in
  expect_rejected "200 double registers per thread"
    (Singe.Lower.validate_output ~arch:Gpusim.Arch.kepler_k20c
       { out with Singe.Lower.program })

(* The pipeline surfaces a validator rejection as a diagnostic carrying the
   failing pass's name. *)
let test_validator_failure_has_provenance () =
  let pm = Singe.Pass.create "mutation-test" in
  match
    Singe.Pass.validate pm ~name:"dfg-validate" (fun () ->
        Error [ "synthetic breakage" ])
  with
  | () -> Alcotest.fail "validation pass accepted an Error result"
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "pass provenance" (Some "dfg-validate") d.Singe.Diagnostics.pass;
      let report = Singe.Pass.report pm in
      let rec_ =
        List.find
          (fun (r : Singe.Pass.record) ->
            r.Singe.Pass.pass_name = "dfg-validate")
          report.Singe.Pass.records
      in
      Alcotest.(check bool) "record marked failed" false rec_.Singe.Pass.ok

(* A transform pass that raises is recorded as failed, and the printed
   report says so, instead of passing for a success. *)
let test_raising_pass_is_failed () =
  let pm = Singe.Pass.create "raise-test" in
  (match Singe.Pass.run pm ~name:"schedule" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "a raising pass returned"
  | exception Failure _ -> ());
  let report = Singe.Pass.report pm in
  let rec_ =
    List.find
      (fun (r : Singe.Pass.record) -> r.Singe.Pass.pass_name = "schedule")
      report.Singe.Pass.records
  in
  Alcotest.(check bool) "record marked failed" false rec_.Singe.Pass.ok;
  let text = Format.asprintf "@[<v>%a@]" Singe.Pass.pp_report report in
  let failed_line =
    List.exists
      (fun line -> contains line "schedule" && contains line "FAILED")
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "report shows FAILED on the pass line" true failed_line

(* A validating compile's report: every version runs the one backend, so
   the baseline's [schedule-validate] and [deadlock-check] follow [lower]
   as in the warp-specialized versions. The digest of the JSON reports of
   three targets in all three versions pins each record's name, kind,
   runs, [ok] flag and statistics, and their order. *)
let test_validating_reports_pinned () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (mech, kernel) ->
      List.iter
        (fun version ->
          let _, report = compile ~mech ~version kernel in
          Buffer.add_string b
            (Sutil.Json.emit (Singe.Pass.report_to_json report));
          Buffer.add_char b '\n')
        Singe.Compile.[ Warp_specialized; Naive_warp_specialized; Baseline ])
    [
      (hydrogen (), Singe.Kernel_abi.Viscosity);
      (hydrogen (), Singe.Kernel_abi.Chemistry);
      (Chem.Mech_gen.dme (), Singe.Kernel_abi.Diffusion);
    ];
  Alcotest.(check string) "report digest" "c1def70ab5c716e24b6d734ab5588191"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The register-fit loop shrinks the double-register budget until the
   32-bit total fits the per-thread cap, but not below the register
   allocator's floor ([Lower.freg_floor]). 32 warps of hydrogen diffusion
   at 2 CTAs per SM on Fermi leave a cap of 16 registers that no budget
   meets: one diagnostic naming the cap and the floor, where the loop
   used to lower at a budget of -1 and report the register allocator's
   failure. *)
let test_register_fit_names_cap () =
  let kernel = Singe.Kernel_abi.Diffusion in
  let opts = options ~arch:Gpusim.Arch.fermi_c2070 ~nw:32 kernel in
  List.iter
    (fun (label, validate) ->
      match
        Singe.Compile.compile ~validate (hydrogen ()) kernel
          Singe.Compile.Warp_specialized opts
      with
      | Ok _ -> Alcotest.failf "%s: 32 warps of diffusion fit on Fermi" label
      | Error d ->
          Alcotest.(check (option string))
            (label ^ ": failing pass") (Some "lower") d.Singe.Diagnostics.pass;
          List.iter
            (fun needle ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: names %S" label needle)
                true
                (contains d.Singe.Diagnostics.message needle))
            [
              "cap of 16";
              "32 warps x 2 CTA(s) per SM";
              "Fermi C2070";
              "allocator's floor of 7";
            ])
    [ ("plain", false); ("validating", true) ];
  (* A budget [check_options] accepts but the constant bank leaves below
     the floor fails inside lowering, naming that floor. *)
  match
    Singe.Compile.compile (hydrogen ()) Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized
      {
        (options ~nw:4 Singe.Kernel_abi.Viscosity) with
        Singe.Compile.freg_budget = Some Singe.Lower.min_fregs;
      }
  with
  | Ok _ -> Alcotest.fail "a budget of min_fregs left room for the bank"
  | Error d ->
      Alcotest.(check (option string))
        "floor: failing pass" (Some "lower") d.Singe.Diagnostics.pass;
      Alcotest.(check bool)
        "floor: named" true
        (contains d.Singe.Diagnostics.message "allocator's floor of")

(* ---- no forced minor collections ----
   OCaml 5 runs a minor collection whenever it makes an array of more
   than 256 words from a value still in the minor heap. A compile builds
   its stream-sized arrays from static placeholders instead, so it takes
   no more minor collections than its allocation explains,
   ceil(minor words / minor heap size), plus two. Each target is
   compiled once before it is measured, so one-time tables are built. *)

let minor_cost f =
  let w0 = Gc.minor_words () in
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  f ();
  ( Gc.minor_words () -. w0,
    (Gc.quick_stat ()).Gc.minor_collections - c0 )

let check_minor_collections what ~compiles ~words ~collections =
  let heap = float_of_int (Gc.get ()).Gc.minor_heap_size in
  let bound = int_of_float (Float.ceil (words /. heap)) + (2 * compiles) in
  if collections > bound then
    Alcotest.failf
      "%s: %d minor collections over %d compile(s) of %.0f words, at most \
       %d expected"
      what collections compiles words bound

let test_no_forced_minor_collections () =
  let dme = Chem.Mech_gen.dme () in
  List.iter
    (fun (what, mech, version, kernel, nw) ->
      let once () = ignore (compile ~mech ~version ~nw kernel) in
      once ();
      let words, collections = minor_cost once in
      check_minor_collections what ~compiles:1 ~words ~collections)
    [
      ( "dme chemistry naive (epoch-heavy schedule)",
        dme,
        Singe.Compile.Naive_warp_specialized,
        Singe.Kernel_abi.Chemistry,
        4 );
      ( "dme diffusion ws",
        dme,
        Singe.Compile.Warp_specialized,
        Singe.Kernel_abi.Diffusion,
        8 );
      ( "hydrogen diffusion ws",
        hydrogen (),
        Singe.Compile.Warp_specialized,
        Singe.Kernel_abi.Diffusion,
        8 );
    ];
  (* A cold model-only partition search: every candidate compiled. *)
  let kernel = Singe.Kernel_abi.Viscosity in
  let mech = hydrogen () in
  let search () =
    Singe.Compile.memo_clear ();
    match
      Singe.Partition_search.search ~jobs:1 ~simulate:false mech kernel
        Singe.Compile.Warp_specialized ~base:(options ~nw:8 kernel) ()
    with
    | Ok _ -> ()
    | Error d -> Alcotest.fail (Singe.Diagnostics.to_string d)
  in
  search ();
  let misses () = (Singe.Compile.memo_stats ()).Singe.Compile.misses in
  let m0 = misses () in
  let words, collections = minor_cost search in
  check_minor_collections "hydrogen viscosity cold search"
    ~compiles:(misses () - m0) ~words ~collections

let tests =
  [
    Alcotest.test_case "report covers the pipeline" `Quick
      test_report_covers_pipeline;
    Alcotest.test_case "report serializes to JSON" `Quick test_report_json;
    Alcotest.test_case "validating reports pinned" `Quick
      test_validating_reports_pinned;
    Alcotest.test_case "invalid options are typed errors" `Quick
      test_invalid_options_are_typed;
    Alcotest.test_case "register fit names the cap" `Quick
      test_register_fit_names_cap;
    Alcotest.test_case "mutation: dfg cycle" `Quick test_dfg_cycle_is_caught;
    Alcotest.test_case "dfg: built graphs in dependence order" `Quick
      test_dfg_dependence_order;
    Alcotest.test_case "dfg: forward reference rejected" `Quick
      test_dfg_forward_reference_is_rejected;
    Alcotest.test_case "dfg: builder rejects future inputs" `Quick
      test_builder_rejects_future_input;
    Alcotest.test_case "mutation: broken producer edge" `Quick
      test_dfg_broken_producer_is_caught;
    Alcotest.test_case "mutation: unmapped op" `Quick
      test_mapping_unmapped_op_is_caught;
    Alcotest.test_case "mutation: overloaded warp" `Quick
      test_mapping_overloaded_warp_is_caught;
    Alcotest.test_case "mutation: dropped barrier" `Quick
      test_schedule_dropped_barrier_is_caught;
    Alcotest.test_case "mutation: over-assigned registers" `Quick
      test_lower_overassigned_registers_is_caught;
    Alcotest.test_case "validator failures carry provenance" `Quick
      test_validator_failure_has_provenance;
    Alcotest.test_case "raising pass reports FAILED" `Quick
      test_raising_pass_is_failed;
    Alcotest.test_case "no forced minor collections" `Quick
      test_no_forced_minor_collections;
  ]
