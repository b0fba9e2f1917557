type mode = Exhaustive | Pruned of int

type candidate = {
  options : Compile.options;
  throughput : float;
  compiled : Compile.t;
  result : Compile.run_result;
  predicted : Perf_model.prediction;
}

type failure = {
  failed_options : Compile.options;
  reason : string;
  fault : Gpusim.Sm.fault_kind option;
}

type outcome = {
  best : candidate;
  tried : int;
  skipped : int;
  failures : failure list;
  mode : mode;
  candidates_pruned : int;
  model_rank_of_winner : int;
}

let default_prune_keep = 8

let default_warp_candidates mech kernel version =
  match version with
  | Compile.Baseline -> [ 4; 8; 16 ]
  | Compile.Warp_specialized | Compile.Naive_warp_specialized -> (
      let n = Array.length (Chem.Mechanism.computed_species mech) in
      let divisors =
        List.filter (fun w -> n mod w = 0) (List.init 17 (fun i -> i + 2))
      in
      let extras = [ 4; 8; 16 ] in
      let all = List.sort_uniq compare (divisors @ extras) in
      let all = List.filter (fun w -> w >= 2 && w <= 20) all in
      match kernel with
      | Kernel_abi.Chemistry ->
          (* Chemistry gains both from many warps (rates stay resident) and
             from few warps with several resident CTAs (its long dependence
             chains hide behind cross-CTA parallelism), so search both ends. *)
          List.sort_uniq compare (all @ [ 20 ])
      | Kernel_abi.Viscosity | Kernel_abi.Conductivity | Kernel_abi.Diffusion
        -> all
      | Kernel_abi.Stencil _ ->
          (* Stencil stages do not depend on the mechanism's species count;
             the useful axis is the producer/consumer band split, which
             scales with powers of two. *)
          [ 2; 4; 8; 16 ])

let candidate_options ?synth_exchange ?stencil_overlap ~points kernel version
    arch warp_candidates cta_targets =
  List.concat_map
    (fun n_warps ->
      List.concat_map
        (fun ctas_per_sm_target ->
          if
            Result.is_error
              (Compile.check_launch kernel version ~n_warps
                 ~total_points:points)
          then []
          else
            (* Chemistry also searches its communication policy (staged vs
               mixed); pure recomputation never won end-to-end. *)
            let comm_candidates =
              if kernel = Kernel_abi.Chemistry && version <> Compile.Baseline
              then [ Some Compile.Chem_staged; Some Compile.Chem_mixed ]
              else [ None ]
            in
            List.map
              (fun chem_comm ->
                let o =
                  Target.options ~n_warps ~ctas_per_sm:ctas_per_sm_target arch
                    kernel
                in
                {
                  o with
                  Compile.chem_comm;
                  synth_exchange =
                    (match synth_exchange with
                    | Some b -> Some b
                    | None -> o.Compile.synth_exchange);
                  stencil_overlap =
                    Option.value stencil_overlap
                      ~default:o.Compile.stencil_overlap;
                })
              comm_candidates)
        cta_targets)
    warp_candidates

(* Render a captured per-candidate failure; simulation faults keep their
   structured kind so sweep drivers can count containment events. *)
let classify_exn = function
  | Gpusim.Sm.Simulation_fault r ->
      ( Printf.sprintf "simulation fault: %s at cycle %d — %s"
          (Gpusim.Sm.fault_kind_name r.Gpusim.Sm.fault_kind)
          r.Gpusim.Sm.fault_cycle r.Gpusim.Sm.detail,
        Some r.Gpusim.Sm.fault_kind )
  | Gpusim.Chip.Occupancy_rejected r ->
      ("occupancy rejected: " ^ Gpusim.Chip.reject_message r, None)
  | Diagnostics.Fail d -> (Diagnostics.to_string d, None)
  | Failure msg -> (msg, None)
  | Invalid_argument msg -> ("invalid argument: " ^ msg, None)
  | e -> (Printexc.to_string e, None)

let diagnostic_of_exn ~pass = function
  | Diagnostics.Fail d -> d
  | e -> Diagnostics.error ~pass (fst (classify_exn e))

type scored = {
  s_index : int;
  s_options : Compile.options;
  s_compiled : Compile.t;
  s_prediction : Perf_model.prediction;
}

(* Compile (through the caller's memo lookup) and predict every
   candidate; a candidate that fails to compile or fit never reaches the
   model. [List.stable_sort] over the index-ordered survivors breaks key
   ties towards the lower index, so the order is total and independent of
   [jobs]. *)
let rank ?jobs ?n_sms ?skew ~points ~key ~pass compile candidates =
  let indexed = List.mapi (fun i o -> (i, o)) candidates in
  let score (s_index, s_options) =
    let s_compiled = Diagnostics.ok_exn (compile s_options) in
    let s_prediction =
      Perf_model.predict ?n_sms ?skew s_compiled ~total_points:points
    in
    { s_index; s_options; s_compiled; s_prediction }
  in
  let scored = Sutil.Domain_pool.parallel_map_result ?jobs score indexed in
  let ok, failed =
    List.partition_map
      (fun ((i, o), r) ->
        match r with
        | Ok s -> Left s
        | Error e -> Right (i, o, diagnostic_of_exn ~pass e))
      (List.combine indexed scored)
  in
  ( List.stable_sort
      (fun a b -> compare (key a.s_prediction) (key b.s_prediction))
      ok,
    failed )

(* Simulate with per-item failure capture: a candidate that deadlocks,
   exhausts the [max_cycles] watchdog budget, or computes wrong results
   is an [Error], and the rest still run. *)
let confirm ?jobs ?(max_cycles = 200_000_000) ?inject ?n_sms ?skew ~points
    scored =
  let eval s =
    let faults = match inject with None -> [] | Some f -> f s.s_index in
    let result =
      Compile.run s.s_compiled ~total_points:points ~faults ~max_cycles ?n_sms
        ?skew
    in
    if result.Compile.max_rel_err > 1e-6 then
      failwith
        (Printf.sprintf
           "autotune: config warps=%d ctas=%d produced wrong results (rel \
            err %.2g)"
           s.s_options.Compile.n_warps s.s_options.Compile.ctas_per_sm_target
           result.Compile.max_rel_err);
    {
      options = s.s_options;
      throughput = result.Compile.machine.Gpusim.Chip.points_per_sec;
      compiled = s.s_compiled;
      result;
      predicted = s.s_prediction;
    }
  in
  let results =
    List.combine scored
      (Sutil.Domain_pool.parallel_map_result ?jobs eval scored)
  in
  (* Winner tie-break is pinned: on equal throughput the earlier entry
     wins ([>=] keeps the incumbent), so the winner cannot depend on
     [jobs] or worker scheduling. *)
  let best =
    List.fold_left
      (fun best (s, r) ->
        match (r, best) with
        | Ok c, Some (_, b) when b.throughput >= c.throughput -> best
        | Ok c, _ -> Some (s.s_index, c)
        | Error _, _ -> best)
      None results
  in
  (results, best)

let tune ?(points = 32768) ?warp_candidates ?(cta_targets = [ 1; 2 ]) ?jobs
    ?max_cycles ?inject ?(mode = Exhaustive) ?n_sms ?skew ?synth_exchange
    ?stencil_overlap mech kernel version arch =
  let warp_candidates =
    match warp_candidates with
    | Some l -> l
    | None -> default_warp_candidates mech kernel version
  in
  let candidates =
    candidate_options ?synth_exchange ?stencil_overlap ~points kernel version
      arch warp_candidates cta_targets
  in
  (* The whole grid is scored in both modes (no simulation), so the
     outcome can always report where the model ranked the winner. *)
  let ranked, compile_failures =
    rank ?jobs ?n_sms ?skew ~points
      ~key:(fun p -> -.p.Perf_model.points_per_sec)
      ~pass:"autotune"
      (Compile.compile ~memo:true mech kernel version)
      candidates
  in
  let selected =
    match mode with
    | Exhaustive -> ranked
    | Pruned keep -> List.filteri (fun r _ -> r < max 1 keep) ranked
  in
  (* Simulated in candidate-index order, so the winner's tie-break is the
     serial sweep's. *)
  let results, best =
    confirm ?jobs ?max_cycles ?inject ?n_sms ?skew ~points
      (List.sort (fun a b -> compare a.s_index b.s_index) selected)
  in
  let failures =
    List.map
      (fun (i, failed_options, d) ->
        (i, { failed_options; reason = Diagnostics.to_string d; fault = None }))
      compile_failures
    @ List.filter_map
        (fun (s, r) ->
          match r with
          | Error e ->
              let reason, fault = classify_exn e in
              Some (s.s_index, { failed_options = s.s_options; reason; fault })
          | Ok _ -> None)
        results
    |> List.sort (fun (i1, _) (i2, _) -> compare i1 i2)
    |> List.map snd
  in
  let skipped = List.length failures in
  match best with
  | Some (best_idx, best) ->
      {
        best;
        tried = List.length candidates;
        skipped;
        failures;
        mode;
        candidates_pruned = List.length ranked - List.length selected;
        (* the winner was confirmed, so it was ranked *)
        model_rank_of_winner =
          1
          + Option.get
              (List.find_index (fun s -> s.s_index = best_idx) ranked);
      }
  | None ->
      failwith
        (Printf.sprintf
           "autotune: no %s configuration of %s fits on %s (%d candidate(s) \
            failed%s)"
           (Kernel_abi.kernel_name kernel)
           mech.Chem.Mechanism.name arch.Gpusim.Arch.name skipped
           (match failures with
           | [] -> ""
           | { reason; _ } :: _ -> "; first: " ^ reason))
