(* Automatic partition search (ROADMAP item 2, DESIGN §16).

   The paper's producer/consumer split is domain knowledge; this pass
   derives it from graph structure instead. Candidates are
   [Mapping.auto_spec]s proposed from the DFG's shape — fan-out hubs and
   loads become producer warps, long arithmetic chains follow locality
   onto consumer warps — crossed with pipeline depths (the transport
   ring's slot count). The whole population is ranked by predicted
   cycles with [Autotune.rank] (compile + static model, no simulation),
   the top candidates pass through the safety gate (the verdict of the
   mapping validator and the deadlock checker that every compile
   computes once and stores in [Compile.t.verdict]; the memoized compile
   runs with validation off, so the gate is where an unsound searched
   partition becomes a rejection the search can count, before
   [Compile.run] would refuse it), and [Autotune.confirm] simulates the
   hand mapping followed by the survivors, so the returned winner is
   never worse than the paper's partition. *)

type rejection = { rej_options : Compile.options; rej_diag : Diagnostics.t }

type outcome = {
  base : Compile.options;
  winner : Compile.options;
  winner_spec : Mapping.auto_spec option;
  hand_cycles : float;
  winner_cycles : float;
  searched : int;
  gated : int;
  rejections : rejection list;
  simulated : int;
  confirmed : bool;
}

let default_top_k = 5

(* ---- candidate proposal ---- *)

let dedup_sorted l = List.sort_uniq compare l

(* Hub thresholds worth trying: a conventional "more than a couple of
   consumers" cut plus the graph's own heavy tail (the 90th-percentile
   fan-out), so mechanisms whose staging vectors feed dozens of consumers
   classify them as hubs without sweeping every integer. *)
let hub_candidates (dfg : Dfg.t) =
  let fanouts =
    Array.to_list dfg.Dfg.values
    |> List.map (fun (v : Dfg.value) -> List.length v.Dfg.consumers)
    |> List.filter (fun f -> f >= 2)
    |> List.sort compare
  in
  let p90 =
    match fanouts with
    | [] -> 3
    | l ->
        let n = List.length l in
        max 2 (List.nth l (min (n - 1) (n * 9 / 10)))
  in
  dedup_sorted [ 3; min 8 p90 ]

let producer_candidates ~n_warps =
  dedup_sorted [ 1; max 1 (n_warps / 4); max 1 (n_warps / 2) ]

let chain_candidates = [ 1.0; 2.5 ]
let strategy_candidates = [ Mapping.Store; Mapping.Buffer; Mapping.Mixed ]

let propose ?(max_candidates = 48) (dfg : Dfg.t) ~n_warps =
  let specs =
    List.concat_map
      (fun producer_warps ->
        List.concat_map
          (fun hub_threshold ->
            List.concat_map
              (fun chain_weight ->
                List.map
                  (fun auto_strategy ->
                    {
                      Mapping.producer_warps;
                      hub_threshold;
                      chain_weight;
                      auto_strategy;
                    })
                  strategy_candidates)
              chain_candidates)
          (hub_candidates dfg))
      (producer_candidates ~n_warps)
  in
  List.filteri (fun i _ -> i < max_candidates) specs

(* Pipeline depths: the base ring plus a shallow one — a searched
   partition that communicates less may pay for a deep ring it never
   fills (shared footprint costs occupancy). *)
let depth_candidates (base : Compile.options) =
  dedup_sorted [ base.Compile.buffer_slots; 16 ]

let candidate_options (base : Compile.options) (dfg : Dfg.t) =
  List.concat_map
    (fun spec ->
      List.map
        (fun buffer_slots ->
          {
            base with
            Compile.partition = Compile.Partition_auto spec;
            buffer_slots;
          })
        (depth_candidates base))
    (propose dfg ~n_warps:base.Compile.n_warps)

(* ---- the safety gate ---- *)

let gate (c : Compile.t) =
  Result.map_error
    (fun (what, msgs) ->
      Diagnostics.errorf ~pass:"partition-search" "partition-rejected: %s: %s"
        what (String.concat "; " msgs))
    c.Compile.verdict

(* ---- the search ---- *)

let spec_of (o : Compile.options) =
  match o.Compile.partition with
  | Compile.Partition_auto s -> Some s
  | Compile.Partition_hand -> None

let search ?(points = 32768) ?jobs ?(top_k = default_top_k) ?max_cycles
    ?(simulate = true) ?n_sms ?skew mech kernel version ~base () =
  let base = { base with Compile.partition = Compile.Partition_hand } in
  match
    (* One mechanism-digest lookup for the whole search: every lookup
       below keys on that digest plus the candidate's options. *)
    let compile = Compile.compile ~memo:true mech kernel version in
    let hand =
      let s_compiled = Diagnostics.ok_exn (compile base) in
      {
        Autotune.s_index = -1;
        s_options = base;
        s_compiled;
        s_prediction =
          Perf_model.predict ?n_sms ?skew s_compiled ~total_points:points;
      }
    in
    let hand_pred = hand.Autotune.s_prediction.Perf_model.cycles in
    let outcome ?(searched = 0) ?(gated = 0) ?(rejections = [])
        ?(simulated = 0) ~confirmed ~hand_cycles (winner, winner_cycles) =
      {
        base;
        winner;
        winner_spec = spec_of winner;
        hand_cycles;
        winner_cycles;
        searched;
        gated;
        rejections;
        simulated;
        confirmed;
      }
    in
    if version = Compile.Baseline then
      (* The data-parallel baseline maps onto a single warp; there is
         nothing to partition. *)
      outcome ~confirmed:false ~hand_cycles:hand_pred (base, hand_pred)
    else begin
      let cands = candidate_options base hand.Autotune.s_compiled.Compile.dfg in
      (* Phase A — score the whole population analytically. *)
      let ranked, failed =
        Autotune.rank ?jobs ?n_sms ?skew ~points
          ~key:(fun p -> p.Perf_model.cycles)
          ~pass:"partition-search" compile cands
      in
      let top = List.filteri (fun r _ -> r < max 1 top_k) ranked in
      (* Phase B — the safety gate on the model's picks; survivors stay in
         model order. *)
      let survivors, gate_rejections =
        List.partition_map
          (fun (s : Autotune.scored) ->
            match gate s.s_compiled with
            | Ok () -> Left s
            | Error d ->
                Right (s.s_index, { rej_options = s.s_options; rej_diag = d }))
          top
      in
      let rejections =
        List.map (fun (i, o, d) -> (i, { rej_options = o; rej_diag = d })) failed
        @ gate_rejections
        |> List.sort (fun (i1, _) (i2, _) -> compare i1 i2)
        |> List.map snd
      in
      let outcome =
        outcome ~searched:(List.length cands) ~gated:(List.length top)
          ~rejections
      in
      if simulate then begin
        (* Phase C — confirm by simulation, hand first so ties keep the
           paper's mapping. A hand mapping that cannot run is the
           search's failure. *)
        let results, best =
          Autotune.confirm ?jobs ?max_cycles ?n_sms ?skew ~points
            (hand :: survivors)
        in
        let cycles (c : Autotune.candidate) =
          float_of_int c.Autotune.result.Compile.machine.Gpusim.Chip.sm_cycles
        in
        match List.hd results with
        | _, Error e -> raise e
        | _, Ok h ->
            let _, w = Option.get best in
            let ran = List.filter (fun (_, r) -> Result.is_ok r) results in
            outcome ~confirmed:true ~simulated:(List.length ran)
              ~hand_cycles:(cycles h)
              (w.Autotune.options, cycles w)
      end
      else
        (* The model's pick is the head of the survivors, kept only when
           it beats the hand mapping. *)
        outcome ~confirmed:false ~hand_cycles:hand_pred
          (match survivors with
          | s :: _ when s.s_prediction.Perf_model.cycles < hand_pred ->
              (s.s_options, s.s_prediction.Perf_model.cycles)
          | _ -> (base, hand_pred))
    end
  with
  | o -> Ok o
  | exception e -> Error (Autotune.diagnostic_of_exn ~pass:"partition-search" e)

let resolve_target ?points (r : Target.resolved) =
  let ( let* ) = Result.bind in
  let* () =
    match points with
    | Some total_points ->
        Compile.check_launch r.kernel r.version
          ~n_warps:r.options.Compile.n_warps ~total_points
    | None -> Ok ()
  in
  match r.partition with
  | Target.Hand -> Ok r.options
  | Target.Auto ->
      Result.map
        (fun o -> o.winner)
        (search ~simulate:false r.mech r.kernel r.version ~base:r.options ())

let pp_candidate ppf (o : Compile.options) =
  match o.Compile.partition with
  | Compile.Partition_auto s ->
      Format.fprintf ppf "%a (slots %d)" Mapping.pp_auto_spec s
        o.Compile.buffer_slots
  | Compile.Partition_hand -> Format.pp_print_string ppf "hand"

let pp_outcome ppf o =
  let verb = if o.confirmed then "simulated" else "predicted" in
  Format.fprintf ppf
    "@[<v>partition search: %d candidate(s), %d gated, %d rejected, %d \
     simulated@,%s cycles: hand %.0f, winner %.0f (%s)@,winner: %a@]"
    o.searched o.gated
    (List.length o.rejections)
    o.simulated verb o.hand_cycles o.winner_cycles
    (match o.winner_spec with None -> "hand mapping" | Some _ -> "searched")
    (fun ppf -> function
      | None -> Format.pp_print_string ppf "the hand partition"
      | Some s -> Mapping.pp_auto_spec ppf s)
    o.winner_spec
