(* The hardened long-running request loop behind `singe serve`.

   Design rules (DESIGN §15):

   - One request, one response, always. Every failure mode that can
     reach the request boundary — unparseable JSON, unknown kinds or
     fields, compile-pipeline rejections, contained simulation faults,
     fault specs matching nothing, unexpected exceptions — is mapped to
     a typed error response mirroring the CLI's exit-code taxonomy.
     [handle_line] never raises; a poisoned request leaves the loop
     serving the next one.

   - Deadlines degrade, they never hang. The request's wall budget
     derives a simulator cycle budget; a [Cycle_budget] abort answers
     from the analytic model ([Perf_model.predict]) with [degraded:
     true] and an explicit caveat. Genuine deadlocks and livelocks stay
     hard errors — degradation is reserved for "too slow", not "wrong".

   - Responses are deterministic. Payloads contain no wall-clock values
     (the only exception is an [overran_wall_deadline] marker that is
     absent on any in-budget request), and retried ids are replayed
     byte-identically from a bounded idempotency cache.

   - The loop distrusts its own output: every response is re-validated
     with [Json_check] before it is written. *)

type config = {
  deadline_ms : int;
  cycles_per_ms : int;
  max_queue : int;
  retry_after_ms : int;
  cache_entries : int;
  id_cache_entries : int;
}

let default_config =
  {
    deadline_ms = 2000;
    cycles_per_ms = 50_000;
    max_queue = 64;
    retry_after_ms = 50;
    cache_entries = 512;
    id_cache_entries = 256;
  }

(* The same hard ceiling Autotune arms: no request, whatever its
   deadline claims, may run the simulator past this. *)
let watchdog_ceiling = 200_000_000

(* ---- wire protocol ---- *)

(* Kept for the benchmark driver, which names the type, its fields and
   [default_target] through this module. *)
type target = Target.t = {
  t_mech : string;
  t_kernel : string;
  t_arch : string;
  t_version : string;
  t_warps : int;
  t_points : int;
  t_synth : bool option;
  t_overlap : bool;
  t_partition : string;
  t_sms : int option;
  t_skew : float option;
}

type payload =
  | Compile_req of target
  | Run_req of {
      target : target;
      faults : string list;
      max_cycles : int option;
    }
  | Predict_req of target
  | Tune_req of { target : target; top_k : int option }
  | Health_req
  | Stats_req
  | Shutdown_req

type request = {
  req_id : string option;
  req_deadline_ms : int option;
  req : payload;
}

let default_target = Target.default

let kind_name = function
  | Compile_req _ -> "compile"
  | Run_req _ -> "run"
  | Predict_req _ -> "predict"
  | Tune_req _ -> "tune"
  | Health_req -> "health"
  | Stats_req -> "stats"
  | Shutdown_req -> "shutdown"

module J = Sutil.Json

let request_to_json r =
  let open J in
  let base =
    (match r.req_id with Some s -> [ ("id", Str s) ] | None -> [])
    @ (match r.req_deadline_ms with
      | Some d -> [ ("deadline_ms", Num (float_of_int d)) ]
      | None -> [])
    @ [ ("kind", Str (kind_name r.req)) ]
  in
  let rest =
    match r.req with
    | Compile_req t | Predict_req t -> Target.to_json t
    | Run_req { target = t; faults; max_cycles } ->
        Target.to_json t
        @ (match faults with
          | [] -> []
          | fs -> [ ("faults", List (Stdlib.List.map (fun f -> Str f) fs)) ])
        @ (match max_cycles with
          | Some m -> [ ("max_cycles", Num (float_of_int m)) ]
          | None -> [])
    | Tune_req { target = t; top_k } ->
        Target.to_json t
        @ (match top_k with
          | Some k -> [ ("top_k", Num (float_of_int k)) ]
          | None -> [])
    | Health_req | Stats_req | Shutdown_req -> []
  in
  J.emit (Obj (base @ rest))

(* Strict decoding: unknown fields are rejected (the Fault.of_string
   lesson — a silently dropped typo means the server answers a question
   the client did not ask), and every integer budget must be positive. *)

let ( let* ) = Result.bind

let envelope_keys = [ "id"; "deadline_ms"; "kind" ]

let check_fields doc allowed =
  let members = match doc with J.Obj m -> m | _ -> [] in
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) members with
  | None -> Ok ()
  | Some (k, _) ->
      Error
        (Printf.sprintf "unknown field %S (expected one of %s)" k
           (String.concat ", " allowed))

let opt_pos_int doc key =
  J.field ~check:(Target.at_least 1) ~what:"a positive integer" J.int key doc

let request_of_json doc =
  let* () =
    match doc with
    | J.Obj _ -> Ok ()
    | v ->
        Error
          (Printf.sprintf "request must be a JSON object, got %s"
             (J.to_string_brief v))
  in
  let* id = J.field ~what:"a string" J.str "id" doc in
  let* deadline = opt_pos_int doc "deadline_ms" in
  let* kind = J.field ~what:"a string" J.str "kind" doc in
  let* kind = Option.to_result ~none:"missing field \"kind\"" kind in
  (* A target request takes the envelope, the target's members and its
     kind's own [extra] members. *)
  let target extra =
    let* () = check_fields doc (envelope_keys @ Target.keys @ extra) in
    Target.of_json doc
  in
  let* payload =
    match kind with
    | "compile" -> Result.map (fun t -> Compile_req t) (target [])
    | "predict" -> Result.map (fun t -> Predict_req t) (target [])
    | "run" ->
        let* t = target [ "faults"; "max_cycles" ] in
        let strings items =
          match List.find_opt (fun i -> J.str i = None) items with
          | Some i -> Error ("must contain strings, got " ^ J.to_string_brief i)
          | None -> Ok items
        in
        let* faults =
          J.field ~check:strings ~what:"an array of strings" J.list "faults" doc
        in
        let faults = List.filter_map J.str (Option.value faults ~default:[]) in
        let* max_cycles = opt_pos_int doc "max_cycles" in
        Ok (Run_req { target = t; faults; max_cycles })
    | "tune" ->
        let* t = target [ "top_k" ] in
        let* top_k = opt_pos_int doc "top_k" in
        Ok (Tune_req { target = t; top_k })
    | "health" ->
        let* () = check_fields doc envelope_keys in
        Ok Health_req
    | "stats" ->
        let* () = check_fields doc envelope_keys in
        Ok Stats_req
    | "shutdown" ->
        let* () = check_fields doc envelope_keys in
        Ok Shutdown_req
    | other ->
        Error
          (Printf.sprintf
             "unknown kind %S (expected compile, run, predict, tune, health, \
              stats or shutdown)"
             other)
  in
  Ok { req_id = id; req_deadline_ms = deadline; req = payload }

let parse_request line =
  let* doc =
    Result.map_error (fun m -> "request is not valid JSON: " ^ m)
      (J.parse line)
  in
  request_of_json doc

(* ---- the serving state ---- *)

type counters = {
  mutable total : int;
  mutable ok : int;
  mutable errors : int;
  mutable degraded : int;
  mutable wall_overruns : int;
  (* per kind *)
  mutable n_compile : int;
  mutable n_run : int;
  mutable n_predict : int;
  mutable n_tune : int;
  mutable n_health : int;
  mutable n_stats : int;
  mutable n_shutdown : int;
  (* per error class *)
  mutable e_bad_request : int;
  mutable e_rejected : int;
  mutable e_fault : int;
  mutable e_internal : int;
  mutable e_busy : int;
  (* caches and self-checks *)
  mutable id_cache_hits : int;
  mutable tune_cache_hits : int;
  mutable json_check_failures : int;
}

type id_entry = {
  ie_digest : string;
  ie_response : string;
  mutable ie_last_use : int;
}

type state = {
  cfg : config;
  c : counters;
  queue : string Queue.t;
  id_cache : (string, id_entry) Hashtbl.t;
  mutable id_tick : int;
  tune_cache : (string, (string * J.t) list) Hashtbl.t;
}

(* A config hole found the hard way: [deadline_ms <= 0] used to slip
   through here, [budget_cycles] silently clamped the resulting
   non-positive cycle budget to the 10k floor, and every defaulted
   request came back [degraded:true] with a misleading caveat. Reject the
   configuration at construction instead. *)
let check_config c =
  let bad what v =
    invalid_arg (Printf.sprintf "Serve.create: %s = %d must be >= 1" what v)
  in
  if c.deadline_ms < 1 then bad "deadline_ms" c.deadline_ms;
  if c.cycles_per_ms < 1 then bad "cycles_per_ms" c.cycles_per_ms;
  if c.max_queue < 1 then bad "max_queue" c.max_queue;
  if c.retry_after_ms < 1 then bad "retry_after_ms" c.retry_after_ms;
  if c.cache_entries < 1 then bad "cache_entries" c.cache_entries;
  if c.id_cache_entries < 1 then bad "id_cache_entries" c.id_cache_entries

let create ?(config = default_config) () =
  check_config config;
  Compile.set_memo_limit config.cache_entries;
  {
    cfg = config;
    c =
      {
        total = 0;
        ok = 0;
        errors = 0;
        degraded = 0;
        wall_overruns = 0;
        n_compile = 0;
        n_run = 0;
        n_predict = 0;
        n_tune = 0;
        n_health = 0;
        n_stats = 0;
        n_shutdown = 0;
        e_bad_request = 0;
        e_rejected = 0;
        e_fault = 0;
        e_internal = 0;
        e_busy = 0;
        id_cache_hits = 0;
        tune_cache_hits = 0;
        json_check_failures = 0;
      };
    queue = Queue.create ();
    id_cache = Hashtbl.create 64;
    id_tick = 0;
    tune_cache = Hashtbl.create 16;
  }

let queue_depth st = Queue.length st.queue
let requests_total st = st.c.total

(* ---- response construction ---- *)

(* Error taxonomy, mirroring the CLI (DESIGN §15 table): bad-request ~
   a cmdliner usage error (124), compile-rejected = exit 2,
   simulation-fault = exit 3, internal = exit 1; busy has no CLI analog
   and carries the retry hint instead. *)
type error_class = Bad_request | Rejected | Faulted | Busy | Internal

let class_name = function
  | Bad_request -> "bad-request"
  | Rejected -> "compile-rejected"
  | Faulted -> "simulation-fault"
  | Busy -> "busy"
  | Internal -> "internal"

let class_exit = function
  | Bad_request -> Some 124
  | Rejected -> Some 2
  | Faulted -> Some 3
  | Internal -> Some 1
  | Busy -> None

let id_json = function Some s -> J.Str s | None -> J.Null

let ok_response st id kind fields =
  st.c.ok <- st.c.ok + 1;
  J.Obj
    ([ ("id", id_json id); ("status", J.Str "ok"); ("kind", J.Str kind) ]
    @ fields)

let error_response st id cls msg extra =
  st.c.errors <- st.c.errors + 1;
  (match cls with
  | Bad_request -> st.c.e_bad_request <- st.c.e_bad_request + 1
  | Rejected -> st.c.e_rejected <- st.c.e_rejected + 1
  | Faulted -> st.c.e_fault <- st.c.e_fault + 1
  | Busy -> st.c.e_busy <- st.c.e_busy + 1
  | Internal -> st.c.e_internal <- st.c.e_internal + 1);
  J.Obj
    ([ ("id", id_json id); ("status", J.Str "error");
       ("class", J.Str (class_name cls)) ]
    @ (match class_exit cls with
      | Some code -> [ ("exit_analog", J.Num (float_of_int code)) ]
      | None -> [])
    @ [ ("message", J.Str msg) ]
    @ extra)

(* The statically known-good fallback if an emitted response ever fails
   its own JSON self-check (an emitter bug, not a client error). *)
let fallback_response id =
  Printf.sprintf
    "{\"id\":%s,\"status\":\"error\",\"class\":\"internal\",\"exit_analog\":1,\
     \"message\":\"response failed JSON self-check\"}"
    (match id with
    | Some s -> "\"" ^ J.escape s ^ "\""
    | None -> "null")

let render st id doc =
  let s = J.emit doc in
  match Sutil.Json_check.validate s with
  | Ok () -> s
  | Error _ ->
      st.c.json_check_failures <- st.c.json_check_failures + 1;
      fallback_response id

(* ---- request execution ---- *)

exception Reply of error_class * string

(* A bad name is the client's error; a launch or partition-search
   failure is a compile rejection ([contained] answers a diagnostic so),
   as in the CLI. *)
let resolve_names t =
  match Target.resolve t with
  | Ok r -> r
  | Error msg -> raise (Reply (Bad_request, msg))

let resolve ?(launch = true) t =
  let r = resolve_names t in
  let points = if launch then Some t.t_points else None in
  match Partition_search.resolve_target ?points r with
  | Ok options -> (r, options)
  | Error d -> raise (Diagnostics.Fail d)

(* Compile with the shared bounded memo; pipeline failures become typed
   rejections exactly as Compile.compile_checked classifies them (a
   diagnostic reaches [contained] as one). *)
let compile_target (r : Target.resolved) options =
  match Compile.compile_cached r.mech r.kernel r.version options with
  | c -> c
  | exception Failure msg -> raise (Reply (Rejected, "pipeline: " ^ msg))

(* deadline_ms -> simulator cycle budget, saturating at the watchdog
   ceiling (no deadline may disarm containment) with a floor that keeps
   trivial budgets from aborting inside the prologue bookkeeping. The
   floor is for positive-but-tiny deadlines only: a non-positive deadline
   can reach here neither from the wire (the parser rejects it as
   bad-request) nor from the config default ([check_config]), so treat it
   as the caller bug it is instead of silently serving a degraded
   answer. *)
let budget_cycles cfg deadline_ms =
  if deadline_ms < 1 then
    invalid_arg
      (Printf.sprintf "Serve.budget_cycles: deadline_ms = %d must be >= 1"
         deadline_ms);
  if deadline_ms >= watchdog_ceiling / cfg.cycles_per_ms then watchdog_ceiling
  else max 10_000 (deadline_ms * cfg.cycles_per_ms)

let num v = J.Num v
let numi v = J.Num (float_of_int v)

let finite_num v = if Float.is_finite v then J.Num v else J.Null

let occupancy_json (occ : Gpusim.Chip.occupancy) =
  J.Obj
    [
      ("resident_ctas", numi occ.Gpusim.Chip.resident_ctas);
      ("limited_by", J.Str occ.Gpusim.Chip.limited_by);
      ("warps_per_sm", numi occ.Gpusim.Chip.warps_per_sm);
    ]

let model_json (pred : Perf_model.prediction) =
  J.Obj
    [
      ("predicted_cycles", num pred.Perf_model.cycles);
      ("floor_cycles", num pred.Perf_model.floor_cycles);
      ("predicted_points_per_sec", num pred.Perf_model.points_per_sec);
      ("binding", J.Str pred.Perf_model.binding);
      ("time_s", num pred.Perf_model.time_s);
    ]

(* The searched-partition payload, shaped like the perf snapshot's v9
   per-entry "partition" object. *)
let partition_json (o : Partition_search.outcome) =
  J.Obj
    ([
       ( "mode",
         J.Str
           (match o.Partition_search.winner_spec with
           | None -> "hand"
           | Some _ -> "auto") );
       ("hand_cycles", num o.Partition_search.hand_cycles);
       ("winner_cycles", num o.Partition_search.winner_cycles);
       ("searched", numi o.Partition_search.searched);
       ("gated", numi o.Partition_search.gated);
       ("rejected", numi (List.length o.Partition_search.rejections));
       ("simulated", numi o.Partition_search.simulated);
       ("confirmed", J.Bool o.Partition_search.confirmed);
     ]
    @
    match o.Partition_search.winner_spec with
    | None -> []
    | Some s ->
        [
          ("producer_warps", numi s.Mapping.producer_warps);
          ("hub_threshold", numi s.Mapping.hub_threshold);
          ("chain_weight", num s.Mapping.chain_weight);
          ("strategy", J.Str (Mapping.strategy_name s.Mapping.auto_strategy));
        ])

let degraded_caveat budget =
  Printf.sprintf
    "degraded answer: the simulation exceeded its %d-cycle deadline budget; \
     figures come from the analytic performance model (DESIGN #12, typical \
     error within ~25%%), not a completed simulation"
    budget

let handle_compile st id t =
  st.c.n_compile <- st.c.n_compile + 1;
  let r, options = resolve ~launch:false t in
  let c = compile_target r options in
  let p = c.Compile.lowered.Lower.program in
  let occ = Gpusim.Chip.occupancy r.arch p in
  ok_response st id "compile"
    [
      ("program", J.Str p.Gpusim.Isa.name);
      ("instrs", numi (Gpusim.Isa.static_instr_count p.Gpusim.Isa.body));
      ("fregs", numi p.Gpusim.Isa.n_fregs);
      ("iregs", numi p.Gpusim.Isa.n_iregs);
      ("shared_bytes", numi (p.Gpusim.Isa.shared_doubles * 8));
      ("spill_bytes", numi c.Compile.lowered.Lower.spill_bytes_per_thread);
      ("barriers", numi c.Compile.schedule.Schedule.barriers_used);
      ("sync_points", numi c.Compile.schedule.Schedule.n_sync_points);
      ("occupancy", occupancy_json occ);
      ( "partition",
        J.Str (Compile.partition_name options.Compile.partition) );
    ]

let handle_predict st id t =
  st.c.n_predict <- st.c.n_predict + 1;
  let r, options = resolve t in
  let c = compile_target r options in
  let pred =
    Perf_model.predict ?n_sms:t.t_sms ?skew:t.t_skew c ~total_points:t.t_points
  in
  ok_response st id "predict"
    [
      ("points", numi t.t_points);
      ("model", model_json pred);
      ("partition", J.Str (Compile.partition_name options.Compile.partition));
    ]

let handle_run st id deadline_ms ~target:t ~faults ~max_cycles =
  st.c.n_run <- st.c.n_run + 1;
  let r, options = resolve t in
  let faults =
    List.map
      (fun spec ->
        match Gpusim.Fault.of_string spec with
        | Ok f -> f
        | Error msg -> raise (Reply (Bad_request, msg)))
      faults
  in
  let c = compile_target r options in
  let derived = budget_cycles st.cfg deadline_ms in
  let budget = match max_cycles with Some m -> min m derived | None -> derived in
  match
    Compile.run c ~total_points:t.t_points ~faults ~max_cycles:budget
      ?n_sms:t.t_sms ?skew:t.t_skew
  with
  | res ->
      let m = res.Compile.machine in
      ok_response st id "run"
        [
          ("degraded", J.Bool false);
          ("budget_cycles", numi budget);
          ("sm_cycles", numi m.Gpusim.Chip.sm_cycles);
          ("points_per_sec", num m.Gpusim.Chip.points_per_sec);
          ("gflops", num m.Gpusim.Chip.gflops);
          ("dram_gbs", num m.Gpusim.Chip.dram_gbs);
          ("max_rel_err", finite_num res.Compile.max_rel_err);
          ( "outputs_ok",
            J.Bool
              ((not (Float.is_nan res.Compile.max_rel_err))
              && res.Compile.max_rel_err < 1e-6) );
          ("simulated_points", numi m.Gpusim.Chip.simulated_points);
        ]
  | exception Gpusim.Sm.Simulation_fault f
    when f.Gpusim.Sm.fault_kind = Gpusim.Sm.Cycle_budget ->
      (* The deadline fired, not a detector: answer from the model with
         the caveat instead of making the client wait out a hang. *)
      st.c.degraded <- st.c.degraded + 1;
      let pred =
        Perf_model.predict ?n_sms:t.t_sms ?skew:t.t_skew c
          ~total_points:t.t_points
      in
      ok_response st id "run"
        [
          ("degraded", J.Bool true);
          ("budget_cycles", numi budget);
          ("aborted_at_cycle", numi f.Gpusim.Sm.fault_cycle);
          ("model", model_json pred);
          ("caveat", J.Str (degraded_caveat budget));
        ]
  | exception Gpusim.Sm.Simulation_fault f ->
      error_response st id Faulted
        (Printf.sprintf "%s at cycle %d: %s"
           (Gpusim.Sm.fault_kind_name f.Gpusim.Sm.fault_kind)
           f.Gpusim.Sm.fault_cycle f.Gpusim.Sm.detail)
        [
          ( "fault",
            J.Obj
              [
                ("kind", J.Str (Gpusim.Sm.fault_kind_name f.Gpusim.Sm.fault_kind));
                ("cycle", numi f.Gpusim.Sm.fault_cycle);
                ("warps", numi (List.length f.Gpusim.Sm.warp_dumps));
                ( "pending_barriers",
                  numi (List.length f.Gpusim.Sm.barrier_dumps) );
              ] );
        ]

let tune_key r = Digest.to_hex (Digest.string (request_to_json r))

let handle_tune st id deadline_ms ~target:t ~top_k =
  st.c.n_tune <- st.c.n_tune + 1;
  (* Names only: for partition "auto" the search wants the hand options
     as its baseline, not a pre-resolved winner. *)
  let r = resolve_names t in
  let key =
    tune_key
      {
        req_id = None;
        req_deadline_ms = Some deadline_ms;
        req = Tune_req { target = t; top_k };
      }
  in
  match Hashtbl.find_opt st.tune_cache key with
  | Some fields ->
      st.c.tune_cache_hits <- st.c.tune_cache_hits + 1;
      ok_response st id "tune" fields
  | None ->
      let budget = budget_cycles st.cfg deadline_ms in
      let fields =
        match r.partition with
        | Target.Auto -> (
            (* Partition-search tune: score/gate the structural candidates
               and confirm the hand mapping and the survivors by
               simulation, degrading to the model-only pick when the
               deadline budget kills the hand mapping's run. *)
            let searched ~simulate =
              Partition_search.search ~points:t.t_points ?top_k
                ~max_cycles:budget ~simulate ?n_sms:t.t_sms ?skew:t.t_skew
                r.mech r.kernel r.version ~base:r.options ()
            in
            match searched ~simulate:true with
            | Ok o ->
                let w = o.Partition_search.winner in
                [
                  ("degraded", J.Bool false);
                  ("budget_cycles", numi budget);
                  ("partition", partition_json o);
                  ( "best",
                    J.Obj
                      [
                        ("warps", numi w.Compile.n_warps);
                        ("ctas_per_sm", numi w.Compile.ctas_per_sm_target);
                        ("buffer_slots", numi w.Compile.buffer_slots);
                      ] );
                ]
            | Error _ -> (
                match searched ~simulate:false with
                | Ok o ->
                    st.c.degraded <- st.c.degraded + 1;
                    [
                      ("degraded", J.Bool true);
                      ("budget_cycles", numi budget);
                      ("partition", partition_json o);
                      ("caveat", J.Str (degraded_caveat budget));
                    ]
                | Error d -> raise (Diagnostics.Fail d)))
        | Target.Hand -> (
            match
              Autotune.tune ~points:t.t_points ~max_cycles:budget
                ~mode:
                  (Autotune.Pruned
                     (Option.value top_k ~default:Autotune.default_prune_keep))
                ?n_sms:t.t_sms ?skew:t.t_skew
                ?synth_exchange:r.options.Compile.synth_exchange
                ~stencil_overlap:r.options.Compile.stencil_overlap r.mech
                r.kernel r.version r.arch
            with
            | o ->
                let b = o.Autotune.best in
                [
                  ("degraded", J.Bool false);
                  ("budget_cycles", numi budget);
                  ("tried", numi o.Autotune.tried);
                  ("skipped", numi o.Autotune.skipped);
                  ("candidates_pruned", numi o.Autotune.candidates_pruned);
                  ( "model_rank_of_winner",
                    numi o.Autotune.model_rank_of_winner );
                  ( "best",
                    J.Obj
                      [
                        ("warps", numi b.Autotune.options.Compile.n_warps);
                        ( "ctas_per_sm",
                          numi b.Autotune.options.Compile.ctas_per_sm_target );
                        ("points_per_sec", num b.Autotune.throughput);
                        ( "predicted_points_per_sec",
                          num b.Autotune.predicted.Perf_model.points_per_sec );
                      ] );
                ]
            | exception Failure _ -> (
                (* Every candidate died inside the deadline budget (or
                   nothing ran at all): degrade to the model's first pick
                   over the same grid. *)
                let ranked, _ =
                  Autotune.rank ?n_sms:t.t_sms ?skew:t.t_skew
                    ~points:t.t_points
                    ~key:(fun p -> -.p.Perf_model.points_per_sec)
                    (Compile.compile_cached r.mech r.kernel r.version)
                    (Autotune.candidate_options
                       ?synth_exchange:r.options.Compile.synth_exchange
                       ~stencil_overlap:r.options.Compile.stencil_overlap
                       ~points:t.t_points r.kernel r.version r.arch
                       (Autotune.default_warp_candidates r.mech r.kernel
                          r.version)
                       [ 1; 2 ])
                in
                match ranked with
                | [] ->
                    raise
                      (Reply
                         ( Rejected,
                           "no tuning candidate compiles for this \
                            configuration" ))
                | { Autotune.s_options = o; s_prediction = pred; _ } :: _ ->
                    st.c.degraded <- st.c.degraded + 1;
                    [
                      ("degraded", J.Bool true);
                      ("budget_cycles", numi budget);
                      ("candidates_ranked", numi (List.length ranked));
                      ( "best",
                        J.Obj
                          [
                            ("warps", numi o.Compile.n_warps);
                            ("ctas_per_sm", numi o.Compile.ctas_per_sm_target);
                            ( "predicted_points_per_sec",
                              num pred.Perf_model.points_per_sec );
                          ] );
                      ("caveat", J.Str (degraded_caveat budget));
                    ]))
      in
      (* Bound the tuned-config cache like everything else long-lived. *)
      if Hashtbl.length st.tune_cache >= 64 then Hashtbl.reset st.tune_cache;
      Hashtbl.replace st.tune_cache key fields;
      ok_response st id "tune" fields

let handle_health st id =
  st.c.n_health <- st.c.n_health + 1;
  ok_response st id "health"
    [
      ("live", J.Bool true);
      ("requests_total", numi st.c.total);
      ("requests_ok", numi st.c.ok);
      ("requests_error", numi st.c.errors);
      ("degraded", numi st.c.degraded);
      ("queue_depth", numi (Queue.length st.queue));
      ("queue_bound", numi st.cfg.max_queue);
      ("live_domains", numi (Sutil.Domain_pool.live_domains ()));
      ("compile_cache", Compile.memo_stats_to_json (Compile.memo_stats ()));
    ]

let handle_stats st id =
  st.c.n_stats <- st.c.n_stats + 1;
  ok_response st id "stats"
    [
      ("requests_total", numi st.c.total);
      ("requests_ok", numi st.c.ok);
      ("requests_error", numi st.c.errors);
      ("degraded", numi st.c.degraded);
      ("wall_overruns", numi st.c.wall_overruns);
      ( "by_kind",
        J.Obj
          [
            ("compile", numi st.c.n_compile);
            ("run", numi st.c.n_run);
            ("predict", numi st.c.n_predict);
            ("tune", numi st.c.n_tune);
            ("health", numi st.c.n_health);
            ("stats", numi st.c.n_stats);
            ("shutdown", numi st.c.n_shutdown);
          ] );
      ( "by_class",
        J.Obj
          [
            ("bad_request", numi st.c.e_bad_request);
            ("compile_rejected", numi st.c.e_rejected);
            ("simulation_fault", numi st.c.e_fault);
            ("busy", numi st.c.e_busy);
            ("internal", numi st.c.e_internal);
          ] );
      ("queue_depth", numi (Queue.length st.queue));
      ("queue_bound", numi st.cfg.max_queue);
      ("compile_cache", Compile.memo_stats_to_json (Compile.memo_stats ()));
      ( "id_cache",
        J.Obj
          [
            ("size", numi (Hashtbl.length st.id_cache));
            ("limit", numi st.cfg.id_cache_entries);
            ("hits", numi st.c.id_cache_hits);
          ] );
      ( "tune_cache",
        J.Obj
          [
            ("size", numi (Hashtbl.length st.tune_cache));
            ("hits", numi st.c.tune_cache_hits);
          ] );
      ( "domain_pool",
        J.Obj
          [
            ("live_domains", numi (Sutil.Domain_pool.live_domains ()));
            ( "nested_serial_calls",
              numi (Sutil.Domain_pool.nested_serial_calls ()) );
          ] );
      ("json_check_failures", numi st.c.json_check_failures);
    ]

(* ---- the request boundary ---- *)

let dispatch st id deadline_ms req =
  match req with
  | Compile_req t -> handle_compile st id t
  | Predict_req t -> handle_predict st id t
  | Run_req { target; faults; max_cycles } ->
      handle_run st id deadline_ms ~target ~faults ~max_cycles
  | Tune_req { target; top_k } -> handle_tune st id deadline_ms ~target ~top_k
  | Health_req -> handle_health st id
  | Stats_req -> handle_stats st id
  | Shutdown_req ->
      st.c.n_shutdown <- st.c.n_shutdown + 1;
      ok_response st id "shutdown" [ ("stopping", J.Bool true) ]

(* Everything user-reachable maps to a typed class; anything else is an
   internal error, answered and counted, never a crash of the loop. *)
let contained st id deadline_ms req =
  match dispatch st id deadline_ms req with
  | resp -> resp
  | exception Reply (cls, msg) -> error_response st id cls msg []
  | exception Diagnostics.Fail d ->
      error_response st id Rejected (Diagnostics.to_string d) []
  | exception Gpusim.Chip.Occupancy_rejected r ->
      error_response st id Rejected
        ("occupancy: " ^ Gpusim.Chip.reject_message r)
        []
  | exception Gpusim.Sm.Simulation_fault f ->
      error_response st id Faulted
        (Printf.sprintf "%s at cycle %d: %s"
           (Gpusim.Sm.fault_kind_name f.Gpusim.Sm.fault_kind)
           f.Gpusim.Sm.fault_cycle f.Gpusim.Sm.detail)
        []
  | exception Invalid_argument msg ->
      (* A fault spec matching nothing in the trace, or an out-of-range
         barrier id: a configuration error, as in the CLI (exit 2). *)
      error_response st id Rejected msg []
  | exception Sutil.Domain_pool.Invalid_jobs msg ->
      error_response st id Internal msg []
  | exception Stack_overflow -> error_response st id Internal "stack overflow" []
  | exception Out_of_memory -> error_response st id Internal "out of memory" []
  | exception e ->
      error_response st id Internal ("unexpected: " ^ Printexc.to_string e) []

let id_cache_insert st key entry =
  Hashtbl.replace st.id_cache key entry;
  if Hashtbl.length st.id_cache > st.cfg.id_cache_entries then begin
    let oldest = ref None in
    Hashtbl.iter
      (fun k e ->
        match !oldest with
        | Some (_, lru) when lru <= e.ie_last_use -> ()
        | _ -> oldest := Some (k, e.ie_last_use))
      st.id_cache;
    match !oldest with
    | Some (k, _) -> Hashtbl.remove st.id_cache k
    | None -> ()
  end

let handle_line st line =
  st.c.total <- st.c.total + 1;
  let started = Sutil.Clock.now_ns () in
  match J.parse line with
  | Error msg ->
      let resp =
        error_response st None Bad_request ("request is not valid JSON: " ^ msg)
          []
      in
      (render st None resp, false)
  | Ok doc -> (
      (* Best-effort id extraction so even a rejected envelope echoes the
         id the client can correlate on. *)
      let raw_id = Option.bind (J.member "id" doc) J.str in
      match request_of_json doc with
      | Error msg ->
          (render st raw_id (error_response st raw_id Bad_request msg []), false)
      | Ok req -> (
          let stop = req.req = Shutdown_req in
          let deadline_ms =
            Option.value req.req_deadline_ms ~default:st.cfg.deadline_ms
          in
          let digest =
            Digest.to_hex
              (Digest.string (request_to_json { req with req_id = None }))
          in
          match
            Option.bind req.req_id (fun id ->
                Option.map (fun e -> (id, e)) (Hashtbl.find_opt st.id_cache id))
          with
          | Some (_, entry) when entry.ie_digest = digest ->
              (* Idempotent retry: replay the stored bytes verbatim. *)
              st.c.id_cache_hits <- st.c.id_cache_hits + 1;
              st.id_tick <- st.id_tick + 1;
              entry.ie_last_use <- st.id_tick;
              (entry.ie_response, false)
          | Some (id, _) ->
              let resp =
                error_response st req.req_id Bad_request
                  (Printf.sprintf
                     "id %S was already used for a different request; retries \
                      must repeat the original payload"
                     id)
                  []
              in
              (render st req.req_id resp, false)
          | None ->
              let resp = contained st req.req_id deadline_ms req.req in
              (* The wall side of the deadline: we cannot preempt a
                 running compile, but an overrun is recorded on the
                 response and in the stats. *)
              let elapsed_ms = int_of_float (Sutil.Clock.elapsed_ms started) in
              let resp =
                if elapsed_ms > deadline_ms then begin
                  st.c.wall_overruns <- st.c.wall_overruns + 1;
                  match resp with
                  | J.Obj fields ->
                      J.Obj (fields @ [ ("overran_wall_deadline", J.Bool true) ])
                  | other -> other
                end
                else resp
              in
              let rendered = render st req.req_id resp in
              (match req.req_id with
              | Some id when not stop ->
                  st.id_tick <- st.id_tick + 1;
                  id_cache_insert st id
                    {
                      ie_digest = digest;
                      ie_response = rendered;
                      ie_last_use = st.id_tick;
                    }
              | Some _ | None -> ());
              (rendered, stop)))

let busy_line st line =
  st.c.total <- st.c.total + 1;
  let raw_id =
    match J.parse line with
    | Ok doc -> Option.bind (J.member "id" doc) J.str
    | Error _ -> None
  in
  let resp =
    error_response st raw_id Busy
      (Printf.sprintf "admission queue full (%d/%d); retry later"
         (Queue.length st.queue) st.cfg.max_queue)
      [ ("retry_after_ms", numi st.cfg.retry_after_ms) ]
  in
  render st raw_id resp

(* ---- the loop ---- *)

type reader = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  chunk : Bytes.t;
  mutable eof : bool;
}

let reader fd = { fd; rbuf = Buffer.create 4096; chunk = Bytes.create 65536; eof = false }

let read_chunk r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> r.eof <- true
  | n -> Buffer.add_subbytes r.rbuf r.chunk 0 n
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
  | exception Unix.Unix_error _ -> r.eof <- true

let readable_now r =
  (not r.eof)
  &&
  match Unix.select [ r.fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Pop complete lines out of the byte buffer; at EOF a trailing unterminated
   line is delivered as-is (be liberal in what we accept). *)
let take_lines r =
  let s = Buffer.contents r.rbuf in
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        lines := String.sub s !start (i - !start) :: !lines;
        start := i + 1
      end)
    s;
  Buffer.clear r.rbuf;
  if !start < String.length s then
    if r.eof then lines := String.sub s !start (String.length s - !start) :: !lines
    else Buffer.add_string r.rbuf (String.sub s !start (String.length s - !start));
  List.rev !lines

exception Client_gone

let serve_fds st in_fd out_fd =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let r = reader in_fd in
  let write_line s =
    let data = Bytes.of_string (s ^ "\n") in
    let len = Bytes.length data in
    let rec go off =
      if off < len then
        match Unix.write out_fd data off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error _ -> raise Client_gone
    in
    go 0
  in
  let admit line =
    (* Blank lines are keep-alives, not requests. *)
    if String.trim line <> "" then
      if Queue.length st.queue >= st.cfg.max_queue then
        write_line (busy_line st line)
      else Queue.add line st.queue
  in
  let drain () =
    while readable_now r do
      read_chunk r
    done;
    List.iter admit (take_lines r)
  in
  let rec step () =
    drain ();
    match Queue.take_opt st.queue with
    | Some line ->
        let resp, stop = handle_line st line in
        write_line resp;
        if not stop then step ()
    | None ->
        if not r.eof then begin
          read_chunk r;
          List.iter admit (take_lines r);
          step ()
        end
  in
  try step () with Client_gone -> ()
