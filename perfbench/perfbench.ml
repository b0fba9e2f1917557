(* perfbench: the singe toolchain's host-and-kernel benchmark.

   Three closed-loop workloads, one client and one domain each. Every
   workload runs a fixed op sequence drawn from --seed: the op count
   depends only on --seconds (never on how many ops happen to fit), and
   the sequence is a seeded order of whole rounds, each round covering
   the workload's whole target set once, so every seed does the same
   work in a different order.

   - compile-cold: CHEMKIN text -> Chem.Mech_io.load_strings ->
     Compile.compile_checked ~validate:true -> Perf_model.predict. The
     frontend, the passes and the deadlock check; no memo, no simulation.
   - serve-warm: Serve.handle_line on one in-process state: simulated
     runs checked against the host oracle, predicts, compiles, id
     replays and expected errors, with a memo bound small enough that a
     cycling cold target misses, inserts and evicts once per round.
   - partition-search: model-only Partition_search.search over a memo
     warmed at set-up: model scoring, memo hits and the deadlock gate.

   Untraced runs time each op with bechamel's monotonic clock. A traced
   run (--trace 1) re-issues each op's layer calls from this file under
   spans (the library itself carries no spans), writes the spans out,
   and reports per-layer figures. Compile pass times are read from the
   Pass.report the compile returns; those are wall-clock.

   The process prints one raw JSON line; perfbench/run.py turns it into
   the benchmark's result line. perfbench/design.json records why each
   workload exists and which end-to-end metric each layer should move. *)

module C = Singe.Compile
module J = Sutil.Json

(* ---- environment guard ---- *)

(* Each of these changes compiler or model output outside the compile
   memo key, or changes fan-out; a run under any of them would not
   measure the program the benchmark names. Empty counts as unset, as
   everywhere else in singe. *)
let guarded_vars =
  [
    "SINGE_NO_SCHED";
    "SINGE_JOBS";
    "SINGE_FAST";
    "SINGE_DEBUG_SYNC";
    "SINGE_DEBUG_OVERLAY";
    "SINGE_PM_DEBUG";
  ]

let check_environment () =
  let offending =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | None -> None
           | Some i ->
               let k = String.sub kv 0 i in
               let v = String.sub kv (i + 1) (String.length kv - i - 1) in
               if
                 v <> ""
                 && (List.mem k guarded_vars
                    || String.starts_with ~prefix:"SINGE_MODEL_" k)
               then Some k
               else None)
    |> List.sort compare
  in
  if offending <> [] then begin
    Printf.eprintf
      "perfbench: error[environment]: %s set; each changes compiler or model \
       output outside the compile-memo key or changes fan-out, so the run \
       would not measure the benchmarked program; unset before benchmarking.\n"
      (String.concat ", " offending);
    exit 2
  end

(* ---- clock and spans ---- *)

let now_ns () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

type span = {
  mutable sp_name : string;
  sp_id : int;
  sp_op : int;
  sp_parent : int;  (** -1 for an op's root span *)
  sp_start : int64;
  mutable sp_end : int64;
}

let tracing = ref false
let spans : span list ref = ref []
let n_spans = ref 0
let parent = ref (-1)
let current_op = ref 0

let with_span name f =
  if not !tracing then f ()
  else begin
    let s =
      {
        sp_name = name;
        sp_id = !n_spans;
        sp_op = !current_op;
        sp_parent = !parent;
        sp_start = now_ns ();
        sp_end = 0L;
      }
    in
    spans := s :: !spans;
    incr n_spans;
    let saved = !parent in
    parent := s.sp_id;
    Fun.protect
      ~finally:(fun () ->
        s.sp_end <- now_ns ();
        parent := saved)
      f
  end

(* The span most recently opened, so a caller can rename it once the
   outcome (memo hit or miss) is known. *)
let rename_last name =
  match !spans with s :: _ when !tracing -> s.sp_name <- name | _ -> ()

(* Self time: duration minus the part covered by direct children.
   Children run sequentially inside their parent on one domain. *)
let self_times (all : span array) =
  let child_ns = Array.make (Array.length all) 0L in
  Array.iter
    (fun s ->
      if s.sp_parent >= 0 then
        child_ns.(s.sp_parent) <-
          Int64.add child_ns.(s.sp_parent) (Int64.sub s.sp_end s.sp_start))
    all;
  Array.map
    (fun s -> Int64.sub (Int64.sub s.sp_end s.sp_start) child_ns.(s.sp_id))
    all

let spans_json (all : span array) self =
  let t0 = if Array.length all = 0 then 0L else all.(0).sp_start in
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  J.Obj
    [
      ("clock", J.Str "monotonic");
      ("unit", J.Str "us");
      ( "spans",
        J.List
          (Array.to_list
             (Array.mapi
                (fun i s ->
                  J.Obj
                    [
                      ("id", J.Num (float_of_int s.sp_id));
                      ("name", J.Str s.sp_name);
                      ("op", J.Num (float_of_int s.sp_op));
                      ( "parent",
                        if s.sp_parent < 0 then J.Null
                        else J.Num (float_of_int s.sp_parent) );
                      ("start", J.Num (us s.sp_start));
                      ("end", J.Num (us s.sp_end));
                      ("self", J.Num (Int64.to_float self.(i) /. 1e3));
                    ])
                all)) );
    ]

(* ---- layer counters the traced run reports besides spans ---- *)

type counters = {
  mutable pass_ns : (string * float) list;  (** summed wall ns per pass *)
  mutable pass_runs : (string * int) list;
  mutable compiles : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable memo_evictions : int;
  mutable searched : int;
  mutable gated : int;
  mutable rejected : int;
  mutable gates : int;
  mutable gate_passes : int;
  mutable sim_cycles : float;
  mutable sim_points : int;
  mutable total_points : int;
}

let counters =
  {
    pass_ns = [];
    pass_runs = [];
    compiles = 0;
    memo_hits = 0;
    memo_misses = 0;
    memo_evictions = 0;
    searched = 0;
    gated = 0;
    rejected = 0;
    gates = 0;
    gate_passes = 0;
    sim_cycles = 0.;
    sim_points = 0;
    total_points = 0;
  }

let bump assoc k v plus =
  match List.assoc_opt k assoc with
  | Some x -> (k, plus x v) :: List.remove_assoc k assoc
  | None -> (k, v) :: assoc

let record_report (r : Singe.Pass.report) =
  counters.compiles <- counters.compiles + 1;
  List.iter
    (fun (p : Singe.Pass.record) ->
      counters.pass_ns <- bump counters.pass_ns p.pass_name p.wall_ns ( +. );
      counters.pass_runs <- bump counters.pass_runs p.pass_name p.runs ( + ))
    r.records

(* Memo counter deltas across one call into the system under test. *)
let with_memo_delta f =
  let a = C.memo_stats () in
  let r = f () in
  let b = C.memo_stats () in
  counters.memo_hits <- counters.memo_hits + b.hits - a.hits;
  counters.memo_misses <- counters.memo_misses + b.misses - a.misses;
  counters.memo_evictions <- counters.memo_evictions + b.evictions - a.evictions;
  (r, b.misses - a.misses)

(* A compile_cached call from the traced re-issue, named by its outcome. *)
let traced_lookup mech kernel version options =
  with_span "memo.lookup" (fun () ->
      let before = (C.memo_stats ()).hits in
      let r = try Ok (C.compile_cached mech kernel version options) with e -> Error e in
      rename_last (if (C.memo_stats ()).hits > before then "memo.hit" else "memo.miss");
      r)

let predict c ~total_points =
  with_span "model.predict" (fun () -> Singe.Perf_model.predict c ~total_points)

(* ---- shared helpers ---- *)

let kepler = Gpusim.Arch.kepler_k20c

(* singe's per-kernel defaults: chemistry wants 16 named barriers and one
   CTA per SM, every other kernel 8 and 2 (the CLI's and serve's rule). *)
let options_for kernel warps =
  let chem = kernel = Singe.Kernel_abi.Chemistry in
  {
    (C.default_options kepler) with
    C.n_warps = warps;
    max_barriers = (if chem then 16 else 8);
    ctas_per_sm_target = (if chem then 1 else 2);
  }

let kernel_of name = Option.get (Singe.Kernel_abi.kernel_of_string name)
let version_of name = Option.get (C.version_of_string name)

let generated_mech = function
  | "dme" -> Chem.Mech_gen.dme ()
  | "heptane" -> Chem.Mech_gen.heptane ()
  | "methane" -> Chem.Mech_gen.methane ()
  | "hydrogen" -> Chem.Mech_gen.hydrogen ()
  | m -> invalid_arg ("unknown mechanism " ^ m)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [rounds] seeded permutations of the target set, concatenated. *)
let seeded_rounds rng ~rounds targets =
  Array.concat
    (List.init rounds (fun _ -> shuffle rng (Array.copy targets)))

let rounds_for ~seconds ~ops_per_s ~per_round =
  max 1
    (int_of_float
       (Float.ceil (float_of_int seconds *. ops_per_s /. float_of_int per_round)))

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

let instrs program =
  float_of_int (Gpusim.Isa_stats.of_program kepler program).mix.total

(* Worst relative output error of a simulated run against the host
   oracle, with Compile.run's tolerance floor (outputs that are sums can
   cancel, so the floor scales with the field's magnitude). *)
let oracle_error (c : C.t) (r : C.run_result) =
  let n = r.machine.Gpusim.Machine.simulated_points in
  let grid = Chem.Grid.create c.mech ~points:n ~seed:0x5EEDL in
  let reference = Singe.Kernel_abi.reference_outputs c.mech grid c.kernel ~points:n in
  let field_max =
    Array.fold_left
      (fun acc f -> Array.fold_left (fun a v -> Float.max a (abs_float v)) acc f)
      1e-300 reference
  in
  let worst = ref 0. in
  Array.iteri
    (fun f expect ->
      Array.iteri
        (fun p e ->
          let denom = Float.max (abs_float e) (1e-9 *. field_max) in
          worst := Float.max !worst (abs_float (r.outputs.(f).(p) -. e) /. denom))
        expect)
    reference;
  !worst

(* Simulated cycles and model error of compiled targets: the kernel-side
   facts, computed after the timed loop. *)
let kernel_facts cs =
  List.map
    (fun (c, total_points) ->
      let r = C.run c ~total_points in
      if not (r.max_rel_err < 1e-6) then
        failwith "kernel facts: simulated outputs disagree with the oracle";
      let cycles = float_of_int r.machine.Gpusim.Machine.sm_cycles in
      let p = Singe.Perf_model.predict c ~total_points in
      (cycles, Singe.Perf_model.rel_err ~predicted:p.cycles ~measured:cycles))
    cs

let kernel_metrics facts =
  [
    ("kernel_cycles_geomean", geomean (List.map fst facts));
    ("model_err_max", List.fold_left (fun a (_, e) -> Float.max a e) 0. facts);
  ]

(* The fixed reference target set that stands in, on workloads that do
   not simulate or search themselves, for the kernel-side metrics: two
   cheap warp-specialized stencil targets, so every workload reports
   every metric without simulating its own (costly) target set. *)
let reference_targets = [ ("edge3", 4); ("unsharp2", 4) ]

let reference_compiled () =
  let m = generated_mech "hydrogen" in
  List.map
    (fun (k, w) ->
      let kernel = kernel_of k in
      (C.compile_cached m kernel C.Warp_specialized (options_for kernel w), 2048))
    reference_targets

let reference_winners () =
  let m = generated_mech "hydrogen" in
  List.map
    (fun (k, w) ->
      let kernel = kernel_of k in
      match
        Singe.Partition_search.search ~jobs:1 ~simulate:false m kernel
          C.Warp_specialized ~base:(options_for kernel w) ()
      with
      | Ok o -> o.winner_cycles
      | Error d -> failwith (Singe.Diagnostics.to_string d))
    reference_targets

(* ---- workloads ---- *)

type prepared = {
  op_class : string array;
      (** per op of the sequence, the class of ops doing identical work
          (same config, same target, same request kind) *)
  op : int -> (unit, string) result;
      (** run op [i] and check its output; spans when tracing *)
  facts : unit -> (string * float) list;
      (** the deterministic end-to-end metrics, after the timed loop *)
}

(* -- compile-cold -- *)

type expect = Compiles | Rejected_by of string

(* Mechanism x kernel x version x warps, kept to configurations whose
   load+compile costs roughly 10-150 ms on a 2-core x86 host, plus two
   option rejections. Stencil kernels are paired with the larger
   mechanisms: their compile ignores the mechanism, but the op still
   parses its text. *)
let compile_configs =
  [|
    ("dme", "viscosity", "ws", 4, Compiles);
    ("dme", "viscosity", "ws", 8, Compiles);
    ("dme", "viscosity", "naive", 8, Compiles);
    ("dme", "viscosity", "baseline", 4, Compiles);
    ("dme", "diffusion", "ws", 4, Compiles);
    ("dme", "diffusion", "ws", 8, Compiles);
    ("dme", "diffusion", "baseline", 4, Compiles);
    ("dme", "diffusion", "naive", 8, Compiles);
    ("dme", "chemistry", "naive", 4, Compiles);
    ("dme", "chemistry", "baseline", 8, Compiles);
    ("methane", "diffusion", "ws", 8, Compiles);
    ("methane", "diffusion", "naive", 4, Compiles);
    ("methane", "chemistry", "naive", 8, Compiles);
    ("heptane", "diffusion", "ws", 8, Compiles);
    ("heptane", "diffusion", "naive", 4, Compiles);
    ("heptane", "diffusion", "baseline", 4, Compiles);
    ("heptane", "chemistry", "naive", 4, Compiles);
    ("hydrogen", "chemistry", "ws", 8, Compiles);
    ("hydrogen", "viscosity", "baseline", 8, Compiles);
    ("heptane", "edge3", "ws", 4, Compiles);
    ("methane", "unsharp2", "ws", 8, Compiles);
    ("heptane", "edge3", "naive", 8, Compiles);
    ("methane", "unsharp2", "baseline", 4, Compiles);
    ("dme", "viscosity", "ws", 64, Rejected_by "options");
    ("hydrogen", "edge3", "ws", 1, Rejected_by "options");
  |]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* CHEMKIN, thermo, transport and species-set text of one mechanism. *)
let mechanism_text = function
  | "heptane" ->
      let m = Chem.Mech_gen.heptane () in
      Chem.Mech_io.
        ( chemkin_of_mechanism m,
          thermo_of_mechanism m,
          transport_of_mechanism m,
          species_sets_of_mechanism m )
  | name ->
      let f ext = read_file (Filename.concat "data" (name ^ "." ^ ext)) in
      (f "mech", f "therm", f "tran", f "sets")

let compile_cold ~seed ~seconds =
  let texts =
    List.map (fun m -> (m, mechanism_text m)) [ "dme"; "methane"; "hydrogen"; "heptane" ]
  in
  let rng = Random.State.make [| seed |] in
  let n = Array.length compile_configs in
  let rounds = rounds_for ~seconds ~ops_per_s:25. ~per_round:n in
  let seq = seeded_rounds rng ~rounds (Array.init n Fun.id) in
  (* Counted at a config's first op (about a millisecond): keeping the
     programs for later would inflate the run's peak RSS. *)
  let instr_counts = Array.make n None in
  let op i =
    let k = seq.(i) in
    let mech_name, kname, vname, warps, expect = compile_configs.(k) in
    let chemkin, thermo, transport, sets = List.assoc mech_name texts in
    let kernel = kernel_of kname in
    match
      with_span "chem.load" (fun () ->
          Chem.Mech_io.load_strings ~species_sets:sets ~chemkin ~thermo
            ~transport ~name:mech_name ())
    with
    | Error _ -> Error (mech_name ^ ": mechanism text failed to load")
    | Ok mech -> (
        let r =
          with_span "compile" (fun () ->
              C.compile_checked ~validate:true mech kernel (version_of vname)
                (options_for kernel warps))
        in
        let what = Printf.sprintf "%s/%s/%s/w%d" mech_name kname vname warps in
        match (expect, r) with
        | Compiles, Ok (c, report) ->
            record_report report;
            if not (List.for_all (fun (p : Singe.Pass.record) -> p.ok) report.records)
            then Error (what ^ ": a pass record is not ok")
            else
              let p = predict c ~total_points:8192 in
              if instr_counts.(k) = None then
                instr_counts.(k) <- Some (instrs c.lowered.Singe.Lower.program);
              if Float.is_finite p.cycles && p.cycles > 0. then Ok ()
              else Error (what ^ ": non-finite prediction")
        | Rejected_by pass, Error d when d.Singe.Diagnostics.pass = Some pass -> Ok ()
        | Compiles, Error d -> Error (what ^ ": " ^ Singe.Diagnostics.to_string d)
        | Rejected_by pass, _ -> Error (what ^ ": expected a rejection by " ^ pass))
  in
  let facts () =
    (( "code_instrs_geomean",
       geomean (List.filter_map Fun.id (Array.to_list instr_counts)) )
    :: kernel_metrics (kernel_facts (reference_compiled ())))
    @ [ ("winner_cycles_geomean", geomean (reference_winners ())) ]
  in
  { op_class = Array.map string_of_int seq; op; facts }

(* -- serve-warm -- *)

let target mech kernel version warps points =
  {
    Singe.Serve.default_target with
    t_mech = mech;
    t_kernel = kernel;
    t_version = version;
    t_warps = warps;
    t_points = points;
  }

(* Run targets whose simulation costs roughly 5-40 ms, far under the
   2 s default deadline. Hot targets are visited every round and stay
   cached; the cold ones cycle through the few spare memo slots. *)
let hot_targets =
  [|
    target "hydrogen" "viscosity" "ws" 4 4096;
    target "hydrogen" "viscosity" "ws" 8 8192;
    target "hydrogen" "diffusion" "ws" 4 4096;
    target "hydrogen" "diffusion" "naive" 4 2048;
    target "hydrogen" "chemistry" "baseline" 8 2048;
    target "hydrogen" "chemistry" "ws" 4 8192;
    target "hydrogen" "edge3" "baseline" 4 4096;
    target "hydrogen" "unsharp2" "baseline" 8 2048;
    target "dme" "viscosity" "ws" 8 4096;
    target "dme" "diffusion" "ws" 4 8192;
    target "dme" "diffusion" "ws" 8 2048;
  |]

let cold_targets =
  [|
    target "hydrogen" "viscosity" "naive" 4 4096;
    target "hydrogen" "viscosity" "baseline" 4 2048;
    target "hydrogen" "diffusion" "baseline" 4 4096;
    target "hydrogen" "diffusion" "ws" 8 8192;
    target "dme" "viscosity" "ws" 4 2048;
    target "hydrogen" "unsharp2" "ws" 4 4096;
  |]

(* Hot entries are all touched within any two rounds, so with three
   spare slots the least recently used entry is always the cold target
   inserted three rounds earlier: exactly one miss, insert and eviction
   per round, whatever the seed. *)
let serve_cache_entries = Array.length hot_targets + 3

type request_kind = Run | Predict | Compile | Replay | Malformed | Rejected

let kind_name = function
  | Run -> "run"
  | Predict -> "predict"
  | Compile -> "compile"
  | Replay -> "replay"
  | Malformed | Rejected -> "error"

type request = {
  kind : request_kind;
  cls : string;
  line : string;
  tgt : Singe.Serve.target option;
}

let request_line id payload =
  Singe.Serve.request_to_json
    { Singe.Serve.req_id = Some id; req_deadline_ms = None; req = payload }

let make_request kind id tgt =
  let payload =
    match kind with
    | Run | Rejected ->
        Singe.Serve.Run_req { target = tgt; faults = []; max_cycles = None }
    | Predict -> Singe.Serve.Predict_req tgt
    | _ -> Singe.Serve.Compile_req tgt
  in
  let cls =
    Printf.sprintf "%s %s/%s/%s/w%d/%d" (kind_name kind) tgt.t_mech tgt.t_kernel
      tgt.t_version tgt.t_warps tgt.t_points
  in
  { kind; cls; line = request_line id payload; tgt = Some tgt }

let resolve (t : Singe.Serve.target) =
  let kernel = kernel_of t.t_kernel in
  (generated_mech t.t_mech, kernel, version_of t.t_version, options_for kernel t.t_warps)

let field doc k = J.member k doc

let check_response req ~expected_replay resp =
  let ( let* ) = Result.bind in
  let* () =
    Result.map_error (fun e -> "response fails Json_check: " ^ e)
      (Sutil.Json_check.validate resp)
  in
  let* doc = J.parse resp in
  let str k = Option.bind (field doc k) J.str in
  let* () =
    if str "class" = Some "internal" then Error "internal error response" else Ok ()
  in
  match req.kind with
  | Replay ->
      if Some resp = expected_replay then Ok ()
      else Error "replay is not bit-identical to the first answer"
  | Malformed ->
      if str "class" = Some "bad-request" then Ok () else Error "expected bad-request"
  | Rejected ->
      if str "class" = Some "compile-rejected" then Ok ()
      else Error "expected compile-rejected"
  | Run | Predict | Compile ->
      let* () =
        if str "status" = Some "ok" && str "kind" = Some (kind_name req.kind) then Ok ()
        else Error ("expected ok " ^ kind_name req.kind ^ ": " ^ resp)
      in
      if req.kind <> Run then Ok ()
      else if field doc "overran_wall_deadline" <> None then Error "overran its deadline"
      else if Option.bind (field doc "degraded") J.bool <> Some false then
        Error "degraded answer"
      else if Option.bind (field doc "outputs_ok") J.bool <> Some true then
        Error "outputs outside tolerance"
      else Ok ()

(* One serve request's layer calls, re-issued right after handle_line
   so each layer gets its own span. *)
let reissue_layers req ~missed resp =
  ignore (with_span "serve.parse" (fun () -> Singe.Serve.parse_request req.line));
  (match (req.kind, req.tgt) with
  | (Run | Predict | Compile), Some t -> (
      let mech, kernel, version, options = resolve t in
      if missed > 0 then
        ignore
          (with_span "memo.miss" (fun () -> C.compile mech kernel version options));
      match traced_lookup mech kernel version options with
      | Error e -> raise e
      | Ok c -> (
          match req.kind with
          | Run ->
              let r =
                with_span "sim.run" (fun () ->
                    C.run ~check:false c ~total_points:t.t_points)
              in
              let err = with_span "oracle.check" (fun () -> oracle_error c r) in
              if not (err < 1e-6) then failwith "re-issued run disagrees with the oracle";
              let m = r.machine in
              counters.sim_cycles <-
                counters.sim_cycles +. float_of_int m.Gpusim.Machine.sm_cycles;
              counters.sim_points <- counters.sim_points + m.Gpusim.Machine.simulated_points;
              counters.total_points <- counters.total_points + t.t_points
          | Predict -> ignore (predict c ~total_points:t.t_points)
          | _ -> ()))
  | _ -> ());
  ignore (with_span "serve.json_check" (fun () -> Sutil.Json_check.validate resp))

let serve_warm ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let state =
    Singe.Serve.create
      ~config:{ Singe.Serve.default_config with cache_entries = serve_cache_entries }
      ()
  in
  (* Set-up: one compile request per target, cold ones first so the hot
     set ends up resident; these also seed the first round's replays. *)
  let warm =
    Array.mapi
      (fun i t -> make_request Compile (Printf.sprintf "warm-%d" i) t)
      (Array.append cold_targets hot_targets)
  in
  let answers = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      let resp, _ = Singe.Serve.handle_line state r.line in
      (match check_response r ~expected_replay:None resp with
      | Ok () -> ()
      | Error e -> failwith ("serve warm-up: " ^ e));
      Hashtbl.replace answers r.line resp)
    warm;
  (* Hot runs plus a cold run, four side requests, two replays and two
     expected errors. *)
  let per_round = Array.length hot_targets + 9 in
  let rounds = rounds_for ~seconds ~ops_per_s:90. ~per_round in
  let n_hot = Array.length hot_targets in
  let side = shuffle rng (Array.init n_hot Fun.id) in
  let side_pos = ref 0 in
  let next_side () =
    let t = hot_targets.(side.(!side_pos mod n_hot)) in
    incr side_pos;
    t
  in
  let previous = ref (Array.to_list warm) in
  let seq =
    List.init rounds (fun r ->
        let id j = Printf.sprintf "s%d-r%d-%d" seed r j in
        let runs = Array.to_list (Array.mapi (fun j t -> make_request Run (id j) t) hot_targets) in
        let cold = make_request Run (id 100) cold_targets.(r mod Array.length cold_targets) in
        let sides =
          [
            make_request Predict (id 101) (next_side ());
            make_request Predict (id 102) (next_side ());
            make_request Compile (id 103) (next_side ());
            make_request Compile (id 104) (next_side ());
          ]
        in
        let prev = Array.of_list !previous in
        let replays =
          List.init 2 (fun _ ->
              let o = prev.(Random.State.int rng (Array.length prev)) in
              { o with kind = Replay; cls = "replay" })
        in
        let bad =
          [
            {
              kind = Malformed;
              cls = "malformed";
              line = Printf.sprintf "{\"kind\":\"run\",\"id\":\"s%d-r%d\",\"mech\":" seed r;
              tgt = None;
            };
            make_request Rejected (id 105) { (next_side ()) with t_warps = 64 };
          ]
        in
        previous := runs @ sides;
        shuffle rng (Array.of_list ((cold :: runs) @ sides @ replays @ bad)))
    |> Array.concat
  in
  let run_cycles = Hashtbl.create 32 in
  let op i =
    let req = seq.(i) in
    let (resp, _), missed =
      with_memo_delta (fun () ->
          with_span ("serve.handle." ^ kind_name req.kind) (fun () ->
              Singe.Serve.handle_line state req.line))
    in
    let expected_replay = if req.kind = Replay then Hashtbl.find_opt answers req.line else None in
    match check_response req ~expected_replay resp with
    | Error e -> Error (Printf.sprintf "%s %s: %s" (kind_name req.kind) req.line e)
    | Ok () ->
        if req.kind <> Replay then Hashtbl.replace answers req.line resp;
        (if req.kind = Run then
           match (req.tgt, Result.to_option (J.parse resp)) with
           | Some t, Some doc ->
               Option.iter
                 (fun c -> Hashtbl.replace run_cycles t c)
                 (Option.bind (field doc "sm_cycles") J.num)
           | _ -> ());
        if !tracing then reissue_layers req ~missed resp;
        Ok ()
  in
  let facts () =
    let targets = Hashtbl.fold (fun t _ acc -> t :: acc) run_cycles [] |> List.sort compare in
    let compiled =
      List.map
        (fun t ->
          let mech, kernel, version, options = resolve t in
          (C.compile_cached mech kernel version options, t))
        targets
    in
    let model_err =
      List.fold_left
        (fun acc (c, t) ->
          let measured = Hashtbl.find run_cycles t in
          let p = Singe.Perf_model.predict c ~total_points:t.Singe.Serve.t_points in
          Float.max acc (Singe.Perf_model.rel_err ~predicted:p.cycles ~measured))
        0. compiled
    in
    [
      ( "code_instrs_geomean",
        geomean (List.map (fun ((c : C.t), _) -> instrs c.lowered.program) compiled) );
      ( "kernel_cycles_geomean",
        geomean (List.map (fun t -> Hashtbl.find run_cycles t) targets) );
      ("model_err_max", model_err);
      ("winner_cycles_geomean", geomean (reference_winners ()));
    ]
  in
  { op_class = Array.map (fun r -> r.cls) seq; op; facts }

(* -- partition-search -- *)

(* Warp-specialized targets whose warm (all-hit) model-only search costs
   roughly 20-130 ms; the stencil ones on dme and heptane make the memo
   key marshal a large mechanism for a cheap compile. An odd count keeps
   the median op inside one target's cost instead of on the boundary
   between two. *)
let search_targets =
  [|
    ("hydrogen", "viscosity", 4);
    ("hydrogen", "diffusion", 4);
    ("hydrogen", "chemistry", 4);
    ("hydrogen", "edge3", 8);
    ("hydrogen", "unsharp2", 8);
    ("dme", "edge3", 4);
    ("heptane", "unsharp2", 4);
    ("dme", "conductivity", 4);
    ("hydrogen", "conductivity", 8);
  |]

let search_points = 32768

let outcome_digest (o : Singe.Partition_search.outcome) =
  Digest.string
    (Marshal.to_string
       ( o.winner,
         o.winner_spec,
         o.hand_cycles,
         o.winner_cycles,
         o.searched,
         o.gated,
         List.map
           (fun (r : Singe.Partition_search.rejection) ->
             (r.rej_options, Singe.Diagnostics.to_string r.rej_diag))
           o.rejections,
         o.simulated,
         o.confirmed )
       [])

(* The search's three phases re-issued from here: propose, score every
   candidate (memo lookup + model), gate the model's top picks. *)
let reissue_search mech kernel base (hand : C.t) =
  let cands =
    with_span "partition.propose" (fun () ->
        Singe.Partition_search.candidate_options base hand.dfg)
  in
  let scored =
    with_span "partition.score" (fun () ->
        List.filter_map
          (fun options ->
            (* Like the search, a candidate whose compile or occupancy
               fails drops out of the ranking. *)
            match traced_lookup mech kernel C.Warp_specialized options with
            | Ok c -> (
                try Some (c, predict c ~total_points:search_points) with _ -> None)
            | Error _ -> None)
          cands)
  in
  let ranked =
    List.stable_sort
      (fun (_, (a : Singe.Perf_model.prediction)) (_, b) -> compare a.cycles b.cycles)
      scored
  in
  List.iteri
    (fun i (c, _) ->
      if i < Singe.Partition_search.default_top_k then begin
        counters.gates <- counters.gates + 1;
        match with_span "partition.gate" (fun () -> Singe.Partition_search.gate c) with
        | Ok () -> counters.gate_passes <- counters.gate_passes + 1
        | Error _ -> ()
      end)
    ranked

let partition_search ~seed ~seconds =
  (* Every candidate of every target stays resident: ops only hit. *)
  C.set_memo_limit 100_000;
  let rng = Random.State.make [| seed |] in
  let prepared =
    Array.map
      (fun (m, k, w) ->
        let mech = generated_mech m and kernel = kernel_of k in
        let base = options_for kernel w in
        match
          Singe.Partition_search.search ~jobs:1 ~simulate:false mech kernel
            C.Warp_specialized ~base ()
        with
        | Ok o -> (mech, kernel, base, o, outcome_digest o)
        | Error d -> failwith ("partition set-up: " ^ Singe.Diagnostics.to_string d))
      search_targets
  in
  let n = Array.length search_targets in
  let rounds = rounds_for ~seconds ~ops_per_s:20. ~per_round:n in
  let seq = seeded_rounds rng ~rounds (Array.init n Fun.id) in
  let op i =
    let mech, kernel, base, _, digest = prepared.(seq.(i)) in
    let m, k, w = search_targets.(seq.(i)) in
    let what = Printf.sprintf "%s/%s/w%d" m k w in
    let r, _ =
      with_memo_delta (fun () ->
          with_span "partition.search" (fun () ->
              Singe.Partition_search.search ~jobs:1 ~simulate:false mech kernel
                C.Warp_specialized ~base ()))
    in
    match r with
    | Error d -> Error (what ^ ": " ^ Singe.Diagnostics.to_string d)
    | Ok o ->
        counters.searched <- counters.searched + o.searched;
        counters.gated <- counters.gated + o.gated;
        counters.rejected <- counters.rejected + List.length o.rejections;
        if !tracing then
          reissue_search mech kernel
            { base with C.partition = C.Partition_hand }
            (C.compile_cached mech kernel C.Warp_specialized base);
        if not (o.winner_cycles <= o.hand_cycles) then
          Error (what ^ ": winner slower than the hand partition")
        else if outcome_digest o <> digest then
          Error (what ^ ": outcome differs from the set-up search")
        else Ok ()
  in
  let facts () =
    let winners =
      Array.to_list
        (Array.map
           (fun (mech, kernel, _, (o : Singe.Partition_search.outcome), _) ->
             (C.compile_cached mech kernel C.Warp_specialized o.winner, 2048))
           prepared)
    in
    ( "code_instrs_geomean",
      geomean (List.map (fun ((c : C.t), _) -> instrs c.lowered.program) winners) )
    :: kernel_metrics (kernel_facts winners)
    @ [
        ( "winner_cycles_geomean",
          geomean
            (Array.to_list
               (Array.map
                  (fun (_, _, _, (o : Singe.Partition_search.outcome), _) ->
                    o.winner_cycles)
                  prepared)) );
      ]
  in
  { op_class = Array.map string_of_int seq; op; facts }

let workloads =
  [
    ("compile-cold", compile_cold);
    ("serve-warm", serve_warm);
    ("partition-search", partition_search);
  ]

(* ---- the run ---- *)

module Int_map = Map.Make (Int)

(* The host is shared, and its speed drifts: for seconds or minutes at a
   time the same work runs up to 1.6x slower. Each run therefore also
   times this fixed calibration loop (stdlib hashing, maps and sorting,
   allocating like the compiler does, and a float stencil; no singe
   code) every [calibrate_every_ns], and scales its end-to-end timings
   to a host on which the loop takes [calibration_ref_ms]. Layer timings
   of the traced run stay unscaled. *)
let calibration_ref_ms = 5.0
let calibrate_every_ns = 100_000_000L

let calibrate () =
  let t0 = now_ns () in
  let h = Hashtbl.create 16 in
  for i = 0 to 9_999 do
    Hashtbl.replace h ((i * 7919) land 65535) (Array.make 8 (float_of_int i))
  done;
  let acc = ref 0. in
  for i = 0 to 19_999 do
    match Hashtbl.find_opt h ((i * 40503) land 65535) with
    | Some a -> acc := !acc +. a.(i land 7)
    | None -> ()
  done;
  let m = ref Int_map.empty in
  for i = 0 to 2499 do
    m := Int_map.add ((i * 7919) land 8191) (float_of_int i) !m
  done;
  let l = List.sort compare (List.init 5_000 (fun i -> (i * 40503) land 65535)) in
  let v = Array.init 2048 float_of_int and w = Array.make 2048 0. in
  let branchy = ref 0 in
  for r = 1 to 300 do
    for i = 1 to 2046 do
      w.(i) <- (0.25 *. v.(i - 1)) +. (0.5 *. v.(i)) +. (0.25 *. v.(i + 1));
      if (i + r) land 3 = 0 then incr branchy else branchy := !branchy lxor i
    done;
    Array.blit w 1 v 1 2046
  done;
  ignore (Sys.opaque_identity (!acc, !m, l, v, !branchy));
  ms_between t0 (now_ns ())

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let layer_spans =
  [
    ("chem.load", "chem.load_ms");
    ("model.predict", "model.predict_ms");
    ("memo.hit", "memo.hit_ms");
    ("memo.miss", "memo.miss_ms");
    ("partition.propose", "partition.propose_ms");
    ("partition.score", "partition.score_ms");
    ("partition.gate", "partition.gate_ms");
    ("sim.run", "sim.run_ms");
    ("oracle.check", "oracle.check_ms");
    ("serve.parse", "serve.parse_ms");
    ("serve.handle.run", "serve.handle_ms.run");
    ("serve.handle.predict", "serve.handle_ms.predict");
    ("serve.handle.compile", "serve.handle_ms.compile");
    ("serve.handle.replay", "serve.handle_ms.replay");
    ("serve.handle.error", "serve.handle_ms.error");
    ("serve.json_check", "serve.json_check_ms");
  ]

let transform_passes = [ "dfg-build"; "mapping"; "schedule"; "synth-exchange"; "lower" ]
let validate_passes = [ "dfg-validate"; "mapping-validate"; "schedule-validate"; "lower-validate" ]

(* Per-layer figures of a traced run: mean duration per call of each
   layer span (all leaves except partition.score, which includes its
   memo lookups and predictions), counts, and ratios. A layer the
   workload never enters reads 0. *)
let layer_metrics (all : span array) =
  let dur name =
    Array.fold_left
      (fun (n, t) s -> if s.sp_name = name then (n + 1, t +. ms_between s.sp_start s.sp_end) else (n, t))
      (0, 0.) all
  in
  let mean (n, t) = if n = 0 then 0. else t /. float_of_int n in
  let per_compile ns =
    if counters.compiles = 0 then 0. else ns /. 1e6 /. float_of_int counters.compiles
  in
  let pass_ms p = per_compile (Option.value ~default:0. (List.assoc_opt p counters.pass_ns)) in
  let pass_runs p =
    if counters.compiles = 0 then 0.
    else
      float_of_int (Option.value ~default:0 (List.assoc_opt p counters.pass_runs))
      /. float_of_int counters.compiles
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let _, sim_ms = dur "sim.run" in
  List.map (fun (span, metric) -> (metric, mean (dur span))) layer_spans
  @ List.map (fun p -> ("pass." ^ p ^ "_ms", pass_ms p)) transform_passes
  @ [
      ("pass.validate_ms", List.fold_left (fun a p -> a +. pass_ms p) 0. validate_passes);
      ("pass.deadlock-check_ms", pass_ms "deadlock-check");
      ("pass.schedule_runs", pass_runs "schedule");
      ("pass.lower_runs", pass_runs "lower");
      ("model.predicts", float_of_int (fst (dur "model.predict")));
      ("memo.hits", float_of_int counters.memo_hits);
      ("memo.misses", float_of_int counters.memo_misses);
      ("memo.evictions", float_of_int counters.memo_evictions);
      ("memo.hit_ratio", ratio counters.memo_hits (counters.memo_hits + counters.memo_misses));
      ("partition.searched", float_of_int counters.searched);
      ("partition.gated", float_of_int counters.gated);
      ("partition.rejected", float_of_int counters.rejected);
      ("partition.gate_pass_ratio", ratio counters.gate_passes counters.gates);
      ( "sim.cycles_per_host_s",
        if sim_ms = 0. then 0. else counters.sim_cycles /. (sim_ms /. 1e3) );
      ("sim.simulated_points_share", ratio counters.sim_points counters.total_points);
    ]

let write_spans path =
  let all = Array.of_list (List.rev !spans) in
  let self = self_times all in
  let text = J.emit (spans_json all self) in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  (* Read the file back: it must be one valid JSON document, and no
     span may have negative self time. *)
  let ok =
    Sutil.Json_check.validate (read_file path) = Ok ()
    && Array.for_all (fun t -> Int64.compare t 0L >= 0) self
  in
  (all, ok)

let main () =
  check_environment ();
  Sutil.Domain_pool.set_jobs 1;
  let workload = ref "" and seed = ref 0 and seconds = ref 10 in
  let trace = ref 0 and setup_only = ref false and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op sequence");
      ("--seconds", Arg.Set_int seconds, "S nominal run length (sizes the op count)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--setup-only", Arg.Set setup_only, " time set-up only");
      ("--spans", Arg.Set_string spans_out, "FILE where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let setup =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (expected %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  (* Calibration samples, and the GC work they did (kept out of the GC
     metrics). *)
  let cals = ref [] and cal_words = ref 0. and cal_majors = ref 0 in
  let calibrate_now () =
    let w = Gc.minor_words () and m = (Gc.quick_stat ()).major_collections in
    cals := calibrate () :: !cals;
    cal_words := !cal_words +. Gc.minor_words () -. w;
    cal_majors := !cal_majors + (Gc.quick_stat ()).major_collections - m
  in
  let median_of l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let scale () = calibration_ref_ms /. median_of !cals in
  let emit fields = print_endline (J.emit (J.Obj fields)) in
  let num v = if Float.is_finite v then J.Num v else J.Null in
  let t0 = now_ns () in
  let p = setup ~seed:!seed ~seconds:(max 1 !seconds) in
  let setup_s = ms_between t0 (now_ns ()) /. 1e3 in
  if !setup_only then begin
    for _ = 1 to 10 do calibrate_now () done;
    emit [ ("setup_s", num (setup_s *. scale ())) ]
  end
  else begin
    tracing := !trace = 1;
    let n = Array.length p.op_class in
    let lat = Array.make n 0. in
    let failures = ref [] in
    let gc0 = Gc.quick_stat () in
    let last_cal = ref 0L in
    let cal_at = Array.make n 0 in
    for i = 0 to n - 1 do
      current_op := i;
      if Int64.sub (now_ns ()) !last_cal >= calibrate_every_ns then begin
        calibrate_now ();
        last_cal := now_ns ()
      end;
      cal_at.(i) <- List.length !cals - 1;
      let a = now_ns () in
      let r =
        try with_span "op" (fun () -> p.op i)
        with e -> Error ("raised " ^ Printexc.to_string e)
      in
      lat.(i) <- ms_between a (now_ns ());
      match r with Ok () -> () | Error e -> failures := e :: !failures
    done;
    let gc1 = Gc.quick_stat () in
    tracing := false;
    let facts = p.facts () in
    (* Each op's latency is scaled by the median of the five calibration
       samples nearest it in time, so a slow spell inside the run scales
       the ops it slowed; the percentiles are over these scaled
       latencies. For throughput each op is charged the median scaled
       latency of its class (identical work, repeated every round), which
       also discounts the spells calibration misses. *)
    let chrono = Array.of_list (List.rev !cals) in
    let nc = Array.length chrono in
    let local j =
      let lo = max 0 (min (j - 2) (nc - 5)) in
      calibration_ref_ms
      /. median_of (Array.to_list (Array.sub chrono lo (min 5 nc)))
    in
    let scaled = Array.mapi (fun i l -> l *. local cal_at.(i)) lat in
    let samples = Hashtbl.create 64 in
    Array.iteri
      (fun i c ->
        Hashtbl.replace samples c
          (scaled.(i) :: Option.value ~default:[] (Hashtbl.find_opt samples c)))
      p.op_class;
    let medians = Hashtbl.create 64 in
    Hashtbl.iter
      (fun c l ->
        let a = Array.of_list l in
        Array.sort compare a;
        let k = Array.length a in
        Hashtbl.replace medians c ((a.((k - 1) / 2) +. a.(k / 2)) /. 2.))
      samples;
    let k = scale () in
    let cost = Array.map (Hashtbl.find medians) p.op_class in
    Array.sort compare scaled;
    let ops = float_of_int n in
    let base =
      [
        ("setup_s", setup_s *. k);
        ("ops_per_s", ops /. (Array.fold_left ( +. ) 0. cost /. 1e3));
        ("op_ms_p50", percentile scaled 0.5);
        ("op_ms_p90", percentile scaled 0.9);
        ( "gc.minor_mwords_per_op",
          (gc1.minor_words -. gc0.minor_words -. !cal_words) /. 1e6 /. ops );
        ( "gc.major_collections_per_op",
          float_of_int (gc1.major_collections - gc0.major_collections - !cal_majors)
          /. ops );
        ("calibration_ms", calibration_ref_ms /. k);
      ]
      @ facts
    in
    let layers, spans_ok =
      if !trace = 1 then begin
        let path = if !spans_out = "" then "perfbench-spans.json" else !spans_out in
        let all, ok = write_spans path in
        (layer_metrics all, ok)
      end
      else ([], true)
    in
    let failed = List.length !failures in
    emit
      [
        ("correct", J.Bool (failed = 0 && spans_ok));
        ("attempted", J.Num ops);
        ("failed", J.Num (float_of_int failed));
        ("spans_ok", J.Bool spans_ok);
        ( "failures",
          J.List (List.filteri (fun i _ -> i < 5) (List.rev_map (fun e -> J.Str e) !failures)) );
        ("metrics", J.Obj (List.map (fun (k, v) -> (k, num v)) (base @ layers)));
      ]
  end

let () = main ()
