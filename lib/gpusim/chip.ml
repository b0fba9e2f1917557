(* Full-chip simulation: N per-SM simulations under a chip-level
   scheduler. The single-SM event-heap core ([Sm.run]) is reused
   unchanged as the per-SM engine; this layer adds the CTA dispatcher,
   the shared L2/DRAM bandwidth arbiter, and per-SM clock skew.

   Because every SM executes identical code on identically-shaped data
   (simulated cycles and counters never depend on float memory
   contents), only the *distinct round shapes* need cycle-accurate
   simulation: a full round of [resident] CTAs and, when the grid does
   not divide evenly, one tail round of [ctas mod resident] CTAs. The
   dispatcher then replays those shapes across SMs in a deterministic
   fluid event loop. *)

type launch = {
  program : Isa.program;
  total_points : int;
  ctas : int;
}

type occupancy = {
  resident_ctas : int;
  limited_by : string;
  warps_per_sm : int;
}

type reject_kind =
  | Regs_per_thread of { regs32 : int; limit : int }
  | Does_not_fit of { limited_by : string }

type reject = { program : string; arch : string; kind : reject_kind }

exception Occupancy_rejected of reject

let reject_message r =
  match r.kind with
  | Regs_per_thread { regs32; limit } ->
      Printf.sprintf
        "%s: %d registers per thread exceeds the %d limit on %s (the \
         compiler should have spilled)"
        r.program regs32 limit r.arch
  | Does_not_fit { limited_by } ->
      Printf.sprintf "%s does not fit on %s (limited by %s)" r.program r.arch
        limited_by

let () =
  Printexc.register_printer (function
    | Occupancy_rejected r -> Some ("occupancy rejected: " ^ reject_message r)
    | _ -> None)

let occupancy (arch : Arch.t) (p : Isa.program) =
  let regs32 = Isa.regs32_per_thread p in
  if regs32 > arch.Arch.max_regs_per_thread then
    raise
      (Occupancy_rejected
         {
           program = p.Isa.name;
           arch = arch.Arch.name;
           kind =
             Regs_per_thread
               { regs32; limit = arch.Arch.max_regs_per_thread };
         });
  let threads_per_cta = p.Isa.n_warps * 32 in
  let by_regs = arch.Arch.regfile_per_sm / max 1 (regs32 * threads_per_cta) in
  let shared_bytes = p.Isa.shared_doubles * 8 in
  let by_shared =
    if shared_bytes = 0 then max_int else arch.Arch.shared_bytes_per_sm / shared_bytes
  in
  let by_warps = arch.Arch.max_warps_per_sm / p.Isa.n_warps in
  let by_bars =
    if p.Isa.barriers_used = 0 then max_int
    else arch.Arch.named_barriers_per_sm / p.Isa.barriers_used
  in
  let limits =
    [
      ("registers", by_regs);
      ("shared memory", by_shared);
      ("warp slots", by_warps);
      ("named barriers", by_bars);
      ("CTA slots", arch.Arch.max_ctas_per_sm);
    ]
  in
  let limited_by, resident =
    List.fold_left
      (fun (ln, lv) (n, v) -> if v < lv then (n, v) else (ln, lv))
      ("CTA slots", arch.Arch.max_ctas_per_sm)
      limits
  in
  if resident < 1 then
    raise
      (Occupancy_rejected
         {
           program = p.Isa.name;
           arch = arch.Arch.name;
           kind = Does_not_fit { limited_by };
         });
  {
    resident_ctas = resident;
    limited_by;
    warps_per_sm = resident * p.Isa.n_warps;
  }

let points_per_cta (l : launch) =
  assert (l.total_points mod l.ctas = 0);
  l.total_points / l.ctas

let batches_per_cta (l : launch) =
  let per_batch =
    match l.program.Isa.point_map with
    | Isa.Coop -> 32
    | Isa.Thread_per_point -> l.program.Isa.n_warps * 32
  in
  let ppc = points_per_cta l in
  assert (ppc mod per_batch = 0);
  ppc / per_batch

(* ------------------------------------------------------------------ *)
(* Chip-level scheduler: greedy CTA dispatch + fluid bandwidth arbiter *)
(* ------------------------------------------------------------------ *)

type sm_stat = {
  sm_ctas : int;
  sm_rounds : int;
  sm_finish : float;
  sm_busy : float;
}

type contention = {
  dram_peak_bpc : float;
  demand_peak_bpc : float;
  throttle_max : float;
  dram_util : float;
  spill_in_l2 : bool;
}

type schedule = {
  sms : sm_stat array;
  contention : contention;
  makespan_cycles : float;
  tail_ctas : int;
  rounds_total : int;
  n_sms : int;
  skew : float;
}

(* [Float.max] and [Float.min], bit for bit. A strict comparison settles
   distinct non-NaN operands as the stdlib does; only ties (where the
   sign of zero decides) and NaNs reach the stdlib's out-of-line sign-bit
   tests. Local and [@inline]: a dev build compiles with [-opaque], so a
   helper in another module is called boxed, not inlined. *)
let[@inline] float_max (x : float) (y : float) =
  if x > y then x else if y > x then y else Float.max x y

let[@inline] float_min (x : float) (y : float) =
  if x < y then x else if y < x then y else Float.min x y

let clock_factor ~n_sms ~skew i =
  if n_sms <= 1 then 1.0
  else 1.0 +. (skew *. ((float_of_int i /. float_of_int (n_sms - 1)) -. 0.5))

let schedule ~n_sms ~skew ~resident ~ctas ~round_cycles ~round_dram_bytes
    ~dram_peak_bpc ~spill_in_l2 =
  if n_sms < 1 then invalid_arg "Chip.schedule: n_sms must be >= 1";
  if resident < 1 then invalid_arg "Chip.schedule: resident must be >= 1";
  if Float.abs skew >= 2.0 then
    invalid_arg "Chip.schedule: |skew| must be < 2 (clock factors must stay positive)";
  let remaining = ref ctas in
  let factor = Array.init n_sms (clock_factor ~n_sms ~skew) in
  let rem_cycles = Array.make n_sms 0.0 in
  let rate_bytes = Array.make n_sms 0.0 in
  let ctas_run = Array.make n_sms 0 in
  let rounds = Array.make n_sms 0 in
  let busy = Array.make n_sms 0.0 in
  let finish = Array.make n_sms 0.0 in
  let rounds_total = ref 0 in
  let total_bytes = ref 0.0 in
  (* Greedy pull: a draining SM takes the next [resident] CTAs (or the
     remainder). Iteration is always in SM-id order, so simultaneous
     drains resolve deterministically: the lowest id pulls first. *)
  let pull sm =
    if !remaining > 0 then begin
      let k = min resident !remaining in
      remaining := !remaining - k;
      ctas_run.(sm) <- ctas_run.(sm) + k;
      rounds.(sm) <- rounds.(sm) + 1;
      incr rounds_total;
      let c = round_cycles k in
      let b = round_dram_bytes k in
      rem_cycles.(sm) <- float_max c 1e-9;
      rate_bytes.(sm) <- (if c > 0.0 then b /. c else 0.0);
      total_bytes := !total_bytes +. b
    end
  in
  for i = 0 to n_sms - 1 do
    pull i
  done;
  let now = ref 0.0 in
  let throttle_max = ref 1.0 in
  let demand_peak = ref 0.0 in
  let running = ref true in
  (* Fluid event loop: between round completions every active SM
     progresses at [clock_factor / throttle] nominal round-cycles per
     reference cycle, where the common throttle stretches all memory
     stalls once summed demand exceeds the DRAM budget. Each iteration
     retires at least one round, so the loop runs exactly
     [ceil(ctas/resident)] pulls. *)
  while !running do
    let demand = ref 0.0 in
    let any = ref false in
    for i = 0 to n_sms - 1 do
      if rem_cycles.(i) > 0.0 then begin
        any := true;
        demand := !demand +. (rate_bytes.(i) *. factor.(i))
      end
    done;
    if not !any then running := false
    else begin
      let throttle =
        if dram_peak_bpc > 0.0 then float_max 1.0 (!demand /. dram_peak_bpc)
        else 1.0
      in
      throttle_max := float_max !throttle_max throttle;
      demand_peak := float_max !demand_peak !demand;
      let dt = ref infinity in
      for i = 0 to n_sms - 1 do
        if rem_cycles.(i) > 0.0 then begin
          let rate = factor.(i) /. throttle in
          dt := float_min !dt (rem_cycles.(i) /. rate)
        end
      done;
      let dt = !dt in
      now := !now +. dt;
      for i = 0 to n_sms - 1 do
        if rem_cycles.(i) > 0.0 then begin
          let rate = factor.(i) /. throttle in
          let left = rem_cycles.(i) -. (dt *. rate) in
          busy.(i) <- busy.(i) +. dt;
          if left <= 1e-9 *. (1.0 +. rem_cycles.(i)) then begin
            rem_cycles.(i) <- 0.0;
            finish.(i) <- !now;
            pull i
          end
          else rem_cycles.(i) <- left
        end
      done
    end
  done;
  let makespan = !now in
  let dram_util =
    if makespan > 0.0 && dram_peak_bpc > 0.0 then
      !total_bytes /. (makespan *. dram_peak_bpc)
    else 0.0
  in
  {
    sms =
      Array.init n_sms (fun i ->
          {
            sm_ctas = ctas_run.(i);
            sm_rounds = rounds.(i);
            sm_finish = finish.(i);
            sm_busy = busy.(i);
          });
    contention =
      {
        dram_peak_bpc;
        demand_peak_bpc = !demand_peak;
        throttle_max = !throttle_max;
        dram_util;
        spill_in_l2;
      };
    makespan_cycles = makespan;
    tail_ctas = (if ctas > resident then ctas mod resident else 0);
    rounds_total = !rounds_total;
    n_sms;
    skew;
  }

let cycle_spread s =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun st ->
      if st.sm_ctas > 0 then begin
        lo := Float.min !lo st.sm_finish;
        hi := Float.max !hi st.sm_finish
      end)
    s.sms;
  if !hi > !lo then !hi -. !lo else 0.0

let dispatch_imbalance s =
  let total = Array.fold_left (fun a st -> a + st.sm_ctas) 0 s.sms in
  if total = 0 then 0.0
  else begin
    let mean = float_of_int total /. float_of_int s.n_sms in
    let mx = Array.fold_left (fun a st -> max a st.sm_ctas) 0 s.sms in
    (float_of_int mx /. mean) -. 1.0
  end

(* ------------------------------------------------------------------ *)
(* Whole-launch simulation                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  occ : occupancy;
  waves : float;
  sm_cycles : int;
  time_s : float;
  points_per_sec : float;
  gflops : float;
  dram_gbs : float;
  local_gbs : float;
  sim : Sm.result;
  tail_sim : Sm.result option;
  mem : Memstate.t;
  simulated_points : int;
  chip : schedule;
}

(* Pin-run extrapolation: after the first couple of batches warm the
   caches, the per-batch cost settles into a steady state — but not
   necessarily a constant one: memory phase (e.g. DRAM row alignment
   against the streaming global addresses) can make it alternate with
   the parity of the batch index. The pin run therefore simulates TWO
   batches fewer than the main run, so the difference pins one full
   period of the steady cost, and the caller keeps the remaining
   [batches - sim_batches] even so whole periods extrapolate exactly.
   (Pinning from a 1-batch run instead would average the warm-up
   transient into the body and drift on long launches.) *)
let extrapolate ~batches ~sim_batches ~(sim : Sm.result)
    ~(sim_prev : Sm.result) =
  let body2 = float_of_int (sim.Sm.cycles - sim_prev.Sm.cycles) in
  float_of_int sim.Sm.cycles
  +. (body2 *. float_of_int ((batches - sim_batches) / 2))

(* ---- launch-shape store ----
   A launch shape's simulated cycles, counters and cache stats never
   depend on float values, and its memory is a function of its issue
   order, so one simulation of a shape stands for every later run of it:
   the result is returned again and the order is replayed into the later
   launch's memory (DESIGN §9.1). A store serves one program on one
   architecture, keyed by resident CTAs and simulated batches, and keeps
   the program's replay view, so a launch whose shapes are all stored
   flattens nothing. Callers get copies: a stored result's counters and
   cache stats are mutable records. *)

type store_counters = {
  shapes_stored : int Atomic.t;
  order_bytes_stored : int Atomic.t;
  runs_served : int Atomic.t;
  traces_flattened : int Atomic.t;
}

let store_counters () =
  {
    shapes_stored = Atomic.make 0;
    order_bytes_stored = Atomic.make 0;
    runs_served = Atomic.make 0;
    traces_flattened = Atomic.make 0;
  }

type store = {
  mutex : Mutex.t;
  shapes : (int * int, Sm.result * Sm.order) Hashtbl.t;
  mutable view : Trace.view option;
  counters : store_counters;
}

let create_store counters =
  { mutex = Mutex.create (); shapes = Hashtbl.create 4; view = None; counters }

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let copy_result (r : Sm.result) =
  let i = r.Sm.icache and c = r.Sm.ccache in
  {
    r with
    Sm.counters = { r.Sm.counters with Sm.issued = r.Sm.counters.Sm.issued };
    icache = { i with Caches.Icache.hits = i.Caches.Icache.hits };
    ccache = { c with Caches.Ccache.hits = c.Caches.Ccache.hits };
  }

(* [job] from the store when its shape is there and finishes within the
   budget (a run of [cycles] cycles passes any budget >= [cycles]);
   otherwise simulated on [trace], and stored if it completes. *)
let stored_run s ?max_cycles (job : Sm.job) trace =
  let key = (job.Sm.resident_ctas, job.Sm.batches) in
  let within (r : Sm.result) =
    match max_cycles with None -> true | Some b -> r.Sm.cycles <= b
  in
  match locked s (fun () -> Hashtbl.find_opt s.shapes key) with
  | Some (sim, order) when within sim ->
      Atomic.incr s.counters.runs_served;
      (copy_result sim, order)
  | Some _ | None ->
      let ((sim, order) as fresh) = Sm.run ?max_cycles job (Lazy.force trace) in
      locked s (fun () ->
          if not (Hashtbl.mem s.shapes key) then begin
            Hashtbl.add s.shapes key fresh;
            Atomic.incr s.counters.shapes_stored;
            ignore
              (Atomic.fetch_and_add s.counters.order_bytes_stored
                 (Sm.order_bytes order))
          end);
      (copy_result sim, order)

(* The program's view, built from this launch's trace when it is the
   first to replay. That trace is almost always flattened already: the
   launch that stores a program's first shape replays right after. *)
let stored_view s trace =
  locked s (fun () ->
      match s.view with
      | Some v -> v
      | None ->
          let v = Trace.view (Lazy.force trace) in
          s.view <- Some v;
          v)

let run ?(fill_inputs = fun _ _ -> ()) ?(max_sim_batches = 6) ?(faults = [])
    ?max_cycles ?profile ?n_sms ?skew ?store (arch : Arch.t) (l : launch) =
  let occ = occupancy arch l.program in
  let n_sms = match n_sms with Some n -> n | None -> arch.Arch.n_sms in
  let skew = match skew with Some s -> s | None -> arch.Arch.sm_clock_skew in
  if n_sms < 1 then invalid_arg "Chip.run: n_sms must be >= 1";
  let resident = min occ.resident_ctas l.ctas in
  let batches = batches_per_cta l in
  let per_batch =
    match l.program.Isa.point_map with
    | Isa.Coop -> 32
    | Isa.Thread_per_point -> l.program.Isa.n_warps * 32
  in
  (* The steady-state pin pair needs two batch counts, so extrapolated
     launches always simulate at least two batches; when extrapolating,
     the pin run covers [sim_batches - 2] batches (one full period of a
     possibly parity-alternating steady cost), so the main run needs at
     least three and [batches - sim_batches] must stay even. *)
  let max_sim_batches = max 2 max_sim_batches in
  let sim_batches =
    if batches <= max_sim_batches then batches
    else begin
      let s = max 3 (min batches max_sim_batches) in
      if (batches - s) mod 2 = 0 then s
      else if s - 1 >= 3 then s - 1
      else min batches (s + 1)
    end
  in
  let simulated_points = resident * per_batch * sim_batches in
  let mem =
    Memstate.create l.program ~n_points:simulated_points ~resident_ctas:resident
  in
  fill_inputs mem simulated_points;
  let pin_batches = sim_batches - 2 in
  let pinned = batches > sim_batches in
  let tail = if l.ctas > resident then l.ctas mod resident else 0 in
  (* Flattened only for a simulation, or for the replay of a launch that
     has no stored view: a launch whose shapes and view are all stored
     never forces it. Every flatten of a launch given a store counts,
     faulted and profiled ones too. *)
  let trace =
    lazy
      (Option.iter (fun s -> Atomic.incr s.counters.traces_flattened) store;
       Fault.apply ~named_barriers:arch.Arch.named_barriers_per_sm faults
         (Trace.flatten arch l.program))
  in
  let job_of ~resident_ctas ~batches =
    {
      Sm.arch;
      program = l.program;
      resident_ctas;
      batches;
      cta_point_base =
        Array.init resident_ctas (fun c -> c * per_batch * batches);
    }
  in
  (* A clean, unprofiled launch takes each shape and the view from the
     store. *)
  let shapes = if faults = [] && profile = None then store else None in
  let simulate ?profile job =
    match shapes with
    | Some s -> stored_run s ?max_cycles job trace
    | None -> Sm.run ?max_cycles ?profile job (Lazy.force trace)
  in
  (* The profiler rides only the main simulation, and only its order is
     replayed: the pin and tail runs' outputs would be discarded. A
     launch without the store replays its own trace, faults included. *)
  let main = job_of ~resident_ctas:resident ~batches:sim_batches in
  let sim, order = simulate ?profile main in
  let view =
    match shapes with
    | Some s -> stored_view s trace
    | None -> Trace.view (Lazy.force trace)
  in
  Sm.replay main view mem order;
  (* The full-round cycles of [resident_ctas] CTAs, extrapolated from a
     pin run when the launch streams more batches. *)
  let extrapolated ~resident_ctas (s : Sm.result) =
    if not pinned then float_of_int s.Sm.cycles
    else
      let sim_prev, _ = simulate (job_of ~resident_ctas ~batches:pin_batches) in
      extrapolate ~batches ~sim_batches ~sim:s ~sim_prev
  in
  let cycles_full = extrapolated ~resident_ctas:resident sim in
  let tail_sim =
    if tail = 0 then None
    else Some (fst (simulate (job_of ~resident_ctas:tail ~batches:sim_batches)))
  in
  let tail_cycles_full =
    match tail_sim with
    | None -> 0.0
    | Some ts -> extrapolated ~resident_ctas:tail ts
  in
  (* Shared-resource model: spill (local-memory) traffic is
     re-referenced every batch, so when the aggregate spill working set
     fits in L2 it is served there and never reaches DRAM; tex/global
     streaming traffic is all compulsory misses and always counts. *)
  let spill_working_set =
    n_sms * resident * l.program.Isa.n_warps * 32
    * l.program.Isa.local_doubles * 8
  in
  let spill_in_l2 =
    l.program.Isa.local_doubles > 0 && spill_working_set <= arch.Arch.l2_bytes
  in
  let batch_scale = float_of_int batches /. float_of_int sim_batches in
  let dram_bytes_of (s : Sm.result) =
    let c = s.Sm.counters in
    let b = c.Sm.tex_bytes + c.Sm.global_bytes in
    let b = if spill_in_l2 then b else b + c.Sm.local_bytes in
    float_of_int b *. batch_scale
  in
  let main_round_bytes = dram_bytes_of sim in
  let tail_round_bytes =
    match tail_sim with Some ts -> dram_bytes_of ts | None -> 0.0
  in
  let round_cycles k = if k = resident then cycles_full else tail_cycles_full in
  let round_dram_bytes k =
    if k = resident then main_round_bytes else tail_round_bytes
  in
  let sched =
    schedule ~n_sms ~skew ~resident ~ctas:l.ctas ~round_cycles
      ~round_dram_bytes
      ~dram_peak_bpc:(Arch.dram_bytes_per_chip_cycle arch)
      ~spill_in_l2
  in
  let waves =
    Float.max (float_of_int l.ctas /. float_of_int (resident * n_sms)) 1.0
  in
  let time_s = sched.makespan_cycles /. (arch.Arch.clock_mhz *. 1e6) in
  let points_per_sec = float_of_int l.total_points /. time_s in
  (* The simulated SM-round covers [resident * per_batch * sim_batches]
     points; totals extrapolate by the point ratio (flops and bytes are
     proportional to points across every round, tail included). *)
  let scale = float_of_int l.total_points /. float_of_int simulated_points in
  let gflops =
    float_of_int sim.Sm.counters.Sm.flops *. scale /. time_s /. 1e9
  in
  let bytes path = float_of_int path *. scale /. time_s /. 1e9 in
  let dram_gbs =
    bytes
      (sim.Sm.counters.Sm.tex_bytes + sim.Sm.counters.Sm.global_bytes
     + sim.Sm.counters.Sm.local_bytes)
  in
  let local_gbs = bytes sim.Sm.counters.Sm.local_bytes in
  {
    occ;
    waves;
    sm_cycles = sim.Sm.cycles;
    time_s;
    points_per_sec;
    gflops;
    dram_gbs;
    local_gbs;
    sim;
    tail_sim;
    mem;
    simulated_points;
    chip = sched;
  }
