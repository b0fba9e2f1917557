module A = Gpusim.Arch
module I = Gpusim.Isa
module T = Gpusim.Trace
module C = Gpusim.Chip
module F = Model_facts

(* Calibration constants. Structure comes from the machine model (pipe
   rates, latencies, cache geometry); these scalars absorb what a static
   walk cannot know — how much dependence latency the lowered code's ILP
   and the warp scheduler actually hide. Calibrated once against the
   simulator on the shipped kernels (DESIGN §12 records the measured
   accuracy); they are not per-kernel knobs. A recalibration after a
   simulator change edits them here. *)

(* Exposed constant-cache fill latency per constant-operand instruction
   once the working set thrashes the 8 KB cache: most accesses then miss,
   but adjacent slots share lines and followers ride in-flight fills, so
   only a fraction of a full trip is exposed per access (the profiler
   measures 30-65 cycles against a 440-cycle fill on the shipped
   mechanisms). *)
let ccache_exposure = 0.15

(* Cold-start fills, paid once per CTA on its first batch: every warp
   marches through the same line sequence together, so each stalls for
   roughly every fill it touches (followers wait on in-flight lines). *)
let ccache_cold = 0.5
let icache_cold = 1.0

(* How much of the smaller of the throughput/critical-path terms still
   shows when the other binds: pipes drain while warps sit at barriers,
   so a latency-bound batch hides most (not all) of its pipe work; a
   throughput-bound batch hides none of its per-warp stalls (all warps
   stall together between their turns at the saturated pipe). *)
let sync_overlap = 0.3

(* Fraction of code-refetch fill time that lands on the critical path
   (fills overlap with other warps' execution). *)
let icache_exposure = 0.5

(* Cross-CTA dilution of memory-path contention. Warps of one CTA march
   through their load phases in lockstep and genuinely collide on the
   path, but co-resident CTAs drift apart (staggered launch, divergent
   stalls), so only part of their traffic lands in the same window. The
   original model charged the full pack ([resident * users / 2]), which
   was invisible while every shipped kernel ran at 1-2 resident CTAs;
   the stencil pipelines occupy 4 and exposed the overestimate. *)
let cross_cta_overlap = 0.5

type prediction = {
  occ : C.occupancy;
  resident : int;
  batches : int;
  sim_batches : int;
  prologue_cycles : float;
  batch_cycles : float;
  throughput_cycles : float;
  sync_cycles : float;
  icache_cycles : float;
  binding : string;
  cycles : float;
  floor_cycles : float;
  chip : C.schedule;
  time_s : float;
  points_per_sec : float;
}

(* Accumulated cost of a run of instructions between barrier operations —
   also used (summed over every warp) as the per-batch resource demand.
   Every field is a float (the two counts too) so OCaml stores the record
   flat and the per-entry updates allocate nothing. *)
type seg = {
  mutable instrs : float;  (* issue slots; also the warp's 1-IPC floor *)
  mutable dp : float;  (* DP slots, constant-operand penalty applied *)
  mutable alu : float;
  mutable lsu : float;
  mutable shared : float;  (* shared-pipe slots *)
  mutable chain : float;  (* arith+shared dependence latency, serial sum *)
  mutable loads : float;  (* global-latency loads (global/local/const/param) *)
  mutable n_const : float;  (* instructions with constant-memory operands *)
  mutable tex_b : float;
  mutable glob_b : float;
  mutable loc_b : float;
}

let seg_zero () =
  {
    instrs = 0.0;
    dp = 0.0;
    alu = 0.0;
    lsu = 0.0;
    shared = 0.0;
    chain = 0.0;
    loads = 0.0;
    n_const = 0.0;
    tex_b = 0.0;
    glob_b = 0.0;
    loc_b = 0.0;
  }

let seg_add_into ~(dst : seg) (s : seg) =
  dst.instrs <- dst.instrs +. s.instrs;
  dst.dp <- dst.dp +. s.dp;
  dst.alu <- dst.alu +. s.alu;
  dst.lsu <- dst.lsu +. s.lsu;
  dst.shared <- dst.shared +. s.shared;
  dst.chain <- dst.chain +. s.chain;
  dst.loads <- dst.loads +. s.loads;
  dst.n_const <- dst.n_const +. s.n_const;
  dst.tex_b <- dst.tex_b +. s.tex_b;
  dst.glob_b <- dst.glob_b +. s.glob_b;
  dst.loc_b <- dst.loc_b +. s.loc_b

let active_lanes = function
  | None -> 32
  | Some (I.Lane_eq _) -> 1
  | Some (I.Lane_lt n) -> n

(* DP-slot multiplier of an arith op: constant operands (and Exp/Log's
   polynomial constants, unless held in registers) go through the
   operand-collector penalty. *)
let[@inline] arith_penalty (arch : A.t) (p : I.program) (e : T.entry) op =
  if
    e.T.has_const
    || ((op = I.Exp || op = I.Log) && not p.I.exp_consts_in_registers)
  then arch.A.const_operand_penalty
  else 1.0

(* Mirror the simulator's issue-path charging for one trace entry
   (pipe slots, result latencies, bytes on each memory path). *)
let charge (arch : A.t) (p : I.program) (s : seg) (e : T.entry) =
  s.instrs <- s.instrs +. 1.0;
  if e.T.has_const then s.n_const <- s.n_const +. 1.0;
  match e.T.instr with
  | None -> s.alu <- s.alu +. 1.0 (* synthetic warp-id branch *)
  | Some instr -> (
      match instr with
      | I.Arith { op; _ } ->
          s.dp <- s.dp +. (e.T.dp_slots *. arith_penalty arch p e op);
          s.chain <-
            s.chain +. float_of_int (arch.A.arith_latency * e.T.lat_mult);
          let n_shared = Array.length e.T.shared_srcs in
          if n_shared > 0 then begin
            if not arch.A.shared_operand_collector then
              s.shared <- s.shared +. float_of_int n_shared;
            s.chain <- s.chain +. float_of_int arch.A.shared_latency
          end
      | I.Mov { src; _ } ->
          s.alu <- s.alu +. 1.0;
          s.chain <- s.chain +. float_of_int arch.A.arith_latency;
          if match src with I.Sshared _ -> true | _ -> false then begin
            s.shared <- s.shared +. 1.0;
            s.chain <- s.chain +. float_of_int arch.A.shared_latency
          end
      | I.Ld_global { via_tex; _ } ->
          s.lsu <- s.lsu +. 1.0;
          s.loads <- s.loads +. 1.0;
          let bytes = 8.0 *. 32.0 in
          if via_tex && arch.A.has_ldg then s.tex_b <- s.tex_b +. bytes
          else s.glob_b <- s.glob_b +. bytes
      | I.St_global { pred; _ } ->
          s.lsu <- s.lsu +. 1.0;
          s.glob_b <- s.glob_b +. (8.0 *. float_of_int (active_lanes pred))
      | I.Ld_shared _ ->
          s.lsu <- s.lsu +. 1.0;
          s.shared <- s.shared +. 1.0;
          s.chain <- s.chain +. float_of_int arch.A.shared_latency
      | I.St_shared _ ->
          s.lsu <- s.lsu +. 1.0;
          s.shared <- s.shared +. 1.0
      | I.Ld_local _ ->
          s.lsu <- s.lsu +. 1.0;
          s.loads <- s.loads +. 1.0;
          s.loc_b <- s.loc_b +. (8.0 *. 32.0)
      | I.St_local _ ->
          s.lsu <- s.lsu +. 1.0;
          s.loc_b <- s.loc_b +. (8.0 *. 32.0)
      | I.Ld_const_bank _ ->
          s.lsu <- s.lsu +. 1.0;
          s.loads <- s.loads +. 1.0;
          let bytes = 8.0 *. 32.0 in
          if arch.A.has_ldg then s.tex_b <- s.tex_b +. bytes
          else s.glob_b <- s.glob_b +. bytes
      | I.Ld_param _ ->
          s.lsu <- s.lsu +. 1.0;
          s.loads <- s.loads +. 1.0;
          let bytes = 4.0 *. 32.0 in
          if arch.A.has_ldg then s.tex_b <- s.tex_b +. bytes
          else s.glob_b <- s.glob_b +. bytes
      | I.Shfl _ | I.Shfl_rot _ | I.Shfl_bfly _ ->
          s.alu <- s.alu +. 2.0;
          s.chain <- s.chain +. float_of_int arch.A.arith_latency
      | I.Ishfl _ ->
          s.alu <- s.alu +. 1.0;
          s.chain <- s.chain +. float_of_int arch.A.arith_latency
      | I.Bar_arrive _ | I.Bar_sync _ | I.Bar_cta -> s.alu <- s.alu +. 1.0)

(* Per-warp abstract scoreboard: the simulator's in-order issue
   discipline (issue at [max(prev + 1, operands ready, own pipe free)])
   with the warp's own pipe serialization, dependence latencies, and
   memory-path backlog — but no cross-warp contention, which is the
   throughput term's job. This is what turns the lowered code's actual
   ILP into exposed stall cycles instead of guessing an exposure
   scalar. The clocks are an all-float record (stored flat, so updating
   them allocates nothing); the register scoreboards are float arrays. *)
type clocks = {
  mutable clk : float;  (* this warp's issue clock *)
  mutable seg_start : float;  (* [clk] when the current segment began *)
  mutable dp_free : float;  (* own next-issue time per pipe *)
  mutable alu_free : float;
  mutable lsu_free : float;
  mutable sh_free : float;
}

type walk = {
  freg : float array;  (* result-ready time per double register *)
  ireg : float array;
  drain : float array;  (* own backlog per memory path *)
  c : clocks;
}

let walk_make (p : I.program) =
  {
    freg = Array.make (max 1 p.I.n_fregs) 0.0;
    ireg = Array.make (max 1 p.I.n_iregs) 0.0;
    drain = Array.make 3 0.0;
    c =
      {
        clk = 0.0;
        seg_start = 0.0;
        dp_free = 0.0;
        alu_free = 0.0;
        lsu_free = 0.0;
        sh_free = 0.0;
      };
  }

(* Per-walk constants of [walk_step]: each memory path's transfer rate
   under its queueing pressure, and the per-access constant-cache stall
   charged once the working set thrashes. *)
type walk_rates = {
  rate : float array;  (* bytes per cycle, per memory path *)
  lat : float;
  thrash : bool;
  cc_stall : float;
}

(* Queueing pressure per memory path: with S co-resident warps feeding a
   path, an access waits on average behind half the pack's concurrent
   transfers (the full simulator keeps one shared drain per path).
   [users] counts one CTA's warps on each path. *)
let walk_rates (arch : A.t) ~(users : F.path_users) ~resident ~ccache_thrash =
  let mult n =
    let own = float_of_int n in
    let others = cross_cta_overlap *. own *. float_of_int (resident - 1) in
    Float.max 1.0 ((own +. others) /. 2.0)
  in
  {
    rate =
      [|
        arch.A.tex_bytes_per_cycle /. mult users.F.on_tex;
        arch.A.global_bytes_per_cycle /. mult users.F.on_glob;
        arch.A.local_bytes_per_cycle /. mult users.F.on_loc;
      |];
    lat = float_of_int arch.A.global_latency;
    thrash = ccache_thrash;
    cc_stall = ccache_exposure *. float_of_int arch.A.global_latency;
  }

(* Pipe gate mirrors [pipe_free]: issue once the pipe's backlog is under a
   cycle; the caller deepens the pipe to the returned time. *)
let[@inline] gate c free slots rate =
  c.clk <- Float.max c.clk (free -. 1.0);
  c.clk +. (slots /. rate)

(* A transfer on memory path [k]: start once the path's own backlog
   drains, deepen it by the transfer, and return the completion delay
   past [clk]. *)
let[@inline] path_done wk (r : walk_rates) k bytes =
  let transfer = bytes /. r.rate.(k) in
  let start = Float.max wk.drain.(k) wk.c.clk in
  wk.drain.(k) <- start +. transfer;
  start +. transfer -. wk.c.clk

let walk_step (arch : A.t) (p : I.program) (r : walk_rates) (wk : walk)
    (e : T.entry) =
  let c = wk.c in
  let ready = ref 0.0 in
  let srcs = e.T.srcs in
  for i = 0 to Array.length srcs - 1 do
    match srcs.(i) with
    | I.Sreg x -> if wk.freg.(x) > !ready then ready := wk.freg.(x)
    | I.Sshared { I.s_ireg = Some x; _ } ->
        if wk.ireg.(x) > !ready then ready := wk.ireg.(x)
    | I.Sshared _ | I.Simm _ | I.Sconst _ | I.Sconst_warp _ -> ()
  done;
  c.clk <- Float.max (c.clk +. 1.0) !ready;
  if r.thrash && e.T.has_const then c.clk <- c.clk +. r.cc_stall;
  match e.T.instr with
  | None -> c.alu_free <- gate c c.alu_free 1.0 arch.A.alu_issue_per_cycle
  | Some instr -> (
      match instr with
      | I.Arith { op; dst; _ } ->
          c.dp_free <-
            gate c c.dp_free
              (e.T.dp_slots *. arith_penalty arch p e op)
              arch.A.dp_issue_per_cycle;
          let n_shared = Array.length e.T.shared_srcs in
          let extra =
            if n_shared > 0 then begin
              if not arch.A.shared_operand_collector then
                c.sh_free <-
                  gate c c.sh_free (float_of_int n_shared)
                    arch.A.shared_issue_per_cycle;
              float_of_int arch.A.shared_latency
            end
            else 0.0
          in
          wk.freg.(dst) <-
            c.clk
            +. float_of_int (arch.A.arith_latency * e.T.lat_mult)
            +. extra
      | I.Mov { dst; src; _ } ->
          c.alu_free <- gate c c.alu_free 1.0 arch.A.alu_issue_per_cycle;
          let extra =
            match src with
            | I.Sshared _ ->
                c.sh_free <- gate c c.sh_free 1.0 arch.A.shared_issue_per_cycle;
                float_of_int arch.A.shared_latency
            | _ -> 0.0
          in
          wk.freg.(dst) <- c.clk +. float_of_int arch.A.arith_latency +. extra
      | I.Ld_global { dst; via_tex; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          let done_in =
            path_done wk r
              (if via_tex && arch.A.has_ldg then F.tex else F.glob)
              256.0
          in
          wk.freg.(dst) <- c.clk +. r.lat +. done_in
      | I.St_global { pred; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          ignore
            (path_done wk r F.glob (8.0 *. float_of_int (active_lanes pred)))
      | I.Ld_shared { dst; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          c.sh_free <- gate c c.sh_free 1.0 arch.A.shared_issue_per_cycle;
          wk.freg.(dst) <- c.clk +. float_of_int arch.A.shared_latency
      | I.St_shared _ ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          c.sh_free <- gate c c.sh_free 1.0 arch.A.shared_issue_per_cycle
      | I.Ld_local { dst; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          let done_in = path_done wk r F.loc 256.0 in
          wk.freg.(dst) <- c.clk +. r.lat +. done_in
      | I.St_local _ ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          ignore (path_done wk r F.loc 256.0)
      | I.Ld_const_bank { dst; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          let done_in =
            path_done wk r (if arch.A.has_ldg then F.tex else F.glob) 256.0
          in
          wk.freg.(dst) <- c.clk +. r.lat +. done_in
      | I.Ld_param { dst_i; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          let done_in =
            path_done wk r (if arch.A.has_ldg then F.tex else F.glob) 128.0
          in
          wk.ireg.(dst_i) <- c.clk +. r.lat +. done_in
      | I.Shfl { dst; _ } | I.Shfl_rot { dst; _ } | I.Shfl_bfly { dst; _ } ->
          c.alu_free <- gate c c.alu_free 2.0 arch.A.alu_issue_per_cycle;
          wk.freg.(dst) <- c.clk +. float_of_int arch.A.arith_latency
      | I.Ishfl { dst_i; _ } ->
          c.alu_free <- gate c c.alu_free 1.0 arch.A.alu_issue_per_cycle;
          wk.ireg.(dst_i) <- c.clk +. float_of_int arch.A.arith_latency
      | I.Bar_arrive _ | I.Bar_sync _ | I.Bar_cta ->
          c.alu_free <- gate c c.alu_free 1.0 arch.A.alu_issue_per_cycle)

(* One warp's stream, segmented at barrier operations. *)
type item = Cost of float | Arrive of int * int | Syncb of int * int | Cta

(* One warp's walk through one phase: its scoreboard, the open segment,
   and the items and segments it has closed so far (both newest first). *)
type stream = {
  wk : walk;
  mutable s : seg;
  mutable items : item list;
  mutable closed : seg list;
}

let stream_make p =
  { wk = walk_make p; s = seg_zero (); items = []; closed = [] }

(* Close the open segment at a barrier operation or the stream's end. *)
let flush st =
  let c = st.wk.c in
  if st.s.instrs > 0.0 then begin
    st.closed <- st.s :: st.closed;
    st.items <- Cost (c.clk -. c.seg_start) :: st.items;
    st.s <- seg_zero ()
  end;
  c.seg_start <- c.clk

let step (arch : A.t) (p : I.program) (r : walk_rates) st (e : T.entry) =
  charge arch p st.s e;
  walk_step arch p r st.wk e;
  match e.T.instr with
  | Some (I.Bar_arrive { bar; count }) ->
      flush st;
      st.items <- Arrive (bar, count) :: st.items
  | Some (I.Bar_sync { bar; count }) ->
      flush st;
      st.items <- Syncb (bar, count) :: st.items
  | Some I.Bar_cta ->
      flush st;
      st.items <- Cta :: st.items
  | _ -> ()

(* A phase's per-warp item streams, and its per-batch demand: every
   closed segment summed warp by warp, in stream order. *)
let finish (streams : stream array) =
  let agg = seg_zero () in
  let items =
    Array.map
      (fun st ->
        flush st;
        List.iter (seg_add_into ~dst:agg) (List.rev st.closed);
        Array.of_list (List.rev st.items))
      streams
  in
  (items, agg)

(* Abstract rendezvous execution over [reps] back-to-back repetitions of
   every warp's stream: every warp accumulates its segment costs; named
   and CTA barriers propagate the latest arrival time to their waiters
   (the simulator's barrier semantics, without cycles). Warps left
   blocked at the end (their producer's arrival lies beyond the walked
   batches) simply keep their arrival time. Returns the latest per-warp
   finish time. *)
let rendezvous ?(reps = 1) n_warps (streams : item array array) =
  let t = Array.make n_warps 0.0 in
  let pos = Array.make n_warps 0 in
  let blocked = Array.make n_warps false in
  let nbars = 17 in
  let bar_arrived = Array.make nbars 0 in
  let bar_time = Array.make nbars 0.0 in
  let bar_waiters = Array.make nbars [] in
  let cta_arrived = ref 0 in
  let cta_time = ref 0.0 in
  let cta_waiters = ref [] in
  let release waiters tm =
    List.iter
      (fun ww ->
        t.(ww) <- Float.max t.(ww) tm;
        blocked.(ww) <- false)
      waiters
  in
  let progress = ref true in
  while !progress do
    progress := false;
    for w = 0 to n_warps - 1 do
      let stream = streams.(w) in
      let len = Array.length stream in
      while (not blocked.(w)) && pos.(w) < reps * len do
        progress := true;
        (match stream.(pos.(w) mod len) with
        | Cost c -> t.(w) <- t.(w) +. c
        | Arrive (b, count) ->
            bar_time.(b) <- Float.max bar_time.(b) t.(w);
            bar_arrived.(b) <- bar_arrived.(b) + 1;
            if bar_arrived.(b) >= count then begin
              bar_arrived.(b) <- bar_arrived.(b) - count;
              release bar_waiters.(b) bar_time.(b);
              bar_waiters.(b) <- [];
              bar_time.(b) <- 0.0
            end
        | Syncb (b, count) ->
            bar_time.(b) <- Float.max bar_time.(b) t.(w);
            bar_arrived.(b) <- bar_arrived.(b) + 1;
            if bar_arrived.(b) >= count then begin
              bar_arrived.(b) <- bar_arrived.(b) - count;
              t.(w) <- Float.max t.(w) bar_time.(b);
              release bar_waiters.(b) bar_time.(b);
              bar_waiters.(b) <- [];
              bar_time.(b) <- 0.0
            end
            else begin
              blocked.(w) <- true;
              bar_waiters.(b) <- w :: bar_waiters.(b)
            end
        | Cta ->
            cta_time := Float.max !cta_time t.(w);
            incr cta_arrived;
            if !cta_arrived >= n_warps then begin
              cta_arrived := 0;
              t.(w) <- Float.max t.(w) !cta_time;
              release !cta_waiters !cta_time;
              cta_waiters := [];
              cta_time := 0.0
            end
            else begin
              blocked.(w) <- true;
              cta_waiters := w :: !cta_waiters
            end);
        pos.(w) <- pos.(w) + 1
      done
    done
  done;
  Array.fold_left Float.max 0.0 t

(* Per-CTA-batch demand over the shared pipes and paths, as SM cycles;
   the largest entry is the throughput floor on a batch. *)
let demand_terms (arch : A.t) (s : seg) =
  [
    ("warp-instruction issue", s.instrs /. float_of_int arch.A.schedulers);
    ("DP pipe", s.dp /. arch.A.dp_issue_per_cycle);
    ("integer/branch pipe", s.alu /. arch.A.alu_issue_per_cycle);
    ("LSU issue", s.lsu);
    ("shared-memory pipe", s.shared /. arch.A.shared_issue_per_cycle);
    ("texture path", s.tex_b /. arch.A.tex_bytes_per_cycle);
    ("global-memory path", s.glob_b /. arch.A.global_bytes_per_cycle);
    ("local-memory (spill) path", s.loc_b /. arch.A.local_bytes_per_cycle);
  ]

let max_term terms =
  List.fold_left
    (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
    ("none", 0.0) terms

let predict ?ctas ?n_sms ?skew (t : Compile.t) ~total_points =
  let p = t.Compile.lowered.Lower.program in
  let arch = t.Compile.options.Compile.arch in
  let ctas =
    match ctas with Some c -> c | None -> Compile.default_ctas t ~total_points
  in
  let launch = { C.program = p; total_points; ctas } in
  let occ = C.occupancy arch p in
  let resident = min occ.C.resident_ctas ctas in
  let batches = C.batches_per_cta launch in
  let sim_batches = min batches 6 in
  let n_warps = p.I.n_warps in
  let f = t.Compile.facts in
  let pro_rates =
    walk_rates arch ~users:f.F.prologue_users ~resident ~ccache_thrash:false
  in
  let body_rates =
    walk_rates arch ~users:f.F.body_users ~resident ~ccache_thrash:f.F.thrash
  in
  (* Walk every warp's prologue and body streams at once, in layout
     order: each warp sees its own entries in program order. *)
  let pro = Array.init n_warps (fun _ -> stream_make p) in
  let body = Array.init n_warps (fun _ -> stream_make p) in
  let step_warps streams r warps e =
    for w = 0 to n_warps - 1 do
      if warps land (1 lsl w) <> 0 then step arch p r streams.(w) e
    done
  in
  ignore
    (T.iter arch p (fun phase warps e ->
         match phase with
         | T.Prologue -> step_warps pro pro_rates warps e
         | T.Body -> step_warps body body_rates warps e));
  (* Prologue: rendezvous over the prologue streams, plus the cold fill
     of the code both phases touch. *)
  let pro_streams, agg_pro = finish pro in
  let pro_walk = rendezvous n_warps pro_streams in
  let pro_thr =
    float_of_int resident *. snd (max_term (demand_terms arch agg_pro))
  in
  let lat = float_of_int arch.A.global_latency in
  (* Cold code fetch: on its first pass every warp misses each line of
     its own path. Straight-line code costs only the prefetcher's
     catch-up per line; once the divergent regions outnumber the
     prefetch streams, each line costs a full miss. *)
  let line_bytes = A.icache_line_bytes arch in
  let per_line_cold =
    if f.F.n_long_paths > Gpusim.Caches.Icache.max_streams then
      arch.A.icache_miss_latency
    else Gpusim.Caches.Icache.prefetch_fill
  in
  let cold_fill =
    icache_cold *. float_of_int (f.F.ic_cold_lines * per_line_cold)
  in
  (* Cold constant fills: the first batch misses once per constant line a
     warp touches (when the working set thrashes, the recurring per-access
     term below already charges every batch, the first included). *)
  let cc_cold_lines = if f.F.thrash then 0 else f.F.cc_cold_lines in
  let cold_const = ccache_cold *. float_of_int cc_cold_lines *. lat in
  let prologue_cycles =
    Float.max pro_walk pro_thr +. cold_fill +. cold_const
  in
  (* Body: critical path from walking exactly the simulated batches
     (cold barrier ramp included), steady state from differencing a
     multi-batch walk, and the per-batch demand aggregated over one
     batch of every warp. *)
  let body_streams, agg_body = finish body in
  let walk k =
    if k = 0 then 0.0 else rendezvous ~reps:k n_warps body_streams
  in
  let sync_sim = walk sim_batches in
  (* The steady-state per-batch critical path needs two extra multi-batch
     walks; it only matters for the [(batches - sim_batches)]
     extrapolation, so when the launch has no batches beyond the
     simulated ones (the common tuning shape) skip the walks — predict
     stays much cheaper than one simulation, which is the whole point of
     model-guided pruning. *)
  let sync_cycles =
    if batches = sim_batches then
      sync_sim /. float_of_int (max 1 sim_batches)
    else
      let t2 = if sim_batches = 2 then sync_sim else walk 2 in
      let t4 = if sim_batches = 4 then sync_sim else walk 4 in
      Float.max 0.0 ((t4 -. t2) /. 2.0)
  in
  let thr_resource, thr_batch = max_term (demand_terms arch agg_body) in
  let throughput_cycles = float_of_int resident *. thr_batch in
  (* Body-code refetch on later batches, once the united footprint
     overflows the cache. *)
  let body_lines = f.F.body_lines in
  let footprint = body_lines * line_bytes in
  let icache_cycles =
    if footprint <= arch.A.icache_bytes then 0.0
    else icache_exposure *. float_of_int (body_lines * per_line_cold)
  in
  (* Combining the two sides is asymmetric: a throughput-bound batch
     hides none of its per-warp stalls (all warps stall together between
     turns at the saturated pipe), while a latency-bound batch drains
     most of its pipe work during the stalls. *)
  let combine thr sync =
    if thr >= sync then (thr_resource, thr +. sync)
    else ("synchronization", sync +. (sync_overlap *. thr))
  in
  let binding, body_sim =
    combine (float_of_int sim_batches *. throughput_cycles) sync_sim
  in
  let body_sim =
    body_sim +. (float_of_int (sim_batches - 1) *. icache_cycles)
  in
  let _, batch_steady = combine throughput_cycles sync_cycles in
  let batch_cycles = batch_steady +. icache_cycles in
  let cycles = prologue_cycles +. body_sim in
  let floor_cycles =
    float_of_int sim_batches *. float_of_int resident *. thr_batch
  in
  (* End-to-end: mirror Chip.run's extrapolation, then feed the same
     dispatcher/arbiter (Chip.schedule) with model-derived round costs
     instead of simulated ones, so predicted wall time carries the same
     tail-wave and bandwidth-contention semantics as the simulator. *)
  let cycles_full =
    cycles +. (float_of_int (batches - sim_batches) *. batch_cycles)
  in
  (* Round cost for k resident CTAs: the throughput term scales with k
     (k CTAs share the pipes), the critical-path and prologue terms do
     not. k = resident reproduces [cycles_full] exactly. *)
  let cycles_full_of k =
    let thr_b = float_of_int k *. thr_batch in
    let _, b_sim = combine (float_of_int sim_batches *. thr_b) sync_sim in
    let b_sim = b_sim +. (float_of_int (sim_batches - 1) *. icache_cycles) in
    let _, b_steady = combine thr_b sync_cycles in
    prologue_cycles +. b_sim
    +. (float_of_int (batches - sim_batches) *. (b_steady +. icache_cycles))
  in
  let n_sms = match n_sms with Some n -> n | None -> arch.A.n_sms in
  let skew = match skew with Some s -> s | None -> arch.A.sm_clock_skew in
  let spill_working_set =
    n_sms * resident * n_warps * 32 * p.I.local_doubles * 8
  in
  let spill_in_l2 =
    p.I.local_doubles > 0 && spill_working_set <= arch.A.l2_bytes
  in
  (* [agg_body] holds one batch of every warp in one CTA; spill traffic
     whose aggregate working set fits in L2 never reaches DRAM. *)
  let batch_dram_b =
    agg_body.tex_b +. agg_body.glob_b
    +. (if spill_in_l2 then 0.0 else agg_body.loc_b)
  in
  let round_cycles k =
    if k = resident then cycles_full else cycles_full_of k
  in
  let round_dram_bytes k =
    float_of_int batches *. float_of_int k *. batch_dram_b
  in
  let chip =
    C.schedule ~n_sms ~skew ~resident ~ctas ~round_cycles ~round_dram_bytes
      ~dram_peak_bpc:(A.dram_bytes_per_chip_cycle arch) ~spill_in_l2
  in
  let time_s = chip.C.makespan_cycles /. (arch.A.clock_mhz *. 1e6) in
  let points_per_sec = float_of_int total_points /. time_s in
  {
    occ;
    resident;
    batches;
    sim_batches;
    prologue_cycles;
    batch_cycles;
    throughput_cycles;
    sync_cycles;
    icache_cycles;
    binding;
    cycles;
    floor_cycles;
    chip;
    time_s;
    points_per_sec;
  }

let rel_err ~predicted ~measured =
  if measured = 0.0 then infinity
  else abs_float (predicted -. measured) /. measured
