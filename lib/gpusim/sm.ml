(* A fault is any terminal no-good state of the simulation: a barrier
   deadlock (every live warp parked with nothing pending), a no-progress
   livelock (the issue loop spins without retiring work) or an exhausted
   cycle budget. All three raise [Simulation_fault] with a structured
   snapshot of the machine instead of a bare string, so drivers can
   render per-warp positions and barrier counters and sweeps can record
   the failure without parsing messages. *)

type fault_kind = Barrier_deadlock | No_progress | Cycle_budget

type warp_dump = {
  d_cta : int;
  d_wid : int;
  d_state : string;
  d_phase : string;
  d_pos : int;
  d_len : int;
  d_batch : int;
  d_stall_until : int;
}

type barrier_dump = {
  b_cta : int;
  b_bar : int;  (* -1 encodes the CTA-wide barrier *)
  b_arrived : int;
  b_waiters : int;
}

type fault_report = {
  fault_kind : fault_kind;
  fault_cycle : int;
  detail : string;
  warp_dumps : warp_dump list;
  barrier_dumps : barrier_dump list;
}

exception Simulation_fault of fault_report

let fault_kind_name = function
  | Barrier_deadlock -> "barrier deadlock"
  | No_progress -> "no progress"
  | Cycle_budget -> "cycle budget exceeded"

let pp_fault ppf r =
  Format.fprintf ppf "simulation fault: %s at cycle %d — %s"
    (fault_kind_name r.fault_kind)
    r.fault_cycle r.detail;
  List.iter
    (fun d ->
      Format.fprintf ppf "@\n  cta %d warp %d: %s, %s pos %d/%d, batch %d"
        d.d_cta d.d_wid d.d_state d.d_phase d.d_pos d.d_len d.d_batch;
      if d.d_state = "stalled" then
        Format.fprintf ppf ", wakes at %d" d.d_stall_until)
    r.warp_dumps;
  List.iter
    (fun b ->
      Format.fprintf ppf "@\n  %s barrier, cta %d: arrived=%d waiters=%d"
        (if b.b_bar < 0 then "CTA-wide"
         else Printf.sprintf "named %d" b.b_bar)
        b.b_cta b.b_arrived b.b_waiters)
    r.barrier_dumps

type counters = {
  mutable issued : int;
  mutable branch_instrs : int;
  mutable flops : int;
  mutable dp_warp_instrs : int;
  mutable tex_bytes : int;
  mutable global_bytes : int;
  mutable local_bytes : int;
  mutable shared_accesses : int;
  mutable bank_conflict_slots : int;
  mutable barrier_stalls : int;
  mutable cta_barrier_stalls : int;
  mutable icache_stall_cycles : int;
      (** fill latency counted once per initiated i-cache fill (mirrors
          {!Caches.Icache.stats.fill_stall_cycles}); warps piling onto an
          in-flight fill no longer re-count it — per-warp wait time is in
          the profiler's buckets *)
  mutable ccache_stall_cycles : int;  (** likewise, for the constant cache *)
}

(* Profiling is opt-in: [run ~profile] keeps the per-warp cycle ledger
   described in {!Profile}. It does not perturb the simulation — cycles
   and counters are identical with and without it. *)
type profile_spec = {
  timeline_capacity : int;
      (** ring-buffer capacity (in spans) for the Chrome-trace timeline;
          0 keeps buckets and barrier histograms but records no spans *)
}

let default_profile = { timeline_capacity = 65536 }

type result = {
  cycles : int;
  counters : counters;
  icache : Caches.Icache.stats;
  ccache : Caches.Ccache.stats;
  profile : Profile.t option;  (** present iff [run] was given [?profile] *)
}

type job = {
  arch : Arch.t;
  program : Isa.program;
  resident_ctas : int;
  batches : int;
  cta_point_base : int array;
}

type wstate = Ready | Stalled | Waiting_bar of int | Waiting_cta | Retired

type warp = {
  cta : int;
  wid : int;
  index : int;  (** position in the warp array *)
  cur : Trace.cursor;
  iregs : int array array;
  freg_ready : int array;
  ireg_ready : int array;
  mutable st : wstate;
  mutable stall_until : int;
  mutable wait_since : int;
  mutable paid_fetch : int;
      (** entry whose icache miss was already paid: the fill is delivered
          to this warp's fetch even if the line is evicted meanwhile *)
  mutable paid_const : int;  (** likewise for a constant-cache stall *)
}

(* Waiters are warp indices in a preallocated array (capacity: every warp
   of the CTA), so a barrier release conses nothing on the hot path. *)
type barrier = {
  mutable arrived : int;
  waiters : int array;
  mutable n_waiters : int;
}

type pipe = { mutable busy : float; rate : float }

type path = { mutable drain : float; bytes_per_cycle : float }

let fresh_counters () =
  {
    issued = 0;
    branch_instrs = 0;
    flops = 0;
    dp_warp_instrs = 0;
    tex_bytes = 0;
    global_bytes = 0;
    local_bytes = 0;
    shared_accesses = 0;
    bank_conflict_slots = 0;
    barrier_stalls = 0;
    cta_barrier_stalls = 0;
    icache_stall_cycles = 0;
    ccache_stall_cycles = 0;
  }

let active_lanes = function
  | Some (Isa.Lane_eq _) -> 1
  | Some (Isa.Lane_lt n) -> n
  | None -> 32

(* The active lanes of a predicate as a range [lane_lo p .. lane_hi p],
   empty when no lane is active; a predicate lane outside [0, 32)
   activates nothing, as testing each lane against it would. *)
let lane_lo = function
  | None | Some (Isa.Lane_lt _) -> 0
  | Some (Isa.Lane_eq k) -> if k < 0 then 32 else k

let lane_hi = function
  | None -> 31
  | Some (Isa.Lane_eq k) -> min 31 k
  | Some (Isa.Lane_lt k) -> min 31 (k - 1)

(* Index of the lowest set bit of a non-zero 32-bit word. *)
let lowest_bit_index m =
  let m = m land -m in
  let i = ref 0 in
  let m = ref m in
  if !m land 0xFFFF = 0 then begin i := 16; m := !m lsr 16 end;
  if !m land 0xFF = 0 then begin i := !i + 8; m := !m lsr 8 end;
  if !m land 0xF = 0 then begin i := !i + 4; m := !m lsr 4 end;
  if !m land 0x3 = 0 then begin i := !i + 2; m := !m lsr 2 end;
  if !m land 0x1 = 0 then incr i;
  !i

(* A binary min-heap of warp indices keyed by cycle, with capacity for
   every warp (a warp is in a heap at most once). *)
type heap = { ht : int array; hw : int array; mutable hn : int }

let heap_create n =
  { ht = Array.make (max 1 n) max_int; hw = Array.make (max 1 n) (-1); hn = 0 }

let heap_min h = if h.hn > 0 then h.ht.(0) else max_int

let heap_swap h i j =
  let t = h.ht.(i) and w = h.hw.(i) in
  h.ht.(i) <- h.ht.(j);
  h.hw.(i) <- h.hw.(j);
  h.ht.(j) <- t;
  h.hw.(j) <- w

let heap_push h t wi =
  let i = ref h.hn in
  h.ht.(!i) <- t;
  h.hw.(!i) <- wi;
  h.hn <- h.hn + 1;
  let up = ref true in
  while !up && !i > 0 do
    let parent = (!i - 1) / 2 in
    if h.ht.(parent) > h.ht.(!i) then begin
      heap_swap h parent !i;
      i := parent
    end
    else up := false
  done

let heap_pop h =
  let top = h.hw.(0) in
  h.hn <- h.hn - 1;
  let n = h.hn in
  h.ht.(0) <- h.ht.(n);
  h.hw.(0) <- h.hw.(n);
  h.ht.(n) <- max_int;
  h.hw.(n) <- -1;
  let i = ref 0 in
  let down = ref true in
  while !down do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < n && h.ht.(l) < h.ht.(!smallest) then smallest := l;
    if r < n && h.ht.(r) < h.ht.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      heap_swap h !i !smallest;
      i := !smallest
    end
    else down := false
  done;
  top

(* --- pipe / path clocks ---
   Small closed functions, so the compiler inlines them and the float
   arguments stay unboxed. A clock is never NaN or -0.0 (it starts at
   +0.0 and only grows), so the plain comparison below returns the same
   bits as [Float.max]. *)
let fmax (a : float) b = if b > a then b else a

let pipe_free pipe now = pipe.busy < float_of_int now +. 1.0

let pipe_issue pipe now slots =
  pipe.busy <- fmax pipe.busy (float_of_int now) +. (slots /. pipe.rate)

(* Queue [bytes] on a path; the cycles from [now] until they drain. *)
let path_transfer path now bytes =
  let transfer = float_of_int bytes /. path.bytes_per_cycle in
  let start = fmax path.drain (float_of_int now) in
  path.drain <- start +. transfer;
  int_of_float (Float.ceil (start +. transfer)) - now

(* Wait classes of a warp parked on a busy pipe. A shared-memory load or
   store needs the load-store and the shared pipe at once. *)
let wait_dp = 0
let wait_alu = 1
let wait_lsu = 2
let wait_lsu_shared = 3
let n_wait_classes = 4

(* --- value semantics ---
   The issue loop runs only [execute_ints] ([Ld_param], [Ishfl]): integer
   registers feed shared addresses, bank conflicts and [F_ireg] field
   selectors. Everything else an instruction computes, loads or stores is
   [execute], which only [replay] calls, after [execute_ints], on its own
   float register files ([fregs.(warp index)]) and three scratch columns.
   Lanes execute over a predicate's [lo..hi] range with the operation
   matched once outside the lane loop; non-register operands load into the
   32-lane columns, so executing an instruction allocates nothing. *)
type values = { mem : Memstate.t; fregs : float array array array; cols : float array array }

(* The warps of every resident CTA, in issue-order index. *)
let make_warps (job : job) =
  let p = job.program in
  Array.init (job.resident_ctas * p.Isa.n_warps) (fun i ->
      {
        cta = i / p.Isa.n_warps;
        wid = i mod p.Isa.n_warps;
        index = i;
        cur = Trace.cursor ();
        iregs = Array.init (max 1 p.Isa.n_iregs) (fun _ -> Array.make 32 0);
        freg_ready = Array.make (max 1 p.Isa.n_fregs) 0;
        ireg_ready = Array.make (max 1 p.Isa.n_iregs) 0;
        st = Ready;
        stall_until = 0;
        wait_since = 0;
        paid_fetch = -1;
        paid_const = -1;
      })

let point_base (job : job) w batch =
  let p = job.program in
  let base = job.cta_point_base.(w.cta) in
  match p.Isa.point_map with
  | Isa.Coop -> base + (batch * 32)
  | Isa.Thread_per_point -> base + (batch * p.Isa.n_warps * 32) + (w.wid * 32)

let saddr_eval (a : Isa.saddr) w lane =
  a.Isa.s_base
  + (a.Isa.s_warp_mul * w.wid)
  + (a.Isa.s_lane_mul * lane)
  + match a.Isa.s_ireg with
    | Some r -> a.Isa.s_ireg_mul * w.iregs.(r).(lane)
    | None -> 0

(* The values of [src] on lanes [lo..hi] (non-empty): a register's own
   row, or column [k] filled for those lanes only. *)
let load_src (job : job) v w src k lo hi =
  match src with
  | Isa.Sreg r -> v.fregs.(w.index).(r)
  | Isa.Simm f ->
      let col = v.cols.(k) in
      for l = lo to hi do
        col.(l) <- f
      done;
      col
  | Isa.Sconst s ->
      let col = v.cols.(k) and c = job.program.Isa.const_mem.(s) in
      for l = lo to hi do
        col.(l) <- c
      done;
      col
  | Isa.Sconst_warp s ->
      let col = v.cols.(k) and c = job.program.Isa.const_mem.(s + w.wid) in
      for l = lo to hi do
        col.(l) <- c
      done;
      col
  | Isa.Sshared a ->
      let col = v.cols.(k) and sh = v.mem.Memstate.shared.(w.cta) in
      for l = lo to hi do
        col.(l) <- sh.(saddr_eval a w l)
      done;
      col

(* [Float.max] and [Float.min], bit for bit. A strict comparison settles
   distinct non-NaN operands as the stdlib does; only ties (where the
   sign of zero decides) and NaNs reach the stdlib's out-of-line sign-bit
   tests. Local and [@inline]: a dev build compiles with [-opaque], so a
   helper in another module is called boxed, not inlined. *)
let[@inline] float_max (x : float) (y : float) =
  if x > y then x else if y > x then y else Float.max x y

let[@inline] float_min (x : float) (y : float) =
  if x < y then x else if y < x then y else Float.min x y

(* Every register row and scratch column is 32 wide, allocated by
   [replay], and [lane_lo]/[lane_hi] clamp to [0, 31], so the lane loops
   below index without bounds checks. *)
let exec_arith job v w op dst (srcs : Isa.src array) lo hi =
  let d = v.fregs.(w.index).(dst) in
  let a = load_src job v w srcs.(0) 0 lo hi in
  match op with
  | Isa.Sqrt ->
      for l = lo to hi do
        Array.unsafe_set d l (sqrt (Array.unsafe_get a l))
      done
  | Isa.Exp ->
      for l = lo to hi do
        Array.unsafe_set d l (exp (Array.unsafe_get a l))
      done
  | Isa.Log ->
      for l = lo to hi do
        Array.unsafe_set d l (log (Array.unsafe_get a l))
      done
  | Isa.Neg ->
      for l = lo to hi do
        Array.unsafe_set d l (-.Array.unsafe_get a l)
      done
  | Isa.Add | Isa.Sub | Isa.Mul | Isa.Fma | Isa.Div | Isa.Max | Isa.Min -> (
      let b = load_src job v w srcs.(1) 1 lo hi in
      match op with
      | Isa.Add ->
          for l = lo to hi do
            Array.unsafe_set d l (Array.unsafe_get a l +. Array.unsafe_get b l)
          done
      | Isa.Sub ->
          for l = lo to hi do
            Array.unsafe_set d l (Array.unsafe_get a l -. Array.unsafe_get b l)
          done
      | Isa.Mul ->
          for l = lo to hi do
            Array.unsafe_set d l (Array.unsafe_get a l *. Array.unsafe_get b l)
          done
      | Isa.Div ->
          for l = lo to hi do
            Array.unsafe_set d l (Array.unsafe_get a l /. Array.unsafe_get b l)
          done
      | Isa.Max ->
          for l = lo to hi do
            Array.unsafe_set d l
              (float_max (Array.unsafe_get a l) (Array.unsafe_get b l))
          done
      | Isa.Min ->
          for l = lo to hi do
            Array.unsafe_set d l
              (float_min (Array.unsafe_get a l) (Array.unsafe_get b l))
          done
      | Isa.Fma ->
          let c = load_src job v w srcs.(2) 2 lo hi in
          for l = lo to hi do
            Array.unsafe_set d l
              (Float.fma (Array.unsafe_get a l) (Array.unsafe_get b l)
                 (Array.unsafe_get c l))
          done
      | Isa.Sqrt | Isa.Exp | Isa.Log | Isa.Neg -> assert false)

(* The float effects of warp [w] issuing [instr] in point batch [batch]. *)
let execute (job : job) v w (instr : Isa.instr) batch =
  let p = job.program and fr = v.fregs.(w.index) and mem = v.mem in
  match instr with
  | Isa.Arith { op; dst; srcs; pred } ->
      let lo = lane_lo pred and hi = lane_hi pred in
      if lo <= hi then exec_arith job v w op dst srcs lo hi
  | Isa.Mov { dst; src; pred } ->
      let lo = lane_lo pred and hi = lane_hi pred in
      if lo <= hi then begin
        let d = fr.(dst) and s = load_src job v w src 0 lo hi in
        for l = lo to hi do
          d.(l) <- s.(l)
        done
      end
  | Isa.Ld_global { dst; group; field; pred; _ } -> (
      let lo = lane_lo pred and hi = lane_hi pred in
      if lo <= hi then
        let d = fr.(dst) and g = mem.Memstate.globals.(group) in
        let pt = point_base job w batch in
        match field with
        | Isa.F_static f ->
            let col = g.(f) in
            for l = lo to hi do
              d.(l) <- col.(pt + l)
            done
        | Isa.F_ireg r ->
            let fi = w.iregs.(r) in
            for l = lo to hi do
              d.(l) <- g.(fi.(l)).(pt + l)
            done)
  | Isa.St_global { src; group; field; pred } -> (
      let lo = lane_lo pred and hi = lane_hi pred in
      if lo <= hi then
        let s = load_src job v w src 0 lo hi in
        let g = mem.Memstate.globals.(group) in
        let pt = point_base job w batch in
        match field with
        | Isa.F_static f ->
            let col = g.(f) in
            for l = lo to hi do
              col.(pt + l) <- s.(l)
            done
        | Isa.F_ireg r ->
            let fi = w.iregs.(r) in
            for l = lo to hi do
              g.(fi.(l)).(pt + l) <- s.(l)
            done)
  | Isa.Ld_shared { dst; addr; pred } ->
      let lo = lane_lo pred and hi = lane_hi pred in
      let d = fr.(dst) and sh = mem.Memstate.shared.(w.cta) in
      for l = lo to hi do
        d.(l) <- sh.(saddr_eval addr w l)
      done
  | Isa.St_shared { src; addr; pred } -> (
      let lo = lane_lo pred and hi = lane_hi pred in
      if lo <= hi then
        let sh = mem.Memstate.shared.(w.cta) in
        match src with
        | Isa.Sshared a ->
            (* Shared to shared: a lane may read what a lower lane just
               wrote, so go lane by lane. *)
            for l = lo to hi do
              sh.(saddr_eval addr w l) <- sh.(saddr_eval a w l)
            done
        | Isa.Sreg _ | Isa.Simm _ | Isa.Sconst _ | Isa.Sconst_warp _ ->
            let s = load_src job v w src 0 lo hi in
            for l = lo to hi do
              sh.(saddr_eval addr w l) <- s.(l)
            done)
  | Isa.Ld_local { dst; slot } ->
      let d = fr.(dst) and loc = mem.Memstate.local.(w.cta) in
      for lane = 0 to 31 do
        d.(lane) <- loc.((((w.wid * 32) + lane) * p.Isa.local_doubles) + slot)
      done
  | Isa.St_local { src; slot } ->
      let s = fr.(src) and loc = mem.Memstate.local.(w.cta) in
      for lane = 0 to 31 do
        loc.((((w.wid * 32) + lane) * p.Isa.local_doubles) + slot) <- s.(lane)
      done
  | Isa.Ld_const_bank { dst; slot } ->
      let d = fr.(dst) and bank = p.Isa.const_bank.(w.wid) in
      for lane = 0 to 31 do
        d.(lane) <- bank.(lane).(slot)
      done
  | Isa.Shfl { dst; src; lane } -> Array.fill fr.(dst) 0 32 fr.(src).(lane)
  | Isa.Shfl_rot { dst; src; delta } | Isa.Shfl_bfly { dst; src; xor_mask = delta }
    -> (
      (* Snapshot the source row first: after register allocation [dst]
         may alias [src], and every lane reads another lane's
         pre-shuffle value. *)
      let prev = v.cols.(0) and d = fr.(dst) in
      Array.blit fr.(src) 0 prev 0 32;
      match instr with
      | Isa.Shfl_rot _ ->
          for l = 0 to 31 do
            d.(l) <- prev.((l + delta) land 31)
          done
      | _ ->
          for l = 0 to 31 do
            d.(l) <- prev.(l lxor delta)
          done)
  | Isa.Ld_param _ | Isa.Ishfl _ | Isa.Bar_arrive _ | Isa.Bar_sync _ | Isa.Bar_cta -> ()

(* The integer effects of warp [w] issuing [instr] ([None]: a branch). *)
let execute_ints (p : Isa.program) w (instr : Isa.instr option) =
  match instr with
  | Some (Isa.Ld_param { dst_i; slot }) ->
      let d = w.iregs.(dst_i) and bank = p.Isa.param_bank.(w.wid) in
      for lane = 0 to 31 do
        d.(lane) <- bank.(lane).(slot)
      done
  | Some (Isa.Ishfl { dst_i; src_i; lane }) ->
      let d = w.iregs.(dst_i) and v = w.iregs.(src_i).(lane) in
      for l = 0 to 31 do
        d.(l) <- v
      done
  | Some _ | None -> ()

type order = string

(* Every trace entry of every resident warp issues exactly once, so a
   completed run's order has exactly this many bytes. *)
let issues (job : job) (tr : Trace.t) =
  let per_cta = ref 0 in
  for w = 0 to job.program.Isa.n_warps - 1 do
    per_cta :=
      !per_cta + Array.length tr.Trace.prologue.(w)
      + (job.batches * Array.length tr.Trace.body.(w))
  done;
  job.resident_ctas * !per_cta

let run ?max_cycles ?profile (job : job) (tr : Trace.t) =
  let budget =
    match max_cycles with
    | None -> max_int
    | Some b ->
        if b <= 0 then invalid_arg "Sm.run: max_cycles must be positive";
        b
  in
  let arch = job.arch and p = job.program in
  let n_warps_total = job.resident_ctas * p.Isa.n_warps in
  (* One byte of issue order per issue holds the warp's index. *)
  if n_warps_total > 256 then invalid_arg "Sm.run: more than 256 resident warps";
  (* No float value is computed, loaded or stored (DESIGN §9.1). *)
  let warps = make_warps job and order = Bytes.create (issues job tr) in
  let fresh_barrier () =
    { arrived = 0; waiters = Array.make (max 1 p.Isa.n_warps) (-1); n_waiters = 0 }
  in
  let bars =
    Array.init job.resident_ctas (fun _ ->
        Array.init arch.Arch.named_barriers_per_sm (fun _ -> fresh_barrier ()))
  in
  let cta_bars = Array.init job.resident_ctas (fun _ -> fresh_barrier ()) in
  (* One shared state value per barrier id, so parking a warp on a
     barrier allocates nothing. *)
  let waiting_bar =
    Array.init arch.Arch.named_barriers_per_sm (fun b -> Waiting_bar b)
  in
  let dp = { busy = 0.0; rate = arch.Arch.dp_issue_per_cycle } in
  let alu = { busy = 0.0; rate = arch.Arch.alu_issue_per_cycle } in
  let lsu = { busy = 0.0; rate = 1.0 } in
  let shared_pipe = { busy = 0.0; rate = arch.Arch.shared_issue_per_cycle } in
  let tex = { drain = 0.0; bytes_per_cycle = arch.Arch.tex_bytes_per_cycle } in
  let globalp = { drain = 0.0; bytes_per_cycle = arch.Arch.global_bytes_per_cycle } in
  let localp = { drain = 0.0; bytes_per_cycle = arch.Arch.local_bytes_per_cycle } in
  let icache = Caches.Icache.create arch in
  let ccache = Caches.Ccache.create arch in
  let c = fresh_counters () in
  let now = ref 0 in
  let live = ref n_warps_total in
  (* Snapshot the machine and abort with a structured report. *)
  let fault kind detail =
    let warp_dumps =
      Array.to_list
        (Array.map
           (fun w ->
             let phase, len =
               match w.cur.Trace.phase with
               | 0 -> ("prologue", Array.length tr.Trace.prologue.(w.wid))
               | 1 -> ("body", Array.length tr.Trace.body.(w.wid))
               | _ -> ("done", Array.length tr.Trace.body.(w.wid))
             in
             {
               d_cta = w.cta;
               d_wid = w.wid;
               d_state =
                 (match w.st with
                 | Ready -> "ready"
                 | Stalled -> "stalled"
                 | Waiting_bar b -> Printf.sprintf "waiting bar%d" b
                 | Waiting_cta -> "waiting cta-barrier"
                 | Retired -> "retired");
               d_phase = phase;
               d_pos = w.cur.Trace.pos;
               d_len = len;
               d_batch = w.cur.Trace.batch;
               d_stall_until = w.stall_until;
             })
           warps)
    in
    let barrier_dumps = ref [] in
    for cta = job.resident_ctas - 1 downto 0 do
      for bar = Array.length bars.(cta) - 1 downto 0 do
        let b = bars.(cta).(bar) in
        if b.arrived > 0 || b.n_waiters > 0 then
          barrier_dumps :=
            {
              b_cta = cta;
              b_bar = bar;
              b_arrived = b.arrived;
              b_waiters = b.n_waiters;
            }
            :: !barrier_dumps
      done;
      let b = cta_bars.(cta) in
      if b.arrived > 0 || b.n_waiters > 0 then
        barrier_dumps :=
          {
            b_cta = cta;
            b_bar = -1;
            b_arrived = b.arrived;
            b_waiters = b.n_waiters;
          }
          :: !barrier_dumps
    done;
    raise
      (Simulation_fault
         {
           fault_kind = kind;
           fault_cycle = !now;
           detail;
           warp_dumps;
           barrier_dumps = !barrier_dumps;
         })
  in
  (* --- ready set: one bit per warp, iterated in circular index order --- *)
  let n_words = (n_warps_total + 31) / 32 in
  let ready_bits = Array.make (max 1 n_words) 0 in
  let ready_count = ref 0 in
  let set_ready i =
    let wd = i lsr 5 in
    let m = 1 lsl (i land 31) in
    if ready_bits.(wd) land m = 0 then begin
      ready_bits.(wd) <- ready_bits.(wd) lor m;
      incr ready_count
    end
  in
  let clear_ready i =
    let wd = i lsr 5 in
    let m = 1 lsl (i land 31) in
    if ready_bits.(wd) land m <> 0 then begin
      ready_bits.(wd) <- ready_bits.(wd) land lnot m;
      decr ready_count
    end
  in
  Array.iter (fun w -> set_ready w.index) warps;
  (* --- optional per-warp cycle-attribution ledger (see Profile) ---
     Each warp carries the start cycle and bucket of its current span;
     spans flush whenever the warp's classification changes, so per-warp
     buckets sum to the final cycle count exactly (the conservation
     invariant). Every hook is a no-op when profiling is off. *)
  let prof_on = profile <> None in
  let pb =
    if prof_on then
      Array.init n_warps_total (fun _ -> Array.make Profile.n_buckets 0)
    else [||]
  in
  let acct_from = if prof_on then Array.make n_warps_total 0 else [||] in
  let acct_class =
    if prof_on then Array.make n_warps_total Profile.issue else [||]
  in
  (* Producer bucket of each register, so a scoreboard wait classifies as
     "waiting on a load" vs "waiting on arithmetic". *)
  let freg_src =
    if prof_on then
      Array.init n_warps_total (fun _ ->
          Array.make (max 1 p.Isa.n_fregs) Profile.arith)
    else [||]
  in
  let ireg_src =
    if prof_on then
      Array.init n_warps_total (fun _ ->
          Array.make (max 1 p.Isa.n_iregs) Profile.mem)
    else [||]
  in
  (* Timeline ring buffer: flat parallel arrays; when capacity overflows
     the oldest spans are overwritten (counted in [ring_dropped]). *)
  let ring_cap =
    match profile with
    | None -> 0
    | Some s ->
        if s.timeline_capacity < 0 then
          invalid_arg "Sm.run: timeline_capacity must be >= 0";
        s.timeline_capacity
  in
  let ring_warp = Array.make (max 1 ring_cap) 0 in
  let ring_bucket = Array.make (max 1 ring_cap) 0 in
  let ring_start = Array.make (max 1 ring_cap) 0 in
  let ring_stop = Array.make (max 1 ring_cap) 0 in
  let ring_n = ref 0 and ring_next = ref 0 and ring_dropped = ref 0 in
  let ring_push wi bucket start stop =
    if ring_cap > 0 then begin
      let i = !ring_next in
      if !ring_n = ring_cap then incr ring_dropped else incr ring_n;
      ring_warp.(i) <- wi;
      ring_bucket.(i) <- bucket;
      ring_start.(i) <- start;
      ring_stop.(i) <- stop;
      ring_next := if i + 1 = ring_cap then 0 else i + 1
    end
  in
  (* Close the open span of warp [wi] at the current cycle. *)
  let prof_flush wi =
    let from = acct_from.(wi) in
    if !now > from then begin
      let cls = acct_class.(wi) in
      pb.(wi).(cls) <- pb.(wi).(cls) + (!now - from);
      ring_push wi cls from !now;
      acct_from.(wi) <- !now
    end
  in
  (* Reclassify warp [wi], flushing if the bucket changes. *)
  let prof_class wi cls =
    if acct_class.(wi) <> cls then begin
      prof_flush wi;
      acct_class.(wi) <- cls
    end
  in
  (* Per-barrier wait statistics, aggregated across CTAs; slot [nbar] is
     the CTA-wide barrier. *)
  let nbar = arch.Arch.named_barriers_per_sm in
  let bw_count = if prof_on then Array.make (nbar + 1) 0 else [||] in
  let bw_total = if prof_on then Array.make (nbar + 1) 0 else [||] in
  let bw_max = if prof_on then Array.make (nbar + 1) 0 else [||] in
  let bw_hist =
    if prof_on then Array.make_matrix (nbar + 1) Profile.hist_buckets 0
    else [||]
  in
  (* --- stall-event queue: a min-heap on wake-up time ---
     Invariant: heap entries are exactly the [Stalled] warps (a warp
     leaves [Stalled] only by being popped here), so the heap minimum is
     the earliest [stall_until] — the fast-forward target that a
     per-cycle scan would rediscover. *)
  let stalls = heap_create n_warps_total in
  (* --- parked warps ---
     A Ready warp whose issue attempt fails on its scoreboard or on a busy
     pipe leaves the ready set (its state stays [Ready]) until the attempt
     can next succeed, instead of failing again every cycle:
     - scoreboard: until the cycle its operands are ready, a fixed time,
       since a warp's register ready times change only when it issues;
     - busy pipe: in its wait class's bitset (laid out like [ready_bits])
       until the scheduler scan reaches it while the class's pipes are
       free. A pipe's [busy] never shrinks, so a pipe free at that moment
       was free at cycle start, and a pipe busy then stays busy for the
       rest of the cycle: every skipped attempt would have failed.
     Both checks come before any cache access, so the skipped attempts
     had no effect but the profiler classification they repeat. *)
  let scoreboard = heap_create n_warps_total in
  let waiting =
    Array.init n_wait_classes (fun _ -> Array.make (max 1 n_words) 0)
  in
  let no_waiting = Array.make (max 1 n_words) 0 in
  let n_waiting = Array.make n_wait_classes 0 in
  let pipe_parked = ref 0 in
  (* Every Stalled transition goes through here so the heap invariant
     holds. Callers run on Ready or Waiting_* warps (never re-stall);
     [cls] is the profiler bucket the sleep accrues into. *)
  let stall_warp w until cls =
    if prof_on then prof_class w.index cls;
    w.st <- Stalled;
    w.stall_until <- until;
    heap_push stalls until w.index
  in
  let park_scoreboard w ready =
    clear_ready w.index;
    heap_push scoreboard ready w.index
  in
  let park_pipe w cls =
    clear_ready w.index;
    let wd = w.index lsr 5 in
    waiting.(cls).(wd) <- waiting.(cls).(wd) lor (1 lsl (w.index land 31));
    n_waiting.(cls) <- n_waiting.(cls) + 1;
    incr pipe_parked
  in
  (* Move a pipe-parked warp from its wait class back to the ready set. *)
  let unpark_pipe i =
    let wd = i lsr 5 and m = 1 lsl (i land 31) in
    let cls = ref 0 in
    while waiting.(!cls).(wd) land m = 0 do
      incr cls
    done;
    waiting.(!cls).(wd) <- waiting.(!cls).(wd) land lnot m;
    n_waiting.(!cls) <- n_waiting.(!cls) - 1;
    decr pipe_parked;
    set_ready i
  in
  (* The bitset of wait class [cls] if it has waiters and [free] says its
     pipes are free now, else the empty bitset. *)
  let retry_bits cls free =
    if n_waiting.(cls) > 0 && free then waiting.(cls) else no_waiting
  in
  (* Smallest warp index at or circularly after [pos] that is ready or
     parked in a wait class whose pipes are free now; -1 if none. *)
  let next_candidate pos =
    let dp_w = retry_bits wait_dp (pipe_free dp !now) in
    let alu_w = retry_bits wait_alu (pipe_free alu !now) in
    let lsu_w = retry_bits wait_lsu (pipe_free lsu !now) in
    let lsu_shared_w =
      retry_bits wait_lsu_shared
        (pipe_free lsu !now && pipe_free shared_pipe !now)
    in
    if
      !ready_count = 0 && dp_w == no_waiting && alu_w == no_waiting
      && lsu_w == no_waiting && lsu_shared_w == no_waiting
    then -1
    else begin
      let wd0 = pos lsr 5 and b0 = pos land 31 in
      let res = ref (-1) in
      let step = ref 0 in
      while !res < 0 && !step <= n_words do
        let wi =
          let wi = wd0 + !step in
          if wi >= n_words then wi - n_words else wi
        in
        let m =
          ready_bits.(wi) lor dp_w.(wi) lor alu_w.(wi) lor lsu_w.(wi)
          lor lsu_shared_w.(wi)
        in
        let m =
          if !step = 0 then m land ((-1) lsl b0)
          else if !step = n_words then m land ((1 lsl b0) - 1)
          else m
        in
        if m <> 0 then res := (wi lsl 5) + lowest_bit_index m;
        incr step
      done;
      !res
    end
  in
  (* Shared bank-conflict serialization: the largest number of distinct
     addresses that collide in one bank (a broadcast of one address is
     free). Each bank's distinct addresses sit in its row of
     [bank_addrs]. *)
  let banks = arch.Arch.shared_banks in
  let bank_n = Array.make banks 0 in
  let bank_addrs = Array.make (banks * 32) 0 in
  let conflict_ways (a : Isa.saddr) w lo hi =
    if a.Isa.s_lane_mul = 0 && a.Isa.s_ireg = None then 1
    else begin
      Array.fill bank_n 0 banks 0;
      let ways = ref 1 in
      for lane = lo to hi do
        let addr = saddr_eval a w lane in
        let bank = addr mod banks in
        let n = bank_n.(bank) and row = bank * 32 in
        let fresh = ref true in
        for k = 0 to n - 1 do
          if bank_addrs.(row + k) = addr then fresh := false
        done;
        if !fresh then begin
          bank_addrs.(row + n) <- addr;
          bank_n.(bank) <- n + 1;
          if n + 1 > !ways then ways := n + 1
        end
      done;
      !ways
    end
  in
  (* A pipe wait class's earliest retry is the cycle the busiest of its
     pipes frees up. *)
  let wait_class_hint cls =
    int_of_float
      (Float.ceil
         (if cls = wait_dp then dp.busy
          else if cls = wait_alu then alu.busy
          else if cls = wait_lsu then lsu.busy
          else Float.max lsu.busy shared_pipe.busy))
  in
  (* Warp-granularity barrier release; [slot] is the profiler's
     histogram slot ([nbar] for the CTA-wide barrier). *)
  let release_waiters b kind slot =
    let cls =
      match kind with `Named -> Profile.bar_named | `Cta -> Profile.bar_cta
    in
    for i = 0 to b.n_waiters - 1 do
      let w = warps.(b.waiters.(i)) in
      let wait = !now - w.wait_since in
      (match kind with
      | `Named -> c.barrier_stalls <- c.barrier_stalls + wait
      | `Cta -> c.cta_barrier_stalls <- c.cta_barrier_stalls + wait);
      if prof_on then begin
        bw_count.(slot) <- bw_count.(slot) + 1;
        bw_total.(slot) <- bw_total.(slot) + wait;
        if wait > bw_max.(slot) then bw_max.(slot) <- wait;
        let h = Profile.hist_bucket wait in
        bw_hist.(slot).(h) <- bw_hist.(slot).(h) + 1
      end;
      stall_warp w (!now + 5) cls
    done;
    b.n_waiters <- 0
  in
  (* Earliest retry cycle of the warps that failed to issue this cycle
     but stay in the ready set (only a shared-operand arith blocked on the
     shared pipe, below); parked warps keep theirs in the scoreboard heap
     and the wait classes. *)
  let min_hint = ref max_int in
  let hintf t =
    let t = int_of_float (Float.ceil t) in
    if t > !now && t < !min_hint then min_hint := t
  in
  (* Every issue ends here: the instruction's integer effects, then the
     issue order. *)
  let finish_issue w (entry : Trace.entry) =
    execute_ints p w entry.Trace.instr;
    Bytes.set order c.issued (Char.unsafe_chr w.index);
    Trace.advance w.cur;
    c.issued <- c.issued + 1
  in
  let fetch_ok w entry_id (entry : Trace.entry) =
    if w.paid_fetch = entry_id then true
    else begin
      let line = Caches.Icache.line_of_addr arch entry.Trace.addr in
      let stall = Caches.Icache.access icache ~now:!now ~line in
      if stall > 0 then begin
        (* [icache_stall_cycles] is taken from the cache's own once-per-fill
           count at the end of the run: warps joining an in-flight fill
           used to re-add their whole wait here, over-counting one fill up
           to n_warps times. *)
        stall_warp w (!now + stall) Profile.icache;
        (* The fill is delivered to this warp even if contention
           evicts the line before the retry. *)
        w.paid_fetch <- entry_id;
        false
      end
      else true
    end
  in
  let regs_ready w (srcs : Isa.src array) =
    let t = ref 0 in
    for i = 0 to Array.length srcs - 1 do
      match srcs.(i) with
      | Isa.Sreg r -> if w.freg_ready.(r) > !t then t := w.freg_ready.(r)
      | Isa.Sshared a -> (
          match a.Isa.s_ireg with
          | Some r -> if w.ireg_ready.(r) > !t then t := w.ireg_ready.(r)
          | None -> ())
      | Isa.Simm _ | Isa.Sconst _ | Isa.Sconst_warp _ -> ()
    done;
    !t
  in
  let ccache_check w entry_id (entry : Trace.entry) =
    (* Probe the constant cache for every constant operand; a miss
       stalls the warp while the line fills (paid once per entry —
       the fill is delivered even under eviction pressure). *)
    if (not entry.Trace.has_const) || w.paid_const = entry_id then true
    else begin
      let srcs = entry.Trace.srcs in
      let stall = ref 0 in
      for i = 0 to Array.length srcs - 1 do
        match srcs.(i) with
        | Isa.Sconst slot ->
            stall := max !stall (Caches.Ccache.access ccache ~now:!now ~slot)
        | Isa.Sconst_warp base ->
            stall :=
              max !stall
                (Caches.Ccache.access ccache ~now:!now ~slot:(base + w.wid))
        | Isa.Sreg _ | Isa.Simm _ | Isa.Sshared _ -> ()
      done;
      if !stall > 0 then begin
        (* As with the i-cache: the aggregate counter now comes from the
           cache's once-per-fill count, not per-warp waits. *)
        stall_warp w (!now + !stall) Profile.ccache;
        w.paid_const <- entry_id;
        false
      end
      else true
    end
  in
  (* Block reason of the most recent failed issue attempt that left its
     warp Ready (profiler only): [try_issue] records it at every such
     [false] path, and the scheduler scan turns it into the warp's
     accrual bucket. *)
  let block = ref Profile.issue in
  (* Bucket of the latest-finishing unavailable source operand: the
     producer that actually gates this instruction. *)
  let sb_class ?ireg w (srcs : Isa.src array) =
    let t = ref 0 and cls = ref Profile.arith in
    for i = 0 to Array.length srcs - 1 do
      match srcs.(i) with
      | Isa.Sreg r ->
          if w.freg_ready.(r) > !t then begin
            t := w.freg_ready.(r);
            cls := freg_src.(w.index).(r)
          end
      | Isa.Sshared a -> (
          match a.Isa.s_ireg with
          | Some r ->
              if w.ireg_ready.(r) > !t then begin
                t := w.ireg_ready.(r);
                cls := ireg_src.(w.index).(r)
              end
          | None -> ())
      | Isa.Simm _ | Isa.Sconst _ | Isa.Sconst_warp _ -> ()
    done;
    (match ireg with
    | Some r ->
        if w.ireg_ready.(r) > !t then begin
          t := w.ireg_ready.(r);
          cls := ireg_src.(w.index).(r)
        end
    | None -> ());
    !cls
  in
  let set_block_sb ?ireg w srcs =
    if prof_on then block := sb_class ?ireg w srcs
  in
  let set_fsrc w r cls = if prof_on then freg_src.(w.index).(r) <- cls in
  let set_isrc w r cls = if prof_on then ireg_src.(w.index).(r) <- cls in
  (* Attempt to issue the next instruction of warp [w]; true if issued.
     A failed attempt either changes the warp's state (stall, retire) or
     parks it (see above); only a shared-operand arith blocked on the
     shared pipe stays in the ready set. *)
  let try_issue w =
    let entry_id = Trace.peek tr ~warp:w.wid ~batches:job.batches w.cur in
    if entry_id < 0 then begin
      if prof_on then prof_class w.index Profile.idle;
      w.st <- Retired;
      decr live;
      false
    end
    else
      let entry = tr.Trace.entries.(entry_id) in
      match entry.Trace.instr with
      | None ->
          (* Synthetic warp-ID branch. *)
          if not (pipe_free alu !now) then begin
            block := Profile.arith;
            park_pipe w wait_alu;
            false
          end
          else if not (fetch_ok w entry_id entry) then false
          else begin
            pipe_issue alu !now 1.0;
            c.branch_instrs <- c.branch_instrs + 1;
            finish_issue w entry;
            true
          end
      | Some instr -> (
          match instr with
          | Isa.Arith { op; dst; srcs; pred } ->
              let ready = regs_ready w srcs in
              let shared_ops = entry.Trace.shared_srcs in
              let n_shared = Array.length shared_ops in
              let collector = arch.Arch.shared_operand_collector in
              (* Without the operand collector a shared operand needs the
                 shared pipe after the DP pipe. Blocked on the DP pipe the
                 warp parks like any arith; blocked on the shared pipe it
                 stays ready, since its next attempt's profiler bucket
                 flips to arith as soon as the DP pipe is taken. *)
              let dual = n_shared > 0 && not collector in
              if ready > !now then begin
                set_block_sb w srcs;
                park_scoreboard w ready;
                false
              end
              else if not (pipe_free dp !now) then begin
                block := Profile.arith;
                park_pipe w wait_dp;
                false
              end
              else if dual && not (pipe_free shared_pipe !now) then begin
                hintf shared_pipe.busy;
                block := Profile.mem;
                false
              end
              else if not (ccache_check w entry_id entry) then false
              else if not (fetch_ok w entry_id entry) then false
              else begin
                let penalty =
                  if
                    entry.Trace.has_const
                    || ((op = Isa.Exp || op = Isa.Log)
                       && not p.Isa.exp_consts_in_registers)
                  then arch.Arch.const_operand_penalty
                  else 1.0
                in
                pipe_issue dp !now (entry.Trace.dp_slots *. penalty);
                c.dp_warp_instrs <- c.dp_warp_instrs + 1;
                let lo = lane_lo pred and hi = lane_hi pred in
                let extra = ref 0 in
                for i = 0 to n_shared - 1 do
                  let ways = conflict_ways shared_ops.(i) w lo hi in
                  c.shared_accesses <- c.shared_accesses + 1;
                  c.bank_conflict_slots <- c.bank_conflict_slots + ways - 1;
                  if not collector then
                    pipe_issue shared_pipe !now (float_of_int ways);
                  extra := arch.Arch.shared_latency
                done;
                w.freg_ready.(dst) <-
                  !now + (arch.Arch.arith_latency * entry.Trace.lat_mult)
                  + !extra;
                set_fsrc w dst Profile.arith;
                c.flops <- c.flops + (entry.Trace.flops * active_lanes pred);
                finish_issue w entry;
                true
              end
          | Isa.Mov { dst; src; pred } ->
              let ready = regs_ready w entry.Trace.srcs in
              if ready > !now then begin
                set_block_sb w entry.Trace.srcs;
                park_scoreboard w ready;
                false
              end
              else if not (pipe_free alu !now) then begin
                block := Profile.arith;
                park_pipe w wait_alu;
                false
              end
              else if not (ccache_check w entry_id entry) then false
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue alu !now 1.0;
                let lo = lane_lo pred and hi = lane_hi pred in
                let extra = ref 0 in
                (match src with
                | Isa.Sshared a ->
                    let ways = conflict_ways a w lo hi in
                    c.shared_accesses <- c.shared_accesses + 1;
                    c.bank_conflict_slots <- c.bank_conflict_slots + ways - 1;
                    pipe_issue shared_pipe !now (float_of_int ways);
                    extra := arch.Arch.shared_latency
                | _ -> ());
                w.freg_ready.(dst) <- !now + arch.Arch.arith_latency + !extra;
                set_fsrc w dst
                  (match src with
                  | Isa.Sshared _ -> Profile.mem
                  | _ -> Profile.arith);
                finish_issue w entry;
                true
              end
          | Isa.Ld_global { dst; via_tex; _ } ->
              if not (pipe_free lsu !now) then begin
                block := Profile.mem;
                park_pipe w wait_lsu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue lsu !now 1.0;
                let path = if via_tex && arch.Arch.has_ldg then tex else globalp in
                let bytes = 8 * 32 in
                (if via_tex && arch.Arch.has_ldg then
                   c.tex_bytes <- c.tex_bytes + bytes
                 else c.global_bytes <- c.global_bytes + bytes);
                let done_in = path_transfer path !now bytes in
                w.freg_ready.(dst) <-
                  !now + arch.Arch.global_latency + done_in;
                set_fsrc w dst Profile.mem;
                finish_issue w entry;
                true
              end
          | Isa.St_global { pred; _ } ->
              let ready = regs_ready w entry.Trace.srcs in
              if ready > !now then begin
                set_block_sb w entry.Trace.srcs;
                park_scoreboard w ready;
                false
              end
              else if not (pipe_free lsu !now) then begin
                block := Profile.mem;
                park_pipe w wait_lsu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue lsu !now 1.0;
                let bytes = 8 * active_lanes pred in
                c.global_bytes <- c.global_bytes + bytes;
                ignore (path_transfer globalp !now bytes);
                finish_issue w entry;
                true
              end
          | Isa.Ld_shared { dst; addr; pred } ->
              let ready =
                match addr.Isa.s_ireg with
                | Some r -> w.ireg_ready.(r)
                | None -> 0
              in
              if ready > !now then begin
                (if prof_on then
                   match addr.Isa.s_ireg with
                   | Some r -> block := ireg_src.(w.index).(r)
                   | None -> ());
                park_scoreboard w ready;
                false
              end
              else if not (pipe_free lsu !now && pipe_free shared_pipe !now)
              then begin
                block := Profile.mem;
                park_pipe w wait_lsu_shared;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue lsu !now 1.0;
                let lo = lane_lo pred and hi = lane_hi pred in
                let ways = conflict_ways addr w lo hi in
                c.shared_accesses <- c.shared_accesses + 1;
                c.bank_conflict_slots <- c.bank_conflict_slots + ways - 1;
                pipe_issue shared_pipe !now (float_of_int ways);
                w.freg_ready.(dst) <- !now + arch.Arch.shared_latency;
                set_fsrc w dst Profile.mem;
                finish_issue w entry;
                true
              end
          | Isa.St_shared { addr; pred; _ } ->
              let ready =
                max
                  (regs_ready w entry.Trace.srcs)
                  (match addr.Isa.s_ireg with
                  | Some r -> w.ireg_ready.(r)
                  | None -> 0)
              in
              if ready > !now then begin
                set_block_sb ?ireg:addr.Isa.s_ireg w entry.Trace.srcs;
                park_scoreboard w ready;
                false
              end
              else if not (pipe_free lsu !now && pipe_free shared_pipe !now)
              then begin
                block := Profile.mem;
                park_pipe w wait_lsu_shared;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue lsu !now 1.0;
                let lo = lane_lo pred and hi = lane_hi pred in
                let ways = conflict_ways addr w lo hi in
                c.shared_accesses <- c.shared_accesses + 1;
                c.bank_conflict_slots <- c.bank_conflict_slots + ways - 1;
                pipe_issue shared_pipe !now (float_of_int ways);
                finish_issue w entry;
                true
              end
          | Isa.Ld_local { dst; _ } ->
              if not (pipe_free lsu !now) then begin
                block := Profile.mem;
                park_pipe w wait_lsu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue lsu !now 1.0;
                let bytes = 8 * 32 in
                c.local_bytes <- c.local_bytes + bytes;
                let done_in = path_transfer localp !now bytes in
                w.freg_ready.(dst) <- !now + arch.Arch.global_latency + done_in;
                set_fsrc w dst Profile.mem;
                finish_issue w entry;
                true
              end
          | Isa.St_local { src; _ } ->
              if w.freg_ready.(src) > !now then begin
                if prof_on then block := freg_src.(w.index).(src);
                park_scoreboard w w.freg_ready.(src);
                false
              end
              else if not (pipe_free lsu !now) then begin
                block := Profile.mem;
                park_pipe w wait_lsu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue lsu !now 1.0;
                let bytes = 8 * 32 in
                c.local_bytes <- c.local_bytes + bytes;
                ignore (path_transfer localp !now bytes);
                finish_issue w entry;
                true
              end
          | Isa.Ld_const_bank { dst; _ } ->
              if not (pipe_free lsu !now) then begin
                block := Profile.mem;
                park_pipe w wait_lsu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue lsu !now 1.0;
                let path = if arch.Arch.has_ldg then tex else globalp in
                let bytes = 8 * 32 in
                (if arch.Arch.has_ldg then c.tex_bytes <- c.tex_bytes + bytes
                 else c.global_bytes <- c.global_bytes + bytes);
                let done_in = path_transfer path !now bytes in
                w.freg_ready.(dst) <- !now + arch.Arch.global_latency + done_in;
                set_fsrc w dst Profile.mem;
                finish_issue w entry;
                true
              end
          | Isa.Ld_param { dst_i; _ } ->
              if not (pipe_free lsu !now) then begin
                block := Profile.mem;
                park_pipe w wait_lsu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue lsu !now 1.0;
                let path = if arch.Arch.has_ldg then tex else globalp in
                let bytes = 4 * 32 in
                (if arch.Arch.has_ldg then c.tex_bytes <- c.tex_bytes + bytes
                 else c.global_bytes <- c.global_bytes + bytes);
                let done_in = path_transfer path !now bytes in
                w.ireg_ready.(dst_i) <- !now + arch.Arch.global_latency + done_in;
                set_isrc w dst_i Profile.mem;
                finish_issue w entry;
                true
              end
          | Isa.Shfl { dst; src; _ } ->
              if w.freg_ready.(src) > !now then begin
                if prof_on then block := freg_src.(w.index).(src);
                park_scoreboard w w.freg_ready.(src);
                false
              end
              else if not (pipe_free alu !now) then begin
                block := Profile.arith;
                park_pipe w wait_alu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue alu !now 2.0 (* two 32-bit shuffles per double *);
                w.freg_ready.(dst) <- !now + arch.Arch.arith_latency;
                set_fsrc w dst Profile.arith;
                finish_issue w entry;
                true
              end
          | Isa.Shfl_rot { dst; src; _ } | Isa.Shfl_bfly { dst; src; _ } ->
              if w.freg_ready.(src) > !now then begin
                if prof_on then block := freg_src.(w.index).(src);
                park_scoreboard w w.freg_ready.(src);
                false
              end
              else if not (pipe_free alu !now) then begin
                block := Profile.arith;
                park_pipe w wait_alu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue alu !now 2.0 (* two 32-bit shuffles per double *);
                w.freg_ready.(dst) <- !now + arch.Arch.arith_latency;
                set_fsrc w dst Profile.arith;
                finish_issue w entry;
                true
              end
          | Isa.Ishfl { dst_i; src_i; _ } ->
              if w.ireg_ready.(src_i) > !now then begin
                if prof_on then block := ireg_src.(w.index).(src_i);
                park_scoreboard w w.ireg_ready.(src_i);
                false
              end
              else if not (pipe_free alu !now) then begin
                block := Profile.arith;
                park_pipe w wait_alu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue alu !now 1.0;
                w.ireg_ready.(dst_i) <- !now + arch.Arch.arith_latency;
                set_isrc w dst_i Profile.arith;
                finish_issue w entry;
                true
              end
          | Isa.Bar_arrive { bar; count } ->
              if not (pipe_free alu !now) then begin
                block := Profile.arith;
                park_pipe w wait_alu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue alu !now 1.0;
                let b = bars.(w.cta).(bar) in
                b.arrived <- b.arrived + 1;
                if b.arrived >= count then begin
                  b.arrived <- b.arrived - count;
                  release_waiters b `Named bar
                end;
                finish_issue w entry;
                true
              end
          | Isa.Bar_sync { bar; count } ->
              if not (pipe_free alu !now) then begin
                block := Profile.arith;
                park_pipe w wait_alu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue alu !now 1.0;
                let b = bars.(w.cta).(bar) in
                b.arrived <- b.arrived + 1;
                finish_issue w entry;
                if b.arrived >= count then begin
                  b.arrived <- b.arrived - count;
                  release_waiters b `Named bar
                end
                else begin
                  w.st <- waiting_bar.(bar);
                  w.wait_since <- !now;
                  b.waiters.(b.n_waiters) <- w.index;
                  b.n_waiters <- b.n_waiters + 1
                end;
                true
              end
          | Isa.Bar_cta ->
              if not (pipe_free alu !now) then begin
                block := Profile.arith;
                park_pipe w wait_alu;
                false
              end
              else if not (fetch_ok w entry_id entry) then false
              else begin
                pipe_issue alu !now 1.0;
                let b = cta_bars.(w.cta) in
                b.arrived <- b.arrived + 1;
                finish_issue w entry;
                if b.arrived >= p.Isa.n_warps then begin
                  b.arrived <- 0;
                  release_waiters b `Cta nbar
                end
                else begin
                  w.st <- Waiting_cta;
                  w.wait_since <- !now;
                  b.waiters.(b.n_waiters) <- w.index;
                  b.n_waiters <- b.n_waiters + 1
                end;
                true
              end)
  in
  (* Profiler classification after a scheduler visit. On success the
     visit cycle is an [issue] cycle even when the warp parks on a
     barrier in the same call; on failure a still-Ready warp accrues the
     blocking reason recorded by [try_issue] (state transitions — stall,
     park, retire — were already classified at their site). *)
  let prof_issued w =
    let wi = w.index in
    match w.st with
    | Ready | Stalled | Retired -> prof_class wi Profile.issue
    | Waiting_bar _ | Waiting_cta ->
        prof_flush wi;
        pb.(wi).(Profile.issue) <- pb.(wi).(Profile.issue) + 1;
        ring_push wi Profile.issue !now (!now + 1);
        acct_from.(wi) <- !now + 1;
        acct_class.(wi) <-
          (if w.st = Waiting_cta then Profile.bar_cta else Profile.bar_named)
  in
  let prof_failed w =
    match w.st with Ready -> prof_class w.index !block | _ -> ()
  in
  (* --- main scheduling loop ---
     The scan visits the same position sequence as the original
     full-array round-robin — positions [(rr + k) mod n] for k = 0.. with
     [rr] re-based past a warp that issues — but skips runs of non-ready
     positions through the bitsets, stall wake-ups come from the event
     queue instead of re-testing every warp each cycle, and parked warps
     rejoin the ready set only when their retry can succeed: a
     scoreboard-parked warp at the cycle its operands are ready, a
     pipe-parked one when the scan reaches it while its pipes are free. *)
  let rr = ref 0 in
  let idle_streak = ref 0 in
  while !live > 0 do
    if !now >= budget then
      fault Cycle_budget
        (Printf.sprintf
           "cycle budget of %d exhausted with %d live warp(s) remaining"
           budget !live);
    while heap_min stalls <= !now do
      let wi = heap_pop stalls in
      warps.(wi).st <- Ready;
      set_ready wi
    done;
    while heap_min scoreboard <= !now do
      set_ready (heap_pop scoreboard)
    done;
    (* Wake-ups pushed *during* this cycle's scan must not shorten the
       fast-forward: the original scan only hinted warps that were already
       stalled when their position was visited, so a warp stalling
       mid-scan slept until the next hinted event. Snapshot the heap
       minimum now to reproduce that. *)
    let heap_min_start = heap_min stalls in
    min_hint := max_int;
    let issued_this_cycle = ref 0 in
    let k = ref 0 in
    let scanning = ref (!ready_count > 0 || !pipe_parked > 0) in
    while
      !scanning
      && !issued_this_cycle < arch.Arch.schedulers
      && !k < n_warps_total
    do
      let pos = (!rr + !k) mod n_warps_total in
      let j = next_candidate pos in
      if j < 0 then scanning := false
      else begin
        let d = (j - pos + n_warps_total) mod n_warps_total in
        if d > n_warps_total - 1 - !k then
          (* No ready warp among this cycle's remaining positions. *)
          scanning := false
        else begin
          k := !k + d;
          let w = warps.(j) in
          if ready_bits.(j lsr 5) land (1 lsl (j land 31)) = 0 then
            unpark_pipe j;
          if try_issue w then begin
            incr issued_this_cycle;
            rr := w.index + 1;
            if prof_on then prof_issued w
          end
          else if prof_on then prof_failed w;
          (match w.st with
          | Ready -> ()
          | Stalled | Waiting_bar _ | Waiting_cta | Retired ->
              clear_ready w.index);
          incr k
        end
      end
    done;
    if !issued_this_cycle = 0 then begin
      incr idle_streak;
      (* Deadlock: no warp is ready, parked or sleeping on a stall (the
         ready set, the parking places and the event queue are empty), so
         every live warp waits on a barrier with no pending releases
         possible. *)
      if
        !ready_count = 0 && stalls.hn = 0 && scoreboard.hn = 0
        && !pipe_parked = 0 && !live > 0
      then
        fault Barrier_deadlock
          (Printf.sprintf
             "every live warp (%d) waits on a barrier with no pending \
              arrival or stall wake-up"
             !live);
      (* Every parked warp would have failed this cycle's attempt: its
         retry cycle joins the hints, as the attempt's hint would have.
         Nothing issued, so no pipe moved this cycle, and the scan tried
         every warp of a class whose pipes were free: each class left
         holds warps on busy pipes. *)
      min_hint := min !min_hint (heap_min scoreboard);
      if !pipe_parked > 0 then
        for cls = 0 to n_wait_classes - 1 do
          if n_waiting.(cls) > 0 then
            min_hint := min !min_hint (wait_class_hint cls)
        done;
      if !idle_streak > 1_000_000 then
        fault No_progress
          (Printf.sprintf
             "no instruction issued for 1M consecutive scheduler visits \
              (hint=%d)"
             !min_hint);
      (* Fast-forward to the next possible event: the earliest stall
         wake-up pending at cycle start or the earliest retry of a warp
         blocked on its scoreboard or a busy pipe. *)
      let target = min heap_min_start !min_hint in
      now := if target = max_int then !now + 1 else max (!now + 1) target
    end
    else begin
      idle_streak := 0;
      incr now
    end
  done;
  (* Aggregate cache-stall counters are the caches' once-per-fill
     latency totals (the old per-warp accumulation re-counted a shared
     in-flight fill for every warp that joined it). *)
  c.icache_stall_cycles <-
    (Caches.Icache.stats icache).Caches.Icache.fill_stall_cycles;
  c.ccache_stall_cycles <-
    (Caches.Ccache.stats ccache).Caches.Ccache.fill_stall_cycles;
  let profile_result =
    match profile with
    | None -> None
    | Some _ ->
        (* Close every warp's open span at the final cycle; after this,
           each warp's buckets sum to exactly [!now]. *)
        for wi = 0 to n_warps_total - 1 do
          prof_flush wi
        done;
        (* Unroll the ring oldest-first so the timeline is chronological
           by span end. *)
        let spans =
          Array.init !ring_n (fun i ->
              let idx =
                if !ring_dropped = 0 then i
                else
                  let j = !ring_next + i in
                  if j >= ring_cap then j - ring_cap else j
              in
              {
                Profile.sp_warp = ring_warp.(idx);
                sp_bucket = ring_bucket.(idx);
                sp_start = ring_start.(idx);
                sp_stop = ring_stop.(idx);
              })
        in
        let bar_waits = ref [] in
        for slot = nbar downto 0 do
          if bw_count.(slot) > 0 then
            bar_waits :=
              {
                Profile.bw_bar = (if slot = nbar then -1 else slot);
                bw_count = bw_count.(slot);
                bw_total = bw_total.(slot);
                bw_max = bw_max.(slot);
                bw_hist = Array.copy bw_hist.(slot);
              }
              :: !bar_waits
        done;
        Some
          {
            Profile.cycles = !now;
            warps = Array.map (fun w -> (w.cta, w.wid)) warps;
            buckets = pb;
            bar_waits = !bar_waits;
            timeline = spans;
            timeline_dropped = !ring_dropped;
          }
  in
  assert (c.issued = Bytes.length order);
  let icache = Caches.Icache.stats icache and ccache = Caches.Ccache.stats ccache in
  ({ cycles = !now; counters = c; icache; ccache; profile = profile_result },
   Bytes.unsafe_to_string order)

(* Every value effect happens at issue, so the issue order alone
   determines the run's memory. *)
let replay (job : job) (tr : Trace.t) mem (order : order) =
  let p = job.program and warps = make_warps job in
  let columns n _ = Array.init n (fun _ -> Array.make 32 0.0) in
  let v =
    { mem; fregs = Array.map (columns (max 1 p.Isa.n_fregs)) warps; cols = columns 3 () }
  in
  String.iter
    (fun c ->
      let w = warps.(Char.code c) in
      let id = Trace.peek tr ~warp:w.wid ~batches:job.batches w.cur in
      if id < 0 then invalid_arg "Sm.replay: the order does not fit the job";
      let instr = tr.Trace.entries.(id).Trace.instr in
      execute_ints p w instr;
      (match instr with
      | Some i -> execute job v w i w.cur.Trace.batch
      | None -> ());
      Trace.advance w.cur)
    order
