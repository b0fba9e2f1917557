module A = Gpusim.Arch
module I = Gpusim.Isa
module T = Gpusim.Trace

(* The memory paths (texture, global, local spill): indexes of the walk's
   per-path state and bits of a phase's path mask. *)
let tex = 0
let glob = 1
let loc = 2

(* A divergent region longer than this many instructions occupies its own
   prefetch stream (two cache lines of run-ahead no longer cover it). *)
let long_path_instrs = 128

type path_users = { on_tex : int; on_glob : int; on_loc : int }

(* Two of the model's six calibration scalars, the two the walk reads;
   perf_model.ml holds the other four and says what the scalars absorb. *)

(* Exposed constant-cache fill latency per constant-operand instruction
   once the working set thrashes the 8 KB cache: most accesses then miss,
   but adjacent slots share lines and followers ride in-flight fills, so
   only a fraction of a full trip is exposed per access (the profiler
   measures 30-65 cycles against a 440-cycle fill on the shipped
   mechanisms). *)
let ccache_exposure = 0.15

(* Cross-CTA dilution of memory-path contention. Warps of one CTA march
   through their load phases in lockstep and genuinely collide on the
   path, but co-resident CTAs drift apart (staggered launch, divergent
   stalls), so only part of their traffic lands in the same window. The
   original model charged the full pack ([resident * users / 2]), which
   was invisible while every shipped kernel ran at 1-2 resident CTAs;
   the stencil pipelines occupy 4 and exposed the overestimate. *)
let cross_cta_overlap = 0.5

(* Accumulated cost of a run of instructions between barrier operations —
   also used (summed over every warp) as the per-batch resource demand.
   Every field is a float (the instruction count too) so OCaml stores the
   record flat and the per-entry updates allocate nothing. *)
type seg = {
  mutable instrs : float;  (* issue slots; also the warp's 1-IPC floor *)
  mutable dp : float;  (* DP slots, constant-operand penalty applied *)
  mutable alu : float;
  mutable lsu : float;
  mutable shared : float;  (* shared-pipe slots *)
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
  match e.T.instr with
  | None -> s.alu <- s.alu +. 1.0 (* synthetic warp-id branch *)
  | Some instr -> (
      match instr with
      | I.Arith { op; _ } ->
          s.dp <- s.dp +. (e.T.dp_slots *. arith_penalty arch p e op);
          let n_shared = Array.length e.T.shared_srcs in
          if n_shared > 0 && not arch.A.shared_operand_collector then
            s.shared <- s.shared +. float_of_int n_shared
      | I.Mov { src; _ } ->
          s.alu <- s.alu +. 1.0;
          if match src with I.Sshared _ -> true | _ -> false then
            s.shared <- s.shared +. 1.0
      | I.Ld_global { via_tex; _ } ->
          s.lsu <- s.lsu +. 1.0;
          let bytes = 8.0 *. 32.0 in
          if via_tex && arch.A.has_ldg then s.tex_b <- s.tex_b +. bytes
          else s.glob_b <- s.glob_b +. bytes
      | I.St_global { pred; _ } ->
          s.lsu <- s.lsu +. 1.0;
          s.glob_b <- s.glob_b +. (8.0 *. float_of_int (active_lanes pred))
      | I.Ld_shared _ | I.St_shared _ ->
          s.lsu <- s.lsu +. 1.0;
          s.shared <- s.shared +. 1.0
      | I.Ld_local _ | I.St_local _ ->
          s.lsu <- s.lsu +. 1.0;
          s.loc_b <- s.loc_b +. (8.0 *. 32.0)
      | I.Ld_const_bank _ ->
          s.lsu <- s.lsu +. 1.0;
          let bytes = 8.0 *. 32.0 in
          if arch.A.has_ldg then s.tex_b <- s.tex_b +. bytes
          else s.glob_b <- s.glob_b +. bytes
      | I.Ld_param _ ->
          s.lsu <- s.lsu +. 1.0;
          let bytes = 4.0 *. 32.0 in
          if arch.A.has_ldg then s.tex_b <- s.tex_b +. bytes
          else s.glob_b <- s.glob_b +. bytes
      | I.Shfl _ | I.Shfl_rot _ | I.Shfl_bfly _ -> s.alu <- s.alu +. 2.0
      | I.Ishfl _ | I.Bar_arrive _ | I.Bar_sync _ | I.Bar_cta ->
          s.alu <- s.alu +. 1.0)

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

type scoreboard = {
  freg : float array;  (* result-ready time per double register *)
  ireg : float array;
  drain : float array;  (* own backlog per memory path *)
  c : clocks;
}

let scoreboard_make (p : I.program) =
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
let walk_rates (arch : A.t) ~(users : path_users) ~resident ~ccache_thrash =
  let mult n =
    let own = float_of_int n in
    let others = cross_cta_overlap *. own *. float_of_int (resident - 1) in
    Float.max 1.0 ((own +. others) /. 2.0)
  in
  {
    rate =
      [|
        arch.A.tex_bytes_per_cycle /. mult users.on_tex;
        arch.A.global_bytes_per_cycle /. mult users.on_glob;
        arch.A.local_bytes_per_cycle /. mult users.on_loc;
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

let walk_step (arch : A.t) (p : I.program) (r : walk_rates) (wk : scoreboard)
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
              (if via_tex && arch.A.has_ldg then tex else glob)
              256.0
          in
          wk.freg.(dst) <- c.clk +. r.lat +. done_in
      | I.St_global { pred; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          ignore
            (path_done wk r glob (8.0 *. float_of_int (active_lanes pred)))
      | I.Ld_shared { dst; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          c.sh_free <- gate c c.sh_free 1.0 arch.A.shared_issue_per_cycle;
          wk.freg.(dst) <- c.clk +. float_of_int arch.A.shared_latency
      | I.St_shared _ ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          c.sh_free <- gate c c.sh_free 1.0 arch.A.shared_issue_per_cycle
      | I.Ld_local { dst; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          let done_in = path_done wk r loc 256.0 in
          wk.freg.(dst) <- c.clk +. r.lat +. done_in
      | I.St_local _ ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          ignore (path_done wk r loc 256.0)
      | I.Ld_const_bank { dst; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          let done_in =
            path_done wk r (if arch.A.has_ldg then tex else glob) 256.0
          in
          wk.freg.(dst) <- c.clk +. r.lat +. done_in
      | I.Ld_param { dst_i; _ } ->
          c.lsu_free <- gate c c.lsu_free 1.0 1.0;
          let done_in =
            path_done wk r (if arch.A.has_ldg then tex else glob) 128.0
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
  wk : scoreboard;
  mutable s : seg;
  mutable items : item list;
  mutable closed : seg list;
}

let stream_make p =
  { wk = scoreboard_make p; s = seg_zero (); items = []; closed = [] }

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
        Sutil.Filled.of_rev_list Cta st.items)
      streams
  in
  (items, agg)

(* A walk of every warp's prologue and body streams at one resident CTA
   count: the per-warp item streams and each phase's per-batch demand.
   Nothing writes it after [walk] returns. *)
type walk = {
  resident : int;
  prologue : item array array;
  body : item array array;
  prologue_demand : seg;
  body_demand : seg;
}

type t = {
  prologue_users : path_users;
  body_users : path_users;
  ic_cold_lines : int;
  body_lines : int;
  thrash : bool;
  cc_cold_lines : int;
  n_long_paths : int;
  own_walk : walk option;
}

(* Divergent regions long enough to need their own prefetch stream. *)
let rec long_paths (b : I.block) =
  match b with
  | I.Instrs _ -> 0
  | I.Seq bs -> List.fold_left (fun acc b -> acc + long_paths b) 0 bs
  | I.If_warps { body; _ } ->
      (if I.static_instr_count body > long_path_instrs then 1 else 0)
      + long_paths body
  | I.Switch_warp arms ->
      Array.fold_left
        (fun acc arm ->
          acc
          + (if I.static_instr_count arm > long_path_instrs then 1 else 0)
          + long_paths arm)
        0 arms

(* A set of small non-negative ints — code lines and constant lines,
   both dense and bounded by the code size or the constant memory — as a
   byte mask indexed by the key, grown on demand, that counts its
   members. *)
type dense_set = { mutable mask : Bytes.t; mutable size : int }

let dense_set () = { mask = Bytes.make 64 '\000'; size = 0 }

let dense_add s i =
  let n = Bytes.length s.mask in
  if i >= n then begin
    let m = Bytes.make (max (i + 1) (2 * n)) '\000' in
    Bytes.blit s.mask 0 m 0 n;
    s.mask <- m
  end;
  if Bytes.get s.mask i = '\000' then begin
    Bytes.set s.mask i '\001';
    s.size <- s.size + 1
  end

(* Constant lines an entry's operands touch, as warp [w] runs it:
   [Sconst_warp] reaches one slot per warp id, so [w = -1] stands for
   every warp of the CTA. *)
let add_const_lines (p : I.program) ~spl lines ~w (e : T.entry) =
  if e.T.has_const then
    for i = 0 to Array.length e.T.srcs - 1 do
      match e.T.srcs.(i) with
      | I.Sconst slot -> dense_add lines (slot / spl)
      | I.Sconst_warp base ->
          if w >= 0 then dense_add lines ((base + w) / spl)
          else
            for w = 0 to p.I.n_warps - 1 do
              dense_add lines ((base + w) / spl)
            done
      | I.Sreg _ | I.Simm _ | I.Sshared _ -> ()
    done

(* The memory path an entry feeds, as the bit [1 lsl path] (0 for
   none). *)
let path_bit (arch : A.t) (e : T.entry) =
  match e.T.instr with
  | Some (I.Ld_global { via_tex; _ }) ->
      1 lsl if via_tex && arch.A.has_ldg then tex else glob
  | Some (I.St_global _) -> 1 lsl glob
  | Some (I.Ld_local _ | I.St_local _) -> 1 lsl loc
  | Some (I.Ld_const_bank _ | I.Ld_param _) ->
      1 lsl if arch.A.has_ldg then tex else glob
  | _ -> 0

(* Walk every warp's prologue and body streams at once, in layout order:
   each warp sees its own entries in program order. [iter] yields the
   layout as {!T.iter} does. *)
let walk_layout (arch : A.t) (p : I.program) (f : t) ~resident iter =
  let n_warps = p.I.n_warps in
  let pro_rates =
    walk_rates arch ~users:f.prologue_users ~resident ~ccache_thrash:false
  in
  let body_rates =
    walk_rates arch ~users:f.body_users ~resident ~ccache_thrash:f.thrash
  in
  let pro = Array.init n_warps (fun _ -> stream_make p) in
  let body = Array.init n_warps (fun _ -> stream_make p) in
  let step_warps streams r warps e =
    for w = 0 to n_warps - 1 do
      if warps land (1 lsl w) <> 0 then step arch p r streams.(w) e
    done
  in
  iter (fun phase warps e ->
      match phase with
      | T.Prologue -> step_warps pro pro_rates warps e
      | T.Body -> step_warps body body_rates warps e);
  let prologue, prologue_demand = finish pro in
  let body, body_demand = finish body in
  { resident; prologue; body; prologue_demand; body_demand }

let walk arch p f ~resident =
  walk_layout arch p f ~resident (fun k -> ignore (T.iter arch p k))

(* A program's layout as {!T.iter} yields it, kept so that [of_layout]
   flattens the program once for its own sets and for its walk. The
   prologue's entries come first. *)
type layout = {
  entries : T.entry array;
  warp_sets : int array;
  mutable len : int;
  mutable n_prologue : int;
}

(* The entries {!T.iter} yields for a block: one per instruction and
   one per warp-id branch. *)
let rec entry_count (b : I.block) =
  match b with
  | I.Instrs l -> List.length l
  | I.Seq bs -> List.fold_left (fun n b -> n + entry_count b) 0 bs
  | I.If_warps { body; _ } -> 1 + entry_count body
  | I.Switch_warp arms ->
      Array.fold_left (fun n b -> n + entry_count b) 1 arms

(* A static entry to start [entries] with (see {!Sutil.Filled}). *)
let no_entry =
  {
    T.instr = None;
    addr = 0;
    srcs = [||];
    shared_srcs = [||];
    has_const = false;
    lat_mult = 1;
    dp_slots = 0.0;
    flops = 0;
  }

let layout_add l phase warps e =
  l.entries.(l.len) <- e;
  l.warp_sets.(l.len) <- warps;
  l.len <- l.len + 1;
  if phase = T.Prologue then l.n_prologue <- l.len

let layout_iter l k =
  for i = 0 to l.len - 1 do
    k (if i < l.n_prologue then T.Prologue else T.Body) l.warp_sets.(i)
      l.entries.(i)
  done

let of_layout (arch : A.t) (p : I.program) =
  let n_warps = p.I.n_warps in
  let line_bytes = A.icache_line_bytes arch in
  let spl = arch.A.const_line_bytes / 8 in
  let own_lines = Array.init n_warps (fun _ -> dense_set ()) in
  let own_consts = Array.init n_warps (fun _ -> dense_set ()) in
  let body_lines = dense_set () and body_consts = dense_set () in
  let paths = Array.make_matrix 2 n_warps 0 in
  let layout =
    let n = entry_count p.I.prologue + entry_count p.I.body in
    {
      entries = Array.make n no_entry;
      warp_sets = Array.make n 0;
      len = 0;
      n_prologue = 0;
    }
  in
  ignore
    (T.iter arch p (fun phase warps e ->
         layout_add layout phase warps e;
         let line = e.T.addr / line_bytes in
         let ph = match phase with T.Prologue -> 0 | T.Body -> 1 in
         let bit = path_bit arch e in
         for w = 0 to n_warps - 1 do
           if warps land (1 lsl w) <> 0 then begin
             dense_add own_lines.(w) line;
             paths.(ph).(w) <- paths.(ph).(w) lor bit;
             if ph = 1 then add_const_lines p ~spl own_consts.(w) ~w e
           end
         done;
         if ph = 1 && warps <> 0 then begin
           dense_add body_lines line;
           add_const_lines p ~spl body_consts ~w:(-1) e
         end));
  let most sets = Array.fold_left (fun acc s -> max acc s.size) 0 sets in
  let users ph =
    let on b =
      Array.fold_left
        (fun n used -> if used land (1 lsl b) <> 0 then n + 1 else n)
        0 paths.(ph)
    in
    { on_tex = on tex; on_glob = on glob; on_loc = on loc }
  in
  let f =
    {
      prologue_users = users 0;
      body_users = users 1;
      ic_cold_lines = most own_lines;
      body_lines = body_lines.size;
      thrash =
        body_consts.size * arch.A.const_line_bytes > arch.A.const_cache_bytes;
      cc_cold_lines = most own_consts;
      n_long_paths = long_paths p.I.body;
      own_walk = None;
    }
  in
  (* A launch of at least the program's occupancy in CTAs runs that many
     resident, so one walk there serves every such prediction. A program
     that fits no CTA gets no walk: [predict] rejects it before walking. *)
  match (Gpusim.Chip.occupancy arch p).Gpusim.Chip.resident_ctas with
  | resident ->
      {
        f with
        own_walk = Some (walk_layout arch p f ~resident (layout_iter layout));
      }
  | exception Gpusim.Chip.Occupancy_rejected _ -> f

(* A launch's prediction. Defined here, below [Compile], so an
   artifact's launch state can keep the answers; [Perf_model] computes
   them and re-exports the type. *)
type prediction = {
  occ : Gpusim.Chip.occupancy;
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
  chip : Gpusim.Chip.schedule;
  time_s : float;
  points_per_sec : float;
}
