type const_policy = Bank | Const_mem | Immediate

type config = {
  arch : Gpusim.Arch.t;
  overlay : bool;
  const_policy : const_policy;
  exp_consts_in_registers : bool;
  param_stripe_threshold : int;
  freg_budget : int;
  synth_exchange : bool;
  list_schedule : bool;
}

type output = {
  program : Gpusim.Isa.program;
  n_spill_slots : int;
  spill_bytes_per_thread : int;
  n_bank_regs : int;
  n_params : int;
  n_logical_consts : int;
  exchange : Shuffle_synth.report;
}

module Isa = Gpusim.Isa

(* ---- virtual IR ---- *)

type vshaddr = {
  vs_base : int;
  vs_lane : bool;
  vs_warp : bool;  (** add the warp id (broadcast mirror) *)
  vs_param : int option;  (** logical parameter id *)
}

type vsrc =
  | Vreg of int
  | Vimm of float
  | Vconst_mem of int
  | Vconst_warp of int  (** warp-strided constant memory base *)
  | Vshared of vshaddr
  | Vbank of int  (** logical constant id, read from its bank register *)

type vfield = VF_static of int | VF_param of int

type vinstr =
  | VArith of { op : Isa.fop; dst : int; srcs : vsrc array; pred : Isa.pred option }
  | VLdG of { dst : int; group : int; field : vfield; via_tex : bool }
  | VStG of { src : vsrc; group : int; field : vfield }
  | VLdS of { dst : int; addr : vshaddr }
  | VStS of { src : vsrc; addr : vshaddr; pred : Isa.pred option }
  | VBcast of { dst : int; logical : int }
      (** Kepler: shuffle broadcast of a banked constant into a register *)
  | VSwz of { dst : int; src : int; step : Shuffle_synth.step }
      (** one step of a synthesized lane-permutation program replacing a
          shared-memory exchange ([--synth-exchange]) *)
  | VBarA of { bar : int; count : int }
  | VBarW of { bar : int; count : int }
  | VBarCta

(* ---- growable tables for logical constants and parameters ---- *)

type tables = {
  mutable consts : float array list;  (** newest first; per-warp values *)
  mutable n_consts : int;
  const_cache : (string, int) Hashtbl.t;
  mutable params : int array list;
  mutable n_params : int;
  param_cache : (string, int * int array) Hashtbl.t;
  mutable const_mem_rev : float list;
  mutable n_const_mem : int;
  const_mem_cache : (float, int) Hashtbl.t;
  n_warps : int;
}

let fresh_tables n_warps =
  {
    consts = [];
    n_consts = 0;
    const_cache = Hashtbl.create 64;
    params = [];
    n_params = 0;
    param_cache = Hashtbl.create 64;
    const_mem_rev = [];
    n_const_mem = 0;
    const_mem_cache = Hashtbl.create 64;
    n_warps;
  }

(* Dedup keys are packed 64-bit words, so building one costs no
   formatting. A constant vector groups exactly as its ["%h"] rendering
   used to: values compare by {!Sexpr.canonical_bits}. *)
let pack_ints n f =
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * i) (f i)
  done;
  Bytes.unsafe_to_string b

let const_key (values : float array) =
  pack_ints (Array.length values) (fun i -> Sexpr.canonical_bits values.(i))

let alloc_const tables (values : float array) =
  let key = const_key values in
  match Hashtbl.find_opt tables.const_cache key with
  | Some id -> id
  | None ->
      let id = tables.n_consts in
      tables.consts <- values :: tables.consts;
      tables.n_consts <- id + 1;
      Hashtbl.add tables.const_cache key id;
      id

let warps_of_mask ~n_warps mask =
  List.filter (fun w -> mask land (1 lsl w) <> 0) (List.init n_warps Fun.id)

(* Parameter with per-warp integer values; vectors equal up to a constant
   offset share one slot (the offset folds into the static base). Returns
   (logical id, base offset). [exact] forbids offset folding — global field
   selectors have no place to carry a base. The key holds the mask, the
   first masked warp's value when [exact], and each masked warp's offset
   from it. *)
let alloc_param ?(exact = false) tables ~mask (values : int array) =
  let ws = Array.of_list (warps_of_mask ~n_warps:tables.n_warps mask) in
  let w0 = ws.(0) in
  let head = if exact then [| 1; mask; values.(w0) |] else [| 0; mask |] in
  let nh = Array.length head in
  let key =
    pack_ints
      (nh + Array.length ws)
      (fun i ->
        Int64.of_int
          (if i < nh then head.(i) else values.(ws.(i - nh)) - values.(w0)))
  in
  match Hashtbl.find_opt tables.param_cache key with
  | Some (id, base_values) ->
      let offset = values.(w0) - base_values.(w0) in
      assert ((not exact) || offset = 0);
      (id, offset)
  | None ->
      let id = tables.n_params in
      tables.params <- Array.copy values :: tables.params;
      tables.n_params <- id + 1;
      Hashtbl.add tables.param_cache key (id, Array.copy values);
      (id, 0)

let alloc_const_mem tables v =
  match Hashtbl.find_opt tables.const_mem_cache v with
  | Some s -> s
  | None ->
      let s = tables.n_const_mem in
      tables.const_mem_rev <- v :: tables.const_mem_rev;
      tables.n_const_mem <- s + 1;
      Hashtbl.add tables.const_mem_cache v s;
      s

(* ---- statement shapes for overlay grouping ---- *)

type ctx = {
  cfg : config;
  dfg : Dfg.t;
  mapping : Mapping.t;
  tables : tables;
  groups : Isa.group_info array;
  vreg_of : int array array;
      (** warp -> dfg value -> vreg, [-1] when the warp holds no copy;
          a warp this stream never lowers has an empty row *)
  mutable next_vreg : int;
  mutable out_rev : (int * vinstr) list;  (** (mask, instr), newest first *)
  full_mask : int;
  buffer_base : int;
  mirror_base : int;
  mutable mirror_rot : int;
      (** rotating mirror slot so several broadcast constants can be live
          in one instruction (up to the 3-operand maximum) *)
  bank_cap : int;
      (** logical constants that fit the register bank; the rest overflow
          to a per-warp shared-memory constant region *)
  overflow_base : int;  (** shared address of that region *)
}

let ctx_group ctx name =
  let found = ref (-1) in
  Array.iteri
    (fun i (g : Isa.group_info) ->
      if !found < 0 && g.Isa.group_name = name then found := i)
    ctx.groups;
  if !found < 0 then invalid_arg ("lower: unknown field group " ^ name);
  !found

let fresh_vreg ctx =
  let v = ctx.next_vreg in
  ctx.next_vreg <- v + 1;
  v

let emit ctx mask i = ctx.out_rev <- (mask, i) :: ctx.out_rev

let vreg_get ctx ~warp value =
  let row = ctx.vreg_of.(warp) in
  if value >= 0 && value < Array.length row then row.(value) else -1

(* A missing binding means the schedule consumed a value a warp never
   produced or received, and that must surface as a diagnostic naming the
   warp and value, not as an anonymous exception escaping the pipeline. *)
let vreg_find ctx ~what ~warp value =
  let r = vreg_get ctx ~warp value in
  if r < 0 then
    Diagnostics.failf ~pass:"lower"
      "%s: dfg value %d is not in a register for warp %d (consumed before \
       any compute/load/recv produced it there)"
      what value warp;
  r

let vreg_set ctx ~warp value r =
  let row = ctx.vreg_of.(warp) in
  if value < 0 || value >= Array.length row then
    Diagnostics.failf ~pass:"lower"
      "warp %d binds dfg value %d outside the graph (%d values)" warp value
      (Array.length row);
  row.(value) <- r

(* Source class of an op input as seen by one warp: [-1] for shared-placed
   values, which are always read from shared memory (uniform across
   warps); otherwise the vreg of the warp's local copy, which must
   exist. *)
let src_class ctx warp v =
  if v < 0 || v >= Array.length ctx.mapping.Mapping.value_place then
    Diagnostics.failf ~pass:"lower"
      "schedule references dfg value %d outside the graph (%d values)" v
      (Array.length ctx.mapping.Mapping.value_place);
  match ctx.mapping.Mapping.value_place.(v) with
  | Mapping.P_shared -> -1
  | Mapping.P_reg ->
      let r = vreg_get ctx ~warp v in
      if r < 0 then
        Diagnostics.failf ~pass:"lower"
          "warp %d reads value %s (%d) with no register copy in scope" warp
          ctx.dfg.Dfg.values.(v).Dfg.vname v;
      r

(* The grouping key of an action is its static key — everything but the
   source classes, fixed per op — plus the source classes of its register
   inputs as the warp sees them. Two warps' actions overlay into one
   instruction sequence exactly when both parts agree. A compute op's
   expression enters the static key as its [shape_id]. *)
let static_key ctx ~shape_id (a : Schedule.action) =
  match a with
  | Schedule.A_op op_id -> (
      let op = ctx.dfg.Dfg.ops.(op_id) in
      (* The destination's placement is part of the shape: a group must
         either store its results to shared memory or keep them in
         registers uniformly. *)
      let out_place =
        match op.Dfg.output with
        | None -> "-"
        | Some v -> (
            match ctx.mapping.Mapping.value_place.(v) with
            | Mapping.P_shared -> "S"
            | Mapping.P_reg -> "R")
      in
      let tag = match op.Dfg.align with Some a -> a ^ "|" | None -> "" in
      match op.Dfg.kind with
      | Dfg.Fence -> "fence"
      | Dfg.Load { group; via_tex; _ } ->
          Printf.sprintf "%sld:%s:%b:%s" tag group via_tex out_place
      | Dfg.Store { group; _ } -> Printf.sprintf "%sst:%s" tag group
      | Dfg.Compute e ->
          Printf.sprintf "%sc:%d:%s" tag (shape_id e) out_place)
  | Schedule.A_send _ -> "snd"
  | Schedule.A_recv _ -> "rcv"
  | Schedule.A_arrive { bar; count } -> Printf.sprintf "ba:%d:%d" bar count
  | Schedule.A_wait { bar; count } -> Printf.sprintf "bw:%d:%d" bar count
  | Schedule.A_cta_barrier -> "cta"

(* The dfg values whose source classes complete an action's key. *)
let class_values ctx (a : Schedule.action) =
  match a with
  | Schedule.A_op op_id -> (
      let op = ctx.dfg.Dfg.ops.(op_id) in
      match op.Dfg.kind with
      | Dfg.Compute _ -> op.Dfg.inputs
      | Dfg.Store _ -> [| op.Dfg.inputs.(0) |]
      | Dfg.Fence | Dfg.Load _ -> [||])
  | Schedule.A_send { value; _ } -> [| value |]
  | Schedule.A_recv _ | Schedule.A_arrive _ | Schedule.A_wait _
  | Schedule.A_cta_barrier ->
      [||]

(* ---- constant materialization ---- *)

(* Emit whatever is needed to use a bankable constant whose per-warp values
   are [values] (entries of warps outside [ws] are padding); returns the
   operand. *)
let const_operand ctx ~mask ~ws (values : float array) =
  let w0 = List.hd ws in
  let all_equal = List.for_all (fun w -> values.(w) = values.(w0)) ws in
  match ctx.cfg.const_policy with
  | Immediate -> Vimm values.(w0) (* naive mode lowers warps one at a time *)
  | Const_mem ->
      if not all_equal then
        invalid_arg "lower: per-warp constants under the Const_mem policy";
      Vconst_mem (alloc_const_mem ctx.tables values.(w0))
  | Bank ->
      if all_equal then Vimm values.(w0)
      else begin
        let logical = alloc_const ctx.tables values in
        if logical >= ctx.bank_cap then
          (* Register bank exhausted: the constant overflows to constant
             memory, one slot per warp, reached by dynamic (warp-strided)
             constant addressing through the constant cache. *)
          Vconst_warp ((logical - ctx.bank_cap) * ctx.mapping.Mapping.n_warps)
        else
        match ctx.cfg.arch.Gpusim.Arch.broadcast with
        | Gpusim.Arch.Shuffle ->
            let dst = fresh_vreg ctx in
            emit ctx mask (VBcast { dst; logical });
            Vreg dst
        | Gpusim.Arch.Shared_mirror ->
            (* Listing 2: the owning lane writes the warp's mirror slot and
               the whole warp reads it back. The value is materialized into
               a register at once — an expression may hold many broadcast
               constants live, more than the small mirror rotation could
               keep distinct as raw operands. *)
            let rot = ctx.mirror_rot in
            ctx.mirror_rot <- (rot + 1) mod 4;
            let addr =
              { vs_base = ctx.mirror_base + (rot * ctx.mapping.Mapping.n_warps);
                vs_lane = false; vs_warp = true; vs_param = None }
            in
            emit ctx mask
              (VStS
                 { src = Vbank logical; addr;
                   pred = Some (Isa.Lane_eq (logical mod 32)) });
            let dst = fresh_vreg ctx in
            emit ctx mask (VLdS { dst; addr });
            Vreg dst
      end

(* Shared address whose base may differ per warp: returns a vshaddr using a
   parameter when needed. [addrs] gives the base per warp (entries of warps
   outside [mask] are ignored). *)
let shared_operand ctx ~mask ~(addrs : int array) ~lane =
  let ws =
    List.filter (fun w -> mask land (1 lsl w) <> 0)
      (List.init ctx.mapping.Mapping.n_warps Fun.id)
  in
  let w0 = List.hd ws in
  let uniform = List.for_all (fun w -> addrs.(w) = addrs.(w0)) ws in
  if uniform then
    { vs_base = addrs.(w0); vs_lane = lane; vs_warp = false; vs_param = None }
  else begin
    let id, base = alloc_param ctx.tables ~mask addrs in
    { vs_base = base; vs_lane = lane; vs_warp = false; vs_param = Some id }
  end

(* ---- expression lowering for a group of warps ---- *)

let lower_compute ctx ~mask ~(ws : int list) ~(ops : Dfg.op array) =
  (* ops.(k) is the op of ws.(k); all share one expression shape. *)
  let w0_op = ops.(0) in
  let expr = match w0_op.Dfg.kind with Dfg.Compute e -> e | _ -> assert false in
  let n_warps = ctx.mapping.Mapping.n_warps in
  (* Per-warp constant queues, in canonical traversal order. *)
  let const_queues =
    Array.map (fun (op : Dfg.op) -> ref (Dfg.op_constants op)) ops
  in
  let pop_consts () =
    let values = Array.make n_warps 0.0 in
    List.iteri
      (fun k w ->
        match !(const_queues.(k)) with
        | v :: rest ->
            values.(w) <- v;
            const_queues.(k) := rest
        | [] -> assert false)
      ws;
    values
  in
  (* Resolve input position [i] to an operand. *)
  let input_operand i =
    let v0 = ops.(0).Dfg.inputs.(i) in
    match ctx.mapping.Mapping.value_place.(v0) with
    | Mapping.P_reg ->
        (* Same vreg across the group by the grouping key. *)
        Vreg (vreg_find ctx ~what:"compute input" ~warp:(List.hd ws) v0)
    | Mapping.P_shared ->
        let addrs = Array.make n_warps 0 in
        List.iteri
          (fun k w ->
            addrs.(w) <- Mapping.store_addr ctx.mapping ops.(k).Dfg.inputs.(i))
          ws;
        Vshared (shared_operand ctx ~mask ~addrs ~lane:true)
  in
  let rec go env (e : Sexpr.t) =
    match e with
    | Sexpr.Imm v -> Vimm v
    | Sexpr.C _ -> const_operand ctx ~mask ~ws (pop_consts ())
    | Sexpr.In i -> input_operand i
    | Sexpr.Var i -> (
        match List.nth_opt env i with
        | Some v -> v
        | None ->
            Diagnostics.failf ~pass:"lower"
              "expression for warp %d references let-variable %d with only \
               %d binding(s) in scope"
              (List.hd ws) i (List.length env))
    | Sexpr.Let (d, b) ->
        let sd = go env d in
        go (sd :: env) b
    | Sexpr.Un (op, a) ->
        let sa = go env a in
        let dst = fresh_vreg ctx in
        emit ctx mask (VArith { op; dst; srcs = [| sa |]; pred = None });
        Vreg dst
    | Sexpr.Bin (op, a, b) ->
        let sa = go env a in
        let sb = go env b in
        let dst = fresh_vreg ctx in
        emit ctx mask (VArith { op; dst; srcs = [| sa; sb |]; pred = None });
        Vreg dst
    | Sexpr.Fma3 (a, b, c) ->
        let sa = go env a in
        let sb = go env b in
        let sc = go env c in
        let dst = fresh_vreg ctx in
        emit ctx mask
          (VArith { op = Isa.Fma; dst; srcs = [| sa; sb; sc |]; pred = None });
        Vreg dst
  in
  let result = go [] expr in
  (* Normalize the result into a register. *)
  let result_reg =
    match result with
    | Vreg r -> r
    | other ->
        let dst = fresh_vreg ctx in
        emit ctx mask
          (VArith { op = Isa.Add; dst; srcs = [| other; Vimm 0.0 |]; pred = None });
        dst
  in
  let out_v k = match ops.(k).Dfg.output with Some v -> v | None -> assert false in
  (match ctx.mapping.Mapping.value_place.(out_v 0) with
  | Mapping.P_shared ->
      let addrs = Array.make n_warps 0 in
      List.iteri
        (fun k w -> addrs.(w) <- Mapping.store_addr ctx.mapping (out_v k))
        ws;
      let addr = shared_operand ctx ~mask ~addrs ~lane:true in
      emit ctx mask (VStS { src = Vreg result_reg; addr; pred = None })
  | Mapping.P_reg ->
      List.iteri
        (fun k w -> vreg_set ctx ~warp:w (out_v k) result_reg)
        ws)

let lower_action_group ctx ~mask ~(ws : int list)
    ~(actions : Schedule.action array) =
  let n_warps = ctx.mapping.Mapping.n_warps in
  match actions.(0) with
  | Schedule.A_op _ -> (
      let ops =
        Array.map
          (function Schedule.A_op id -> ctx.dfg.Dfg.ops.(id) | _ -> assert false)
          actions
      in
      match ops.(0).Dfg.kind with
      | Dfg.Fence -> ()
      | Dfg.Compute _ -> lower_compute ctx ~mask ~ws ~ops
      | Dfg.Load { group = _; via_tex; _ } ->
          let fields = Array.make n_warps 0 in
          let group_id = ref 0 in
          List.iteri
            (fun k w ->
              match ops.(k).Dfg.kind with
              | Dfg.Load { field; group = _; _ } ->
                  fields.(w) <- field;
                  ignore group_id
              | _ -> assert false)
            ws;
          let group_name =
            match ops.(0).Dfg.kind with
            | Dfg.Load { group; _ } -> group
            | _ -> assert false
          in
          let group = ctx_group ctx group_name in
          let w0 = List.hd ws in
          let uniform = List.for_all (fun w -> fields.(w) = fields.(w0)) ws in
          let field =
            if uniform then VF_static fields.(w0)
            else VF_param (fst (alloc_param ~exact:true ctx.tables ~mask fields))
          in
          let dst = fresh_vreg ctx in
          emit ctx mask (VLdG { dst; group; field; via_tex });
          let out_v k =
            match ops.(k).Dfg.output with Some v -> v | None -> assert false
          in
          (match ctx.mapping.Mapping.value_place.(out_v 0) with
          | Mapping.P_shared ->
              let addrs = Array.make n_warps 0 in
              List.iteri
                (fun k w -> addrs.(w) <- Mapping.store_addr ctx.mapping (out_v k))
                ws;
              let addr = shared_operand ctx ~mask ~addrs ~lane:true in
              emit ctx mask (VStS { src = Vreg dst; addr; pred = None })
          | Mapping.P_reg ->
              List.iteri
                (fun k w -> vreg_set ctx ~warp:w (out_v k) dst)
                ws)
      | Dfg.Store { group = group_name; _ } ->
          let fields = Array.make n_warps 0 in
          List.iteri
            (fun k w ->
              match ops.(k).Dfg.kind with
              | Dfg.Store { field; _ } -> fields.(w) <- field
              | _ -> assert false)
            ws;
          let group = ctx_group ctx group_name in
          let w0 = List.hd ws in
          let uniform = List.for_all (fun w -> fields.(w) = fields.(w0)) ws in
          let field =
            if uniform then VF_static fields.(w0)
            else VF_param (fst (alloc_param ~exact:true ctx.tables ~mask fields))
          in
          let src =
            let v0 = ops.(0).Dfg.inputs.(0) in
            match ctx.mapping.Mapping.value_place.(v0) with
            | Mapping.P_reg ->
                Vreg (vreg_find ctx ~what:"store source" ~warp:w0 v0)
            | Mapping.P_shared ->
                let addrs = Array.make n_warps 0 in
                List.iteri
                  (fun k w ->
                    addrs.(w) <-
                      Mapping.store_addr ctx.mapping ops.(k).Dfg.inputs.(0))
                  ws;
                Vshared (shared_operand ctx ~mask ~addrs ~lane:true)
          in
          emit ctx mask (VStG { src; group; field }))
  | Schedule.A_send _ ->
      let addrs = Array.make n_warps 0 in
      let src = ref (Vimm 0.0) in
      List.iteri
        (fun k w ->
          match actions.(k) with
          | Schedule.A_send { value; slot } ->
              addrs.(w) <- ctx.buffer_base + (slot * 32);
              src := Vreg (vreg_find ctx ~what:"send value" ~warp:w value)
          | _ -> assert false)
        ws;
      let addr = shared_operand ctx ~mask ~addrs ~lane:true in
      emit ctx mask (VStS { src = !src; addr; pred = None })
  | Schedule.A_recv _ ->
      let addrs = Array.make n_warps 0 in
      List.iteri
        (fun k w ->
          match actions.(k) with
          | Schedule.A_recv { slot; _ } -> addrs.(w) <- ctx.buffer_base + (slot * 32)
          | _ -> assert false)
        ws;
      let addr = shared_operand ctx ~mask ~addrs ~lane:true in
      let dst = fresh_vreg ctx in
      emit ctx mask (VLdS { dst; addr });
      List.iteri
        (fun k w ->
          match actions.(k) with
          | Schedule.A_recv { value; _ } ->
              vreg_set ctx ~warp:w value dst
          | _ -> assert false)
        ws
  | Schedule.A_arrive { bar; count } -> emit ctx mask (VBarA { bar; count })
  | Schedule.A_wait { bar; count } -> emit ctx mask (VBarW { bar; count })
  | Schedule.A_cta_barrier -> emit ctx mask VBarCta

(* ---- overlay driver: simultaneous traversal of the per-warp streams ---- *)

let is_sync_action = function
  | Schedule.A_op _ | Schedule.A_cta_barrier -> false
  | Schedule.A_send _ | Schedule.A_recv _ | Schedule.A_arrive _
  | Schedule.A_wait _ ->
      true

let run_overlay ctx (sched : Schedule.t) =
  let n = ctx.mapping.Mapping.n_warps in
  let per_warp = sched.Schedule.per_warp in
  (* Static keys are interned once per op and once per distinct sync
     action, so each step compares ints. Expressions get dense shape ids
     from a table local to this call (sweeps lower on several domains). *)
  let shapes = Sexpr.Shape_tbl.create 64 in
  let shape_id e =
    match Sexpr.Shape_tbl.find_opt shapes e with
    | Some id -> id
    | None ->
        let id = Sexpr.Shape_tbl.length shapes in
        Sexpr.Shape_tbl.add shapes e id;
        id
  in
  let interned = Hashtbl.create 256 in
  let intern key =
    match Hashtbl.find_opt interned key with
    | Some id -> id
    | None ->
        let id = Hashtbl.length interned in
        Hashtbl.add interned key id;
        id
  in
  let op_sid = Array.make (Array.length ctx.dfg.Dfg.ops) (-1) in
  let sync_sid = Hashtbl.create 64 in
  let sid_of (a : Schedule.action) =
    match a with
    | Schedule.A_op o ->
        if op_sid.(o) < 0 then
          op_sid.(o) <- intern (static_key ctx ~shape_id a);
        op_sid.(o)
    | _ -> (
        match Hashtbl.find_opt sync_sid a with
        | Some id -> id
        | None ->
            let id = intern (static_key ctx ~shape_id a) in
            Hashtbl.add sync_sid a id;
            id)
  in
  let sids = Array.map (Array.map sid_of) per_warp in
  let cvals = Array.map (Array.map (class_values ctx)) per_warp in
  let ptr = Array.make n 0 in
  let remaining w = ptr.(w) < Array.length per_warp.(w) in
  let next w = per_warp.(w).(ptr.(w)) in
  let continue = ref true in
  while !continue do
    (* Priorities keep the simultaneous traversal aligned (the paper's
       footnote on standardizing names to avoid false AST differences):
       named-barrier traffic is drained eagerly, and CTA barriers are
       rendezvous points — a warp parked on one waits until every live
       warp reaches its own, producing a single unmasked bar.cta. *)
    let at_cta w = remaining w && next w = Schedule.A_cta_barrier in
    let live w = remaining w && not (at_cta w) in
    let best = ref (-1) in
    for w = 0 to n - 1 do
      if live w && is_sync_action (next w) then
        if
          !best < 0
          || sched.Schedule.stamps.(w).(ptr.(w))
             < sched.Schedule.stamps.(!best).(ptr.(!best))
        then best := w
    done;
    if !best < 0 then begin
      for w = 0 to n - 1 do
        if
          live w
          && (!best < 0
             || sched.Schedule.stamps.(w).(ptr.(w))
                < sched.Schedule.stamps.(!best).(ptr.(!best)))
        then best := w
      done
    end;
    if !best < 0 then begin
      (* No warp can proceed without crossing a CTA barrier. *)
      let parked = List.filter at_cta (List.init n Fun.id) in
      match parked with
      | [] -> continue := false
      | ws ->
          let mask = List.fold_left (fun m w -> m lor (1 lsl w)) 0 ws in
          emit ctx mask VBarCta;
          List.iter (fun w -> ptr.(w) <- ptr.(w) + 1) ws
    end
    else begin
      let w0 = !best in
      let sid0 = sids.(w0).(ptr.(w0)) in
      let classes0 = Array.map (src_class ctx w0) cvals.(w0).(ptr.(w0)) in
      let joins w =
        w = w0
        || live w
           && sids.(w).(ptr.(w)) = sid0
           &&
           let vs = cvals.(w).(ptr.(w)) in
           Array.length vs = Array.length classes0
           &&
           let ok = ref true and i = ref 0 in
           while !ok && !i < Array.length vs do
             ok := src_class ctx w vs.(!i) = classes0.(!i);
             incr i
           done;
           !ok
      in
      let ws = List.filter joins (List.init n Fun.id) in
      let mask = List.fold_left (fun m w -> m lor (1 lsl w)) 0 ws in
      let actions = Array.of_list (List.map next ws) in
      lower_action_group ctx ~mask ~ws ~actions;
      List.iter (fun w -> ptr.(w) <- ptr.(w) + 1) ws
    end
  done

(* ---- register allocation (Belady furthest-next-use with spilling) ---- *)

(* The destination vreg, [-1] when the instruction writes none. *)
let instr_dst = function
  | VArith { dst; _ } | VLdG { dst; _ } | VLdS { dst; _ } | VBcast { dst; _ }
  | VSwz { dst; _ } ->
      dst
  | VStG _ | VStS _ | VBarA _ | VBarW _ | VBarCta -> -1

(* Applies [f] to each vreg the instruction reads, in operand order. *)
let iter_src_vregs f = function
  | VArith { srcs; _ } ->
      Array.iter (function Vreg v -> f v | _ -> ()) srcs
  | VStG { src = Vreg v; _ } | VStS { src = Vreg v; _ } | VSwz { src = v; _ }
    ->
      f v
  | VStG _ | VStS _ | VLdG _ | VLdS _ | VBcast _ | VBarA _ | VBarW _ | VBarCta
    ->
      ()

(* The largest vreg an instruction names, [-1] when none. *)
let max_vreg ins =
  let m = ref (instr_dst ins) in
  iter_src_vregs (fun v -> if v > !m then m := v) ins;
  !m

(* ---- shuffle-exchange synthesis (the [--synth-exchange] rewrite) ----

   DESIGN §14. A shared-memory read whose bytes were written by the same
   warp is a warp-internal lane permutation in disguise: the §5 exchange
   stores lane-striped from registers, so reading the slot back in the
   producing warp only shuffles (here: copies) lanes of a register the
   warp still holds. This pass walks the merged overlay stream — stream
   order is per-warp program order, so a same-warp store/read pair whose
   addresses have a unique static writer is ordered without any barrier
   reasoning, across CTA barriers and across body iterations alike. For
   each shared read it extracts the lane-communication pattern, asks
   {!Shuffle_synth} for a register-only swizzle program, and keeps the
   rewrite when the cost model does: identity patterns forward the stored
   register directly (a free register read), non-identity patterns insert
   a [VSwz] chain — gated to the [Shuffle] broadcast style, since the
   swizzles are shuffle instructions the mirror-based architectures lack.
   Stores whose every written address loses its last reader become dead
   and are deleted, and store-region slots left untouched are compacted
   out (regions above shift down), shrinking the CTA's shared
   footprint. *)

type swriter = {
  sw_pos : int;  (** position of the store in the stream *)
  sw_warp : int;
  sw_src : vsrc;
  sw_lane : int;  (** source lane resident at this address, [-1] unknown *)
}

(* How far (in stream positions) a forward may extend a live range before
   the pressure gate refuses it. Derived from the register file instead of
   a magic constant. Two terms:
   {ul
   {- a base window of [12 * freg_budget]: each forward keeps one extra
      value live, so extensions shorter than a few turnovers of the
      per-thread file stay a small fraction of total pressure — even a
      spill-bound kernel (the chemistry shape) pays at most one extra
      spill pair per forward, still cheaper than the shared round trip
      the forward replaces;}
   {- a headroom bonus of [8 * (freg_budget - steady)]: when the
      mapping's steady-state demand — the busiest warp's produced values
      ([Mapping.warp_values]) spread over the fence segments they stay
      live across — leaves real headroom, the extension is free and the
      window widens proportionally.}}
   A Fermi-class file (budget ~24 doubles) thus gets a ~290-position
   window where a Kepler-class one gets ~670+, instead of both
   inheriting a Kepler-calibrated 200. *)
let derived_live_slack ~freg_budget (dfg : Dfg.t) (mapping : Mapping.t) =
  let values = Mapping.warp_values dfg mapping in
  let peak = Array.fold_left max 0 values in
  let segments =
    1
    + Array.fold_left
        (fun acc (op : Dfg.op) ->
          if op.Dfg.kind = Dfg.Fence then acc + 1 else acc)
        0 dfg.Dfg.ops
  in
  let steady = (peak + segments - 1) / segments in
  (12 * freg_budget) + (8 * max 0 (freg_budget - steady))

let synth_exchange_pass ~(arch : Gpusim.Arch.t) ~n_warps ~store_limit
    ~live_slack tables (code : (int * vinstr) array) =
  (* Snapshot before compaction allocates fresh parameters below. *)
  let params_arr = Array.of_list (List.rev tables.params) in
  let resolve_base (a : vshaddr) w =
    a.vs_base
    + (if a.vs_warp then w else 0)
    + (match a.vs_param with Some id -> params_arr.(id).(w) | None -> 0)
  in
  (* Every shared address the body touches lies in [lo, hi]: the tables
     over addresses below are arrays indexed from [lo]. *)
  let lo = ref max_int and hi = ref min_int in
  let span (a : vshaddr) mask =
    List.iter
      (fun w ->
        let b = resolve_base a w in
        lo := min !lo b;
        hi := max !hi (if a.vs_lane then b + 31 else b))
      (warps_of_mask ~n_warps mask)
  in
  Array.iter
    (fun (mask, ins) ->
      match ins with
      | VLdS { addr; _ } -> span addr mask
      | VStS { addr; src; _ } -> (
          span addr mask;
          match src with Vshared a -> span a mask | _ -> ())
      | VArith { srcs; _ } ->
          Array.iter (function Vshared a -> span a mask | _ -> ()) srcs
      | VStG { src = Vshared a; _ } -> span a mask
      | _ -> ())
    code;
  let lo = !lo and n_addrs = max 0 (!hi - !lo + 1) in
  (* 1. Writer catalog: absolute shared double address -> static writers,
     over the whole body. Forwarding demands a unique writer, which makes
     it immune to slot recycling and to the body re-executing per pass. *)
  let writers : swriter list array = Array.make n_addrs [] in
  Array.iteri
    (fun pos (mask, ins) ->
      match ins with
      | VStS { src; addr; pred } ->
          List.iter
            (fun w ->
              let b = resolve_base addr w in
              let add a lane =
                writers.(a - lo) <-
                  { sw_pos = pos; sw_warp = w; sw_src = src; sw_lane = lane }
                  :: writers.(a - lo)
              in
              if addr.vs_lane then
                match pred with
                | None ->
                    for l = 0 to 31 do
                      add (b + l) l
                    done
                | Some (Isa.Lane_eq k) -> add (b + k) k
                | Some (Isa.Lane_lt n) ->
                    for l = 0 to n - 1 do
                      add (b + l) l
                    done
              else
                match pred with
                | Some (Isa.Lane_eq k) -> add b k
                | Some (Isa.Lane_lt _) | None -> add b (-1))
            (warps_of_mask ~n_warps mask)
      | _ -> ())
    code;
  let next_vreg =
    ref (Array.fold_left (fun m (_, ins) -> max m (max_vreg ins + 1)) 0 code)
  in
  let n_orig = !next_vreg in
  (* Destinations of identity-forwarded loads alias the stored register
     ([subst.(v)], [-1] when [v] is no such destination). *)
  let subst = Array.make n_orig (-1) in
  let rec canon v = if v < n_orig && subst.(v) >= 0 then canon subst.(v) else v in
  let fresh () =
    let v = !next_vreg in
    next_vreg := v + 1;
    v
  in
  let report = ref Shuffle_synth.empty_report in
  let bump f = report := f !report in
  let identity = Array.init 32 Fun.id in
  (* Forwarding keeps the stored register alive up to the read, which
     costs register pressure (and, in spill-bound kernels, spills) when
     the store was the register's last use. Only forward reads that do
     not extend the source's live range beyond a small slack past its
     original last use. *)
  let last_use = Array.make n_orig (-1) in
  Array.iteri
    (fun pos (_, ins) -> iter_src_vregs (fun v -> last_use.(v) <- pos) ins)
    code;
  let pressure_ok r pos =
    r < n_orig && last_use.(r) >= 0 && pos - last_use.(r) <= live_slack
  in
  (* Can the read of [addr] at stream position [pos] under [mask] be
     served from a register every reading warp holds? Returns the source
     vreg and the swizzle program mapping its lanes to the read lanes. *)
  let decide pos mask (addr : vshaddr) =
    bump (fun r ->
        { r with Shuffle_synth.sites_seen = r.Shuffle_synth.sites_seen + 1 });
    let exception No in
    try
      let src = ref (-1) in
      let pattern = ref None in
      List.iter
        (fun w ->
          let b = resolve_base addr w in
          let cell l = if addr.vs_lane then b + l else b in
          let pat =
            Array.init 32 (fun l ->
                match writers.(cell l - lo) with
                | [ wr ]
                  when wr.sw_warp = w && wr.sw_pos < pos && wr.sw_lane >= 0
                  -> (
                    match wr.sw_src with
                    | Vreg r ->
                        let r = canon r in
                        if not (pressure_ok r pos) then raise No;
                        if !src < 0 then src := r
                        else if !src <> r then raise No;
                        wr.sw_lane
                    | _ -> raise No)
                | _ -> raise No)
          in
          match !pattern with
          | None -> pattern := Some pat
          | Some p0 -> if p0 <> pat then raise No)
        (warps_of_mask ~n_warps mask);
      match !pattern with
      | Some pat when !src >= 0 ->
          if pat = identity then Some (!src, [])
          else if arch.Gpusim.Arch.broadcast <> Gpusim.Arch.Shuffle then None
          else (
            match Shuffle_synth.synthesize pat with
            | Some prog
              when Shuffle_synth.cost arch prog
                   <= Shuffle_synth.shared_read_cost arch ->
                Some (!src, prog)
            | Some _ | None -> None)
      | _ -> None
    with No -> None
  in
  (* 2. The rewrite walk. *)
  let out = ref [] in
  let emit mask i = out := (mask, i) :: !out in
  let emit_chain mask r prog ~dst =
    let rec go src = function
      | [] -> assert false
      | [ s ] -> emit mask (VSwz { dst; src; step = s })
      | s :: rest ->
          let d = fresh () in
          emit mask (VSwz { dst = d; src; step = s });
          go d rest
    in
    go r prog
  in
  let fwd_stats mask prog =
    let nw = List.length (warps_of_mask ~n_warps mask) in
    bump (fun r ->
        {
          r with
          Shuffle_synth.sites_rewritten = r.Shuffle_synth.sites_rewritten + 1;
          round_trips_removed = r.Shuffle_synth.round_trips_removed + nw;
          shuffle_steps = r.Shuffle_synth.shuffle_steps + List.length prog;
        })
  in
  Array.iteri
    (fun pos (mask, ins) ->
      let sub_src = function Vreg v -> Vreg (canon v) | s -> s in
      let fwd_operand s =
        match s with
        | Vshared a -> (
            match decide pos mask a with
            | Some (r, []) ->
                fwd_stats mask [];
                Vreg r
            | Some (r, prog) ->
                let d = fresh () in
                emit_chain mask r prog ~dst:d;
                fwd_stats mask prog;
                Vreg d
            | None -> s)
        | s -> s
      in
      match ins with
      | VArith r ->
          emit mask
            (VArith
               { r with srcs = Array.map (fun s -> fwd_operand (sub_src s)) r.srcs })
      | VStG r -> emit mask (VStG { r with src = fwd_operand (sub_src r.src) })
      | VStS r -> emit mask (VStS { r with src = fwd_operand (sub_src r.src) })
      | VLdS { dst; addr } -> (
          match decide pos mask addr with
          | Some (r, []) ->
              subst.(dst) <- r;
              fwd_stats mask []
          | Some (r, prog) ->
              emit_chain mask r prog ~dst;
              fwd_stats mask prog
          | None -> emit mask (VLdS { dst; addr }))
      | VSwz r -> emit mask (VSwz { r with src = canon r.src })
      | (VLdG _ | VBcast _ | VBarA _ | VBarW _ | VBarCta) as i -> emit mask i)
    code;
  let code = Array.of_list (List.rev !out) in
  (* 3. Dead-store elimination: a store none of whose written addresses
     is read anywhere in the rewritten body (any warp) is unobservable in
     every iteration — loop-safe because the read set covers the whole
     stream. *)
  let read_addrs = Bytes.make n_addrs '\000' in
  let note_read (a : vshaddr) mask =
    List.iter
      (fun w ->
        let b = resolve_base a w - lo in
        Bytes.fill read_addrs b (if a.vs_lane then 32 else 1) '\001')
      (warps_of_mask ~n_warps mask)
  in
  Array.iter
    (fun (mask, ins) ->
      match ins with
      | VLdS { addr; _ } -> note_read addr mask
      | VArith { srcs; _ } ->
          Array.iter (function Vshared a -> note_read a mask | _ -> ()) srcs
      | VStG { src = Vshared a; _ } | VStS { src = Vshared a; _ } ->
          note_read a mask
      | _ -> ())
    code;
  let store_live mask (addr : vshaddr) pred =
    List.exists
      (fun w ->
        let b = resolve_base addr w in
        let cells =
          if addr.vs_lane then
            match pred with
            | None -> List.init 32 (fun l -> b + l)
            | Some (Isa.Lane_eq k) -> [ b + k ]
            | Some (Isa.Lane_lt n) -> List.init n (fun l -> b + l)
          else [ b ]
        in
        List.exists (fun a -> Bytes.get read_addrs (a - lo) = '\001') cells)
      (warps_of_mask ~n_warps mask)
  in
  let code =
    Array.to_list code
    |> List.filter (fun (mask, ins) ->
           match ins with
           | VStS { addr; pred; _ } when not (store_live mask addr pred) ->
               bump (fun r ->
                   {
                     r with
                     Shuffle_synth.stores_removed =
                       r.Shuffle_synth.stores_removed + 1;
                   });
               false
           | _ -> true)
  in
  (* 4. Store-region compaction: slots no remaining access touches are
     packed out and the buffer/mirror regions above shift down wholesale;
     per-warp bases that stop agreeing after the remap get fresh
     parameters. *)
  let total_slots = store_limit / 32 in
  let touched = Array.make (max 1 total_slots) false in
  let note a = if a >= 0 && a < store_limit then touched.(a / 32) <- true in
  let note_addr (a : vshaddr) mask =
    List.iter
      (fun w ->
        let b = resolve_base a w in
        if a.vs_lane then
          for l = 0 to 31 do
            note (b + l)
          done
        else note b)
      (warps_of_mask ~n_warps mask)
  in
  List.iter
    (fun (mask, ins) ->
      match ins with
      | VLdS { addr; _ } -> note_addr addr mask
      | VStS { addr; src; _ } -> (
          note_addr addr mask;
          match src with Vshared a -> note_addr a mask | _ -> ())
      | VArith { srcs; _ } ->
          Array.iter (function Vshared a -> note_addr a mask | _ -> ()) srcs
      | VStG { src = Vshared a; _ } -> note_addr a mask
      | _ -> ())
    code;
  let slot_map = Array.make (max 1 total_slots) (-1) in
  let next_slot = ref 0 in
  for s = 0 to total_slots - 1 do
    if touched.(s) then begin
      slot_map.(s) <- !next_slot;
      incr next_slot
    end
  done;
  let n_dead = total_slots - !next_slot in
  let freed = n_dead * 32 in
  let code =
    if n_dead = 0 then code
    else begin
      let remap_base b =
        if b >= store_limit then b - freed
        else begin
          assert (b mod 32 = 0 && slot_map.(b / 32) >= 0);
          slot_map.(b / 32) * 32
        end
      in
      let rewrite_addr mask (a : vshaddr) =
        let ws = warps_of_mask ~n_warps mask in
        let res = Array.make n_warps 0 in
        List.iter
          (fun w ->
            res.(w) <-
              remap_base (resolve_base a w) - (if a.vs_warp then w else 0))
          ws;
        let w0 = List.hd ws in
        if List.for_all (fun w -> res.(w) = res.(w0)) ws then
          { a with vs_base = res.(w0); vs_param = None }
        else begin
          let id, off = alloc_param tables ~mask res in
          { a with vs_base = off; vs_param = Some id }
        end
      in
      List.map
        (fun (mask, ins) ->
          let ra = rewrite_addr mask in
          let rs = function Vshared a -> Vshared (ra a) | s -> s in
          ( mask,
            match ins with
            | VLdS r -> VLdS { r with addr = ra r.addr }
            | VStS r -> VStS { src = rs r.src; addr = ra r.addr; pred = r.pred }
            | VArith r -> VArith { r with srcs = Array.map rs r.srcs }
            | VStG r -> VStG { r with src = rs r.src }
            | other -> other ))
        code
    end
  in
  bump (fun r -> { r with Shuffle_synth.shared_bytes_freed = freed * 8 });
  (Array.of_list code, !report, freed)

(* ---- static instruction scheduling (the ptxas role of §4) ----

   The expression lowerer emits accumulation chains in source order, which
   an in-order machine would serialize on each chain's latency. Real
   builds lean on the PTX assembler to reorder scalar code; this pass is
   that scheduler: within each same-mask, fence-free segment, instructions
   are list-scheduled by earliest ready time (latency-aware), interleaving
   independent chains while preserving exact dataflow (results are
   bit-identical: no reassociation, only reordering of independent
   operations). *)

let sched_latency = function
  | VArith { op; _ } -> (
      match op with
      | Isa.Exp | Isa.Log -> 50
      | Isa.Div | Isa.Sqrt -> 30
      | _ -> 10)
  | VLdG _ -> 400
  | VLdS _ -> 30
  | VBcast _ | VSwz _ -> 10
  | _ -> 5

let reads_shared srcs =
  Array.exists (function Vshared _ -> true | _ -> false) srcs

(* A binary min-heap of non-negative ints with a fixed capacity. *)
module Int_heap = struct
  type t = { a : int array; mutable size : int }

  let create n = { a = Array.make (max 1 n) 0; size = 0 }
  let is_empty h = h.size = 0

  let push h x =
    let a = h.a in
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && a.((!i - 1) / 2) > x do
      a.(!i) <- a.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    a.(!i) <- x

  let pop h =
    let a = h.a in
    let top = a.(0) in
    h.size <- h.size - 1;
    let n = h.size in
    let x = a.(n) in
    let i = ref 0 and continue = ref (n > 0) in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && a.(l + 1) < a.(l) then l + 1 else l in
        if a.(c) < x then begin
          a.(!i) <- a.(c);
          i := c
        end
        else continue := false
      end
    done;
    if n > 0 then a.(!i) <- x;
    top
end

(* Reorders [code.(off) .. code.(off + n - 1)] in place. [last_def] maps
   a vreg to its defining position in the segment ([-1] outside); it is
   shared across segments and restored to all [-1] before returning. *)
let schedule_segment ~last_def (code : (int * vinstr) array) ~off ~n =
  if n > 2 then begin
    let seg = Array.sub code off n in
    let preds = Array.make n [] in
    let add_dep d u = if d <> u then preds.(u) <- d :: preds.(u) in
    let last_shared_write = ref (-1) in
    let shared_reads_since = ref [] in
    let last_global_store = ref (-1) in
    let global_reads_since = ref [] in
    Array.iteri
      (fun i (_, ins) ->
        iter_src_vregs
          (fun v -> if last_def.(v) >= 0 then add_dep last_def.(v) i)
          ins;
        let shared_read () =
          if !last_shared_write >= 0 then add_dep !last_shared_write i;
          shared_reads_since := i :: !shared_reads_since
        in
        let shared_write () =
          if !last_shared_write >= 0 then add_dep !last_shared_write i;
          List.iter (fun r -> add_dep r i) !shared_reads_since;
          last_shared_write := i;
          shared_reads_since := []
        in
        (match ins with
        | VArith { srcs; _ } -> if reads_shared srcs then shared_read ()
        | VLdS _ -> shared_read ()
        | VStS _ -> shared_write ()
        | VLdG _ ->
            if !last_global_store >= 0 then add_dep !last_global_store i;
            global_reads_since := i :: !global_reads_since
        | VStG _ ->
            if !last_global_store >= 0 then add_dep !last_global_store i;
            List.iter (fun r -> add_dep r i) !global_reads_since;
            last_global_store := i;
            global_reads_since := []
        | VBcast _ | VSwz _ | VBarA _ | VBarW _ | VBarCta -> ());
        let d = instr_dst ins in
        if d >= 0 then last_def.(d) <- i)
      seg;
    Array.iter
      (fun (_, ins) ->
        let d = instr_dst ins in
        if d >= 0 then last_def.(d) <- -1)
      seg;
    (* Earliest-ready list scheduling, stable on ties: each pick is the
       smallest (ready time, index) among ready instructions inside the
       reorder window, else the smallest overall. A ready entry is the
       int [ready_at lsl 24 lor index], so heap order is that order. *)
    assert (n < 1 lsl 24);
    let succs = Array.make n [] in
    Array.iteri
      (fun i ps -> List.iter (fun p -> succs.(p) <- i :: succs.(p)) ps)
      preds;
    let remaining = Array.map List.length preds in
    let ready_at = Array.make n 0 in
    (* Reorder window: an instruction may not overtake more than [window]
       program-order predecessors — the register-pressure discipline a real
       scheduler applies. The window's limit only grows, so a ready entry
       beyond it migrates into the in-window heap at most once; the
       beyond-window heap keeps the migrated copy and skips it on pop. *)
    let window = 48 in
    let in_window = Int_heap.create n and beyond = Int_heap.create n in
    let waiting = Bytes.make n '\000' in
    let scanned = ref 0 in
    let entry i = (ready_at.(i) lsl 24) lor i in
    let make_ready i =
      if i < !scanned then Int_heap.push in_window (entry i)
      else begin
        Bytes.set waiting i '\001';
        Int_heap.push beyond (entry i)
      end
    in
    Array.iteri (fun i r -> if r = 0 then make_ready i) remaining;
    let scheduled = Array.make n false in
    let min_unsched = ref 0 in
    for n_done = 0 to n - 1 do
      let limit = min n (!min_unsched + window) in
      for i = !scanned to limit - 1 do
        if Bytes.get waiting i = '\001' then begin
          Bytes.set waiting i '\000';
          Int_heap.push in_window (entry i)
        end
      done;
      scanned := max !scanned limit;
      let rec pop_beyond () =
        if Int_heap.is_empty beyond then
          failwith "schedule_segment: dependency cycle";
        let e = Int_heap.pop beyond in
        let i = e land ((1 lsl 24) - 1) in
        if Bytes.get waiting i = '\001' then begin
          Bytes.set waiting i '\000';
          e
        end
        else pop_beyond ()
      in
      let e =
        if Int_heap.is_empty in_window then
          (* Nothing inside the window is ready: fall back to the oldest
             ready instruction. *)
          pop_beyond ()
        else Int_heap.pop in_window
      in
      let i = e land ((1 lsl 24) - 1) and t = e lsr 24 in
      code.(off + n_done) <- seg.(i);
      scheduled.(i) <- true;
      while !min_unsched < n && scheduled.(!min_unsched) do
        incr min_unsched
      done;
      let _, ins = seg.(i) in
      let fin = t + sched_latency ins in
      List.iter
        (fun s ->
          remaining.(s) <- remaining.(s) - 1;
          ready_at.(s) <- max ready_at.(s) fin;
          if remaining.(s) = 0 then make_ready s)
        succs.(i)
    done
  end

let is_fence = function VBarA _ | VBarW _ | VBarCta -> true | _ -> false

(* Schedules each maximal run of same-mask instructions between barrier
   fences, in place. *)
let list_schedule ~enabled (code : (int * vinstr) array) =
  if enabled then begin
    let n = Array.length code in
    let n_vregs =
      Array.fold_left (fun m (_, ins) -> max m (max_vreg ins + 1)) 0 code
    in
    let last_def = Array.make n_vregs (-1) in
    let i = ref 0 in
    while !i < n do
      let mask, ins = code.(!i) in
      if is_fence ins then incr i
      else begin
        let j = ref (!i + 1) in
        while
          !j < n
          &&
          let m, ins = code.(!j) in
          m = mask && not (is_fence ins)
        do
          incr j
        done;
        schedule_segment ~last_def code ~off:!i ~n:(!j - !i);
        i := !j
      end
    done
  end;
  code

type ra_stats = { high_water : int; spill_slots : int }

(* Pseudo-instructions inserted by the allocator are expressed with the
   dedicated local-memory ops at finalization; internally we tag them with
   negative "groups" to reuse the vinstr type minimally. Instead we emit a
   small sum type. *)
type rinstr =
  | R of vinstr  (** register fields now hold physical indices *)
  | R_spill_st of int * int  (** phys, slot *)
  | R_spill_ld of int * int

(* [dst] is the destination's physical register (ignored when the
   instruction writes none). *)
let rewrite_regs ins ~src_phys ~dst =
  let rw = function Vreg v -> Vreg (src_phys v) | other -> other in
  match ins with
  | VArith r -> VArith { r with dst; srcs = Array.map rw r.srcs }
  | VLdG r -> VLdG { r with dst }
  | VLdS r -> VLdS { r with dst }
  | VBcast r -> VBcast { r with dst }
  | VSwz r -> VSwz { r with dst; src = src_phys r.src }
  | VStG r -> VStG { r with src = rw r.src }
  | VStS r -> VStS { r with src = rw r.src }
  | (VBarA _ | VBarW _ | VBarCta) as b -> b

(* Double registers the allocator needs above the constant-bank
   registers. *)
let min_fregs = 6

(* A bit over half the register budget may hold banked constants; the
   rest overflow to shared memory (kept after the broadcast mirror). *)
let bank_reg_cap freg_budget = max 1 (freg_budget * 11 / 20)

(* The constant-bank registers [build_const_bank] fills at [cfg] plus
   [min_fregs]: the smallest budget [regalloc] accepts. *)
let freg_floor cfg ~n_logical_consts =
  let bank_regs =
    if cfg.overlay then
      min ((n_logical_consts + 31) / 32) (bank_reg_cap cfg.freg_budget)
    else 0
  in
  bank_regs + min_fregs

let regalloc ~first_phys ~budget ~spill_mask (code : (int * vinstr) array) =
  if budget < first_phys + min_fregs then
    Diagnostics.failf ~pass:"lower"
      "register budget of %d double registers is below the allocator's \
       floor of %d (%d constant-bank register(s) + %d)"
      budget (first_phys + min_fregs) first_phys min_fregs;
  (* Registers are per thread: two virtual registers whose warp masks are
     disjoint may occupy the same physical register (each warp's lanes see
     their own value). Liveness and Belady eviction therefore track, per
     physical register, the set of resident vregs and the union of their
     masks. Vregs are dense, so every per-vreg table is an array. *)
  let n_vregs = Array.fold_left (fun m (_, ins) -> max m (max_vreg ins + 1)) 0 code in
  (* [vmask.(v)]: union of the masks of the instructions naming [v], [-1]
     when none does. *)
  let vmask = Array.make n_vregs (-1) in
  let add_mask v m = vmask.(v) <- (if vmask.(v) < 0 then m else vmask.(v) lor m) in
  (* Use positions, ascending, in one flat array: [v]'s are
     [use_pos.(use_start.(v)) .. use_pos.(use_start.(v + 1) - 1)]. *)
  let use_start = Array.make (n_vregs + 1) 0 in
  Array.iter
    (fun (mask, ins) ->
      iter_src_vregs
        (fun v ->
          add_mask v mask;
          use_start.(v + 1) <- use_start.(v + 1) + 1)
        ins;
      let d = instr_dst ins in
      if d >= 0 then add_mask d mask)
    code;
  for v = 1 to n_vregs do
    use_start.(v) <- use_start.(v) + use_start.(v - 1)
  done;
  let use_pos = Array.make use_start.(n_vregs) 0 in
  let cursor = Array.sub use_start 0 n_vregs in
  Array.iteri
    (fun pos (_, ins) ->
      iter_src_vregs
        (fun v ->
          use_pos.(cursor.(v)) <- pos;
          cursor.(v) <- cursor.(v) + 1)
        ins)
    code;
  Array.blit use_start 0 cursor 0 n_vregs;
  let mask_of v = if vmask.(v) < 0 then spill_mask else vmask.(v) in
  (* The cursor only advances: a query skips uses before [after] for good,
     even for a later query about an earlier position (a destination's
     eviction scan at [pos] after the sources' retirement checks at
     [pos + 1]), so the order of the queries below is part of the
     allocation. *)
  let next_use v ~after =
    let stop = use_start.(v + 1) in
    let p = ref cursor.(v) in
    while !p < stop && use_pos.(!p) < after do
      incr p
    done;
    cursor.(v) <- !p;
    if !p < stop then use_pos.(!p) else max_int
  in
  (* Physical register state. *)
  let n_phys = budget - first_phys in
  let residents = Array.make n_phys [] in (* (vreg, mask) list *)
  let used_mask = Array.make n_phys 0 in
  (* [loc.(v)]: physical register [p >= 0], spill slot [s] as [-2 - s], or
     [unplaced]. *)
  let unplaced = -1 in
  let loc = Array.make n_vregs unplaced in
  let dirty = Array.make n_vregs false in
  let slot_of = Array.make n_vregs (-1) in
  let n_slots = ref 0 in
  let high = ref 0 in
  let out = ref [] in
  let emit mask i = out := (mask, i) :: !out in
  let get_slot v =
    if slot_of.(v) < 0 then begin
      slot_of.(v) <- !n_slots;
      incr n_slots
    end;
    slot_of.(v)
  in
  let rec remove v = function
    | [] -> []
    | ((v', _) as r) :: rest -> if v' = v then rest else r :: remove v rest
  in
  let detach v p =
    residents.(p) <- remove v residents.(p);
    used_mask.(p) <-
      List.fold_left (fun acc (_, m) -> acc lor m) 0 residents.(p);
    loc.(v) <- unplaced;
    dirty.(v) <- false
  in
  let attach v p =
    let m = mask_of v in
    residents.(p) <- (v, m) :: residents.(p);
    used_mask.(p) <- used_mask.(p) lor m;
    loc.(v) <- p;
    if p + 1 > !high then high := p + 1
  in
  (* The current instruction's distinct source vregs, ascending, with
     their physical registers once resolved; and the registers pinned
     against eviction while it is allocated. *)
  let max_srcs =
    Array.fold_left
      (fun m (_, ins) ->
        let k = ref 0 in
        iter_src_vregs (fun _ -> incr k) ins;
        max m !k)
      0 code
  in
  let srcs = Array.make max_srcs 0 and n_srcs = ref 0 in
  let src_reg = Array.make max_srcs 0 in
  let pinned = Array.make max_srcs 0 and n_pinned = ref 0 in
  let add_src v =
    (* insertion into the sorted prefix, dropping duplicates *)
    let k = ref !n_srcs in
    while !k > 0 && srcs.(!k - 1) > v do
      decr k
    done;
    if not (!k > 0 && srcs.(!k - 1) = v) then begin
      Array.blit srcs !k srcs (!k + 1) (!n_srcs - !k);
      srcs.(!k) <- v;
      incr n_srcs
    end
  in
  let is_pinned p =
    let found = ref false in
    for k = 0 to !n_pinned - 1 do
      if pinned.(k) = p then found := true
    done;
    !found
  in
  let pin p =
    pinned.(!n_pinned) <- p;
    incr n_pinned
  in
  let src_phys v =
    let k = ref 0 in
    while srcs.(!k) <> v do
      incr k
    done;
    src_reg.(!k)
  in
  (* The nearest next use among [residents] conflicting with mask [m]. *)
  let rec nearest_use ~pos m acc = function
    | [] -> acc
    | (v, vm) :: rest ->
        let acc = if vm land m <> 0 then min acc (next_use v ~after:pos) else acc in
        nearest_use ~pos m acc rest
  in
  (* Find a physical register able to host mask [m]: free space first,
     then evict the conflicting resident(s) with the furthest next use. *)
  let acquire ~pos m =
    let p = ref 0 in
    while !p < n_phys && used_mask.(!p) land m <> 0 do
      incr p
    done;
    if !p < n_phys then !p
    else begin
        (* Eviction: score each unpinned register by the *nearest* next use
           among residents conflicting with [m]; evict from the register
           whose nearest use is furthest away. *)
        let best_p = ref (-1) and best_score = ref (-1) in
        for p = 0 to n_phys - 1 do
          if not (is_pinned p) then begin
            let score = nearest_use ~pos m max_int residents.(p) in
            if score > !best_score then begin
              best_score := score;
              best_p := p
            end
          end
        done;
        if !best_p < 0 then failwith "regalloc: all registers pinned";
        let p = !best_p in
        List.iter
          (fun (v, vm) ->
            if vm land m <> 0 then begin
              let nu = next_use v ~after:pos in
              if nu <> max_int then begin
                if dirty.(v) then
                  emit vm (R_spill_st (p + first_phys, get_slot v));
                detach v p;
                loc.(v) <- -2 - get_slot v
              end
              else detach v p
            end)
          residents.(p);
        p
    end
  in
  Array.iteri
    (fun pos (mask, ins) ->
      n_srcs := 0;
      iter_src_vregs add_src ins;
      n_pinned := 0;
      for k = 0 to !n_srcs - 1 do
        let v = srcs.(k) in
        let l = loc.(v) in
        if l >= 0 then pin l
        else if l = unplaced then
          failwith (Printf.sprintf "regalloc: vreg %d read before definition" v)
        else begin
          let p = acquire ~pos (mask_of v) in
          emit (mask_of v) (R_spill_ld (p + first_phys, -2 - l));
          attach v p;
          dirty.(v) <- false;
          pin p
        end
      done;
      for k = 0 to !n_srcs - 1 do
        src_reg.(k) <- loc.(srcs.(k)) + first_phys
      done;
      (* Retire dead sources so the destination may reuse their space. *)
      for k = 0 to !n_srcs - 1 do
        let v = srcs.(k) in
        if next_use v ~after:(pos + 1) = max_int && loc.(v) >= 0 then
          detach v loc.(v)
      done;
      match instr_dst ins with
      | -1 -> emit mask (R (rewrite_regs ins ~src_phys ~dst:0))
      | vd ->
          n_pinned := 0;
          for k = 0 to !n_srcs - 1 do
            if loc.(srcs.(k)) <> unplaced then pin (src_reg.(k) - first_phys)
          done;
          let p = acquire ~pos (mask_of vd) in
          attach vd p;
          dirty.(vd) <- true;
          emit mask (R (rewrite_regs ins ~src_phys ~dst:(p + first_phys)));
          if next_use vd ~after:(pos + 1) = max_int then detach vd p)
    code;
  ( List.rev !out,
    { high_water = first_phys + !high; spill_slots = !n_slots } )

(* ---- final emission to the ISA ---- *)

type finalize_env = {
  f_striped : bool;
  f_param_regs : int;  (** integer registers holding (possibly striped) params *)
}

let finalize_stream env (code : (int * rinstr) list) =
  (* Returns ((mask, Isa.instr) list, max_temps); striped parameter reads
     insert an Ishfl into a temporary integer register before the
     consumer. [max_temps] is the high-water count of those temporaries
     over any single instruction — the extra integer registers the
     program must declare beyond the parameter bank. *)
  let out = ref [] in
  let emit mask i = out := (mask, i) :: !out in
  let tmp_counter = ref 0 in
  let max_temps = ref 0 in
  let resolve_param mask logical =
    if env.f_striped then begin
      let tmp = env.f_param_regs + !tmp_counter in
      incr tmp_counter;
      if !tmp_counter > !max_temps then max_temps := !tmp_counter;
      emit mask
        (Isa.Ishfl { dst_i = tmp; src_i = logical / 32; lane = logical mod 32 });
      tmp
    end
    else logical
  in
  let resolve_addr mask (a : vshaddr) =
    let ireg = Option.map (resolve_param mask) a.vs_param in
    {
      Isa.s_base = a.vs_base;
      s_warp_mul = (if a.vs_warp then 1 else 0);
      s_lane_mul = (if a.vs_lane then 1 else 0);
      s_ireg = ireg;
      s_ireg_mul = 1;
    }
  in
  let resolve_src mask = function
    | Vreg p -> Isa.Sreg p
    | Vimm v -> Isa.Simm v
    | Vconst_mem s -> Isa.Sconst s
    | Vconst_warp base -> Isa.Sconst_warp base
    | Vshared a -> Isa.Sshared (resolve_addr mask a)
    | Vbank logical -> Isa.Sreg (logical / 32)
  in
  let resolve_field mask = function
    | VF_static f -> Isa.F_static f
    | VF_param logical -> Isa.F_ireg (resolve_param mask logical)
  in
  List.iter
    (fun (mask, ri) ->
      tmp_counter := 0;
      match ri with
      | R_spill_st (p, slot) -> emit mask (Isa.St_local { src = p; slot })
      | R_spill_ld (p, slot) -> emit mask (Isa.Ld_local { dst = p; slot })
      | R ins -> (
          match ins with
          | VArith { op; dst; srcs; pred } ->
              let srcs = Array.map (resolve_src mask) srcs in
              emit mask (Isa.Arith { op; dst; srcs; pred })
          | VLdG { dst; group; field; via_tex } ->
              let field = resolve_field mask field in
              emit mask (Isa.Ld_global { dst; group; field; via_tex; pred = None })
          | VStG { src; group; field } ->
              let src = resolve_src mask src in
              let field = resolve_field mask field in
              emit mask (Isa.St_global { src; group; field; pred = None })
          | VLdS { dst; addr } ->
              let addr = resolve_addr mask addr in
              emit mask (Isa.Ld_shared { dst; addr; pred = None })
          | VStS { src; addr; pred } ->
              let src = resolve_src mask src in
              let addr = resolve_addr mask addr in
              emit mask (Isa.St_shared { src; addr; pred })
          | VBcast { dst; logical } ->
              emit mask
                (Isa.Shfl { dst; src = logical / 32; lane = logical mod 32 })
          | VSwz { dst; src; step } ->
              emit mask
                (match step with
                | Shuffle_synth.Rot d -> Isa.Shfl_rot { dst; src; delta = d }
                | Shuffle_synth.Bfly m ->
                    Isa.Shfl_bfly { dst; src; xor_mask = m }
                | Shuffle_synth.Bcast k -> Isa.Shfl { dst; src; lane = k })
          | VBarA { bar; count } -> emit mask (Isa.Bar_arrive { bar; count })
          | VBarW { bar; count } -> emit mask (Isa.Bar_sync { bar; count })
          | VBarCta -> emit mask Isa.Bar_cta))
    code;
  (List.rev !out, !max_temps)

(* Group consecutive same-mask instructions into blocks. *)
let assemble_blocks ~full_mask (code : (int * Isa.instr) list) =
  let blocks = ref [] in
  let current_mask = ref full_mask in
  let current = ref [] in
  let flush () =
    match !current with
    | [] -> ()
    | l ->
        let instrs = Isa.Instrs (List.rev l) in
        let b =
          if !current_mask = full_mask then instrs
          else Isa.If_warps { mask = !current_mask; body = instrs }
        in
        blocks := b :: !blocks;
        current := []
  in
  List.iter
    (fun (mask, i) ->
      if mask <> !current_mask then begin
        flush ();
        current_mask := mask
      end;
      current := i :: !current)
    code;
  flush ();
  Isa.Seq (List.rev !blocks)

(* ---- bank materialization ---- *)

let build_const_bank tables ~n_warps ~bank_cap =
  let consts = Array.of_list (List.rev tables.consts) in
  let n = Array.length consts in
  let n_banked = min n bank_cap in
  let n_regs = (n_banked + 31) / 32 in
  let n_overflow = max 0 (n - bank_cap) in
  (* Banked constants are lane-striped across the warp (§5.2). *)
  let bank =
    Array.init n_warps (fun w ->
        Array.init 32 (fun lane ->
            Array.init n_regs (fun k ->
                let logical = (k * 32) + lane in
                if logical < n_banked then consts.(logical).(w) else 0.0)))
  in
  (* Overflow constants live in constant memory, warp-strided. *)
  let overflow_mem =
    Array.init (n_overflow * n_warps) (fun i ->
        consts.(bank_cap + (i / n_warps)).(i mod n_warps))
  in
  (bank, n_regs, n_overflow, overflow_mem)

let build_param_bank tables ~n_warps ~striped =
  let params = Array.of_list (List.rev tables.params) in
  let n = Array.length params in
  if striped then begin
    let n_regs = (n + 31) / 32 in
    let bank =
      Array.init n_warps (fun w ->
          Array.init 32 (fun lane ->
              Array.init n_regs (fun k ->
                  let logical = (k * 32) + lane in
                  if logical < n then params.(logical).(w) else 0)))
    in
    (bank, n_regs)
  end
  else
    let bank =
      Array.init n_warps (fun w ->
          Array.init 32 (fun _lane -> Array.init n (fun p -> params.(p).(w))))
    in
    (bank, n)

(* ---- entry point ---- *)

let lower cfg ~name ~point_map ~out_warps ~groups (dfg : Dfg.t)
    (mapping : Mapping.t) (sched : Schedule.t) =
  let n_mapped = mapping.Mapping.n_warps in
  let buffer_base = Schedule.shared_buffer_base mapping in
  let mirror_base = buffer_base + (sched.Schedule.buffer_slots * 32) in
  let needs_mirror =
    cfg.const_policy = Bank
    && cfg.arch.Gpusim.Arch.broadcast = Gpusim.Arch.Shared_mirror
  in
  let bank_cap = bank_reg_cap cfg.freg_budget * 32 in
  let overflow_base = mirror_base + (4 * n_mapped) in
  let full_mask = (1 lsl n_mapped) - 1 in
  let tables = fresh_tables n_mapped in
  let lower_stream ~policy ~masks_full =
    (* Lower either the overlaid forest (masks_full = None) or a single
       warp's stream (Some w, naive mode). *)
    let ctx =
      {
        cfg = { cfg with const_policy = policy };
        dfg;
        mapping;
        tables;
        groups;
        vreg_of =
          Array.init n_mapped (fun w ->
              if masks_full = None || masks_full = Some w then
                Array.make (Array.length dfg.Dfg.values) (-1)
              else [||]);
        next_vreg = 0;
        out_rev = [];
        full_mask;
        buffer_base;
        mirror_base;
        mirror_rot = 0;
        bank_cap;
        overflow_base;
      }
    in
    (match masks_full with
    | None -> run_overlay ctx sched
    | Some w ->
        Array.iter
          (fun a ->
            lower_action_group ctx ~mask:(1 lsl w) ~ws:[ w ]
              ~actions:[| a |])
          sched.Schedule.per_warp.(w));
    (* [out_rev] reversed into program order. The array starts filled
       with a static placeholder: [Array.of_list] would start it with the
       (young) head, and a large array made from a young value costs a
       minor collection. *)
    let code = Array.make (List.length ctx.out_rev) (0, VBarCta) in
    List.iteri
      (fun i x -> code.(Array.length code - 1 - i) <- x)
      ctx.out_rev;
    code
  in
  let spill_stats = ref { high_water = 0; spill_slots = 0 } in
  let max_stats a b =
    {
      high_water = max a.high_water b.high_water;
      spill_slots = max a.spill_slots b.spill_slots;
    }
  in
  let striped = ref false in
  let param_temps = ref 0 in
  let exch_report = ref Shuffle_synth.empty_report in
  let freed_doubles = ref 0 in
  let body, n_param_regs =
    if cfg.overlay then begin
      let stream = lower_stream ~policy:cfg.const_policy ~masks_full:None in
      let stream =
        (* The rewrite reasons per logical warp; skip when the emitted
           single-warp code is replicated across real warps (baseline),
           where distinct warps share every shared address. *)
        if cfg.synth_exchange && out_warps = n_mapped then begin
          let stream', report, freed =
            synth_exchange_pass ~arch:cfg.arch ~n_warps:n_mapped
              ~store_limit:(mapping.Mapping.store_slots * 32)
              ~live_slack:
                (derived_live_slack ~freg_budget:cfg.freg_budget dfg mapping)
              tables stream
          in
          exch_report := report;
          freed_doubles := freed;
          stream'
        end
        else stream
      in
      let vcode = list_schedule ~enabled:cfg.list_schedule stream in
      let _, n_bank_regs, _, _ = build_const_bank tables ~n_warps:n_mapped ~bank_cap in
      let code, stats =
        regalloc ~first_phys:n_bank_regs ~budget:cfg.freg_budget
          ~spill_mask:full_mask vcode
      in
      spill_stats := stats;
      striped := tables.n_params > cfg.param_stripe_threshold;
      let _, n_param_regs =
        build_param_bank tables ~n_warps:n_mapped ~striped:!striped
      in
      let env = { f_striped = !striped; f_param_regs = n_param_regs } in
      let finalized, max_temps = finalize_stream env code in
      param_temps := max_temps;
      (assemble_blocks ~full_mask finalized, n_param_regs)
    end
    else begin
      (* Naive §5.1 code generation: a top-level switch on the warp id with
         each warp's complete code inline and constants as immediates. *)
      let per_warp =
        Array.init n_mapped (fun w ->
            let vcode =
              list_schedule ~enabled:cfg.list_schedule
                (lower_stream ~policy:Immediate ~masks_full:(Some w))
            in
            let code, stats =
              regalloc ~first_phys:0 ~budget:cfg.freg_budget
                ~spill_mask:(1 lsl w) vcode
            in
            spill_stats := max_stats !spill_stats stats;
            let env = { f_striped = false; f_param_regs = 0 } in
            let instrs = List.map snd (fst (finalize_stream env code)) in
            Isa.Instrs instrs)
      in
      (Isa.Switch_warp per_warp, 0)
    end
  in
  let const_bank, n_bank_regs, n_overflow, overflow_mem =
    if cfg.overlay then build_const_bank tables ~n_warps:n_mapped ~bank_cap
    else (Array.init n_mapped (fun _ -> Array.init 32 (fun _ -> [||])), 0, 0, [||])
  in
  let param_bank, _ =
    if cfg.overlay then build_param_bank tables ~n_warps:n_mapped ~striped:!striped
    else (Array.init n_mapped (fun _ -> Array.init 32 (fun _ -> [||])), 0)
  in
  ignore n_overflow;
  let prologue_instrs =
    List.init n_bank_regs (fun k -> Isa.Ld_const_bank { dst = k; slot = k })
    @ List.init n_param_regs (fun k -> Isa.Ld_param { dst_i = k; slot = k })
  in
  let n_fregs = max n_bank_regs !spill_stats.high_water in
  (* The striped-parameter Ishfl temporaries live above the parameter
     bank; size the integer register file from the emitter's actual
     per-instruction high water, not a guessed constant (searched
     partitions can put three param operands on one instruction). *)
  let n_iregs = n_param_regs + (if !striped then !param_temps else 0) in
  let shared_doubles =
    (mapping.Mapping.store_slots + sched.Schedule.buffer_slots) * 32
    + (if needs_mirror then 4 * n_mapped else 0)
    - !freed_doubles
  in
  let const_mem =
    if cfg.overlay && Array.length overflow_mem > 0 then overflow_mem
    else Array.of_list (List.rev tables.const_mem_rev)
  in
  (* The emitted code is identical for every warp in the baseline case
     (mapping over one warp); replicate banks to the output warp count. *)
  let replicate bank =
    if out_warps = n_mapped then bank
    else Array.init out_warps (fun _ -> bank.(0))
  in
  let program =
    {
      Isa.name;
      n_warps = out_warps;
      n_fregs = max 1 n_fregs;
      n_iregs = max 1 n_iregs;
      shared_doubles;
      local_doubles = !spill_stats.spill_slots;
      barriers_used = sched.Schedule.barriers_used;
      point_map;
      prologue = Isa.Instrs prologue_instrs;
      body;
      const_bank = replicate const_bank;
      param_bank = replicate param_bank;
      const_mem;
      groups;
      exp_consts_in_registers = cfg.exp_consts_in_registers;
    }
  in
  {
    program;
    n_spill_slots = !spill_stats.spill_slots;
    spill_bytes_per_thread = !spill_stats.spill_slots * 8;
    n_bank_regs;
    n_params = tables.n_params;
    n_logical_consts = tables.n_consts;
    exchange = !exch_report;
  }

let validate_output ~arch ?(max_barriers = 16) (out : output) =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let p = out.program in
  (match Isa.validate p with
  | Ok () -> ()
  | Error es -> List.iter (fun e -> err "%s" e) es);
  let regs32 = Isa.regs32_per_thread p in
  if regs32 > arch.Gpusim.Arch.max_regs_per_thread then
    err "%d 32-bit registers per thread, architecture caps at %d" regs32
      arch.Gpusim.Arch.max_regs_per_thread;
  let shared_bytes = p.Isa.shared_doubles * 8 in
  if shared_bytes > arch.Gpusim.Arch.shared_bytes_per_sm then
    err "%d B shared per CTA, SM has %d" shared_bytes
      arch.Gpusim.Arch.shared_bytes_per_sm;
  if p.Isa.barriers_used > max_barriers then
    err "%d named barriers, budget is %d" p.Isa.barriers_used max_barriers;
  if out.n_bank_regs > p.Isa.n_fregs then
    err "%d constant-bank registers exceed the %d allocated double registers"
      out.n_bank_regs p.Isa.n_fregs;
  if out.n_spill_slots <> p.Isa.local_doubles then
    err "spill statistics claim %d slots, program reserves %d"
      out.n_spill_slots p.Isa.local_doubles;
  if out.spill_bytes_per_thread <> out.n_spill_slots * 8 then
    err "spill bytes %d disagree with %d slots" out.spill_bytes_per_thread
      out.n_spill_slots;
  if Array.length p.Isa.const_bank <> p.Isa.n_warps then
    err "constant bank covers %d warps, program has %d"
      (Array.length p.Isa.const_bank) p.Isa.n_warps;
  Array.iteri
    (fun w lanes ->
      if Array.length lanes <> 32 then
        err "constant bank of warp %d has %d lanes" w (Array.length lanes))
    p.Isa.const_bank;
  if Array.length p.Isa.param_bank <> p.Isa.n_warps then
    err "parameter bank covers %d warps, program has %d"
      (Array.length p.Isa.param_bank) p.Isa.n_warps;
  match List.rev !problems with [] -> Ok () | l -> Error l
