type strategy = Store | Buffer | Mixed

let strategy_name = function
  | Store -> "store"
  | Buffer -> "buffer"
  | Mixed -> "mixed"

type weights = { w_flops : float; w_regs : float; w_locality : float }

let default_weights = { w_flops = 1.0; w_regs = 0.25; w_locality = 0.5 }

type placement = P_reg | P_shared

type t = {
  n_warps : int;
  op_warp : int array;
  value_place : placement array;
  shared_slot : int array;
  store_slots : int;
  strategy : strategy;
}

(* Register demand proxy: an op's output occupies one register in its warp
   for as long as it is live (§4.1: intermediates are free, op results are
   not). *)
let op_reg_need (op : Dfg.op) = match op.Dfg.output with Some _ -> 1 | None -> 0

(* The mapper is a total function only over sane inputs. [n_warps < 1]
   would send every op to the phantom warp 0 of zero-length balance
   accumulators (an out-of-range [op_warp] write followed by an
   index-out-of-bounds in [warp_flops]); reject it as a positioned
   diagnostic instead. Degenerate graphs on the other side — no ops, or
   fewer ops than warps — are fine: the greedy loop simply leaves the
   surplus warps empty, which is a valid (trivial) mapping. *)
let check_degenerate (dfg : Dfg.t) ~n_warps =
  if n_warps < 1 then
    Diagnostics.failf ~pass:"mapping" ~loc:dfg.Dfg.graph_name
      "cannot map %d operation(s) onto %d warp(s): need at least one warp"
      (Array.length dfg.Dfg.ops) n_warps

let map_core (dfg : Dfg.t) ~n_warps ~weights ~strategy ~hint_of =
  check_degenerate dfg ~n_warps;
  let n_ops = Array.length dfg.Dfg.ops in
  let op_warp = Array.make n_ops (-1) in
  let flops = Array.make n_warps 0.0 in
  let regs = Array.make n_warps 0.0 in
  (* Each op's FLOPs, counted once: the sort below compares them. *)
  let op_flops = Array.map Dfg.op_flops dfg.Dfg.ops in
  (* Pinned operations first. *)
  Array.iter
    (fun (op : Dfg.op) ->
      match hint_of op with
      | Some w when w >= 0 && w < n_warps ->
          op_warp.(op.Dfg.id) <- w;
          flops.(w) <- flops.(w) +. float_of_int op_flops.(op.Dfg.id);
          regs.(w) <- regs.(w) +. float_of_int (op_reg_need op)
      | Some _ | None -> ())
    dfg.Dfg.ops;
  (* Remaining ops in decreasing cost order; each goes to the warp that
     locally minimizes the weighted cost. *)
  let remaining =
    Array.to_list dfg.Dfg.ops
    |> List.filter (fun (op : Dfg.op) -> op_warp.(op.Dfg.id) < 0)
    |> List.sort (fun (a : Dfg.op) (b : Dfg.op) ->
           Int.compare op_flops.(b.Dfg.id) op_flops.(a.Dfg.id))
  in
  let neighbors (op : Dfg.op) =
    (* Warps already holding a producer of an input or a consumer of the
       output. *)
    let acc = ref [] in
    Array.iter
      (fun v ->
        let p = op_warp.(dfg.Dfg.values.(v).Dfg.producer) in
        if p >= 0 then acc := p :: !acc)
      op.Dfg.inputs;
    (match op.Dfg.output with
    | Some v ->
        List.iter
          (fun c -> if op_warp.(c) >= 0 then acc := op_warp.(c) :: !acc)
          dfg.Dfg.values.(v).Dfg.consumers
    | None -> ());
    !acc
  in
  (* [near_on.(w)]: how many of an op's neighbors sit on warp [w]. *)
  let near_on = Array.make n_warps 0 in
  List.iter
    (fun (op : Dfg.op) ->
      let near = neighbors op in
      let n_near = List.length near in
      List.iter (fun x -> near_on.(x) <- near_on.(x) + 1) near;
      let op_f = float_of_int op_flops.(op.Dfg.id) in
      let op_r = float_of_int (op_reg_need op) in
      let best = ref 0 and best_cost = ref infinity in
      for w = 0 to n_warps - 1 do
        (* The neighbors on other warps. *)
        let locality_penalty = float_of_int (n_near - near_on.(w)) in
        let cost =
          (weights.w_flops *. (flops.(w) +. op_f))
          +. (weights.w_regs *. (regs.(w) +. op_r))
          +. (weights.w_locality *. locality_penalty)
        in
        if cost < !best_cost then begin
          best_cost := cost;
          best := w
        end
      done;
      List.iter (fun x -> near_on.(x) <- 0) near;
      op_warp.(op.Dfg.id) <- !best;
      flops.(!best) <- flops.(!best) +. op_f;
      regs.(!best) <- regs.(!best) +. op_r)
    remaining;
  (* Data placement. Store-region slots are recycled across fence
     boundaries: a value occupying segments [a, b] (producer's segment to
     last consumer's) may share a slot with one occupying [a', b'] when
     b < a' — the CTA barrier between orders all reads of the first before
     any write of the second. *)
  let n_vals = Array.length dfg.Dfg.values in
  let value_place = Array.make n_vals P_reg in
  let shared_slot = Array.make n_vals (-1) in
  let segment_of =
    let seg = Array.make n_ops 0 in
    let current = ref 0 in
    Array.iteri
      (fun i (op : Dfg.op) ->
        if Dfg.is_fence op then incr current;
        seg.(i) <- !current)
      dfg.Dfg.ops;
    fun op_id -> seg.(op_id)
  in
  let shared_vals = ref [] in
  Array.iter
    (fun (v : Dfg.value) ->
      let pw = op_warp.(v.Dfg.producer) in
      let consumer_warps =
        List.map (fun c -> op_warp.(c)) v.Dfg.consumers
        |> List.sort_uniq compare
      in
      let cross = List.exists (fun w -> w <> pw) consumer_warps in
      let widely_shared =
        List.length consumer_warps >= 3 || List.length v.Dfg.consumers >= 4
      in
      let to_shared =
        let hinted = dfg.Dfg.ops.(v.Dfg.producer).Dfg.shared_hint in
        match strategy with
        | Store -> cross
        | Buffer -> cross && hinted
        | Mixed -> cross && (widely_shared || hinted)
      in
      if to_shared then begin
        value_place.(v.Dfg.vid) <- P_shared;
        let a = segment_of v.Dfg.producer in
        let b =
          List.fold_left (fun acc c -> max acc (segment_of c)) a v.Dfg.consumers
        in
        shared_vals := (a, b, v.Dfg.vid) :: !shared_vals
      end)
    dfg.Dfg.values;
  let sorted =
    List.sort (fun (a1, _, v1) (a2, _, v2) -> compare (a1, v1) (a2, v2))
      !shared_vals
  in
  (* Greedy interval coloring: free slots carry the segment after which
     they may be rewritten. *)
  let free : (int * int) list ref = ref [] in (* (available_from_seg, slot) *)
  let n_slots = ref 0 in
  List.iter
    (fun (a, b, vid) ->
      let rec take acc = function
        | [] -> None
        | (avail, slot) :: rest when avail <= a ->
            free := List.rev_append acc rest;
            Some slot
        | entry :: rest -> take (entry :: acc) rest
      in
      let slot =
        match take [] !free with
        | Some s -> s
        | None ->
            let s = !n_slots in
            incr n_slots;
            s
      in
      shared_slot.(vid) <- slot;
      free := (b + 1, slot) :: !free)
    sorted;
  {
    n_warps;
    op_warp;
    value_place;
    shared_slot;
    store_slots = !n_slots;
    strategy;
  }

let map (dfg : Dfg.t) ~n_warps ~weights ~strategy ~respect_hints =
  map_core dfg ~n_warps ~weights ~strategy ~hint_of:(fun (op : Dfg.op) ->
      if respect_hints then op.Dfg.hint else None)

(* ---- structure-derived partitions (the Partition_search seeds) ---- *)

type auto_spec = {
  producer_warps : int;
  hub_threshold : int;
  chain_weight : float;
  auto_strategy : strategy;
}

let pp_auto_spec ppf s =
  Format.fprintf ppf "producers=%d hub>=%d chain=%.2g strategy=%s"
    s.producer_warps s.hub_threshold s.chain_weight
    (strategy_name s.auto_strategy)

(* Derive a partition from graph shape instead of domain hints: loads and
   fan-out hubs (values feeding at least [hub_threshold] consumers) are
   the producer side and get pinned round-robin over the first
   [producer_warps] warps; everything else — the long arithmetic chains —
   is placed greedily with the locality weight scaled by [chain_weight],
   so a chain glues itself to the warp already holding its neighbors and
   the FLOP-balance term spreads whole chains over the consumer warps. *)
let map_auto (dfg : Dfg.t) ~n_warps ~weights ~spec =
  check_degenerate dfg ~n_warps;
  let producers = max 1 (min spec.producer_warps n_warps) in
  let fanout v = List.length dfg.Dfg.values.(v).Dfg.consumers in
  let next = ref 0 in
  let hints =
    Sutil.Filled.map None
      (fun (op : Dfg.op) ->
        let is_producer =
          match op.Dfg.kind with
          | Dfg.Load _ -> true
          | Dfg.Compute _ -> (
              match op.Dfg.output with
              | Some v -> fanout v >= spec.hub_threshold
              | None -> false)
          | Dfg.Store _ | Dfg.Fence -> false
        in
        if is_producer then begin
          let w = !next mod producers in
          incr next;
          Some w
        end
        else None)
      dfg.Dfg.ops
  in
  let weights =
    { weights with w_locality = weights.w_locality *. spec.chain_weight }
  in
  map_core dfg ~n_warps ~weights ~strategy:spec.auto_strategy
    ~hint_of:(fun (op : Dfg.op) -> hints.(op.Dfg.id))

let warp_flops dfg t =
  let acc = Array.make t.n_warps 0 in
  Array.iter
    (fun (op : Dfg.op) ->
      let w = t.op_warp.(op.Dfg.id) in
      acc.(w) <- acc.(w) + Dfg.op_flops op)
    dfg.Dfg.ops;
  acc

let warp_values dfg t =
  let acc = Array.make t.n_warps 0 in
  Array.iter
    (fun (v : Dfg.value) ->
      let w = t.op_warp.(v.Dfg.producer) in
      acc.(w) <- acc.(w) + 1)
    dfg.Dfg.values;
  acc

let cross_warp_edges dfg t =
  let n = ref 0 in
  Array.iter
    (fun (op : Dfg.op) ->
      Array.iter
        (fun v ->
          let p = t.op_warp.(dfg.Dfg.values.(v).Dfg.producer) in
          if p <> t.op_warp.(op.Dfg.id) then incr n)
        op.Dfg.inputs)
    dfg.Dfg.ops;
  !n

let store_addr t vid =
  assert (t.shared_slot.(vid) >= 0);
  t.shared_slot.(vid) * 32

type exchange = {
  ex_value : int;
  ex_slot : int;
  ex_producer_warp : int;
  ex_consumer_warps : int list;
  ex_same_warp_reads : int;
  ex_pattern : int array;
}

(* One record per shared-placed value: who writes it, who reads it, and
   the lane-communication pattern of the exchange. The §5 lowering always
   stripes a P_shared value lane-aligned (lane [l] of the producer writes
   [slot*32 + l], lane [l] of every consumer reads the same address), so
   the pattern is the identity permutation; the synthesis pass keys off
   [ex_same_warp_reads] — reads the producing warp itself performs are
   register-forwardable round-trips. *)
let exchanges (dfg : Dfg.t) t =
  Array.to_list dfg.Dfg.values
  |> List.filter_map (fun (v : Dfg.value) ->
         if t.value_place.(v.Dfg.vid) <> P_shared then None
         else
           let pw = t.op_warp.(v.Dfg.producer) in
           let consumer_warps =
             List.map (fun c -> t.op_warp.(c)) v.Dfg.consumers
             |> List.sort_uniq compare
           in
           let same_warp_reads =
             List.length
               (List.filter (fun c -> t.op_warp.(c) = pw) v.Dfg.consumers)
           in
           Some
             {
               ex_value = v.Dfg.vid;
               ex_slot = t.shared_slot.(v.Dfg.vid);
               ex_producer_warp = pw;
               ex_consumer_warps = consumer_warps;
               ex_same_warp_reads = same_warp_reads;
               ex_pattern = Array.init 32 (fun l -> l);
             })

(* Fence segment of each op, as the placement logic in [map] computes it:
   slot recycling is only sound across a segment boundary. *)
let segments (dfg : Dfg.t) =
  let seg = Array.make (Array.length dfg.Dfg.ops) 0 in
  let current = ref 0 in
  Array.iteri
    (fun i (op : Dfg.op) ->
      if Dfg.is_fence op then incr current;
      seg.(i) <- !current)
    dfg.Dfg.ops;
  seg

let validate ?(max_imbalance = 8.0) (dfg : Dfg.t) t =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let n_ops = Array.length dfg.Dfg.ops in
  let n_vals = Array.length dfg.Dfg.values in
  if Array.length t.op_warp <> n_ops then
    err "op_warp covers %d ops, graph has %d" (Array.length t.op_warp) n_ops;
  if Array.length t.value_place <> n_vals || Array.length t.shared_slot <> n_vals
  then err "value tables cover %d/%d values, graph has %d"
      (Array.length t.value_place) (Array.length t.shared_slot) n_vals;
  if !problems <> [] then Error (List.rev !problems)
  else begin
    let warps_in_range = ref true in
    Array.iter
      (fun (op : Dfg.op) ->
        let w = t.op_warp.(op.Dfg.id) in
        if w < 0 || w >= t.n_warps then begin
          warps_in_range := false;
          err "op %s mapped to warp %d, out of range [0, %d)" op.Dfg.name w
            t.n_warps
        end)
      dfg.Dfg.ops;
    (* Placement consistency and slot-lifetime disjointness. *)
    let seg = segments dfg in
    let slot_intervals = Hashtbl.create 32 in
    Array.iter
      (fun (v : Dfg.value) ->
        let place = t.value_place.(v.Dfg.vid) in
        let slot = t.shared_slot.(v.Dfg.vid) in
        (match (place, slot) with
        | P_reg, s when s >= 0 ->
            err "value %s: register-placed but holds store slot %d" v.Dfg.vname s
        | P_shared, s when s < 0 ->
            err "value %s: shared-placed without a store slot" v.Dfg.vname
        | P_shared, s when s >= t.store_slots ->
            err "value %s: slot %d beyond store region of %d" v.Dfg.vname s
              t.store_slots
        | _ -> ());
        if place = P_shared && slot >= 0 && slot < t.store_slots then begin
          let a = seg.(v.Dfg.producer) in
          let b =
            List.fold_left (fun acc c -> max acc seg.(c)) a v.Dfg.consumers
          in
          let prev = try Hashtbl.find slot_intervals slot with Not_found -> [] in
          Hashtbl.replace slot_intervals slot ((a, b, v.Dfg.vname) :: prev)
        end)
      dfg.Dfg.values;
    Hashtbl.iter
      (fun slot intervals ->
        let sorted =
          List.sort (fun (a1, _, _) (a2, _, _) -> compare a1 a2) intervals
        in
        ignore
          (List.fold_left
             (fun prev (a, b, name) ->
               (match prev with
               | Some (pb, pname) when a <= pb ->
                   err
                     "store slot %d: values %s and %s have overlapping fence \
                      segments"
                     slot pname name
               | _ -> ());
               Some (b, name))
             None sorted))
      slot_intervals;
    (* FLOP / register-demand budgets: the greedy mapper balances both, so
       a warp loaded far beyond the mean means the mapping stage (or a
       mutation of its output) is broken. One largest-op slack keeps the
       bound meaningful for graphs whose total barely exceeds one op. *)
    (* The balance bounds index per-warp accumulators, so they are only
       meaningful (and safe) once every op's warp is in range. *)
    if t.n_warps > 1 && !warps_in_range then begin
      let flops = warp_flops dfg t in
      let total = Array.fold_left ( + ) 0 flops in
      let biggest =
        Array.fold_left (fun acc op -> max acc (Dfg.op_flops op)) 0 dfg.Dfg.ops
      in
      let mean = float_of_int total /. float_of_int t.n_warps in
      let cap = (max_imbalance *. mean) +. float_of_int biggest in
      Array.iteri
        (fun w f ->
          if float_of_int f > cap then
            err "warp %d holds %d flops, over budget %.0f (mean %.0f)" w f cap
              mean)
        flops;
      let regs = warp_values dfg t in
      let rtotal = Array.fold_left ( + ) 0 regs in
      let rmean = float_of_int rtotal /. float_of_int t.n_warps in
      let rcap = (max_imbalance *. rmean) +. 8.0 in
      Array.iteri
        (fun w r ->
          if float_of_int r > rcap then
            err "warp %d holds %d values, over register budget %.0f (mean %.0f)"
              w r rcap rmean)
        regs
    end;
    match List.rev !problems with [] -> Ok () | l -> Error l
  end

let pp_dump dfg ppf t =
  let flops = warp_flops dfg t in
  let regs = warp_values dfg t in
  Format.fprintf ppf
    "mapping: %d warps, strategy %s, %d store slots, %d cross-warp edges@,"
    t.n_warps
    (strategy_name t.strategy)
    t.store_slots
    (cross_warp_edges dfg t);
  for w = 0 to t.n_warps - 1 do
    let owned =
      Array.to_list dfg.Dfg.ops
      |> List.filter (fun (op : Dfg.op) -> t.op_warp.(op.Dfg.id) = w)
    in
    Format.fprintf ppf "  warp %2d: %4d flops, %3d values, %3d ops:" w
      flops.(w) regs.(w) (List.length owned);
    List.iter
      (fun (op : Dfg.op) -> Format.fprintf ppf " %s" op.Dfg.name)
      owned;
    Format.pp_print_cut ppf ()
  done;
  Array.iter
    (fun (v : Dfg.value) ->
      if t.value_place.(v.Dfg.vid) = P_shared then
        Format.fprintf ppf "  shared %s -> slot %d@," v.Dfg.vname
          t.shared_slot.(v.Dfg.vid))
    dfg.Dfg.values
