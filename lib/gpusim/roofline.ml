type bound = { resource : string; points_per_sec : float }

type t = {
  bounds : bound list;
  binding : bound;
  occupancy : Chip.occupancy;
}

(* Per-CTA-batch demand on each resource, from one walk of the body with
   warp masks (mirrors Isa_stats.per_warp_of_program but accumulates
   resource units instead of counts). *)
type demand = {
  mutable warp_instrs : float;  (* issue slots *)
  mutable dp_slots : float;  (* DFMA-equivalent DP issue slots *)
  mutable shared_slots : float;  (* warp shared-access slots *)
  mutable tex_bytes : float;
  mutable global_bytes : float;
  mutable local_bytes : float;
}

let src_reads_const (s : Isa.src) =
  match s with Isa.Sconst _ | Isa.Sconst_warp _ -> true | _ -> false

let demand_of (arch : Arch.t) (p : Isa.program) =
  let d =
    {
      warp_instrs = 0.0;
      dp_slots = 0.0;
      shared_slots = 0.0;
      tex_bytes = 0.0;
      global_bytes = 0.0;
      local_bytes = 0.0;
    }
  in
  let warp_bytes = 32.0 *. 8.0 in
  let count warps (i : Isa.instr) =
    let w = float_of_int warps in
    d.warp_instrs <- d.warp_instrs +. w;
    match i with
    | Isa.Arith { op; srcs; _ } ->
        let slots = Isa.fop_dp_slots op in
        let slots =
          if Array.exists src_reads_const srcs then
            slots *. arch.Arch.const_operand_penalty
          else slots
        in
        d.dp_slots <- d.dp_slots +. (w *. slots);
        if
          (not arch.Arch.shared_operand_collector)
          && Array.exists
               (function Isa.Sshared _ -> true | _ -> false)
               srcs
        then d.shared_slots <- d.shared_slots +. w
    | Isa.Ld_global { via_tex; _ } ->
        if via_tex then d.tex_bytes <- d.tex_bytes +. (w *. warp_bytes)
        else d.global_bytes <- d.global_bytes +. (w *. warp_bytes)
    | Isa.St_global _ -> d.global_bytes <- d.global_bytes +. (w *. warp_bytes)
    | Isa.Ld_shared _ | Isa.St_shared _ ->
        d.shared_slots <- d.shared_slots +. w
    | Isa.Ld_local _ | Isa.St_local _ ->
        d.local_bytes <- d.local_bytes +. (w *. warp_bytes)
    | Isa.Mov { src; _ } ->
        if (match src with Isa.Sshared _ -> true | _ -> false)
           && not arch.Arch.shared_operand_collector
        then d.shared_slots <- d.shared_slots +. w
    | _ -> ()
  in
  let popcount mask =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go mask 0
  in
  let full = (1 lsl p.Isa.n_warps) - 1 in
  let rec go mask = function
    | Isa.Instrs l -> List.iter (count (popcount mask)) l
    | Isa.Seq bs -> List.iter (go mask) bs
    | Isa.If_warps { mask = m; body } -> go (mask land m) body
    | Isa.Switch_warp arms ->
        Array.iteri (fun w arm -> if mask land (1 lsl w) <> 0 then go (1 lsl w) arm) arms
  in
  go full p.Isa.body;
  d

let analyze (arch : Arch.t) (p : Isa.program) =
  let occ = Chip.occupancy arch p in
  let d = demand_of arch p in
  let points_per_batch =
    float_of_int
      (match p.Isa.point_map with
      | Isa.Coop -> 32
      | Isa.Thread_per_point -> p.Isa.n_warps * 32)
  in
  let clock = arch.Arch.clock_mhz *. 1e6 in
  let sms = float_of_int arch.Arch.n_sms in
  (* ceiling from "units of demand per batch" against "units per cycle";
     resident CTAs on one SM process CTAs in parallel but share the pipes,
     so the per-SM rate is units_per_cycle / (demand per batch) batches per
     cycle, independent of residency; residency matters only for latency
     hiding, which a roofline ignores. *)
  let bound resource units_per_cycle demand =
    if demand <= 0.0 then None
    else
      Some
        {
          resource;
          points_per_sec =
            units_per_cycle /. demand *. points_per_batch *. clock *. sms;
        }
  in
  let bounds =
    List.filter_map Fun.id
      [
        bound "warp-instruction issue"
          (float_of_int arch.Arch.schedulers)
          d.warp_instrs;
        bound "DP pipe" arch.Arch.dp_issue_per_cycle d.dp_slots;
        bound "shared-memory pipe" arch.Arch.shared_issue_per_cycle
          d.shared_slots;
        bound "texture path" arch.Arch.tex_bytes_per_cycle d.tex_bytes;
        bound "global-memory path" arch.Arch.global_bytes_per_cycle
          d.global_bytes;
        bound "local-memory (spill) path" arch.Arch.local_bytes_per_cycle
          d.local_bytes;
      ]
  in
  let bounds =
    List.sort (fun a b -> compare a.points_per_sec b.points_per_sec) bounds
  in
  { bounds; binding = List.hd bounds; occupancy = occ }

let pp ppf t =
  Format.fprintf ppf "@[<v>roofline (tightest first):@,";
  List.iter
    (fun b ->
      Format.fprintf ppf "  %-28s %.3e points/s%s@," b.resource
        b.points_per_sec
        (if b == t.binding then "   <- binding" else ""))
    t.bounds;
  Format.fprintf ppf "occupancy: %d CTAs/SM (limited by %s)@]"
    t.occupancy.Chip.resident_ctas t.occupancy.Chip.limited_by
