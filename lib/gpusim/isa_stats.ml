type mix = {
  dp_arith : int;
  dp_special : int;
  global_mem : int;
  shared_mem : int;
  local_mem : int;
  const_loads : int;
  shuffles : int;
  barriers : int;
  moves : int;
  total : int;
}

let empty_mix =
  {
    dp_arith = 0;
    dp_special = 0;
    global_mem = 0;
    shared_mem = 0;
    local_mem = 0;
    const_loads = 0;
    shuffles = 0;
    barriers = 0;
    moves = 0;
    total = 0;
  }

let add_mix a b =
  {
    dp_arith = a.dp_arith + b.dp_arith;
    dp_special = a.dp_special + b.dp_special;
    global_mem = a.global_mem + b.global_mem;
    shared_mem = a.shared_mem + b.shared_mem;
    local_mem = a.local_mem + b.local_mem;
    const_loads = a.const_loads + b.const_loads;
    shuffles = a.shuffles + b.shuffles;
    barriers = a.barriers + b.barriers;
    moves = a.moves + b.moves;
    total = a.total + b.total;
  }

let mix_of_instr (i : Isa.instr) =
  let one field = { empty_mix with total = 1 } |> field in
  match i with
  | Isa.Arith { op; _ } -> (
      match op with
      | Isa.Div | Isa.Sqrt | Isa.Exp | Isa.Log ->
          one (fun m -> { m with dp_special = 1 })
      | Isa.Add | Isa.Sub | Isa.Mul | Isa.Fma | Isa.Max | Isa.Min | Isa.Neg ->
          one (fun m -> { m with dp_arith = 1 }))
  | Isa.Mov _ -> one (fun m -> { m with moves = 1 })
  | Isa.Ld_global _ | Isa.St_global _ -> one (fun m -> { m with global_mem = 1 })
  | Isa.Ld_shared _ | Isa.St_shared _ -> one (fun m -> { m with shared_mem = 1 })
  | Isa.Ld_local _ | Isa.St_local _ -> one (fun m -> { m with local_mem = 1 })
  | Isa.Ld_const_bank _ | Isa.Ld_param _ ->
      one (fun m -> { m with const_loads = 1 })
  | Isa.Shfl _ | Isa.Ishfl _ | Isa.Shfl_rot _ | Isa.Shfl_bfly _ ->
      one (fun m -> { m with shuffles = 1 })
  | Isa.Bar_arrive _ | Isa.Bar_sync _ | Isa.Bar_cta ->
      one (fun m -> { m with barriers = 1 })

let mix_of_block block =
  let acc = ref empty_mix in
  Isa.iter_instrs block (fun i -> acc := add_mix !acc (mix_of_instr i));
  !acc

(* Shared-memory bytes one warp moves executing the instruction once:
   lane-striped accesses touch one double per active lane, uniform
   addresses are a single broadcast word. Shared operands of arithmetic
   count too — on collector-less architectures they occupy the shared
   pipe exactly like an explicit load. *)
let shared_bytes_of_instr (i : Isa.instr) =
  let active = function
    | Some (Isa.Lane_eq _) -> 1
    | Some (Isa.Lane_lt n) -> n
    | None -> 32
  in
  let addr_bytes (a : Isa.saddr) pred =
    8 * (if a.Isa.s_lane_mul <> 0 then active pred else 1)
  in
  let src_bytes pred = function
    | Isa.Sshared a -> addr_bytes a pred
    | _ -> 0
  in
  match i with
  | Isa.Ld_shared { addr; pred; _ } -> addr_bytes addr pred
  | Isa.St_shared { src; addr; pred } ->
      addr_bytes addr pred + src_bytes pred src
  | Isa.Arith { srcs; pred; _ } ->
      Array.fold_left (fun acc s -> acc + src_bytes pred s) 0 srcs
  | Isa.Mov { src; pred; _ } -> src_bytes pred src
  | Isa.St_global { src; pred; _ } -> src_bytes pred src
  | _ -> 0

type per_warp = { warp : int; instrs : int; flops : int; code_bytes : int }

(* One walk of the body with warp masks: each warp's executed
   instructions, FLOPs and fetched code bytes, and the shared-traffic
   bytes of every warp executing each instruction. *)
let walk_body (arch : Arch.t) (p : Isa.program) =
  let n = p.Isa.n_warps in
  let instrs = Array.make n 0 in
  let flops = Array.make n 0 in
  let bytes = Array.make n 0 in
  let shared = ref 0 in
  let each_warp mask f =
    for w = 0 to n - 1 do
      if mask land (1 lsl w) <> 0 then f w
    done
  in
  let full = (1 lsl n) - 1 in
  (* exec_mask: warps that execute; fetch_mask: warps that stream the code
     through their fetch path (an If_warps body is fetched even by warps
     whose bit is clear — they fall through it). *)
  let rec go exec_mask fetch_mask = function
    | Isa.Instrs l ->
        List.iter
          (fun i ->
            let b = Isa.static_bytes arch i in
            let sb = shared_bytes_of_instr i in
            each_warp fetch_mask (fun w -> bytes.(w) <- bytes.(w) + b);
            each_warp exec_mask (fun w ->
                instrs.(w) <- instrs.(w) + 1;
                shared := !shared + sb;
                match i with
                | Isa.Arith { op; _ } -> flops.(w) <- flops.(w) + Isa.fop_flops op
                | _ -> ()))
          l
    | Isa.Seq bs -> List.iter (go exec_mask fetch_mask) bs
    | Isa.If_warps { mask; body } ->
        go (exec_mask land mask) fetch_mask body
    | Isa.Switch_warp arms ->
        Array.iteri
          (fun w arm ->
            let m = exec_mask land (1 lsl w) in
            (* an indirect branch: each warp fetches only its own arm *)
            if m <> 0 then go m m arm)
          arms
  in
  go full full p.Isa.body;
  let warps =
    Array.init n (fun w ->
        { warp = w; instrs = instrs.(w); flops = flops.(w); code_bytes = bytes.(w) })
  in
  (warps, !shared)

type t = {
  mix : mix;
  body_bytes : int;
  prologue_bytes : int;
  flops_per_point : float;
  shared_bytes : int;
  warps : per_warp array;
  imbalance : float;
}

let block_bytes arch block =
  let acc = ref 0 in
  Isa.iter_instrs block (fun i -> acc := !acc + Isa.static_bytes arch i);
  !acc

let of_program arch (p : Isa.program) =
  let warps, shared_bytes = walk_body arch p in
  let total_flops =
    Array.fold_left (fun a w -> a + w.flops) 0 warps * 32
  in
  let mx = Array.fold_left (fun a w -> max a w.instrs) 0 warps in
  let mn = Array.fold_left (fun a w -> min a w.instrs) max_int warps in
  {
    mix = mix_of_block p.Isa.body;
    body_bytes = block_bytes arch p.Isa.body;
    prologue_bytes = block_bytes arch p.Isa.prologue;
    flops_per_point =
      float_of_int total_flops /. float_of_int (Isa.points_per_batch p);
    shared_bytes;
    warps;
    imbalance = float_of_int mx /. float_of_int (max 1 mn);
  }

let pp ppf t =
  let m = t.mix in
  let pct x = 100.0 *. float_of_int x /. float_of_int (max 1 m.total) in
  Format.fprintf ppf
    "@[<v>instruction mix (%d body instructions):@,\
    \  DP arith     %5d  (%4.1f%%)@,\
    \  DP special   %5d  (%4.1f%%)@,\
    \  global mem   %5d  (%4.1f%%)@,\
    \  shared mem   %5d  (%4.1f%%)@,\
    \  local/spill  %5d  (%4.1f%%)@,\
    \  const loads  %5d  (%4.1f%%)@,\
    \  shuffles     %5d  (%4.1f%%)@,\
    \  barriers     %5d  (%4.1f%%)@,\
    \  moves        %5d  (%4.1f%%)@,\
     code: body %d B, prologue %d B; %.0f FLOPs/point; warp imbalance %.2f@,\
     shared traffic: %d B per body pass@,"
    m.total m.dp_arith (pct m.dp_arith) m.dp_special (pct m.dp_special)
    m.global_mem (pct m.global_mem) m.shared_mem (pct m.shared_mem)
    m.local_mem (pct m.local_mem) m.const_loads (pct m.const_loads)
    m.shuffles (pct m.shuffles) m.barriers (pct m.barriers) m.moves
    (pct m.moves) t.body_bytes t.prologue_bytes t.flops_per_point t.imbalance
    t.shared_bytes;
  Array.iter
    (fun w ->
      Format.fprintf ppf "  warp %2d: %5d instrs, %6d flops, %5d code B@," w.warp
        w.instrs w.flops w.code_bytes)
    t.warps;
  Format.fprintf ppf "@]"
