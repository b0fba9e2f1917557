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

(* The mix categories, as indexes of the fold's counter array, in the
   order of [mix]'s fields. *)
let category (i : Isa.instr) =
  match i with
  | Isa.Arith { op; _ } -> (
      match op with
      | Isa.Add | Isa.Sub | Isa.Mul | Isa.Fma | Isa.Max | Isa.Min | Isa.Neg -> 0
      | Isa.Div | Isa.Sqrt | Isa.Exp | Isa.Log -> 1)
  | Isa.Ld_global _ | Isa.St_global _ -> 2
  | Isa.Ld_shared _ | Isa.St_shared _ -> 3
  | Isa.Ld_local _ | Isa.St_local _ -> 4
  | Isa.Ld_const_bank _ | Isa.Ld_param _ -> 5
  | Isa.Shfl _ | Isa.Ishfl _ | Isa.Shfl_rot _ | Isa.Shfl_bfly _ -> 6
  | Isa.Bar_arrive _ | Isa.Bar_sync _ | Isa.Bar_cta -> 7
  | Isa.Mov _ -> 8

let n_categories = 9

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

type per_warp = { warp : int; instrs : int; flops : int; code_lines : int }

type t = {
  mix : mix;
  body_bytes : int;
  prologue_bytes : int;
  flops_per_point : float;
  shared_bytes : int;
  warps : per_warp array;
  imbalance : float;
  line_bytes : int;
}

(* One pass over the program's layout ([Trace.iter]): the body's mix and
   bytes count every instruction once, the code of absent warps' arms
   included; a warp's instructions, FLOPs and shared traffic count the
   body instructions it executes; and its code lines are the i-cache
   lines of every entry it executes, prologue and branches included —
   the line set the model's cold-fetch term ([Model_facts]' per-warp
   lines) reads. Entries come in address order, so a line a warp has
   seen before is the last one it saw. *)
let of_program arch (p : Isa.program) =
  let n = p.Isa.n_warps in
  let line_bytes = Arch.icache_line_bytes arch in
  let counts = Array.make n_categories 0 in
  let instrs = Array.make n 0 and flops = Array.make n 0 in
  let lines = Array.make n 0 and last_line = Array.make n (-1) in
  let body_bytes = ref 0 and prologue_bytes = ref 0 and shared = ref 0 in
  let see_line w line =
    if last_line.(w) <> line then begin
      lines.(w) <- lines.(w) + 1;
      last_line.(w) <- line
    end
  in
  ignore
    (Trace.iter arch p (fun phase warps e ->
         let line = e.Trace.addr / line_bytes in
         match (phase, e.Trace.instr) with
         | Trace.Body, Some i ->
             body_bytes := !body_bytes + Isa.static_bytes arch i;
             let k = category i in
             counts.(k) <- counts.(k) + 1;
             let sb = shared_bytes_of_instr i in
             for w = 0 to n - 1 do
               if warps land (1 lsl w) <> 0 then begin
                 see_line w line;
                 instrs.(w) <- instrs.(w) + 1;
                 flops.(w) <- flops.(w) + e.Trace.flops;
                 shared := !shared + sb
               end
             done
         | _, instr ->
             (* a prologue instruction or a synthetic branch *)
             (match instr with
             | Some i ->
                 prologue_bytes := !prologue_bytes + Isa.static_bytes arch i
             | None -> ());
             for w = 0 to n - 1 do
               if warps land (1 lsl w) <> 0 then see_line w line
             done));
  let warps =
    Array.init n (fun w ->
        {
          warp = w;
          instrs = instrs.(w);
          flops = flops.(w);
          code_lines = lines.(w);
        })
  in
  let total_flops = Array.fold_left ( + ) 0 flops * 32 in
  let mx = Array.fold_left max 0 instrs in
  let mn = Array.fold_left min max_int instrs in
  {
    mix =
      {
        dp_arith = counts.(0);
        dp_special = counts.(1);
        global_mem = counts.(2);
        shared_mem = counts.(3);
        local_mem = counts.(4);
        const_loads = counts.(5);
        shuffles = counts.(6);
        barriers = counts.(7);
        moves = counts.(8);
        total = Array.fold_left ( + ) 0 counts;
      };
    body_bytes = !body_bytes;
    prologue_bytes = !prologue_bytes;
    flops_per_point =
      float_of_int total_flops /. float_of_int (Isa.points_per_batch p);
    shared_bytes = !shared;
    warps;
    imbalance = float_of_int mx /. float_of_int (max 1 mn);
    line_bytes;
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
      Format.fprintf ppf
        "  warp %2d: %5d instrs, %6d flops, %4d code lines (%5d B)@," w.warp
        w.instrs w.flops w.code_lines (w.code_lines * t.line_bytes))
    t.warps;
  Format.fprintf ppf "@]"
