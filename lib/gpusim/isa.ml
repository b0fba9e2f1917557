type fop = Add | Sub | Mul | Fma | Div | Sqrt | Exp | Log | Max | Min | Neg

let fop_arity = function
  | Fma -> 3
  | Add | Sub | Mul | Div | Max | Min -> 2
  | Sqrt | Exp | Log | Neg -> 1

let fop_flops = function
  | Add | Sub | Mul | Max | Min | Neg -> 1
  | Fma -> 2
  | Div -> 8
  | Sqrt -> 8
  | Exp | Log -> 24

let fop_dp_slots = function
  | Add | Sub | Mul | Max | Min | Neg | Fma -> 1.0
  | Div -> 8.0
  | Sqrt -> 8.0
  | Exp | Log -> 17.0

let fop_lat_mult = function
  | Div | Sqrt -> 3
  | Exp | Log -> 5
  | Add | Sub | Mul | Fma | Max | Min | Neg -> 1

type pred = Lane_eq of int | Lane_lt of int

type saddr = {
  s_base : int;
  s_warp_mul : int;
  s_lane_mul : int;
  s_ireg : int option;
  s_ireg_mul : int;
}

let sh base =
  { s_base = base; s_warp_mul = 0; s_lane_mul = 0; s_ireg = None; s_ireg_mul = 0 }

let sh_lane ?(mul = 1) base = { (sh base) with s_lane_mul = mul }

let sh_ireg ?(lane_mul = 0) ~base ~ireg ~mul () =
  { s_base = base; s_warp_mul = 0; s_lane_mul = lane_mul; s_ireg = Some ireg;
    s_ireg_mul = mul }

type src =
  | Sreg of int
  | Simm of float
  | Sconst of int
  | Sconst_warp of int  (** constant memory at [base + warp_id] *)
  | Sshared of saddr

type field_sel = F_static of int | F_ireg of int

type instr =
  | Arith of { op : fop; dst : int; srcs : src array; pred : pred option }
  | Mov of { dst : int; src : src; pred : pred option }
  | Ld_global of {
      dst : int;
      group : int;
      field : field_sel;
      via_tex : bool;
      pred : pred option;
    }
  | St_global of {
      src : src;
      group : int;
      field : field_sel;
      pred : pred option;
    }
  | Ld_shared of { dst : int; addr : saddr; pred : pred option }
  | St_shared of { src : src; addr : saddr; pred : pred option }
  | Ld_local of { dst : int; slot : int }
  | St_local of { src : int; slot : int }
  | Ld_const_bank of { dst : int; slot : int }
  | Ld_param of { dst_i : int; slot : int }
  | Shfl of { dst : int; src : int; lane : int }
  | Ishfl of { dst_i : int; src_i : int; lane : int }
  | Shfl_rot of { dst : int; src : int; delta : int }
  | Shfl_bfly of { dst : int; src : int; xor_mask : int }
  | Bar_arrive of { bar : int; count : int }
  | Bar_sync of { bar : int; count : int }
  | Bar_cta

type block =
  | Instrs of instr list
  | Seq of block list
  | If_warps of { mask : int; body : block }
  | Switch_warp of block array

type point_map = Coop | Thread_per_point

type group_info = { group_name : string; fields : int }

type program = {
  name : string;
  n_warps : int;
  n_fregs : int;
  n_iregs : int;
  shared_doubles : int;
  local_doubles : int;
  barriers_used : int;
  point_map : point_map;
  prologue : block;
  body : block;
  const_bank : float array array array;
  param_bank : int array array array;
  const_mem : float array;
  groups : group_info array;
  exp_consts_in_registers : bool;
}

let points_per_batch p =
  match p.point_map with Coop -> 32 | Thread_per_point -> p.n_warps * 32

let rec iter_instrs block f =
  match block with
  | Instrs l -> List.iter f l
  | Seq bs -> List.iter (fun b -> iter_instrs b f) bs
  | If_warps { body; _ } -> iter_instrs body f
  | Switch_warp bodies -> Array.iter (fun b -> iter_instrs b f) bodies

let rec static_instr_count = function
  | Instrs l -> List.length l
  | Seq bs -> List.fold_left (fun n b -> n + static_instr_count b) 0 bs
  | If_warps { body; _ } -> static_instr_count body
  | Switch_warp bodies ->
      Array.fold_left (fun n b -> n + static_instr_count b) 0 bodies

let static_bytes (arch : Arch.t) instr =
  let slots =
    match instr with
    | Arith { op; _ } -> int_of_float (fop_dp_slots op)
    | Shfl _ | Shfl_rot _ | Shfl_bfly _ ->
        2 (* two 32-bit shuffles reassemble a double *)
    | Mov _ | Ld_global _ | St_global _ | Ld_shared _ | St_shared _
    | Ld_local _ | St_local _ | Ld_const_bank _ | Ld_param _ | Ishfl _
    | Bar_arrive _ | Bar_sync _ | Bar_cta ->
        1
  in
  slots * arch.Arch.instr_bytes

let regs32_per_thread p = (2 * p.n_fregs) + p.n_iregs + 10

let validate p =
  let problems = ref [] in
  (* [section] and [index] carry the position of the instruction being
     checked ("body", 17), so per-instruction diagnostics point at the
     offending site ("body[17]: ..."); program-level checks leave
     [section] empty. The position is formatted only when a problem is
     recorded. *)
  let section = ref "" and index = ref 0 in
  let err fmt =
    Printf.ksprintf
      (fun s ->
        problems :=
          (if !section = "" then s
           else Printf.sprintf "%s[%d]: %s" !section !index s)
          :: !problems)
      fmt
  in
  let check_freg tag r =
    if r < 0 || r >= p.n_fregs then err "%s: double register %d out of range" tag r
  in
  let check_ireg tag r =
    if r < 0 || r >= p.n_iregs then err "%s: int register %d out of range" tag r
  in
  let check_pred tag = function
    | Some (Lane_eq l | Lane_lt l) ->
        if l < 0 || l >= 32 then err "%s: predicate lane %d out of range" tag l
    | None -> ()
  in
  let check_saddr tag (a : saddr) =
    (* A negative static base is fine when a parameter register supplies
       the rest of the address; the dynamic part is checked at runtime. *)
    if a.s_base < 0 && a.s_ireg = None then
      err "%s: negative shared base %d" tag a.s_base;
    (match a.s_ireg with
    | Some r -> check_ireg tag r
    | None ->
        let max_static =
          a.s_base
          + max 0 (a.s_warp_mul * (p.n_warps - 1))
          + max 0 (a.s_lane_mul * 31)
        in
        if max_static >= p.shared_doubles then
          err "%s: shared address %d exceeds %d doubles" tag max_static
            p.shared_doubles)
  in
  let check_src tag = function
    | Sreg r -> check_freg tag r
    | Simm _ -> ()
    | Sconst c ->
        if c < 0 || c >= Array.length p.const_mem then
          err "%s: constant slot %d out of range" tag c
    | Sconst_warp c ->
        if c < 0 || c + p.n_warps > Array.length p.const_mem then
          err "%s: warp-strided constant base %d out of range" tag c
    | Sshared a -> check_saddr tag a
  in
  let check_field tag = function
    | F_static _ -> ()
    | F_ireg r -> check_ireg tag r
  in
  let check_bar tag b =
    if b < 0 || b >= p.barriers_used then err "%s: barrier %d out of range (%d used)" tag b p.barriers_used
  in
  let check_group tag g =
    if g < 0 || g >= Array.length p.groups then err "%s: group %d out of range" tag g
  in
  let check instr =
    match instr with
    | Arith { op; dst; srcs; pred } ->
        if Array.length srcs <> fop_arity op then err "arith: wrong arity";
        check_freg "arith" dst;
        Array.iter (check_src "arith") srcs;
        check_pred "arith" pred
    | Mov { dst; src; pred } ->
        check_freg "mov" dst;
        check_src "mov" src;
        check_pred "mov" pred
    | Ld_global { dst; group; field; pred; _ } ->
        check_freg "ld_global" dst;
        check_group "ld_global" group;
        check_field "ld_global" field;
        check_pred "ld_global" pred
    | St_global { src; group; field; pred } ->
        check_src "st_global" src;
        check_group "st_global" group;
        check_field "st_global" field;
        check_pred "st_global" pred
    | Ld_shared { dst; addr; pred } ->
        check_freg "ld_shared" dst;
        check_saddr "ld_shared" addr;
        check_pred "ld_shared" pred
    | St_shared { src; addr; pred } ->
        check_src "st_shared" src;
        check_saddr "st_shared" addr;
        check_pred "st_shared" pred
    | Ld_local { dst; slot } ->
        check_freg "ld_local" dst;
        if slot < 0 || slot >= p.local_doubles then err "ld_local: slot %d" slot
    | St_local { src; slot } ->
        check_freg "st_local" src;
        if slot < 0 || slot >= p.local_doubles then err "st_local: slot %d" slot
    | Ld_const_bank { dst; slot } ->
        check_freg "ld_const_bank" dst;
        Array.iteri
          (fun w lanes ->
            Array.iteri
              (fun l bank ->
                if slot < 0 || slot >= Array.length bank then
                  err "ld_const_bank: slot %d out of range for warp %d lane %d"
                    slot w l)
              lanes)
          p.const_bank
    | Ld_param { dst_i; slot } ->
        check_ireg "ld_param" dst_i;
        Array.iter
          (Array.iter (fun bank ->
               if slot < 0 || slot >= Array.length bank then
                 err "ld_param: slot %d out of range" slot))
          p.param_bank
    | Shfl { dst; src; lane } ->
        check_freg "shfl" dst;
        check_freg "shfl" src;
        if lane < 0 || lane >= 32 then
          err "shfl: lane %d outside [0, 32)" lane
    | Ishfl { dst_i; src_i; lane } ->
        check_ireg "ishfl" dst_i;
        check_ireg "ishfl" src_i;
        if lane < 0 || lane >= 32 then
          err "ishfl: lane %d outside [0, 32)" lane
    | Shfl_rot { dst; src; delta } ->
        check_freg "shfl.rot" dst;
        check_freg "shfl.rot" src;
        if delta < 0 || delta >= 32 then
          err "shfl.rot: delta %d outside [0, 32)" delta
    | Shfl_bfly { dst; src; xor_mask } ->
        check_freg "shfl.bfly" dst;
        check_freg "shfl.bfly" src;
        if xor_mask < 0 || xor_mask >= 32 then
          err "shfl.bfly: xor mask %d outside [0, 32)" xor_mask
    | Bar_arrive { bar; count } | Bar_sync { bar; count } ->
        check_bar "bar" bar;
        if count < 1 || count > p.n_warps then err "bar: count %d" count
    | Bar_cta -> ()
  in
  let rec walk_shape b =
    (match b with
    | Switch_warp bodies ->
        if Array.length bodies <> p.n_warps then
          err "switch_warp: %d bodies for %d warps" (Array.length bodies)
            p.n_warps
    | If_warps { mask; _ } -> if mask = 0 then err "if_warps: empty mask"
    | Instrs _ | Seq _ -> ());
    match b with
    | Seq bs -> List.iter walk_shape bs
    | If_warps { body; _ } -> walk_shape body
    | Switch_warp bodies -> Array.iter walk_shape bodies
    | Instrs _ -> ()
  in
  walk_shape p.prologue;
  walk_shape p.body;
  let check_section name block =
    section := name;
    index := 0;
    iter_instrs block (fun instr ->
        check instr;
        incr index)
  in
  check_section "prologue" p.prologue;
  check_section "body" p.body;
  section := "";
  if p.n_warps < 1 || p.n_warps > 32 then err "n_warps %d out of range" p.n_warps;
  if Array.length p.const_bank <> p.n_warps then err "const_bank warp dim";
  if Array.length p.param_bank <> p.n_warps then err "param_bank warp dim";
  match !problems with [] -> Ok () | l -> Error (List.rev l)

let pp_src ppf = function
  | Sreg r -> Format.fprintf ppf "r%d" r
  | Simm f -> Format.fprintf ppf "%g" f
  | Sconst c -> Format.fprintf ppf "c[%d]" c
  | Sconst_warp c -> Format.fprintf ppf "c[%d+warp]" c
  | Sshared a ->
      Format.fprintf ppf "sh[%d+%dw+%dl%s]" a.s_base a.s_warp_mul a.s_lane_mul
        (match a.s_ireg with
        | Some r -> Printf.sprintf "+%d*i%d" a.s_ireg_mul r
        | None -> "")

let pp_pred ppf = function
  | Some (Lane_eq l) -> Format.fprintf ppf " @lane==%d" l
  | Some (Lane_lt l) -> Format.fprintf ppf " @lane<%d" l
  | None -> ()

let fop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Fma -> "fma"
  | Div -> "div"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Max -> "max"
  | Min -> "min"
  | Neg -> "neg"

let pp_field ppf = function
  | F_static f -> Format.fprintf ppf "%d" f
  | F_ireg r -> Format.fprintf ppf "i%d" r

let pp_instr ppf = function
  | Arith { op; dst; srcs; pred } ->
      Format.fprintf ppf "%s r%d <-" (fop_name op) dst;
      Array.iter (fun s -> Format.fprintf ppf " %a" pp_src s) srcs;
      pp_pred ppf pred
  | Mov { dst; src; pred } ->
      Format.fprintf ppf "mov r%d <- %a%a" dst pp_src src pp_pred pred
  | Ld_global { dst; group; field; via_tex; pred } ->
      Format.fprintf ppf "ld.global%s r%d <- g%d[%a]%a"
        (if via_tex then ".tex" else "")
        dst group pp_field field pp_pred pred
  | St_global { src; group; field; pred } ->
      Format.fprintf ppf "st.global g%d[%a] <- %a%a" group pp_field field
        pp_src src pp_pred pred
  | Ld_shared { dst; addr; pred } ->
      Format.fprintf ppf "ld.shared r%d <- %a%a" dst pp_src (Sshared addr)
        pp_pred pred
  | St_shared { src; addr; pred } ->
      Format.fprintf ppf "st.shared %a <- %a%a" pp_src (Sshared addr) pp_src
        src pp_pred pred
  | Ld_local { dst; slot } -> Format.fprintf ppf "ld.local r%d <- l[%d]" dst slot
  | St_local { src; slot } -> Format.fprintf ppf "st.local l[%d] <- r%d" slot src
  | Ld_const_bank { dst; slot } ->
      Format.fprintf ppf "ld.bank r%d <- bank[%d]" dst slot
  | Ld_param { dst_i; slot } ->
      Format.fprintf ppf "ld.param i%d <- params[%d]" dst_i slot
  | Shfl { dst; src; lane } ->
      Format.fprintf ppf "shfl r%d <- r%d @%d" dst src lane
  | Ishfl { dst_i; src_i; lane } ->
      Format.fprintf ppf "ishfl i%d <- i%d @%d" dst_i src_i lane
  | Shfl_rot { dst; src; delta } ->
      Format.fprintf ppf "shfl.rot r%d <- r%d +%d" dst src delta
  | Shfl_bfly { dst; src; xor_mask } ->
      Format.fprintf ppf "shfl.bfly r%d <- r%d ^%d" dst src xor_mask
  | Bar_arrive { bar; count } -> Format.fprintf ppf "bar.arrive %d, %d" bar count
  | Bar_sync { bar; count } -> Format.fprintf ppf "bar.sync %d, %d" bar count
  | Bar_cta -> Format.fprintf ppf "bar.cta"

let rec pp_block ppf = function
  | Instrs l ->
      List.iter (fun i -> Format.fprintf ppf "  %a@." pp_instr i) l
  | Seq bs -> List.iter (pp_block ppf) bs
  | If_warps { mask; body } ->
      Format.fprintf ppf "if warps & 0x%X {@." mask;
      pp_block ppf body;
      Format.fprintf ppf "}@."
  | Switch_warp bodies ->
      Format.fprintf ppf "switch (warp_id) {@.";
      Array.iteri
        (fun w b ->
          Format.fprintf ppf "case %d:@." w;
          pp_block ppf b)
        bodies;
      Format.fprintf ppf "}@."
