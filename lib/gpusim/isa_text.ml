(* The textual assembly. Floats travel as 64-bit hex patterns (exact);
   everything is line-oriented with {} blocks. *)

let bits f = Printf.sprintf "0x%016Lx" (Int64.bits_of_float f)

let fop_name (op : Isa.fop) =
  match op with
  | Isa.Add -> "add"
  | Isa.Sub -> "sub"
  | Isa.Mul -> "mul"
  | Isa.Fma -> "fma"
  | Isa.Div -> "div"
  | Isa.Sqrt -> "sqrt"
  | Isa.Exp -> "exp"
  | Isa.Log -> "log"
  | Isa.Max -> "max"
  | Isa.Min -> "min"
  | Isa.Neg -> "neg"

let saddr_text (a : Isa.saddr) =
  let buf = Buffer.create 16 in
  Buffer.add_string buf (string_of_int a.Isa.s_base);
  if a.Isa.s_warp_mul <> 0 then
    Buffer.add_string buf (Printf.sprintf "+%dw" a.Isa.s_warp_mul);
  if a.Isa.s_lane_mul <> 0 then
    Buffer.add_string buf (Printf.sprintf "+%dl" a.Isa.s_lane_mul);
  (match a.Isa.s_ireg with
  | Some r -> Buffer.add_string buf (Printf.sprintf "+%di%d" a.Isa.s_ireg_mul r)
  | None -> ());
  Buffer.contents buf

let src_text (s : Isa.src) =
  match s with
  | Isa.Sreg r -> Printf.sprintf "f%d" r
  | Isa.Simm v -> Printf.sprintf "imm(%s)" (bits v)
  | Isa.Sconst c -> Printf.sprintf "c[%d]" c
  | Isa.Sconst_warp c -> Printf.sprintf "cw[%d]" c
  | Isa.Sshared a -> Printf.sprintf "[%s]" (saddr_text a)

let pred_text = function
  | None -> ""
  | Some (Isa.Lane_eq l) -> Printf.sprintf " @l==%d" l
  | Some (Isa.Lane_lt l) -> Printf.sprintf " @l<%d" l

let field_text = function
  | Isa.F_static f -> Printf.sprintf "f%d" f
  | Isa.F_ireg r -> Printf.sprintf "i[%d]" r

let instr_text (i : Isa.instr) =
  match i with
  | Isa.Arith { op; dst; srcs; pred } ->
      Printf.sprintf "%s f%d, %s%s" (fop_name op) dst
        (String.concat ", " (Array.to_list (Array.map src_text srcs)))
        (pred_text pred)
  | Isa.Mov { dst; src; pred } ->
      Printf.sprintf "mov f%d, %s%s" dst (src_text src) (pred_text pred)
  | Isa.Ld_global { dst; group; field; via_tex; pred } ->
      Printf.sprintf "ld.g f%d, g%d.%s%s%s" dst group (field_text field)
        (if via_tex then ", tex" else "")
        (pred_text pred)
  | Isa.St_global { src; group; field; pred } ->
      Printf.sprintf "st.g %s, g%d.%s%s" (src_text src) group
        (field_text field) (pred_text pred)
  | Isa.Ld_shared { dst; addr; pred } ->
      Printf.sprintf "ld.s f%d, [%s]%s" dst (saddr_text addr) (pred_text pred)
  | Isa.St_shared { src; addr; pred } ->
      Printf.sprintf "st.s %s, [%s]%s" (src_text src) (saddr_text addr)
        (pred_text pred)
  | Isa.Ld_local { dst; slot } -> Printf.sprintf "ld.l f%d, %d" dst slot
  | Isa.St_local { src; slot } -> Printf.sprintf "st.l f%d, %d" src slot
  | Isa.Ld_const_bank { dst; slot } -> Printf.sprintf "ld.cb f%d, %d" dst slot
  | Isa.Ld_param { dst_i; slot } -> Printf.sprintf "ld.p i%d, %d" dst_i slot
  | Isa.Shfl { dst; src; lane } -> Printf.sprintf "shfl f%d, f%d, %d" dst src lane
  | Isa.Ishfl { dst_i; src_i; lane } ->
      Printf.sprintf "ishfl i%d, i%d, %d" dst_i src_i lane
  | Isa.Shfl_rot { dst; src; delta } ->
      Printf.sprintf "shfl.rot f%d, f%d, %d" dst src delta
  | Isa.Shfl_bfly { dst; src; xor_mask } ->
      Printf.sprintf "shfl.bfly f%d, f%d, %d" dst src xor_mask
  | Isa.Bar_arrive { bar; count } -> Printf.sprintf "bar.arr %d, %d" bar count
  | Isa.Bar_sync { bar; count } -> Printf.sprintf "bar.sync %d, %d" bar count
  | Isa.Bar_cta -> "bar.cta"

let emit_block_into buf block =
  let rec go indent = function
    | Isa.Instrs l ->
        List.iter
          (fun i ->
            Buffer.add_string buf indent;
            Buffer.add_string buf (instr_text i);
            Buffer.add_char buf '\n')
          l
    | Isa.Seq bs -> List.iter (go indent) bs
    | Isa.If_warps { mask; body } ->
        Buffer.add_string buf (Printf.sprintf "%sif 0x%x {\n" indent mask);
        go (indent ^ "  ") body;
        Buffer.add_string buf (indent ^ "}\n")
    | Isa.Switch_warp arms ->
        Buffer.add_string buf (indent ^ "switch {\n");
        Array.iteri
          (fun w arm ->
            Buffer.add_string buf (Printf.sprintf "%s  warp %d {\n" indent w);
            go (indent ^ "    ") arm;
            Buffer.add_string buf (indent ^ "  }\n"))
          arms;
        Buffer.add_string buf (indent ^ "}\n")
  in
  go "  " block

let emit_block block =
  let buf = Buffer.create 4096 in
  emit_block_into buf block;
  Buffer.contents buf

let emit (p : Isa.program) =
  let buf = Buffer.create 65536 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr ".program %s\n" p.Isa.name;
  pr ".warps %d .fregs %d .iregs %d .shared %d .local %d .barriers %d\n"
    p.Isa.n_warps p.Isa.n_fregs p.Isa.n_iregs p.Isa.shared_doubles
    p.Isa.local_doubles p.Isa.barriers_used;
  pr ".pointmap %s\n"
    (match p.Isa.point_map with
    | Isa.Coop -> "coop"
    | Isa.Thread_per_point -> "thread");
  pr ".expconsts %b\n" p.Isa.exp_consts_in_registers;
  Array.iter
    (fun (g : Isa.group_info) -> pr ".group %s %d\n" g.Isa.group_name g.Isa.fields)
    p.Isa.groups;
  Array.iteri
    (fun w lanes ->
      Array.iteri
        (fun l slots ->
          if Array.length slots > 0 then
            pr ".bank w%d l%d = %s\n" w l
              (String.concat " " (Array.to_list (Array.map bits slots))))
        lanes)
    p.Isa.const_bank;
  Array.iteri
    (fun w lanes ->
      Array.iteri
        (fun l slots ->
          if Array.length slots > 0 then
            pr ".param w%d l%d = %s\n" w l
              (String.concat " "
                 (Array.to_list (Array.map string_of_int slots))))
        lanes)
    p.Isa.param_bank;
  if Array.length p.Isa.const_mem > 0 then
    pr ".constmem = %s\n"
      (String.concat " " (Array.to_list (Array.map bits p.Isa.const_mem)));
  pr ".prologue {\n";
  emit_block_into buf p.Isa.prologue;
  pr "}\n.body {\n";
  emit_block_into buf p.Isa.body;
  pr "}\n";
  Buffer.contents buf
