type entry = {
  instr : Isa.instr option;
  addr : int;
  srcs : Isa.src array;
  shared_srcs : Isa.saddr array;
  has_const : bool;
  lat_mult : int;
  dp_slots : float;
  flops : int;
}

type t = {
  entries : entry array;
  prologue : int array array;
  body : int array array;
  code_bytes : int;
}

let no_srcs : Isa.src array = [||]
let no_shared : Isa.saddr array = [||]
let any_saddr = Isa.sh 0

(* Per-entry issue metadata, computed once here so [Sm.try_issue] does no
   per-issue pattern-matching re-work and allocates nothing: the
   scoreboard source operands (singleton operands of Mov/St_* get their
   array built once), the shared-memory operands among them, whether any
   operand reads the constant cache, and the arith op's latency
   multiplier / DP-slot / FLOP figures. Entries are shared by every warp
   and batch, so everything here must be warp-independent (it is). *)
let entry_of instr addr =
  match instr with
  | Some (Isa.Arith { op; srcs; _ }) ->
      let n_shared = ref 0 and has_const = ref false in
      for i = 0 to Array.length srcs - 1 do
        match srcs.(i) with
        | Isa.Sshared _ -> incr n_shared
        | Isa.Sconst _ | Isa.Sconst_warp _ -> has_const := true
        | Isa.Sreg _ | Isa.Simm _ -> ()
      done;
      let shared_srcs = Array.make !n_shared any_saddr and k = ref 0 in
      for i = 0 to Array.length srcs - 1 do
        match srcs.(i) with
        | Isa.Sshared s ->
            shared_srcs.(!k) <- s;
            incr k
        | Isa.Sreg _ | Isa.Simm _ | Isa.Sconst _ | Isa.Sconst_warp _ -> ()
      done;
      {
        instr;
        addr;
        srcs;
        shared_srcs;
        has_const = !has_const;
        lat_mult = Isa.fop_lat_mult op;
        dp_slots = Isa.fop_dp_slots op;
        flops = Isa.fop_flops op;
      }
  | Some (Isa.Mov { src; _ }) | Some (Isa.St_global { src; _ })
  | Some (Isa.St_shared { src; _ }) ->
      let shared_srcs =
        match src with Isa.Sshared a -> [| a |] | _ -> no_shared
      in
      let has_const =
        match src with Isa.Sconst _ | Isa.Sconst_warp _ -> true | _ -> false
      in
      {
        instr;
        addr;
        srcs = [| src |];
        shared_srcs;
        has_const;
        lat_mult = 1;
        dp_slots = 0.0;
        flops = 0;
      }
  | Some
      ( Isa.Ld_global _ | Isa.Ld_shared _ | Isa.Ld_local _ | Isa.St_local _
      | Isa.Ld_const_bank _ | Isa.Ld_param _ | Isa.Shfl _ | Isa.Ishfl _
      | Isa.Shfl_rot _ | Isa.Shfl_bfly _
      | Isa.Bar_arrive _ | Isa.Bar_sync _ | Isa.Bar_cta )
  | None ->
      {
        instr;
        addr;
        srcs = no_srcs;
        shared_srcs = no_shared;
        has_const = false;
        lat_mult = 1;
        dp_slots = 0.0;
        flops = 0;
      }

let no_entry = entry_of None 0

(* Walk a block in layout order: [run warps instrs] for each straight-line
   run and [branch warps] for each synthetic warp-id branch, where
   [warps] is the bit set of warps that execute it (empty for the code of
   absent [Switch_warp] arms, which still occupies address space). *)
let walk_block ~n_warps ~run ~branch ~warps block =
  let rec walk warps block =
    match block with
    | Isa.Instrs l -> run warps l
    | Isa.Seq bs -> List.iter (walk warps) bs
    | Isa.If_warps { mask; body } ->
        (* Every arriving warp executes the branch test. *)
        branch warps;
        walk (warps land mask) body
    | Isa.Switch_warp bodies ->
        branch warps;
        Array.iteri
          (fun w b -> walk (if w < n_warps then warps land (1 lsl w) else 0) b)
          bodies
  in
  walk warps block

type phase = Prologue | Body

let check_warps n_warps =
  if n_warps >= Sys.int_size then
    invalid_arg "Trace: more warps than a warp bit set holds"

let iter (arch : Arch.t) (p : Isa.program) f =
  let n_warps = p.Isa.n_warps in
  check_warps n_warps;
  let addr = ref 0 in
  let emit phase warps instr bytes =
    f phase warps (entry_of instr !addr);
    addr := !addr + bytes
  in
  let walk phase block =
    walk_block ~n_warps ~warps:((1 lsl n_warps) - 1) block
      ~run:(fun warps l ->
        List.iter (fun i -> emit phase warps (Some i) (Isa.static_bytes arch i)) l)
      ~branch:(fun warps -> emit phase warps None arch.Arch.instr_bytes)
  in
  walk Prologue p.Isa.prologue;
  walk Body p.Isa.body;
  !addr

(* Two walks: the first sizes every array exactly, the second ([iter])
   fills them in place, so the trace is built with no intermediate lists
   or copies. *)
let flatten (arch : Arch.t) (p : Isa.program) =
  let n_warps = p.Isa.n_warps in
  check_warps n_warps;
  let n_entries = ref 0 in
  let sizes block =
    let lens = Array.make n_warps 0 in
    let add warps n =
      n_entries := !n_entries + n;
      for w = 0 to n_warps - 1 do
        if warps land (1 lsl w) <> 0 then lens.(w) <- lens.(w) + n
      done
    in
    walk_block ~n_warps ~warps:((1 lsl n_warps) - 1) block
      ~run:(fun warps l -> add warps (List.length l))
      ~branch:(fun warps -> add warps 1);
    Array.map (fun n -> Array.make n 0) lens
  in
  let prologue = sizes p.Isa.prologue in
  let body = sizes p.Isa.body in
  let entries = Array.make !n_entries no_entry in
  let next_id = ref 0 in
  let pro_pos = Array.make n_warps 0 and body_pos = Array.make n_warps 0 in
  let assign per_warp pos warps id =
    for w = 0 to n_warps - 1 do
      if warps land (1 lsl w) <> 0 then begin
        per_warp.(w).(pos.(w)) <- id;
        pos.(w) <- pos.(w) + 1
      end
    done
  in
  let code_bytes =
    iter arch p (fun phase warps e ->
        let id = !next_id in
        entries.(id) <- e;
        incr next_id;
        match phase with
        | Prologue -> assign prologue pro_pos warps id
        | Body -> assign body body_pos warps id)
  in
  { entries; prologue; body; code_bytes }

(* A warp's stream holds each entry at most once, and addresses increase
   with entry ids, so every body entry adds its own span of bytes. *)
let body_footprint_bytes t ~warp =
  Array.fold_left
    (fun bytes id ->
      let e = t.entries.(id) in
      let next =
        if id + 1 < Array.length t.entries then t.entries.(id + 1).addr
        else e.addr + 8
      in
      bytes + (next - e.addr))
    0 t.body.(warp)

(* The replay reads only the id streams and each entry's instruction:
   the streams are the trace's own arrays, and the entries' issue
   metadata is left behind. *)
type view = {
  v_prologue : int array array;
  v_body : int array array;
  instrs : Isa.instr option array;
}

let view t =
  {
    v_prologue = t.prologue;
    v_body = t.body;
    instrs = Array.map (fun e -> e.instr) t.entries;
  }

type cursor = { mutable phase : int; mutable pos : int; mutable batch : int }

let cursor () = { phase = 0; pos = 0; batch = 0 }

let rec peek_streams prologue body ~warp ~batches c =
  match c.phase with
  | 0 ->
      if c.pos < Array.length prologue.(warp) then prologue.(warp).(c.pos)
      else begin
        c.phase <- 1;
        c.pos <- 0;
        c.batch <- 0;
        peek_streams prologue body ~warp ~batches c
      end
  | 1 ->
      if batches = 0 then begin
        c.phase <- 2;
        -1
      end
      else if c.pos < Array.length body.(warp) then body.(warp).(c.pos)
      else if c.batch + 1 < batches then begin
        c.batch <- c.batch + 1;
        c.pos <- 0;
        peek_streams prologue body ~warp ~batches c
      end
      else begin
        c.phase <- 2;
        -1
      end
  | _ -> -1

let peek t ~warp ~batches c = peek_streams t.prologue t.body ~warp ~batches c

let peek_view v ~warp ~batches c =
  peek_streams v.v_prologue v.v_body ~warp ~batches c

let advance c = c.pos <- c.pos + 1
