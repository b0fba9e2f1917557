module A = Gpusim.Arch
module I = Gpusim.Isa
module T = Gpusim.Trace

let tex = 0
let glob = 1
let loc = 2

(* A divergent region longer than this many instructions occupies its own
   prefetch stream (two cache lines of run-ahead no longer cover it). *)
let long_path_instrs = 128

type path_users = { on_tex : int; on_glob : int; on_loc : int }

type t = {
  prologue_users : path_users;
  body_users : path_users;
  ic_cold_lines : int;
  body_lines : int;
  thrash : bool;
  cc_cold_lines : int;
  n_long_paths : int;
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

let of_layout (arch : A.t) (p : I.program) =
  let n_warps = p.I.n_warps in
  let line_bytes = A.icache_line_bytes arch in
  let spl = arch.A.const_line_bytes / 8 in
  let own_lines = Array.init n_warps (fun _ -> dense_set ()) in
  let own_consts = Array.init n_warps (fun _ -> dense_set ()) in
  let body_lines = dense_set () and body_consts = dense_set () in
  let paths = Array.make_matrix 2 n_warps 0 in
  ignore
    (T.iter arch p (fun phase warps e ->
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
  {
    prologue_users = users 0;
    body_users = users 1;
    ic_cold_lines = most own_lines;
    body_lines = body_lines.size;
    thrash =
      body_consts.size * arch.A.const_line_bytes > arch.A.const_cache_bytes;
    cc_cold_lines = most own_consts;
    n_long_paths = long_paths p.I.body;
  }
