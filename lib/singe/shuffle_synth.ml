(* Shuffle-exchange superoptimizer core (DESIGN §14): swizzle language,
   symbolic lane evaluator, canonicalizer, bounded enumeration and the
   cost model. The program rewriting itself lives in Lower (it needs the
   virtual-instruction stream); this module is deliberately independent
   of the rest of the compiler so the search is testable in isolation. *)

type step = Rot of int | Bfly of int | Bcast of int

type prog = step list

(* Per-step source map: which lane feeds destination lane [l]. *)
let step_source s l =
  match s with
  | Rot d -> (l + d) land 31
  | Bfly m -> l lxor m
  | Bcast k -> k

(* The program runs left to right, so the source of dest lane [l] is
   found by pulling [l] back through the steps from last to first. *)
let source_lane p l =
  List.fold_left (fun cur s -> step_source s cur) l (List.rev p)

let signature p = Array.init 32 (source_lane p)

let apply p v =
  List.fold_left
    (fun v s -> Array.init 32 (fun l -> v.(step_source s l)))
    (Array.copy v) p

let is_identity sg =
  let ok = ref true in
  Array.iteri (fun l s -> if s <> l then ok := false) sg;
  !ok

let is_constant sg =
  let ok = ref true in
  Array.iter (fun s -> if s <> sg.(0) then ok := false) sg;
  !ok

let canonicalize p =
  let sg = signature p in
  if is_identity sg then []
  else if is_constant sg then [ Bcast sg.(0) ]
  else
    (* No broadcast survives (a Bcast anywhere makes the signature
       constant), so merge runs of the same kind and drop the zeros. *)
    let rec merge = function
      | Rot 0 :: rest | Bfly 0 :: rest -> merge rest
      | Rot a :: Rot b :: rest -> merge (Rot ((a + b) land 31) :: rest)
      | Bfly a :: Bfly b :: rest -> merge (Bfly (a lxor b) :: rest)
      | s :: rest -> s :: merge rest
      | [] -> []
    in
    (* A merge can expose a new adjacent pair (Rot 1 :: Rot 31 :: Rot 1);
       iterate to the fixed point (depth is tiny). *)
    let rec fix p =
      let p' = merge p in
      if p' = p then p else fix p'
    in
    fix p

let sig_key sg =
  String.init 32 (fun l -> Char.chr sg.(l))

(* Depth-bounded enumeration of canonical programs: the single broadcasts
   plus every alternating chain of nonzero rotations and butterflies.
   Programs are generated shortest-first and deduplicated by signature,
   so each reachable permutation keeps its cheapest representative. *)
let enumerate_raw max_depth =
  let nonzero = List.init 31 (fun i -> i + 1) in
  let chains =
    (* chains of exact length n, alternating kinds *)
    let rec extend n tail =
      if n = 0 then [ List.rev tail ]
      else
        let next =
          match tail with
          | Rot _ :: _ -> List.map (fun m -> Bfly m) nonzero
          | Bfly _ :: _ -> List.map (fun d -> Rot d) nonzero
          | _ -> assert false
        in
        List.concat_map (fun s -> extend (n - 1) (s :: tail)) next
    in
    let rec upto n acc =
      if n > max_depth then acc
      else
        let starts =
          List.map (fun d -> [ Rot d ]) nonzero
          @ List.map (fun m -> [ Bfly m ]) nonzero
        in
        let len_n =
          List.concat_map
            (fun st -> extend (n - 1) (List.rev st))
            starts
        in
        upto (n + 1) (acc @ len_n)
    in
    upto 1 []
  in
  let bcasts = List.init 32 (fun k -> [ Bcast k ]) in
  let seen = Hashtbl.create 4096 in
  let keep p =
    let key = sig_key (signature p) in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  List.filter keep (([] :: bcasts) @ chains)

let default_depth = 3

(* signature key -> cheapest program, built lazily once per process. *)
let table =
  lazy
    (let tbl = Hashtbl.create 65536 in
     List.iter
       (fun p ->
         let key = sig_key (signature p) in
         if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key p)
       (enumerate_raw default_depth);
     tbl)

let enumerate ?(max_depth = default_depth) () =
  if max_depth = default_depth then
    Hashtbl.fold (fun _ p acc -> p :: acc) (Lazy.force table) []
  else enumerate_raw max_depth

let synthesize pattern =
  if Array.length pattern <> 32 then
    invalid_arg "Shuffle_synth.synthesize: pattern must have 32 lanes";
  let in_range = Array.for_all (fun s -> s >= 0 && s < 32) pattern in
  if not in_range then None
  else
    match Hashtbl.find_opt (Lazy.force table) (sig_key pattern) with
    | None -> None
    | Some p ->
        (* Exhaustive 32-lane re-check of the table hit: the candidate is
           only returned if it provably implements the requested
           pattern. *)
        if signature p = pattern then Some p else None

let step_cycles (arch : Gpusim.Arch.t) =
  (2.0 /. arch.Gpusim.Arch.alu_issue_per_cycle)
  +. float_of_int arch.Gpusim.Arch.arith_latency

let cost arch p = float_of_int (List.length p) *. step_cycles arch

let shared_read_cost (arch : Gpusim.Arch.t) =
  let pipe =
    if arch.Gpusim.Arch.shared_operand_collector then 0.0
    else 1.0 /. arch.Gpusim.Arch.shared_issue_per_cycle
  in
  pipe +. float_of_int arch.Gpusim.Arch.shared_latency

type report = {
  sites_seen : int;
  sites_rewritten : int;
  round_trips_removed : int;
  stores_removed : int;
  shuffle_steps : int;
  shared_bytes_freed : int;
}

let empty_report =
  {
    sites_seen = 0;
    sites_rewritten = 0;
    round_trips_removed = 0;
    stores_removed = 0;
    shuffle_steps = 0;
    shared_bytes_freed = 0;
  }

let report_stats r =
  [
    ("sites", float_of_int r.sites_seen);
    ("rewritten", float_of_int r.sites_rewritten);
    ("round_trips_removed", float_of_int r.round_trips_removed);
    ("stores_removed", float_of_int r.stores_removed);
    ("shuffle_steps", float_of_int r.shuffle_steps);
    ("shared_bytes_freed", float_of_int r.shared_bytes_freed);
  ]
