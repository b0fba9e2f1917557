(* Second gpusim batch: memory state, predication, shuffles, shared-memory
   bank conflicts, local-memory spill path, warp-strided constants, the
   trace cursor, and per-lane functional semantics. *)

open Gpusim

let empty_banks n_warps = Array.init n_warps (fun _ -> Array.init 32 (fun _ -> [||]))

let base_program ?(n_warps = 2) ?(fregs = 8) ?(iregs = 1) ?(shared = 128)
    ?(local = 0) ?(barriers = 2) ?(const_mem = [| 3.5 |])
    ?(param_bank = None) ~body () =
  {
    Isa.name = "test2";
    n_warps;
    n_fregs = fregs;
    n_iregs = iregs;
    shared_doubles = shared;
    local_doubles = local;
    barriers_used = barriers;
    point_map = Isa.Thread_per_point;
    prologue = Isa.Instrs [];
    body;
    const_bank = empty_banks n_warps;
    param_bank =
      (match param_bank with
      | Some b -> b
      | None -> Array.init n_warps (fun _ -> Array.init 32 (fun _ -> [||])));
    const_mem;
    groups =
      [|
        { Isa.group_name = "a"; fields = 2 };
        { Isa.group_name = "out"; fields = 2 };
      |];
    exp_consts_in_registers = false;
  }

(* Returns (Sm counters-bearing result, memory). [fill] takes the memory
   only; the point count is fixed by the caller. *)
let run_program ?(points = 128) p ~fill =
  let ctas = points / (p.Isa.n_warps * 32) in
  let r =
    Chip.run
      ~fill_inputs:(fun mem _n -> fill mem)
      Arch.kepler_k20c
      { Chip.program = p; total_points = points; ctas }
  in
  (r.Chip.sim, r.Chip.mem)

let input_a = Array.init 128 (fun i -> float_of_int i)

let fill p mem =
  Memstate.set_field mem ~group:(Memstate.group_index p "a") ~field:0 input_a

let out p mem field =
  mem.Memstate.globals.(Memstate.group_index p "out").(field)

let test_predicated_store () =
  (* @l==3: only lane 3 of each warp writes; other points stay zero. *)
  let p =
    base_program
      ~body:
        (Isa.Instrs
           [
             Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = false; pred = None };
             Isa.St_global { src = Isa.Sreg 0; group = 1; field = Isa.F_static 0;
                             pred = Some (Isa.Lane_eq 3) };
           ])
      ()
  in
  let _, mem = run_program p ~fill:(fill p) in
  let o = out p mem 0 in
  Array.iteri
    (fun i v ->
      if i mod 32 = 3 then Alcotest.(check (float 0.0)) "lane 3 wrote" (float_of_int i) v
      else Alcotest.(check (float 0.0)) "others zero" 0.0 v)
    o

let test_shuffle_broadcast () =
  (* Lane 5's value broadcast to the whole warp. *)
  let p =
    base_program
      ~body:
        (Isa.Instrs
           [
             Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = false; pred = None };
             Isa.Shfl { dst = 1; src = 0; lane = 5 };
             Isa.St_global { src = Isa.Sreg 1; group = 1; field = Isa.F_static 0; pred = None };
           ])
      ()
  in
  let _, mem = run_program p ~fill:(fill p) in
  let o = out p mem 0 in
  Array.iteri
    (fun i v ->
      let base = i / 32 * 32 in
      Alcotest.(check (float 0.0)) "broadcast of lane 5" (float_of_int (base + 5)) v)
    o

let test_local_spill_roundtrip_and_traffic () =
  let p =
    base_program ~local:2
      ~body:
        (Isa.Instrs
           [
             Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = false; pred = None };
             Isa.St_local { src = 0; slot = 1 };
             Isa.Arith { op = Isa.Add; dst = 0; srcs = [| Isa.Simm 0.0; Isa.Simm 0.0 |]; pred = None };
             Isa.Ld_local { dst = 2; slot = 1 };
             Isa.St_global { src = Isa.Sreg 2; group = 1; field = Isa.F_static 0; pred = None };
           ])
      ()
  in
  let r, mem = run_program p ~fill:(fill p) in
  let o = out p mem 0 in
  Array.iteri
    (fun i v -> Alcotest.(check (float 0.0)) "spill round-trip" (float_of_int i) v)
    o;
  (* 2 local accesses x 128 threads x 8 bytes *)
  Alcotest.(check int) "local traffic counted" (2 * 128 * 8)
    r.Sm.counters.Sm.local_bytes

let test_bank_conflicts_charged () =
  (* lane stride 2 in doubles = two lanes per 8-byte-pair bank group ->
     serialization slots appear; stride 1 has none. *)
  let mk stride =
    base_program ~shared:2048
      ~body:
        (Isa.Instrs
           [
             Isa.St_shared { src = Isa.Simm 1.0; addr = Isa.sh_lane ~mul:stride 0; pred = None };
           ])
      ()
  in
  let conflicts stride =
    let r, _ = run_program (mk stride) ~fill:(fun _ -> ()) in
    r.Sm.counters.Sm.bank_conflict_slots
  in
  Alcotest.(check int) "stride 1 conflict-free" 0 (conflicts 1);
  Alcotest.(check bool) "stride 4 serializes" true (conflicts 4 > 0)

let test_warp_strided_constant () =
  (* cw[base]: warp w reads const_mem.(base + w). *)
  let p =
    base_program ~const_mem:[| 10.0; 20.0; 30.0 |]
      ~body:
        (Isa.Instrs
           [
             Isa.Mov { dst = 0; src = Isa.Sconst_warp 1; pred = None };
             Isa.St_global { src = Isa.Sreg 0; group = 1; field = Isa.F_static 0; pred = None };
           ])
      ()
  in
  let _, mem = run_program p ~fill:(fun _ -> ()) in
  let o = out p mem 0 in
  Array.iteri
    (fun i v ->
      let w = i / 32 mod 2 in
      Alcotest.(check (float 0.0)) "per-warp slot"
        (if w = 0 then 20.0 else 30.0)
        v)
    o

let test_param_bank_striping () =
  (* ld.p loads per-(warp,lane) integers; use as field selector. *)
  let n_warps = 2 in
  let param_bank =
    Array.init n_warps (fun w -> Array.init 32 (fun _ -> [| w |]))
  in
  let p =
    base_program ~param_bank:(Some param_bank)
      ~body:
        (Isa.Instrs
           [
             Isa.Ld_param { dst_i = 0; slot = 0 };
             Isa.Ld_global { dst = 0; group = 0; field = Isa.F_ireg 0; via_tex = false; pred = None };
             Isa.St_global { src = Isa.Sreg 0; group = 1; field = Isa.F_ireg 0; pred = None };
           ])
      ()
  in
  let fill mem =
    Memstate.set_field mem ~group:(Memstate.group_index p "a") ~field:0 input_a;
    Memstate.set_field mem ~group:(Memstate.group_index p "a") ~field:1
      (Array.map (fun v -> v +. 1000.0) input_a)
  in
  let _, mem = run_program p ~fill in
  let o0 = out p mem 0 and o1 = out p mem 1 in
  (* warp 0 (points 0-31, 64-95) copies field 0; warp 1 copies field 1 *)
  Alcotest.(check (float 0.0)) "w0 field0" 5.0 o0.(5);
  Alcotest.(check (float 0.0)) "w1 field1" 1037.0 o1.(37);
  Alcotest.(check (float 0.0)) "w0 leaves field1 alone" 0.0 o1.(5)

let test_memstate_isolation () =
  (* Two resident CTAs must have isolated shared memory. *)
  let p =
    base_program ~n_warps:2
      ~body:
        (Isa.Instrs
           [
             Isa.Ld_global { dst = 0; group = 0; field = Isa.F_static 0; via_tex = false; pred = None };
             Isa.St_shared { src = Isa.Sreg 0; addr = Isa.sh_lane 0; pred = None };
             Isa.Ld_shared { dst = 1; addr = Isa.sh_lane 0; pred = None };
             Isa.St_global { src = Isa.Sreg 1; group = 1; field = Isa.F_static 0; pred = None };
           ])
      ()
  in
  let _, mem = run_program ~points:256 p ~fill:(fun mem ->
      Memstate.set_field mem ~group:(Memstate.group_index p "a") ~field:0
        (Array.init 256 float_of_int))
  in
  let o = out p mem 0 in
  (* both warps of each CTA write the same shared slots; the LAST writer in
     warp order wins within a CTA, but CTA 1's points must see CTA 1 data,
     not CTA 0's. *)
  Alcotest.(check bool) "cta isolation" true (o.(128 + 5) >= 128.0)

let test_trace_cursor () =
  let p =
    base_program
      ~body:
        (Isa.Seq
           [
             Isa.Instrs
               [ Isa.Arith { op = Isa.Add; dst = 0; srcs = [| Isa.Simm 1.0; Isa.Simm 2.0 |]; pred = None } ];
             Isa.If_warps
               { mask = 1;
                 body = Isa.Instrs
                     [ Isa.Arith { op = Isa.Mul; dst = 1; srcs = [| Isa.Sreg 0; Isa.Sreg 0 |]; pred = None } ] };
           ])
      ()
  in
  let t = Trace.flatten Arch.kepler_k20c p in
  (* warp 1 skips the If body: fewer executed slots than warp 0 *)
  let count w =
    let cur = Trace.cursor () in
    let n = ref 0 in
    let rec go () =
      if Trace.peek t ~warp:w ~batches:1 cur >= 0 then begin
        incr n;
        Trace.advance cur;
        go ()
      end
    in
    go ();
    !n
  in
  Alcotest.(check bool)
    (Printf.sprintf "warp 0 executes more (%d vs %d)" (count 0) (count 1))
    true
    (count 0 > count 1);
  Alcotest.(check bool) "footprints positive" true
    (Array.for_all
       (fun w -> w.Isa_stats.code_lines > 0)
       (Isa_stats.of_program Arch.kepler_k20c p).Isa_stats.warps)

(* ---- Trace.flatten against a list-based reference ---- *)

(* The straightforward flattener: entries and per-warp traces built as
   lists, then copied into arrays and split at the prologue mark. Kept
   here as the oracle for the two-walk [Trace.flatten]. *)
let reference_flatten (arch : Arch.t) (p : Isa.program) =
  let entries = ref [] and n_entries = ref 0 and addr = ref 0 in
  let push instr bytes =
    let id = !n_entries in
    let srcs, shared_srcs, has_const, lat_mult, dp_slots, flops =
      match instr with
      | Some (Isa.Arith { op; srcs; _ }) ->
          ( srcs,
            Array.of_list
              (List.filter_map
                 (function Isa.Sshared a -> Some a | _ -> None)
                 (Array.to_list srcs)),
            Array.exists
              (function Isa.Sconst _ | Isa.Sconst_warp _ -> true | _ -> false)
              srcs,
            Isa.fop_lat_mult op,
            Isa.fop_dp_slots op,
            Isa.fop_flops op )
      | Some (Isa.Mov { src; _ } | Isa.St_global { src; _ } | Isa.St_shared { src; _ })
        ->
          ( [| src |],
            (match src with Isa.Sshared a -> [| a |] | _ -> [||]),
            (match src with Isa.Sconst _ | Isa.Sconst_warp _ -> true | _ -> false),
            1,
            0.0,
            0 )
      | _ -> ([||], [||], false, 1, 0.0, 0)
    in
    entries :=
      { Trace.instr; addr = !addr; srcs; shared_srcs; has_const; lat_mult;
        dp_slots; flops }
      :: !entries;
    incr n_entries;
    addr := !addr + bytes;
    id
  in
  let traces = Array.make p.Isa.n_warps [] in
  let add_to warps id = List.iter (fun w -> traces.(w) <- id :: traces.(w)) warps in
  let rec walk warps = function
    | Isa.Instrs l ->
        List.iter (fun i -> add_to warps (push (Some i) (Isa.static_bytes arch i))) l
    | Isa.Seq bs -> List.iter (walk warps) bs
    | Isa.If_warps { mask; body } ->
        add_to warps (push None arch.Arch.instr_bytes);
        walk (List.filter (fun w -> mask land (1 lsl w) <> 0) warps) body
    | Isa.Switch_warp bodies ->
        add_to warps (push None arch.Arch.instr_bytes);
        Array.iteri (fun w b -> walk (if List.mem w warps then [ w ] else []) b) bodies
  in
  let all = List.init p.Isa.n_warps Fun.id in
  walk all p.Isa.prologue;
  let pro_marks = Array.map List.length traces in
  walk all p.Isa.body;
  let entries = Array.of_list (List.rev !entries) in
  let split w =
    let full = Array.of_list (List.rev traces.(w)) in
    (Array.sub full 0 pro_marks.(w), Array.sub full pro_marks.(w) (Array.length full - pro_marks.(w)))
  in
  let per_warp = Array.init p.Isa.n_warps split in
  {
    Trace.entries;
    prologue = Array.map fst per_warp;
    body = Array.map snd per_warp;
    code_bytes = !addr;
  }

(* Block trees the shipped kernels may never produce: nested If_warps
   with masks reaching past the CTA, Switch_warp arms for absent warps
   (and more arms than warps), empty Instrs runs and empty Seqs. *)
let gen_flatten_case =
  let open QCheck.Gen in
  let src =
    oneof
      [
        map (fun r -> Isa.Sreg r) (int_bound 7);
        map (fun k -> Isa.Simm (float_of_int k)) (int_bound 9);
        map (fun c -> Isa.Sconst c) (int_bound 40);
        map (fun c -> Isa.Sconst_warp c) (int_bound 20);
        map (fun b -> Isa.Sshared (Isa.sh b)) (int_bound 16);
        return (Isa.Sshared (Isa.sh_ireg ~base:2 ~ireg:0 ~mul:4 ()));
      ]
  in
  let instr =
    oneof
      [
        map2
          (fun op srcs -> Isa.Arith { op; dst = 0; srcs; pred = None })
          (oneofl Isa.[ Add; Sub; Mul; Fma; Div; Sqrt; Exp; Log; Max; Min; Neg ])
          (array_size (int_bound 3) src);
        map (fun src -> Isa.Mov { dst = 1; src; pred = None }) src;
        map
          (fun src ->
            Isa.St_global { src; group = 1; field = Isa.F_static 0; pred = None })
          src;
        map (fun src -> Isa.St_shared { src; addr = Isa.sh 3; pred = None }) src;
        oneofl
          Isa.
            [
              Ld_global
                { dst = 2; group = 0; field = F_static 1; via_tex = true; pred = None };
              Ld_shared { dst = 3; addr = sh_lane 0; pred = Some (Lane_lt 4) };
              Ld_local { dst = 4; slot = 0 };
              St_local { src = 4; slot = 1 };
              Ld_const_bank { dst = 5; slot = 0 };
              Ld_param { dst_i = 0; slot = 0 };
              Shfl { dst = 6; src = 5; lane = 3 };
              Ishfl { dst_i = 0; src_i = 0; lane = 1 };
              Shfl_rot { dst = 6; src = 5; delta = 1 };
              Shfl_bfly { dst = 6; src = 5; xor_mask = 2 };
              Bar_arrive { bar = 1; count = 64 };
              Bar_sync { bar = 1; count = 64 };
              Bar_cta;
            ];
      ]
  in
  int_range 1 9 >>= fun n_warps ->
  let block =
    fix
      (fun self depth ->
        let run = map (fun l -> Isa.Instrs l) (list_size (int_bound 4) instr) in
        if depth = 0 then run
        else
          frequency
            [
              (2, run);
              (2, map (fun bs -> Isa.Seq bs) (list_size (int_bound 3) (self (depth - 1))));
              ( 1,
                map2
                  (fun mask body -> Isa.If_warps { mask; body })
                  (int_bound ((1 lsl (n_warps + 2)) - 1))
                  (self (depth - 1)) );
              ( 1,
                map
                  (fun arms -> Isa.Switch_warp arms)
                  (array_size (int_bound (n_warps + 2)) (self (depth - 1))) );
            ])
      4
  in
  map2
    (fun prologue body ->
      { (base_program ~n_warps ~body ()) with Isa.prologue })
    block block

let test_flatten_matches_reference =
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count:300 ~name:"flatten matches the list-based reference"
       (QCheck.make
          ~print:(fun p ->
            Format.asprintf "warps %d@.prologue:@.%a@.body:@.%a" p.Isa.n_warps
              Isa.pp_block p.Isa.prologue Isa.pp_block p.Isa.body)
          gen_flatten_case)
       (fun p ->
         List.for_all
           (fun arch -> Trace.flatten arch p = reference_flatten arch p)
           [ Arch.kepler_k20c; Arch.fermi_c2070 ]))

let tests =
  [
    Alcotest.test_case "predicated store" `Quick test_predicated_store;
    Alcotest.test_case "shuffle broadcast" `Quick test_shuffle_broadcast;
    Alcotest.test_case "local spill path" `Quick test_local_spill_roundtrip_and_traffic;
    Alcotest.test_case "bank conflicts" `Quick test_bank_conflicts_charged;
    Alcotest.test_case "warp-strided constants" `Quick test_warp_strided_constant;
    Alcotest.test_case "param-bank striping" `Quick test_param_bank_striping;
    Alcotest.test_case "memstate CTA isolation" `Quick test_memstate_isolation;
    Alcotest.test_case "trace cursor" `Quick test_trace_cursor;
    test_flatten_matches_reference;
  ]
