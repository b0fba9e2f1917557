(* Property-based tests (QCheck) over the foundations: the PRNG, scalar
   expressions, thermodynamics, rate laws, QSSA structure, the grid
   generator, and ISA validation. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count ~name gen prop)

(* ---------- PRNG ---------- *)

let test_prng_determinism =
  qtest "prng: same seed, same stream"
    QCheck.(int64)
    (fun seed ->
      let a = Sutil.Prng.create seed and b = Sutil.Prng.create seed in
      List.for_all
        (fun _ -> Sutil.Prng.int64 a = Sutil.Prng.int64 b)
        (List.init 16 Fun.id))

let test_prng_range =
  qtest "prng: range stays in bounds"
    QCheck.(pair int64 (pair (float_bound_exclusive 1000.0) pos_float))
    (fun (seed, (lo, w)) ->
      QCheck.assume (Float.is_finite (lo +. w) && w > 0.0);
      let rng = Sutil.Prng.create seed in
      let v = Sutil.Prng.range rng lo (lo +. w) in
      v >= lo && v <= lo +. w)

let test_prng_int_bounds =
  qtest "prng: int in [0, n)"
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Sutil.Prng.create seed in
      let v = Sutil.Prng.int rng n in
      v >= 0 && v < n)

let test_prng_split_independent =
  qtest "prng: split streams differ from parent"
    QCheck.(int64)
    (fun seed ->
      let rng = Sutil.Prng.create seed in
      let s = Sutil.Prng.split rng "child" in
      (* not a strong statistical claim — just that the derived stream is
         not the identical stream *)
      List.exists
        (fun _ -> Sutil.Prng.int64 s <> Sutil.Prng.int64 rng)
        (List.init 4 Fun.id))

(* ---------- Sexpr ---------- *)

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun f -> Singe.Sexpr.Imm f) (float_range (-4.0) 4.0);
        map (fun f -> Singe.Sexpr.C f) (float_range (-4.0) 4.0);
        map (fun i -> Singe.Sexpr.In i) (int_range 0 3);
      ]
  in
  let rec go n =
    if n <= 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map2
              (fun op (a, b) -> Singe.Sexpr.Bin (op, a, b))
              (oneofl Gpusim.Isa.[ Add; Sub; Mul; Max; Min ])
              (pair (go (n - 1)) (go (n - 1))) );
          ( 1,
            map
              (fun (a, (b, c)) -> Singe.Sexpr.Fma3 (a, b, c))
              (pair (go (n - 1)) (pair (go (n - 1)) (go (n - 1)))) );
          ( 1,
            map
              (fun (d, b) -> Singe.Sexpr.Let (d, b))
              (pair (go (n - 1)) (go (n - 1))) );
          (1, map (fun a -> Singe.Sexpr.Un (Gpusim.Isa.Neg, a)) (go (n - 1)));
        ]
  in
  QCheck.make ~print:(Format.asprintf "%a" Singe.Sexpr.pp) (go 4)

let test_shape_blind_to_constants =
  qtest "sexpr: shape ignores C values only"
    (QCheck.pair gen_expr (QCheck.float_range (-9.0) 9.0))
    (fun (e, delta) ->
      let rec bump = function
        | Singe.Sexpr.C v -> Singe.Sexpr.C (v +. delta)
        | Singe.Sexpr.Imm v -> Singe.Sexpr.Imm v
        | Singe.Sexpr.In i -> Singe.Sexpr.In i
        | Singe.Sexpr.Var i -> Singe.Sexpr.Var i
        | Singe.Sexpr.Un (op, a) -> Singe.Sexpr.Un (op, bump a)
        | Singe.Sexpr.Bin (op, a, b) -> Singe.Sexpr.Bin (op, bump a, bump b)
        | Singe.Sexpr.Fma3 (a, b, c) -> Singe.Sexpr.Fma3 (bump a, bump b, bump c)
        | Singe.Sexpr.Let (d, b) -> Singe.Sexpr.Let (bump d, bump b)
      in
      Singe.Sexpr.same_shape e (bump e))

(* The string fingerprint overlay grouping used to key on, kept here as
   the reference for the structural relation: two expressions share a
   shape exactly when these renderings are equal. *)
let ref_shape e =
  let buf = Buffer.create 64 in
  let op_code (op : Gpusim.Isa.fop) =
    match op with
    | Gpusim.Isa.Add -> '+'
    | Gpusim.Isa.Sub -> '-'
    | Gpusim.Isa.Mul -> '*'
    | Gpusim.Isa.Fma -> 'f'
    | Gpusim.Isa.Div -> '/'
    | Gpusim.Isa.Sqrt -> 'q'
    | Gpusim.Isa.Exp -> 'e'
    | Gpusim.Isa.Log -> 'l'
    | Gpusim.Isa.Max -> 'M'
    | Gpusim.Isa.Min -> 'm'
    | Gpusim.Isa.Neg -> 'n'
  in
  let rec go = function
    | Singe.Sexpr.Imm v -> Buffer.add_string buf (Printf.sprintf "#%h" v)
    | Singe.Sexpr.C _ -> Buffer.add_char buf 'C'
    | Singe.Sexpr.In i ->
        Buffer.add_char buf 'I';
        Buffer.add_string buf (string_of_int i)
    | Singe.Sexpr.Var i ->
        Buffer.add_char buf 'V';
        Buffer.add_string buf (string_of_int i)
    | Singe.Sexpr.Let (d, b) ->
        Buffer.add_string buf "L(";
        go d;
        Buffer.add_char buf ',';
        go b;
        Buffer.add_char buf ')'
    | Singe.Sexpr.Un (op, a) ->
        Buffer.add_char buf (op_code op);
        Buffer.add_char buf '(';
        go a;
        Buffer.add_char buf ')'
    | Singe.Sexpr.Bin (op, a, b) ->
        Buffer.add_char buf (op_code op);
        Buffer.add_char buf '(';
        go a;
        Buffer.add_char buf ',';
        go b;
        Buffer.add_char buf ')'
    | Singe.Sexpr.Fma3 (a, b, c) ->
        Buffer.add_string buf "F(";
        go a;
        Buffer.add_char buf ',';
        go b;
        Buffer.add_char buf ',';
        go c;
        Buffer.add_char buf ')'
  in
  go e;
  Buffer.contents buf

(* [same_shape] holds exactly when the reference strings are equal, and
   equal shapes hash alike. *)
let shape_agrees a b =
  let same = Singe.Sexpr.same_shape a b in
  same = (ref_shape a = ref_shape b)
  && ((not same) || Singe.Sexpr.shape_hash a = Singe.Sexpr.shape_hash b)

let test_same_shape_random_pairs =
  qtest ~count:500 "sexpr: same_shape agrees with reference on pairs"
    (QCheck.pair gen_expr gen_expr)
    (fun (a, b) -> shape_agrees a b && shape_agrees a a)

type mutation =
  | Imm_to of float  (** rewrite an immediate *)
  | Bump_index  (** an [In] or [Var] index + 1 *)
  | Swap_op
  | Change_c of float  (** add to a constant *)

let swap_op (op : Gpusim.Isa.fop) : Gpusim.Isa.fop =
  match op with
  | Add -> Sub
  | Sub -> Mul
  | Mul -> Max
  | Max -> Min
  | Min -> Add
  | Div | Fma -> Add
  | Neg -> Exp
  | Exp -> Log
  | Log -> Sqrt
  | Sqrt -> Neg

(* Applies [m] to the [k mod n]-th of the [n] nodes it fits, counted in
   pre-order; the identity when it fits none. *)
let mutate m k e =
  let open Singe.Sexpr in
  let fits = function
    | Imm _ -> ( match m with Imm_to _ -> true | _ -> false)
    | In _ | Var _ -> ( match m with Bump_index -> true | _ -> false)
    | Un _ | Bin _ -> ( match m with Swap_op -> true | _ -> false)
    | C _ -> ( match m with Change_c _ -> true | _ -> false)
    | Fma3 _ | Let _ -> false
  in
  let rec count e =
    (if fits e then 1 else 0)
    +
    match e with
    | Imm _ | C _ | In _ | Var _ -> 0
    | Un (_, a) -> count a
    | Bin (_, a, b) | Let (a, b) -> count a + count b
    | Fma3 (a, b, c) -> count a + count b + count c
  in
  let n = count e in
  if n = 0 then e
  else
    let target = k mod n and seen = ref 0 in
    let rec go e =
      let hit = fits e && !seen = target in
      if fits e then incr seen;
      match e with
      | Imm _ when hit -> (
          match m with Imm_to v -> Imm v | _ -> e)
      | C v when hit -> ( match m with Change_c d -> C (v +. d) | _ -> e)
      | In i when hit -> In (i + 1)
      | Var i when hit -> Var (i + 1)
      | Imm _ | C _ | In _ | Var _ -> e
      | Un (op, a) ->
          let op = if hit then swap_op op else op in
          Un (op, go a)
      | Bin (op, a, b) ->
          let op = if hit then swap_op op else op in
          let a = go a in
          Bin (op, a, go b)
      | Fma3 (a, b, c) ->
          let a = go a in
          let b = go b in
          Fma3 (a, b, go c)
      | Let (d, b) ->
          let d = go d in
          Let (d, go b)
    in
    go e

let gen_mutation =
  let open QCheck.Gen in
  let bits = Int64.float_of_bits in
  pair
    (frequency
       [
         ( 3,
           map
             (fun v -> Imm_to v)
             (oneofl
                [
                  0.0;
                  -0.0;
                  Float.nan;
                  -.Float.nan;
                  bits 0x7FF0000000000001L;
                  bits 0x7FF8000000000123L;
                  bits 0xFFF0000000000001L;
                  bits 0xFFF8000000000123L;
                  Float.infinity;
                  1.0;
                ]) );
         (1, return Bump_index);
         (1, return Swap_op);
         (1, map (fun d -> Change_c d) (float_range (-9.0) 9.0));
       ])
    (int_bound 64)

(* [a] and [c] rewrite the same node, so two immediates (NaNs of one sign
   with different payloads, or [0.0] and [-0.0]) meet head to head. *)
let test_same_shape_mutants =
  (* Wrapping in a [Let] puts [Var] nodes in reach of [Bump_index]. *)
  let gen =
    QCheck.Gen.(
      triple
        (map2
           (fun d b ->
             Singe.Sexpr.Let
               (d, Singe.Sexpr.Bin (Gpusim.Isa.Mul, Singe.Sexpr.Var 0, b)))
           (QCheck.gen gen_expr) (QCheck.gen gen_expr))
        gen_mutation gen_mutation)
  in
  qtest ~count:1000 "sexpr: same_shape agrees with reference on mutants"
    (QCheck.make
       ~print:(fun (e, _, _) -> Format.asprintf "%a" Singe.Sexpr.pp e)
       gen)
    (fun (e, (m1, k1), (m2, k2)) ->
      let a = mutate m1 k1 e and b = mutate m2 k2 e and c = mutate m2 k1 e in
      shape_agrees e a && shape_agrees e b && shape_agrees a b
      && shape_agrees a c)

let test_constants_count =
  qtest "sexpr: n_constants = length (constants)" gen_expr (fun e ->
      Singe.Sexpr.n_constants e = List.length (Singe.Sexpr.constants e))

let test_eval_matches_naive =
  qtest "sexpr: eval equals a naive interpreter" gen_expr (fun e ->
      let input i = float_of_int (i + 1) *. 0.37 in
      let rec naive env = function
        | Singe.Sexpr.Imm v | Singe.Sexpr.C v -> v
        | Singe.Sexpr.In i -> input i
        | Singe.Sexpr.Var i -> List.nth env i
        | Singe.Sexpr.Un (Gpusim.Isa.Neg, a) -> -.naive env a
        | Singe.Sexpr.Un (Gpusim.Isa.Sqrt, a) -> Float.sqrt (naive env a)
        | Singe.Sexpr.Un (Gpusim.Isa.Exp, a) -> Float.exp (naive env a)
        | Singe.Sexpr.Un (Gpusim.Isa.Log, a) -> Float.log (naive env a)
        | Singe.Sexpr.Un (_, _) -> assert false
        | Singe.Sexpr.Bin (op, a, b) -> (
            let x = naive env a and y = naive env b in
            match op with
            | Gpusim.Isa.Add -> x +. y
            | Gpusim.Isa.Sub -> x -. y
            | Gpusim.Isa.Mul -> x *. y
            | Gpusim.Isa.Div -> x /. y
            | Gpusim.Isa.Max -> Float.max x y
            | Gpusim.Isa.Min -> Float.min x y
            | _ -> assert false)
        | Singe.Sexpr.Fma3 (a, b, c) ->
            Float.fma (naive env a) (naive env b) (naive env c)
        | Singe.Sexpr.Let (d, b) -> naive (naive env d :: env) b
      in
      let consts = Array.of_list (Singe.Sexpr.constants e) in
      let got = Singe.Sexpr.eval e ~consts ~input in
      let want = naive [] e in
      (Float.is_nan got && Float.is_nan want) || got = want)

let test_flops_positive_on_ops =
  qtest "sexpr: flops consistent with depth" gen_expr (fun e ->
      Singe.Sexpr.flops e >= 0 && Singe.Sexpr.depth e >= 0)

(* ---------- thermodynamics ---------- *)

let gen_entry =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed ->
          let rng = Sutil.Prng.create (Int64.of_int seed) in
          let arr () =
            [|
              Sutil.Prng.range rng 1.0 5.0;
              Sutil.Prng.range rng (-1e-3) 1e-3;
              Sutil.Prng.range rng (-1e-6) 1e-6;
              Sutil.Prng.range rng (-1e-9) 1e-9;
              Sutil.Prng.range rng (-1e-13) 1e-13;
              Sutil.Prng.range rng (-5e4) 5e4;
              Sutil.Prng.range rng (-5.0) 15.0;
            |]
          in
          {
            Chem.Thermo.t_low = 300.0;
            t_mid = 1000.0;
            t_high = 5000.0;
            low = arr ();
            high = arr ();
          })
        (int_range 0 100000))

let test_gibbs_is_h_minus_s =
  qtest "thermo: g = h - s at any T"
    (QCheck.pair gen_entry (QCheck.float_range 300.0 4500.0))
    (fun (e, t) ->
      Float.abs
        (Chem.Thermo.gibbs_over_rt e t
        -. (Chem.Thermo.h_over_rt e t -. Chem.Thermo.s_over_r e t))
      < 1e-9)

let test_generated_tables_continuous =
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count:1 ~name:"thermo: generated tables continuous"
       QCheck.unit
       (fun () ->
         List.for_all
           (fun mech ->
             Array.for_all
               (fun (e : Chem.Thermo.entry) ->
                 let tm = e.Chem.Thermo.t_mid in
                 Float.abs
                   (Chem.Thermo.gibbs_over_rt e (tm -. 1e-9)
                   -. Chem.Thermo.gibbs_over_rt e (tm +. 1e-9))
                 < 1e-6
                 && Float.abs
                      (Chem.Thermo.h_over_rt e (tm -. 1e-9)
                      -. Chem.Thermo.h_over_rt e (tm +. 1e-9))
                    < 1e-6)
               mech.Chem.Mechanism.thermo)
           [ Chem.Mech_gen.hydrogen (); Chem.Mech_gen.dme (); Chem.Mech_gen.heptane () ]))

(* ---------- rate laws ---------- *)

let test_arrhenius_positive =
  qtest "rates: arrhenius positive and increasing in A"
    QCheck.(pair (float_range 500.0 3000.0) (float_range 0.1 10.0))
    (fun (t, scale) ->
      let a =
        { Chem.Reaction.pre_exp = 1e10; temp_exp = 0.5; activation = 15000.0 }
      in
      let a2 = { a with Chem.Reaction.pre_exp = a.Chem.Reaction.pre_exp *. scale } in
      let k1 = Chem.Rates.arrhenius a t and k2 = Chem.Rates.arrhenius a2 t in
      k1 > 0.0 && Float.abs ((k2 /. k1) -. scale) < 1e-9 *. scale)

let test_troe_blending_bounded =
  qtest "rates: Troe blending factor in (0, 1]"
    QCheck.(pair (float_range 600.0 2500.0) (float_range (-6.0) 6.0))
    (fun (t, logpr) ->
      let p =
        { Chem.Reaction.alpha = 0.7; t3 = 100.0; t1 = 1500.0; t2 = 5000.0 }
      in
      let f = Chem.Rates.troe_blending p ~temp:t ~pr:(10.0 ** logpr) in
      f > 0.0 && f <= 1.0)

let test_equilibrium_detailed_balance =
  qtest "rates: kr = kf / Kc for equilibrium reverses"
    QCheck.(float_range 1000.0 2400.0)
    (fun t ->
      let mech = Chem.Mech_gen.hydrogen () in
      let n = Chem.Mechanism.n_species mech in
      let conc = Array.make n 1e-5 in
      Array.for_all
        (fun (r : Chem.Reaction.t) ->
          match r.Chem.Reaction.reverse with
          | Chem.Reaction.From_equilibrium ->
              let kf = Chem.Rates.forward_coeff r ~temp:t ~conc in
              let kc =
                Chem.Rates.equilibrium_constant mech.Chem.Mechanism.thermo r t
              in
              let kr =
                Chem.Rates.reverse_coeff mech.Chem.Mechanism.thermo r ~temp:t
                  ~forward:kf ~conc
              in
              kr = 0.0 || Float.abs ((kr *. kc /. kf) -. 1.0) < 1e-9
          | _ -> true)
        mech.Chem.Mechanism.reactions)

(* ---------- QSSA / stiffness structure ---------- *)

let test_qssa_well_ordered =
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count:1 ~name:"qssa: dependency DAG is well ordered"
       QCheck.unit
       (fun () ->
         List.for_all
           (fun mech -> Chem.Qssa.well_ordered (Chem.Qssa.build mech))
           [ Chem.Mech_gen.hydrogen (); Chem.Mech_gen.dme (); Chem.Mech_gen.heptane () ]))

let test_qssa_eval_scales_bounded =
  qtest "qssa: eval produces finite nonnegative scalings" ~count:50
    QCheck.(int_range 0 10000)
    (fun seed ->
      let mech = Chem.Mech_gen.dme () in
      let g = Chem.Qssa.build mech in
      let rng = Sutil.Prng.create (Int64.of_int seed) in
      let nr = Chem.Mechanism.n_reactions mech in
      let rr_f = Array.init nr (fun _ -> Sutil.Prng.log_range rng 1e-12 1e3) in
      let rr_r = Array.init nr (fun _ -> Sutil.Prng.log_range rng 1e-12 1e3) in
      let scales = Chem.Qssa.eval g ~rr_f ~rr_r in
      Array.for_all (fun s -> Float.is_finite s && s >= 0.0) scales
      && Array.for_all (fun v -> Float.is_finite v && v >= 0.0) rr_f)

(* ---------- grid ---------- *)

let test_grid_mole_fractions_normalized =
  qtest "grid: computed mole fractions sum to 1" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let mech = Chem.Mech_gen.hydrogen () in
      let g = Chem.Grid.create mech ~points:32 ~seed:(Int64.of_int seed) in
      List.for_all
        (fun p ->
          let x = Chem.Grid.point_mole_fracs g mech p in
          Float.abs (Array.fold_left ( +. ) 0.0 x -. 1.0) < 1e-9)
        (List.init 32 Fun.id))

let test_grid_range_respected =
  qtest "grid: temperatures stay in the requested range" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let mech = Chem.Mech_gen.hydrogen () in
      let g =
        Chem.Grid.create ~t_range:(500.0, 800.0) mech ~points:64
          ~seed:(Int64.of_int seed)
      in
      List.for_all
        (fun p ->
          let t = Chem.Grid.point_temperature g p in
          t >= 500.0 && t <= 800.0)
        (List.init 64 Fun.id))

(* ---------- ISA validation ---------- *)

let valid_base_program () =
  let c =
    Singe.Compile.compile (Chem.Mech_gen.hydrogen ()) Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized
      { (Singe.Compile.default_options Gpusim.Arch.kepler_k20c) with
        Singe.Compile.n_warps = 4 }
  in
  c.Singe.Compile.lowered.Singe.Lower.program

let test_validate_accepts_generated =
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count:1 ~name:"isa: validate accepts generated code"
       QCheck.unit
       (fun () -> Gpusim.Isa.validate (valid_base_program ()) = Ok ()))

let test_validate_rejects_corruption =
  qtest "isa: validate rejects corrupted programs" ~count:20
    QCheck.(int_range 0 3)
    (fun kind ->
      let p = valid_base_program () in
      let bad_instr =
        match kind with
        | 0 -> Gpusim.Isa.Arith { op = Gpusim.Isa.Add; dst = p.Gpusim.Isa.n_fregs + 7;
                                  srcs = [| Gpusim.Isa.Simm 1.0; Gpusim.Isa.Simm 2.0 |]; pred = None }
        | 1 -> Gpusim.Isa.Bar_sync { bar = 99; count = 2 }
        | 2 -> Gpusim.Isa.Ld_local { dst = 0; slot = p.Gpusim.Isa.local_doubles + 5 }
        | _ -> Gpusim.Isa.St_shared { src = Gpusim.Isa.Sreg 0;
                                      addr = Gpusim.Isa.sh (p.Gpusim.Isa.shared_doubles + 3);
                                      pred = None }
      in
      let corrupted =
        { p with Gpusim.Isa.body =
            Gpusim.Isa.Seq [ p.Gpusim.Isa.body; Gpusim.Isa.Instrs [ bad_instr ] ] }
      in
      match Gpusim.Isa.validate corrupted with Ok () -> false | Error _ -> true)

let tests =
  [
    test_prng_determinism;
    test_prng_range;
    test_prng_int_bounds;
    test_prng_split_independent;
    test_shape_blind_to_constants;
    test_same_shape_random_pairs;
    test_same_shape_mutants;
    test_constants_count;
    test_eval_matches_naive;
    test_flops_positive_on_ops;
    test_gibbs_is_h_minus_s;
    test_generated_tables_continuous;
    test_arrhenius_positive;
    test_troe_blending_bounded;
    test_equilibrium_detailed_balance;
    test_qssa_well_ordered;
    test_qssa_eval_scales_bounded;
    test_grid_mole_fractions_normalized;
    test_grid_range_respected;
    test_validate_accepts_generated;
    test_validate_rejects_corruption;
  ]
