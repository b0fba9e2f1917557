(* The textual assembly, the one printed form of a lowered program: a
   program that uses every instruction, operand, predicate, field and
   block form prints as pinned, and [--dump-ir lower] prints the same
   text as [--emit-asm]. *)

open Gpusim

let tiny =
  let open Isa in
  let n_warps = 2 in
  let arith op dst srcs = Arith { op; dst; srcs; pred = None } in
  {
    name = "tiny";
    n_warps;
    n_fregs = 6;
    n_iregs = 2;
    shared_doubles = 64;
    local_doubles = 2;
    barriers_used = 1;
    point_map = Coop;
    prologue =
      Seq
        [
          Instrs
            [ Ld_param { dst_i = 0; slot = 0 };
              Ld_const_bank { dst = 5; slot = 0 } ];
          Instrs [ Ishfl { dst_i = 1; src_i = 0; lane = 0 } ];
        ];
    body =
      Seq
        [
          Instrs
            [
              Ld_global
                { dst = 0; group = 0; field = F_static 1; via_tex = false;
                  pred = None };
              Ld_global
                { dst = 4; group = 0; field = F_ireg 1; via_tex = true;
                  pred = Some (Lane_eq 0) };
              arith Fma 1 [| Sreg 0; Simm 2.0; Sconst 0 |];
              Arith
                { op = Add; dst = 1; srcs = [| Sreg 1; Sconst_warp 1 |];
                  pred = Some (Lane_lt 16) };
              arith Sub 1 [| Sreg 1; Simm (-0.0) |];
              arith Mul 1 [| Sreg 1; Sreg 5 |];
              arith Div 1 [| Sreg 1; Simm 3.0 |];
              arith Sqrt 1 [| Sreg 1 |];
              arith Exp 1 [| Sreg 1 |];
              arith Log 1 [| Sreg 1 |];
              arith Max 1 [| Sreg 1; Simm 1e-300 |];
              arith Min 1 [| Sreg 1; Simm infinity |];
              Mov { dst = 2; src = Sshared (sh_lane 0); pred = None };
            ];
          If_warps
            {
              mask = 0x1;
              body =
                Instrs
                  [
                    St_shared { src = Sreg 1; addr = sh_lane 32; pred = None };
                    Bar_arrive { bar = 0; count = 2 };
                  ];
            };
          If_warps
            {
              mask = 0x2;
              body =
                Instrs
                  [
                    Bar_sync { bar = 0; count = 2 };
                    Ld_shared
                      { dst = 2; addr = sh_ireg ~base:0 ~ireg:0 ~mul:4 ();
                        pred = None };
                    St_local { src = 2; slot = 1 };
                    Ld_local { dst = 3; slot = 1 };
                    St_global
                      { src = Sreg 3; group = 1; field = F_static 0;
                        pred = Some (Lane_lt 31) };
                  ];
            };
          Switch_warp
            [|
              Instrs
                [ Mov { dst = 2; src = Sreg 1; pred = None };
                  Shfl { dst = 3; src = 2; lane = 5 } ];
              Instrs
                [
                  arith Neg 2 [| Sreg 1 |];
                  Shfl_rot { dst = 3; src = 2; delta = 1 };
                  Shfl_bfly { dst = 3; src = 3; xor_mask = 16 };
                ];
            |];
          Instrs
            [
              St_shared
                { src = Simm (-0.5); addr = sh 63; pred = Some (Lane_eq 0) };
              Ld_shared
                {
                  dst = 4;
                  addr =
                    { s_base = 2; s_warp_mul = 8; s_lane_mul = 1;
                      s_ireg = None; s_ireg_mul = 0 };
                  pred = Some (Lane_lt 8);
                };
              St_global
                { src = Sconst 2; group = 0; field = F_ireg 1; pred = None };
              Bar_cta;
            ];
        ];
    const_bank =
      Array.init n_warps (fun w ->
          Array.init 32 (fun l -> [| float_of_int ((w * 32) + l) *. 0.25 |]));
    param_bank =
      Array.init n_warps (fun w -> Array.init 32 (fun l -> [| (w * 32) + l |]));
    const_mem = [| 1.5; -0.0; 3.0 |];
    groups =
      [|
        { group_name = "temperature"; fields = 2 };
        { group_name = "out"; fields = 1 };
      |];
    exp_consts_in_registers = false;
  }

(* [emit tiny], byte for byte: [--emit-asm] files are diffed across
   compilations, so the spelling of every form and the hex bits of every
   float (-0.0, 1e-300, infinity) must not move. *)
let tiny_text =
  {|.program tiny
.warps 2 .fregs 6 .iregs 2 .shared 64 .local 2 .barriers 1
.pointmap coop
.expconsts false
.group temperature 2
.group out 1
.bank w0 l0 = 0x0000000000000000
.bank w0 l1 = 0x3fd0000000000000
.bank w0 l2 = 0x3fe0000000000000
.bank w0 l3 = 0x3fe8000000000000
.bank w0 l4 = 0x3ff0000000000000
.bank w0 l5 = 0x3ff4000000000000
.bank w0 l6 = 0x3ff8000000000000
.bank w0 l7 = 0x3ffc000000000000
.bank w0 l8 = 0x4000000000000000
.bank w0 l9 = 0x4002000000000000
.bank w0 l10 = 0x4004000000000000
.bank w0 l11 = 0x4006000000000000
.bank w0 l12 = 0x4008000000000000
.bank w0 l13 = 0x400a000000000000
.bank w0 l14 = 0x400c000000000000
.bank w0 l15 = 0x400e000000000000
.bank w0 l16 = 0x4010000000000000
.bank w0 l17 = 0x4011000000000000
.bank w0 l18 = 0x4012000000000000
.bank w0 l19 = 0x4013000000000000
.bank w0 l20 = 0x4014000000000000
.bank w0 l21 = 0x4015000000000000
.bank w0 l22 = 0x4016000000000000
.bank w0 l23 = 0x4017000000000000
.bank w0 l24 = 0x4018000000000000
.bank w0 l25 = 0x4019000000000000
.bank w0 l26 = 0x401a000000000000
.bank w0 l27 = 0x401b000000000000
.bank w0 l28 = 0x401c000000000000
.bank w0 l29 = 0x401d000000000000
.bank w0 l30 = 0x401e000000000000
.bank w0 l31 = 0x401f000000000000
.bank w1 l0 = 0x4020000000000000
.bank w1 l1 = 0x4020800000000000
.bank w1 l2 = 0x4021000000000000
.bank w1 l3 = 0x4021800000000000
.bank w1 l4 = 0x4022000000000000
.bank w1 l5 = 0x4022800000000000
.bank w1 l6 = 0x4023000000000000
.bank w1 l7 = 0x4023800000000000
.bank w1 l8 = 0x4024000000000000
.bank w1 l9 = 0x4024800000000000
.bank w1 l10 = 0x4025000000000000
.bank w1 l11 = 0x4025800000000000
.bank w1 l12 = 0x4026000000000000
.bank w1 l13 = 0x4026800000000000
.bank w1 l14 = 0x4027000000000000
.bank w1 l15 = 0x4027800000000000
.bank w1 l16 = 0x4028000000000000
.bank w1 l17 = 0x4028800000000000
.bank w1 l18 = 0x4029000000000000
.bank w1 l19 = 0x4029800000000000
.bank w1 l20 = 0x402a000000000000
.bank w1 l21 = 0x402a800000000000
.bank w1 l22 = 0x402b000000000000
.bank w1 l23 = 0x402b800000000000
.bank w1 l24 = 0x402c000000000000
.bank w1 l25 = 0x402c800000000000
.bank w1 l26 = 0x402d000000000000
.bank w1 l27 = 0x402d800000000000
.bank w1 l28 = 0x402e000000000000
.bank w1 l29 = 0x402e800000000000
.bank w1 l30 = 0x402f000000000000
.bank w1 l31 = 0x402f800000000000
.param w0 l0 = 0
.param w0 l1 = 1
.param w0 l2 = 2
.param w0 l3 = 3
.param w0 l4 = 4
.param w0 l5 = 5
.param w0 l6 = 6
.param w0 l7 = 7
.param w0 l8 = 8
.param w0 l9 = 9
.param w0 l10 = 10
.param w0 l11 = 11
.param w0 l12 = 12
.param w0 l13 = 13
.param w0 l14 = 14
.param w0 l15 = 15
.param w0 l16 = 16
.param w0 l17 = 17
.param w0 l18 = 18
.param w0 l19 = 19
.param w0 l20 = 20
.param w0 l21 = 21
.param w0 l22 = 22
.param w0 l23 = 23
.param w0 l24 = 24
.param w0 l25 = 25
.param w0 l26 = 26
.param w0 l27 = 27
.param w0 l28 = 28
.param w0 l29 = 29
.param w0 l30 = 30
.param w0 l31 = 31
.param w1 l0 = 32
.param w1 l1 = 33
.param w1 l2 = 34
.param w1 l3 = 35
.param w1 l4 = 36
.param w1 l5 = 37
.param w1 l6 = 38
.param w1 l7 = 39
.param w1 l8 = 40
.param w1 l9 = 41
.param w1 l10 = 42
.param w1 l11 = 43
.param w1 l12 = 44
.param w1 l13 = 45
.param w1 l14 = 46
.param w1 l15 = 47
.param w1 l16 = 48
.param w1 l17 = 49
.param w1 l18 = 50
.param w1 l19 = 51
.param w1 l20 = 52
.param w1 l21 = 53
.param w1 l22 = 54
.param w1 l23 = 55
.param w1 l24 = 56
.param w1 l25 = 57
.param w1 l26 = 58
.param w1 l27 = 59
.param w1 l28 = 60
.param w1 l29 = 61
.param w1 l30 = 62
.param w1 l31 = 63
.constmem = 0x3ff8000000000000 0x8000000000000000 0x4008000000000000
.prologue {
  ld.p i0, 0
  ld.cb f5, 0
  ishfl i1, i0, 0
}
.body {
  ld.g f0, g0.f1
  ld.g f4, g0.i[1], tex @l==0
  fma f1, f0, imm(0x4000000000000000), c[0]
  add f1, f1, cw[1] @l<16
  sub f1, f1, imm(0x8000000000000000)
  mul f1, f1, f5
  div f1, f1, imm(0x4008000000000000)
  sqrt f1, f1
  exp f1, f1
  log f1, f1
  max f1, f1, imm(0x01a56e1fc2f8f359)
  min f1, f1, imm(0x7ff0000000000000)
  mov f2, [0+1l]
  if 0x1 {
    st.s f1, [32+1l]
    bar.arr 0, 2
  }
  if 0x2 {
    bar.sync 0, 2
    ld.s f2, [0+4i0]
    st.l f2, 1
    ld.l f3, 1
    st.g f3, g1.f0 @l<31
  }
  switch {
    warp 0 {
      mov f2, f1
      shfl f3, f2, 5
    }
    warp 1 {
      neg f2, f1
      shfl.rot f3, f2, 1
      shfl.bfly f3, f3, 16
    }
  }
  st.s imm(0xbfe0000000000000), [63] @l==0
  ld.s f4, [2+8w+1l] @l<8
  st.g c[2], g0.i[1]
  bar.cta
}
|}

let test_tiny_pinned () =
  (match Isa.validate tiny with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  Alcotest.(check string) "emit tiny" tiny_text (Isa_text.emit tiny)

let test_dump_ir_lower () =
  let mech = Chem.Mech_gen.hydrogen () in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile mech Singe.Kernel_abi.Viscosity
         Singe.Compile.Warp_specialized
         (Singe.Target.options ~n_warps:4 Arch.kepler_k20c
            Singe.Kernel_abi.Viscosity))
  in
  Alcotest.(check string) "dump-ir lower = emit"
    (Isa_text.emit c.Singe.Compile.lowered.Singe.Lower.program)
    (Format.asprintf "%a"
       (fun ppf c -> Singe.Compile.dump_ir ppf c Singe.Compile.Ir_lower)
       c)

let tests =
  [
    Alcotest.test_case "tiny program emits as pinned" `Quick test_tiny_pinned;
    Alcotest.test_case "dump-ir lower prints emit" `Quick test_dump_ir_lower;
  ]
