(* The textual assembly: exact round-trips of every compiled kernel shape,
   and hand-written programs through the parser and validator. *)

let compile mech kernel version arch nw =
  let opts =
    { (Singe.Target.options ~n_warps:nw arch kernel) with
      Singe.Compile.ctas_per_sm_target = 1 }
  in
  (Singe.Diagnostics.ok_exn (Singe.Compile.compile mech kernel version opts))
    .Singe.Compile.lowered.Singe.Lower.program

let test_roundtrip_exact () =
  let mech = Chem.Mech_gen.hydrogen () in
  List.iter
    (fun (kernel, version, arch, nw) ->
      let p = compile mech kernel version arch nw in
      match Gpusim.Isa_text.parse (Gpusim.Isa_text.emit p) with
      | Error e -> Alcotest.fail e
      | Ok q ->
          (* Emission canonicalizes Seq nesting, so compare canonical
             forms: emit (parse (emit p)) must equal emit p, and the
             parsed program must still validate. *)
          Alcotest.(check string)
            (Printf.sprintf "%s round-trips canonically" p.Gpusim.Isa.name)
            (Gpusim.Isa_text.emit p) (Gpusim.Isa_text.emit q);
          Alcotest.(check bool) "parsed program validates" true
            (Gpusim.Isa.validate q = Ok ()))
    [
      (Singe.Kernel_abi.Viscosity, Singe.Compile.Warp_specialized,
       Gpusim.Arch.kepler_k20c, 4);
      (Singe.Kernel_abi.Viscosity, Singe.Compile.Warp_specialized,
       Gpusim.Arch.fermi_c2070, 4);
      (Singe.Kernel_abi.Conductivity, Singe.Compile.Warp_specialized,
       Gpusim.Arch.kepler_k20c, 3);
      (Singe.Kernel_abi.Diffusion, Singe.Compile.Warp_specialized,
       Gpusim.Arch.kepler_k20c, 4);
      (Singe.Kernel_abi.Chemistry, Singe.Compile.Warp_specialized,
       Gpusim.Arch.kepler_k20c, 4);
      (Singe.Kernel_abi.Chemistry, Singe.Compile.Baseline,
       Gpusim.Arch.kepler_k20c, 4);
      (Singe.Kernel_abi.Viscosity, Singe.Compile.Naive_warp_specialized,
       Gpusim.Arch.kepler_k20c, 4);
    ]

let test_roundtrip_dme_slow () =
  let mech = Chem.Mech_gen.dme () in
  let p =
    compile mech Singe.Kernel_abi.Chemistry Singe.Compile.Warp_specialized
      Gpusim.Arch.kepler_k20c 8
  in
  match Gpusim.Isa_text.parse (Gpusim.Isa_text.emit p) with
  | Error e -> Alcotest.fail e
  | Ok q ->
      Alcotest.(check string) "dme chemistry round-trips"
        (Gpusim.Isa_text.emit p) (Gpusim.Isa_text.emit q)

let test_hand_written () =
  let text = {|
.program tiny
.warps 2 .fregs 4 .iregs 1 .shared 64 .local 2 .barriers 1
.pointmap coop
.expconsts false
.group temperature 1
.group out 1
.param w0 l0 = 5
.param w1 l0 = 9
.prologue {
  ld.p i0, 0
}
.body {
  ld.g f0, g0.f0
  fma f1, f0, imm(0x4000000000000000), imm(0x3ff0000000000000)
  if 0x1 {
    st.s f1, [0+1l]
    bar.arr 0, 2
  }
  if 0x2 {
    bar.sync 0, 2
    ld.s f2, [0+1l]
    st.l f2, 1
    ld.l f3, 1
    st.g f3, g1.f0 @l<31
  }
  switch {
    warp 0 {
      mov f2, f1
    }
    warp 1 {
      neg f2, f1
    }
  }
  bar.cta
}
|} in
  match Gpusim.Isa_text.parse text with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check string) "name" "tiny" p.Gpusim.Isa.name;
      Alcotest.(check int) "warps" 2 p.Gpusim.Isa.n_warps;
      (match Gpusim.Isa.validate p with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es));
      (* second round-trip is the identity *)
      let t2 = Gpusim.Isa_text.emit p in
      (match Gpusim.Isa_text.parse t2 with
      | Ok q ->
          Alcotest.(check string) "re-emission stable" t2
            (Gpusim.Isa_text.emit q)
      | Error e -> Alcotest.fail e)

let test_parse_errors () =
  List.iter
    (fun (fragment, why) ->
      let text =
        ".program x\n.warps 1 .fregs 2 .iregs 0 .shared 0 .local 0 .barriers \
         0\n.pointmap coop\n.expconsts false\n.group out 1\n.prologue {\n}\n\
         .body {\n" ^ fragment ^ "\n}\n"
      in
      match Gpusim.Isa_text.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("parser accepted " ^ why))
    [
      ("frobnicate f0, f1", "an unknown mnemonic");
      ("add f0", "a wrong arity");
      ("mov f0, q9", "a bad operand");
      ("ld.g f0, nonsense", "a bad global reference");
      ("if 0x1 {", "an unterminated block");
    ]

let tests =
  [
    Alcotest.test_case "compiled kernels round-trip" `Quick test_roundtrip_exact;
    Alcotest.test_case "dme chemistry round-trip (slow)" `Slow test_roundtrip_dme_slow;
    Alcotest.test_case "hand-written program" `Quick test_hand_written;
    Alcotest.test_case "parse errors rejected" `Quick test_parse_errors;
  ]
