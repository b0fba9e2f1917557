(* The SRI falloff form: parsing, the rate law, CHEMKIN round-trip, and
   end-to-end code generation against the host reference. *)

let sp name f = Chem.Species.of_formula ~name f
let arr a b e = { Chem.Reaction.pre_exp = a; temp_exp = b; activation = e }

(* A toy H2/O2 mechanism whose falloff reaction uses the SRI form. *)
let toy_sri () =
  let species =
    [| sp "H2" "H2"; sp "H" "H"; sp "O2" "O2"; sp "O" "O"; sp "OH" "OH";
       sp "H2O" "H2O" |]
  in
  let sri = { Chem.Reaction.sa = 0.45; sb = 797.0; sc = 979.0; sd = 1.0; se = 0.0 } in
  let reactions =
    [|
      Chem.Reaction.make ~label:"h2+o=oh+h" ~reactants:[ (0, 1); (3, 1) ]
        ~products:[ (4, 1); (1, 1) ]
        (Chem.Reaction.Simple (arr 5.1e4 2.67 6290.0));
      Chem.Reaction.make ~label:"h+o2=oh+o" ~reactants:[ (1, 1); (2, 1) ]
        ~products:[ (4, 1); (3, 1) ]
        (Chem.Reaction.Simple (arr 1.9e11 0.0 16440.0));
      Chem.Reaction.make ~label:"h+oh(+m)=h2o(+m)" ~reactants:[ (1, 1); (4, 1) ]
        ~products:[ (5, 1) ]
        ~third_body:{ Chem.Reaction.enhanced = [ (5, 6.0); (0, 2.0) ] }
        (Chem.Reaction.Falloff
           { high = arr 1.0e12 0.2 0.0; low = arr 1.0e14 0.0 0.0;
             kind = Chem.Reaction.Sri sri });
      Chem.Reaction.make ~label:"oh+h2=h2o+h" ~reactants:[ (4, 1); (0, 1) ]
        ~products:[ (5, 1); (1, 1) ]
        (Chem.Reaction.Simple (arr 2.1e5 1.51 3430.0));
    |]
  in
  let rng = Sutil.Prng.create 47L in
  let thermo =
    Array.map
      (fun s ->
        let atoms = float_of_int (Chem.Species.total_atoms s) in
        let a1 = 2.5 +. (0.4 *. atoms) +. Sutil.Prng.range rng (-0.1) 0.1 in
        let a6 = Sutil.Prng.range rng (-2e4) 2e4 in
        let a7 = 3.0 +. atoms in
        let a = [| a1; 1e-4; 1e-8; 0.0; 0.0; a6; a7 |] in
        { Chem.Thermo.t_low = 300.0; t_mid = 1000.0; t_high = 5000.0;
          low = Array.copy a; high = a })
      species
  in
  Chem.Mechanism.make ~name:"toy-sri" ~species ~reactions ~thermo ()

let test_sri_blending_properties () =
  let p = { Chem.Reaction.sa = 0.45; sb = 797.0; sc = 979.0; sd = 1.1; se = 0.0 } in
  List.iter
    (fun (t, pr) ->
      let f = Chem.Rates.sri_blending p ~temp:t ~pr in
      Alcotest.(check bool) "finite positive" true (Float.is_finite f && f > 0.0);
      (* at the Pr extremes X -> 0 so F -> d * T^e *)
      let f_far = Chem.Rates.sri_blending p ~temp:t ~pr:1e30 in
      Alcotest.(check bool) "X->0 limit is d" true
        (Float.abs (f_far -. p.Chem.Reaction.sd) < 1e-2))
    [ (800.0, 0.01); (1500.0, 1.0); (2400.0, 100.0) ]

let test_parse_sri () =
  let text = {|
ELEMENTS
H O
END
SPECIES
H OH H2O
END
REACTIONS
h+oh(+m) = h2o(+m)   1.0E+12  0.20  0.0
  LOW / 1.0E+14 0.0 0.0 /
  SRI / 0.45 797.0 979.0 /
h+oh = h2o           1.0E+10  0.00  0.0
  REV / 5.0E+9 0.0 1.0E+4 /
END
|} in
  match Chem.Chemkin_parser.parse text with
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  | Ok parsed -> (
      let r = List.hd parsed.Chem.Chemkin_parser.raw_reactions in
      match Chem.Chemkin_parser.rate_model_of_raw r with
      | Ok (Chem.Reaction.Falloff { kind = Chem.Reaction.Sri p; _ }) ->
          Alcotest.(check (float 1e-9)) "a" 0.45 p.Chem.Reaction.sa;
          Alcotest.(check (float 1e-9)) "b" 797.0 p.Chem.Reaction.sb;
          Alcotest.(check (float 1e-9)) "d defaults to 1" 1.0 p.Chem.Reaction.sd;
          Alcotest.(check (float 1e-9)) "e defaults to 0" 0.0 p.Chem.Reaction.se
      | Ok _ -> Alcotest.fail "expected SRI falloff"
      | Error e -> Alcotest.fail (Chem.Srcloc.to_string e))

let test_parse_sri_five_params () =
  let text =
    "ELEMENTS\nH\nEND\nSPECIES\nH H2\nEND\nREACTIONS\n\
     h+h(+m) = h2(+m) 1.0E+12 0.0 0.0\n\
    \  LOW / 1.0E+14 0.0 0.0 /\n\
    \  SRI / 0.5 100.0 1000.0 1.2 0.1 /\nEND"
  in
  match Chem.Chemkin_parser.parse text with
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  | Ok parsed -> (
      match
        Chem.Chemkin_parser.rate_model_of_raw
          (List.hd parsed.Chem.Chemkin_parser.raw_reactions)
      with
      | Ok (Chem.Reaction.Falloff { kind = Chem.Reaction.Sri p; _ }) ->
          Alcotest.(check (float 1e-9)) "d" 1.2 p.Chem.Reaction.sd;
          Alcotest.(check (float 1e-9)) "e" 0.1 p.Chem.Reaction.se
      | _ -> Alcotest.fail "expected 5-parameter SRI")

let test_sri_troe_exclusive () =
  let text =
    "ELEMENTS\nH\nEND\nSPECIES\nH H2\nEND\nREACTIONS\n\
     h+h(+m) = h2(+m) 1.0E+12 0.0 0.0\n\
    \  LOW / 1.0E+14 0.0 0.0 /\n\
    \  TROE / 0.7 100.0 1000.0 /\n\
    \  SRI / 0.5 100.0 1000.0 /\nEND"
  in
  match Chem.Chemkin_parser.parse text with
  | Error _ -> ()
  | Ok parsed -> (
      match
        Chem.Chemkin_parser.rate_model_of_raw
          (List.hd parsed.Chem.Chemkin_parser.raw_reactions)
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "TROE+SRI should be rejected")

let test_sri_roundtrip () =
  let mech = toy_sri () in
  let text = Chem.Mech_io.chemkin_of_mechanism mech in
  match Chem.Chemkin_parser.parse text with
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  | Ok parsed ->
      let raw =
        List.find
          (fun (r : Chem.Chemkin_parser.raw_reaction) ->
            r.Chem.Chemkin_parser.sri <> None)
          parsed.Chem.Chemkin_parser.raw_reactions
      in
      (match raw.Chem.Chemkin_parser.sri with
      | Some p ->
          Alcotest.(check (float 1e-3)) "a survives" 0.45 p.Chem.Reaction.sa;
          Alcotest.(check (float 1e-1)) "b survives" 797.0 p.Chem.Reaction.sb
      | None -> assert false)

let test_sri_end_to_end () =
  let mech = toy_sri () in
  List.iter
    (fun (version, arch) ->
      let opts =
        Singe.Target.options ~n_warps:2 arch Singe.Kernel_abi.Chemistry
      in
      let c =
        Singe.Diagnostics.ok_exn
          (Singe.Compile.compile mech Singe.Kernel_abi.Chemistry version opts)
      in
      let r = Singe.Compile.run c ~total_points:(32 * 32) in
      Alcotest.(check bool)
        (Printf.sprintf "SRI kernel correct (%.2g)" r.Singe.Compile.max_rel_err)
        true
        (r.Singe.Compile.max_rel_err < 1e-9))
    [
      (Singe.Compile.Warp_specialized, Gpusim.Arch.kepler_k20c);
      (Singe.Compile.Baseline, Gpusim.Arch.kepler_k20c);
      (Singe.Compile.Warp_specialized, Gpusim.Arch.fermi_c2070);
    ]

let tests =
  [
    Alcotest.test_case "sri blending bounded" `Quick test_sri_blending_properties;
    Alcotest.test_case "parse SRI (3 params)" `Quick test_parse_sri;
    Alcotest.test_case "parse SRI (5 params)" `Quick test_parse_sri_five_params;
    Alcotest.test_case "TROE+SRI rejected" `Quick test_sri_troe_exclusive;
    Alcotest.test_case "SRI CHEMKIN round-trip" `Quick test_sri_roundtrip;
    Alcotest.test_case "SRI end-to-end" `Quick test_sri_end_to_end;
  ]
