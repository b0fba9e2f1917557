(* PLOG pressure-log-interpolated rates: the rate law itself, parsing,
   CHEMKIN round-trip, and end-to-end code generation. *)

let arr a b e = { Chem.Reaction.pre_exp = a; temp_exp = b; activation = e }

let table =
  [ (0.1, arr 1.0e9 0.5 8000.0); (1.0, arr 5.0e10 0.2 10000.0);
    (10.0, arr 2.0e12 0.0 12000.0) ]

let test_plog_law () =
  let k p = Chem.Rates.plog_coeff table ~temp:1500.0 ~pressure:(p *. Chem.Rates.p_atm) in
  (* exact at the table's pressures *)
  List.iter
    (fun (p, a) ->
      let expect =
        Chem.Rates.arrhenius a 1500.0
      in
      let got = k p in
      Alcotest.(check bool)
        (Printf.sprintf "exact at %g atm (%.4g vs %.4g)" p got expect)
        true
        (Float.abs (got -. expect) /. expect < 1e-12))
    table;
  (* clamps outside the table *)
  Alcotest.(check (float 1e-6)) "clamps below" (k 0.1) (k 0.001);
  Alcotest.(check (float 1e-6)) "clamps above" (k 10.0) (k 1000.0);
  (* monotone between nodes when the fits are increasing in P *)
  Alcotest.(check bool) "interpolates between nodes" true
    (k 0.3 > k 0.1 && k 0.3 < k 1.0)

let toy_plog () =
  let sp name f = Chem.Species.of_formula ~name f in
  let species =
    [| sp "H2" "H2"; sp "H" "H"; sp "O2" "O2"; sp "O" "O"; sp "OH" "OH";
       sp "H2O" "H2O" |]
  in
  let reactions =
    [|
      Chem.Reaction.make ~label:"h2+o=oh+h" ~reactants:[ (0, 1); (3, 1) ]
        ~products:[ (4, 1); (1, 1) ]
        (Chem.Reaction.Simple (arr 5.1e4 2.67 6290.0));
      Chem.Reaction.make ~label:"h+o2=oh+o (plog)" ~reactants:[ (1, 1); (2, 1) ]
        ~products:[ (4, 1); (3, 1) ]
        (Chem.Reaction.Plog table);
      Chem.Reaction.make ~label:"oh+oh=h2o+o" ~reactants:[ (4, 2) ]
        ~products:[ (5, 1); (3, 1) ]
        (Chem.Reaction.Simple (arr 3.5e4 2.4 (-2110.0)));
    |]
  in
  let rng = Sutil.Prng.create 91L in
  let thermo =
    Array.map
      (fun s ->
        let atoms = float_of_int (Chem.Species.total_atoms s) in
        let a = [| 2.5 +. (0.4 *. atoms); 1e-4; 0.0; 0.0; 0.0;
                   Sutil.Prng.range rng (-2e4) 2e4; 3.0 +. atoms |] in
        { Chem.Thermo.t_low = 300.0; t_mid = 1000.0; t_high = 5000.0;
          low = Array.copy a; high = a })
      species
  in
  Chem.Mechanism.make ~name:"toy-plog" ~species ~reactions ~thermo ()

let test_parse_plog () =
  let text =
    "ELEMENTS\nH O\nEND\nSPECIES\nH O2 OH O\nEND\nREACTIONS\n\
     h+o2 = oh+o 1.0E+10 0.0 0.0\n\
    \  PLOG / 0.1 1.0E+9 0.5 8.0E+3 /\n\
    \  PLOG / 10.0 2.0E+12 0.0 1.2E+4 /\n\
    \  PLOG / 1.0 5.0E+10 0.2 1.0E+4 /\nEND"
  in
  match Chem.Chemkin_parser.parse text with
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  | Ok parsed -> (
      match
        Chem.Chemkin_parser.rate_model_of_raw
          (List.hd parsed.Chem.Chemkin_parser.raw_reactions)
      with
      | Ok (Chem.Reaction.Plog t) ->
          Alcotest.(check int) "three entries" 3 (List.length t);
          Alcotest.(check bool) "sorted ascending" true
            (List.map fst t = [ 0.1; 1.0; 10.0 ])
      | Ok _ -> Alcotest.fail "expected PLOG"
      | Error e -> Alcotest.fail (Chem.Srcloc.to_string e))

let test_plog_falloff_conflict () =
  let text =
    "ELEMENTS\nH\nEND\nSPECIES\nH H2\nEND\nREACTIONS\n\
     h+h(+m) = h2(+m) 1.0E+12 0.0 0.0\n\
    \  LOW / 1.0E+14 0.0 0.0 /\n\
    \  PLOG / 1.0 1.0E+10 0.0 0.0 /\nEND"
  in
  match Chem.Chemkin_parser.parse text with
  | Error _ -> ()
  | Ok parsed -> (
      match
        Chem.Chemkin_parser.rate_model_of_raw
          (List.hd parsed.Chem.Chemkin_parser.raw_reactions)
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "PLOG+LOW should be rejected")

let test_plog_roundtrip () =
  let mech = toy_plog () in
  let text = Chem.Mech_io.chemkin_of_mechanism mech in
  match Chem.Chemkin_parser.parse text with
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  | Ok parsed ->
      let raw =
        List.find
          (fun (r : Chem.Chemkin_parser.raw_reaction) ->
            r.Chem.Chemkin_parser.plog <> [])
          parsed.Chem.Chemkin_parser.raw_reactions
      in
      Alcotest.(check int) "entries survive" 3
        (List.length raw.Chem.Chemkin_parser.plog)

let test_plog_end_to_end () =
  let mech = toy_plog () in
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
        (Printf.sprintf "PLOG kernel correct (%.2g)" r.Singe.Compile.max_rel_err)
        true
        (r.Singe.Compile.max_rel_err < 1e-9))
    [
      (Singe.Compile.Warp_specialized, Gpusim.Arch.kepler_k20c);
      (Singe.Compile.Baseline, Gpusim.Arch.kepler_k20c);
      (Singe.Compile.Warp_specialized, Gpusim.Arch.fermi_c2070);
    ]

let tests =
  [
    Alcotest.test_case "plog law: exact/clamp/interp" `Quick test_plog_law;
    Alcotest.test_case "parse PLOG" `Quick test_parse_plog;
    Alcotest.test_case "PLOG+LOW rejected" `Quick test_plog_falloff_conflict;
    Alcotest.test_case "PLOG round-trip" `Quick test_plog_roundtrip;
    Alcotest.test_case "PLOG end-to-end" `Quick test_plog_end_to_end;
  ]
