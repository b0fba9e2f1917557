(* The mechanism loader, pinned: transport fits equal a frozen copy of the
   original fitting code bit for bit, loaded mechanisms marshal to the
   same bytes as before the loader was sped up, and its cross-file
   diagnostics and duplicate-entry rules are unchanged. *)

(* [dune runtest] runs in _build/default/test; [dune exec] from the
   project root. *)
let data_path file =
  let in_build = Filename.concat "../data" file in
  if Sys.file_exists in_build then in_build else Filename.concat "data" file

let read_data file = In_channel.with_open_bin (data_path file) In_channel.input_all

let data_texts name =
  let f ext = read_data (name ^ "." ^ ext) in
  (f "mech", f "therm", f "tran", f "sets")

let load ?chemkin_file (chemkin, thermo, transport, sets) ~name =
  Chem.Mech_io.load_strings ~species_sets:sets ?chemkin_file ~chemkin ~thermo
    ~transport ~name ()

let load_ok texts ~name =
  match load texts ~name with
  | Ok m -> m
  | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let check_fits what species =
  let got = Chem.Transport.fit species in
  let want = Fit_reference.fit species in
  let coeffs label g w =
    Array.iteri
      (fun c x ->
        if Int64.bits_of_float x <> Int64.bits_of_float g.(c) then
          Alcotest.failf "%s: %s coefficient %d is %h, reference %h" what label c
            g.(c) x)
      w
  in
  Array.iteri
    (fun i w -> coeffs (Printf.sprintf "visc %d" i) got.visc_fit.(i) w)
    want.visc_fit;
  Array.iteri
    (fun i w -> coeffs (Printf.sprintf "cond %d" i) got.cond_fit.(i) w)
    want.cond_fit;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j w -> coeffs (Printf.sprintf "diff %d,%d" i j) got.diff_fit.(i).(j) w)
        row)
    want.diff_fit;
  (* The marshalled form also covers the table's shape and which
     coefficient arrays are shared (d_ij and d_ji are one array). *)
  Alcotest.(check string) (what ^ " marshals identically") (digest want) (digest got)

let test_fits_bundled () =
  List.iter
    (fun (name, mechf) ->
      check_fits name (mechf ()).Chem.Mechanism.species)
    Chem.Mech_gen.
      [ ("hydrogen", hydrogen); ("dme", dme); ("methane", methane); ("heptane", heptane) ]

let test_fits_data () =
  List.iter
    (fun name ->
      check_fits ("data/" ^ name) (load_ok (data_texts name) ~name).Chem.Mechanism.species)
    [ "hydrogen"; "dme"; "methane" ]

let gen_species =
  let open QCheck.Gen in
  let element = oneofl Chem.Species.[ H; C; O; N; Ar; He ] in
  let composition = list_size (int_range 1 4) (pair element (int_range 1 12)) in
  let transport =
    frequency
      [
        (1, return Chem.Species.default_transport);
        ( 3,
          map2
            (fun diameter well_depth ->
              { Chem.Species.default_transport with diameter; well_depth })
            (float_range 1.5 9.0) (float_range 5.0 1200.0) );
      ]
  in
  array_size (int_range 1 24)
    (map2
       (fun comp transport -> Chem.Species.make ~transport ~name:"S" comp)
       composition transport)

(* The exported kinetic formulas themselves, at temperatures off the fit
   grid. The diffusion formula is internal to [fit]; the fits pin it. *)
let kinetic_identical species =
  let same f g =
    List.for_all
      (fun t -> Int64.bits_of_float (f t) = Int64.bits_of_float (g t))
      [ 350.5; 1234.5; 2999.0 ]
  in
  Array.for_all
    (fun sp ->
      same (Chem.Transport.kinetic_viscosity sp) (Fit_reference.kinetic_viscosity sp)
      && same
           (Chem.Transport.kinetic_conductivity sp)
           (Fit_reference.kinetic_conductivity sp))
    species

let qcheck_fits_random =
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count:150 ~name:"transport fits bit-identical on random species"
       (QCheck.make
          ~print:(fun sps ->
            String.concat ", "
              (Array.to_list
                 (Array.map
                    (fun (s : Chem.Species.t) ->
                      Printf.sprintf "%s d=%h eps=%h" (Chem.Species.formula s)
                        s.transport.diameter s.transport.well_depth)
                    sps)))
          gen_species)
       (fun species ->
         let got = Chem.Transport.fit species and want = Fit_reference.fit species in
         digest got = digest want && kinetic_identical species))

(* Digests recorded from the loader before it shared the fit grid and
   indexed species names. *)
let pinned_digests =
  [
    ("hydrogen", "53bd9d01563386e28eb1d03c41b0d11f");
    ("dme", "e3d2d003a8ec11524954d4badcc79951");
    ("methane", "b3f2caab8fa4dd7e3b035d707511ea00");
    ("heptane", "dff1c4d4331c3736ee5e92b8548d9f55");
  ]

let heptane_texts () =
  let m = Chem.Mech_gen.heptane () in
  Chem.Mech_io.
    ( chemkin_of_mechanism m,
      thermo_of_mechanism m,
      transport_of_mechanism m,
      species_sets_of_mechanism m )

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not in the input" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let load_error texts =
  match load ~chemkin_file:"hydrogen.mech" texts ~name:"hydrogen" with
  | Ok _ -> Alcotest.fail "loaded a broken mechanism"
  | Error e -> Chem.Srcloc.to_string e

let test_loader_pinned () =
  List.iter
    (fun (name, want) ->
      let texts = if name = "heptane" then heptane_texts () else data_texts name in
      Alcotest.(check string) (name ^ " digest") want (digest (load_ok texts ~name)))
    pinned_digests;
  let ((mech, thermo, tran, sets) as h2) = data_texts "hydrogen" in
  Alcotest.(check string) "unknown reaction species"
    {|hydrogen.mech:13: near "CH2X": unknown species "CH2X"|}
    (load_error
       (replace_first ~sub:"2HCO => CO + CH2O" ~by:"2HCO => CO + ch2x" mech,
        thermo, tran, sets));
  (* An efficiency entry is reported at its reaction's equation line. *)
  Alcotest.(check string) "unknown efficiency species"
    {|hydrogen.mech:18: near "XO": unknown species "XO"|}
    (load_error (replace_first ~sub:"H2/2.26/ CO/" ~by:"H2/2.26/ xo/" mech, thermo, tran, sets));
  Alcotest.(check string) "unknown set species"
    {|hydrogen.mech: near "ZZ": unknown species "ZZ"|}
    (load_error (mech, thermo, tran, replace_first ~sub:"HCO\n" ~by:"zz\n" sets));
  Alcotest.(check string) "missing THERMO"
    {|hydrogen.mech: near "AR": species "AR" has no THERMO entry|}
    (load_error (replace_first ~sub:"CH2O \n" ~by:"CH2O ar\n" mech, thermo, tran, sets));
  (* Duplicate THERMO and TRANSPORT entries: the first one wins, names
     compare case-insensitively. *)
  let base = load_ok h2 ~name:"hydrogen" in
  let h2_index = Chem.Mechanism.species_index base "H2" in
  let entries =
    match Chem.Thermo_parser.parse thermo with
    | Ok es -> es
    | Error e -> Alcotest.fail (Chem.Srcloc.to_string e)
  in
  let decoy =
    let find n = List.find (fun e -> e.Chem.Thermo_parser.name = n) entries in
    { (find "H2") with name = "h2"; thermo = (find "O").Chem.Thermo_parser.thermo }
  in
  let thermo_of es = Chem.Thermo_parser.to_string es in
  let thermo_of_h2 texts =
    (load_ok texts ~name:"hydrogen").Chem.Mechanism.thermo.(h2_index)
  in
  Alcotest.(check bool) "later THERMO duplicate ignored" true
    (thermo_of_h2 (mech, thermo_of (entries @ [ decoy ]), tran, sets)
    = base.Chem.Mechanism.thermo.(h2_index));
  Alcotest.(check bool) "earlier THERMO duplicate wins" true
    (thermo_of_h2 (mech, thermo_of (decoy :: entries), tran, sets)
    = decoy.Chem.Thermo_parser.thermo);
  let decoy_tran = "h2                 1    999.000     9.9000    0.000    0.000    0.000\n" in
  let well_depth texts =
    (load_ok texts ~name:"hydrogen").Chem.Mechanism.species.(h2_index)
      .Chem.Species.transport.Chem.Species.well_depth
  in
  Alcotest.(check (float 0.0)) "later TRANSPORT duplicate ignored" 52.14
    (well_depth (mech, thermo, tran ^ decoy_tran, sets));
  Alcotest.(check (float 0.0)) "earlier TRANSPORT duplicate wins" 999.0
    (well_depth (mech, thermo, decoy_tran ^ tran, sets))

let test_duplicate_species () =
  let text = "ELEMENTS\nH O\nEND\nSPECIES\nH2 O2 H2O\nOH h2\nEND\nREACTIONS\nEND\n" in
  (match Chem.Chemkin_parser.parse ~file:"dup.mech" text with
  | Ok _ -> Alcotest.fail "accepted a species declared twice"
  | Error e ->
      Alcotest.(check string) "diagnostic"
        {|dup.mech:6: near "H2": species "H2" is declared twice (first on line 5)|}
        (Chem.Srcloc.to_string e));
  let mech, thermo, tran, sets = data_texts "hydrogen" in
  match
    load ~chemkin_file:"hydrogen.mech"
      (replace_first ~sub:"CH2O \n" ~by:"CH2O h2\n" mech, thermo, tran, sets)
      ~name:"hydrogen"
  with
  | Ok m ->
      Alcotest.failf "loaded %d species from a mechanism declaring 13"
        (Chem.Mechanism.n_species m)
  | Error e ->
      Alcotest.(check string) "load diagnostic"
        {|hydrogen.mech:6: near "H2": species "H2" is declared twice (first on line 5)|}
        (Chem.Srcloc.to_string e)

let tests =
  [
    Alcotest.test_case "fits match frozen reference (bundled)" `Quick test_fits_bundled;
    Alcotest.test_case "fits match frozen reference (data)" `Quick test_fits_data;
    qcheck_fits_random;
    Alcotest.test_case "loader digests and diagnostics pinned" `Quick test_loader_pinned;
    Alcotest.test_case "species declared twice rejected" `Quick test_duplicate_species;
  ]
