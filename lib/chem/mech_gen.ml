(* Reaction candidates are generated from balanced templates, then sampled
   to hit the target count while covering every species. *)

type candidate = {
  lhs : (int * int) list;
  rhs : (int * int) list;
  kind : [ `Abstraction | `Decomposition | `Exchange | `Association | `Isomerization ];
}

let comp_key v = String.concat "," (Array.to_list (Array.map string_of_int v))

let vec_add a b = Array.mapi (fun i x -> x + b.(i)) a

let vec_sub a b = Array.mapi (fun i x -> x - b.(i)) a

let side_key side =
  List.sort compare side
  |> List.map (fun (s, c) -> Printf.sprintf "%d*%d" c s)
  |> String.concat "+"

let candidate_key c =
  (* Canonical: unordered pair of sides so A=B and B=A collide. *)
  let a = side_key c.lhs and b = side_key c.rhs in
  if a < b then a ^ "=" ^ b else b ^ "=" ^ a

let spectator_free c =
  let l = List.map fst c.lhs and r = List.map fst c.rhs in
  not (List.exists (fun s -> List.mem s r) l)

(* The hydrogen-atom composition vector, in Species.composition_vector
   order. *)
let h_vec species =
  let v = Array.map (fun _ -> 0) (Species.composition_vector species.(0)) in
  v.(0) <- 1;
  v

let enumerate_candidates (species : Species.t array) =
  let n = Array.length species in
  let comp = Array.map Species.composition_vector species in
  let by_comp = Hashtbl.create 64 in
  Array.iteri
    (fun i v ->
      let k = comp_key v in
      Hashtbl.replace by_comp k (i :: (Option.value ~default:[] (Hashtbl.find_opt by_comp k))))
    comp;
  let species_with v = Option.value ~default:[] (Hashtbl.find_opt by_comp (comp_key v)) in
  let candidates = ref [] in
  let add c = if spectator_free c then candidates := c :: !candidates in
  let hv = h_vec species in
  (* H-abstraction: RH + X = R + XH for every H-pair on both sides. *)
  let h_pairs =
    (* (heavy, light) with comp heavy = comp light + H *)
    List.concat
      (List.init n (fun rh ->
           species_with (vec_sub comp.(rh) hv)
           |> List.filter_map (fun r ->
                  if r <> rh then Some (rh, r) else None)))
  in
  List.iter
    (fun (rh, r) ->
      List.iter
        (fun (xh, x) ->
          if rh <> xh && r <> x then
            add
              {
                lhs = [ (rh, 1); (x, 1) ];
                rhs = [ (r, 1); (xh, 1) ];
                kind = `Abstraction;
              })
        h_pairs)
    h_pairs;
  (* Decomposition: A = B + C (including B = C). *)
  for b = 0 to n - 1 do
    for c = b to n - 1 do
      let total = vec_add comp.(b) comp.(c) in
      List.iter
        (fun a ->
          if a <> b && a <> c then
            add
              {
                lhs = [ (a, 1) ];
                rhs = (if b = c then [ (b, 2) ] else [ (b, 1); (c, 1) ]);
                kind = `Decomposition;
              })
        (species_with total)
    done
  done;
  (* Association: A + B = C, the reverse orientation (kept separate so the
     sampler can bias the falloff mix). *)
  for a = 0 to n - 1 do
    for b = a to n - 1 do
      let total = vec_add comp.(a) comp.(b) in
      List.iter
        (fun c ->
          if c <> a && c <> b then
            add
              {
                lhs = (if a = b then [ (a, 2) ] else [ (a, 1); (b, 1) ]);
                rhs = [ (c, 1) ];
                kind = `Association;
              })
        (species_with total)
    done
  done;
  (* Isomerization: A = B with equal compositions. *)
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if comp.(a) = comp.(b) then
        add { lhs = [ (a, 1) ]; rhs = [ (b, 1) ]; kind = `Isomerization }
    done
  done;
  (* Exchange: A + B = C + D via composition-sum buckets. *)
  let buckets = Hashtbl.create 256 in
  for a = 0 to n - 1 do
    for b = a to n - 1 do
      let k = comp_key (vec_add comp.(a) comp.(b)) in
      Hashtbl.replace buckets k
        ((a, b) :: Option.value ~default:[] (Hashtbl.find_opt buckets k))
    done
  done;
  Hashtbl.iter
    (fun _ pairs ->
      let pairs = Array.of_list pairs in
      let np = Array.length pairs in
      for i = 0 to np - 1 do
        for j = i + 1 to np - 1 do
          let a, b = pairs.(i) and c, d = pairs.(j) in
          let mk x y = if x = y then [ (x, 2) ] else [ (x, 1); (y, 1) ] in
          add { lhs = mk a b; rhs = mk c d; kind = `Exchange }
        done
      done)
    buckets;
  !candidates

(* Synthetic but physically plausible parameter draws. *)

let heavy_atoms sp =
  Species.atom_count sp Species.C
  + Species.atom_count sp Species.O
  + Species.atom_count sp Species.N
  + Species.atom_count sp Species.Ar
  + Species.atom_count sp Species.He

let gen_transport rng sp =
  let heavy = float_of_int (heavy_atoms sp) in
  {
    Species.geometry = (if Species.total_atoms sp = 1 then 0 else if heavy <= 1.0 then 1 else 2);
    well_depth = 60.0 +. (40.0 *. heavy) +. Sutil.Prng.range rng (-15.0) 15.0;
    diameter = 2.4 +. (0.35 *. heavy) +. Sutil.Prng.range rng (-0.2) 0.2;
    dipole = (if Sutil.Prng.chance rng 0.3 then Sutil.Prng.range rng 0.1 2.0 else 0.0);
    polarizability = 0.5 +. (0.4 *. heavy);
    rot_relax = Sutil.Prng.range rng 0.5 4.0;
  }

let gen_thermo rng sp =
  (* Group-additive formation enthalpy so reaction delta-G stays modest. *)
  let contrib = function
    | Species.H -> -2000.0
    | Species.C -> 1000.0
    | Species.O -> -12000.0
    | Species.N -> 500.0
    | Species.Ar | Species.He -> 0.0
  in
  let a6 =
    List.fold_left
      (fun acc (e, n) -> acc +. (float_of_int n *. contrib e))
      0.0 sp.Species.composition
    +. Sutil.Prng.range rng (-3000.0) 3000.0
  in
  let atoms = float_of_int (Species.total_atoms sp) in
  let a1 = 2.5 +. (0.45 *. atoms) +. Sutil.Prng.range rng (-0.3) 0.3 in
  let a2 = Sutil.Prng.range rng 0.0 1e-3 in
  let a3 = Sutil.Prng.range rng (-1e-6) 1e-6 in
  let a4 = Sutil.Prng.range rng (-1e-9) 1e-9 in
  let a5 = Sutil.Prng.range rng (-1e-13) 1e-13 in
  let a7 = 2.0 +. (0.8 *. atoms) +. Sutil.Prng.range rng (-2.0) 2.0 in
  let high = [| a1; a2; a3; a4; a5; a6; a7 |] in
  (* The low range perturbs the polynomial part, then its a6/a7 are solved
     so h/RT and s/R (hence g/RT) are continuous at t_mid — the defining
     property of real THERMO fits. *)
  let t_mid = 1000.0 in
  let perturb v scale = v *. (1.0 +. Sutil.Prng.range rng (-.scale) scale) in
  let b1 = perturb a1 0.05
  and b2 = perturb a2 0.1
  and b3 = perturb a3 0.1
  and b4 = perturb a4 0.1
  and b5 = perturb a5 0.1 in
  let h_poly c1 c2 c3 c4 c5 t =
    c1
    +. (t
       *. ((c2 /. 2.0)
          +. (t *. ((c3 /. 3.0) +. (t *. ((c4 /. 4.0) +. (t *. (c5 /. 5.0))))))))
  in
  let s_poly c1 c2 c3 c4 c5 t =
    (c1 *. log t)
    +. (t
       *. (c2 +. (t *. ((c3 /. 2.0) +. (t *. ((c4 /. 3.0) +. (t *. (c5 /. 4.0))))))))
  in
  let b6 =
    t_mid
    *. (h_poly a1 a2 a3 a4 a5 t_mid +. (a6 /. t_mid)
       -. h_poly b1 b2 b3 b4 b5 t_mid)
  in
  let b7 = s_poly a1 a2 a3 a4 a5 t_mid +. a7 -. s_poly b1 b2 b3 b4 b5 t_mid in
  let low = [| b1; b2; b3; b4; b5; b6; b7 |] in
  { Thermo.t_low = 300.0; t_mid; t_high = 5000.0; low; high }

let gen_arrhenius rng =
  {
    Reaction.pre_exp = Sutil.Prng.log_range rng 1e6 1e13;
    temp_exp = Float.round (100.0 *. Sutil.Prng.range rng (-1.0) 2.0) /. 100.0;
    activation = Float.round (Sutil.Prng.range rng 0.0 30000.0);
  }

let gen_efficiencies rng species_index_of =
  let base =
    [ ("H2", 2.0); ("H2O", 6.0); ("CO", 1.75); ("CO2", 3.6); ("CH4", 2.0);
      ("N2", 1.4) ]
  in
  List.filter_map
    (fun (name, eff) ->
      match species_index_of name with
      | Some i when Sutil.Prng.chance rng 0.7 ->
          Some (i, eff *. Sutil.Prng.range rng 0.8 1.2)
      | _ -> None)
    base

let reaction_of_candidate rng ~species_index_of ~lt_budget c =
  let arr = gen_arrhenius rng in
  let reversible = not (Sutil.Prng.chance rng 0.15) in
  let reverse =
    if not reversible then Reaction.Irreversible
    else if Sutil.Prng.chance rng 0.3 then
      Reaction.Explicit
        {
          Reaction.pre_exp = arr.Reaction.pre_exp *. Sutil.Prng.range rng 0.01 0.5;
          temp_exp = arr.Reaction.temp_exp;
          activation = arr.Reaction.activation +. Sutil.Prng.range rng 1000.0 15000.0;
        }
    else Reaction.From_equilibrium
  in
  let unimolecular =
    match c.kind with
    | `Decomposition | `Association -> true
    | `Abstraction | `Exchange | `Isomerization -> false
  in
  let rate, third_body =
    if unimolecular && Sutil.Prng.chance rng 0.5 then begin
      (* Falloff "(+M)": Lindemann or Troe blending. *)
      let low =
        {
          Reaction.pre_exp = arr.Reaction.pre_exp *. Sutil.Prng.log_range rng 1.0 1e4;
          temp_exp = arr.Reaction.temp_exp -. Sutil.Prng.range rng 0.0 2.0;
          activation = Float.max 0.0 (arr.Reaction.activation -. Sutil.Prng.range rng 0.0 5000.0);
        }
      in
      let kind =
        if Sutil.Prng.chance rng 0.6 then
          Reaction.Troe
            {
              Reaction.alpha = Sutil.Prng.range rng 0.2 0.95;
              t3 = Sutil.Prng.range rng 50.0 3000.0;
              t1 = Sutil.Prng.range rng 50.0 3000.0;
              t2 = (if Sutil.Prng.chance rng 0.5 then Sutil.Prng.range rng 1000.0 5000.0 else 0.0);
            }
        else Reaction.Lindemann
      in
      ( Reaction.Falloff { high = arr; low; kind },
        Some { Reaction.enhanced = gen_efficiencies rng species_index_of } )
    end
    else if unimolecular && Sutil.Prng.chance rng 0.3 then
      (* Plain "+M" third body. *)
      ( Reaction.Simple arr,
        Some { Reaction.enhanced = gen_efficiencies rng species_index_of } )
    else if !lt_budget > 0 && Sutil.Prng.chance rng 0.05 then begin
      decr lt_budget;
      ( Reaction.Landau_teller
          {
            arr;
            b = Sutil.Prng.range rng (-30.0) 30.0;
            c = Sutil.Prng.range rng (-300.0) 300.0;
          },
        None )
    end
    else (Reaction.Simple arr, None)
  in
  Reaction.make ~reverse ?third_body ~reactants:c.lhs ~products:c.rhs rate

(* [species] holds (name, formula) pairs. Raises [Failure] if the
   templates cannot produce [n_reactions] distinct balanced reactions
   covering every species. *)
let generate ~name ~species:species_table ~qssa ~stiff ~n_reactions ~seed =
  let rng = Sutil.Prng.create seed in
  let species =
    Array.map
      (fun (sp_name, formula) ->
        let sp = Species.of_formula ~name:sp_name formula in
        let transport = gen_transport (Sutil.Prng.split rng sp_name) sp in
        Species.make ~transport ~name:sp_name sp.Species.composition)
      species_table
  in
  let thermo =
    Array.map
      (fun sp -> gen_thermo (Sutil.Prng.split rng ("th:" ^ sp.Species.name)) sp)
      species
  in
  let index_of n =
    let target = String.uppercase_ascii n in
    let found = ref None in
    Array.iteri
      (fun i sp ->
        if !found = None && String.uppercase_ascii sp.Species.name = target then
          found := Some i)
      species;
    !found
  in
  let index_of_exn n =
    match index_of n with
    | Some i -> i
    | None -> failwith (Printf.sprintf "mech_gen: unknown species %S" n)
  in
  (* Enumerate, dedup, and shuffle the balanced candidates. *)
  let seen = Hashtbl.create 1024 in
  let candidates =
    enumerate_candidates species
    |> List.filter (fun c ->
           let k = candidate_key c in
           if Hashtbl.mem seen k then false
           else begin
             Hashtbl.add seen k ();
             true
           end)
    |> Array.of_list
  in
  Sutil.Prng.shuffle rng candidates;
  if Array.length candidates < n_reactions then
    failwith
      (Printf.sprintf
         "mech_gen %s: only %d candidate reactions for a target of %d" name
         (Array.length candidates) n_reactions);
  (* Selection: first cover every species, then fill to the target. *)
  let n = Array.length species in
  let covered = Array.make n false in
  let selected = ref [] in
  let n_selected = ref 0 in
  let select c =
    selected := c :: !selected;
    incr n_selected;
    List.iter (fun (s, _) -> covered.(s) <- true) (c.lhs @ c.rhs)
  in
  Array.iter
    (fun c ->
      if
        !n_selected < n_reactions
        && List.exists (fun (s, _) -> not covered.(s)) (c.lhs @ c.rhs)
      then select c)
    candidates;
  Array.iter
    (fun c ->
      if !n_selected < n_reactions && not (List.memq c !selected) then select c)
    candidates;
  (* Inert species (no H/C/O content: N2, AR, HE) participate only as third
     bodies, like in real mechanisms; they are exempt from coverage. *)
  let inert i =
    let sp = species.(i) in
    Species.atom_count sp Species.H = 0
    && Species.atom_count sp Species.C = 0
    && Species.atom_count sp Species.O = 0
  in
  Array.iteri
    (fun i c ->
      if not (c || inert i) then
        failwith
          (Printf.sprintf "mech_gen %s: species %s appears in no reaction" name
             species.(i).Species.name))
    covered;
  let lt_budget = ref 3 in
  let reactions =
    List.rev !selected
    |> List.mapi (fun i c ->
           let r =
             reaction_of_candidate
               (Sutil.Prng.split rng (Printf.sprintf "rxn:%d" i))
               ~species_index_of:index_of ~lt_budget c
           in
           { r with Reaction.label = Printf.sprintf "R%d" (i + 1) })
    |> Array.of_list
  in
  let qssa = Array.of_list (List.map index_of_exn qssa) in
  let stiff = Array.of_list (List.map index_of_exn stiff) in
  let mech = Mechanism.make ~name ~species ~reactions ~thermo ~qssa ~stiff () in
  (match Mechanism.validate mech with
  | Ok () -> ()
  | Error problems ->
      failwith ("mech_gen " ^ name ^ ": " ^ String.concat "; " problems));
  mech

(* Species tables. Formulas are given explicitly because names like
   "C7H15-1" are not themselves parseable formulas. *)

let core_species =
  [|
    ("H2", "H2"); ("H", "H"); ("O", "O"); ("O2", "O2"); ("OH", "OH");
    ("H2O", "H2O"); ("HO2", "HO2"); ("H2O2", "H2O2"); ("N2", "N2");
    ("CO", "CO"); ("CO2", "CO2"); ("HCO", "CHO"); ("CH2O", "CH2O");
    ("CH3", "CH3"); ("CH4", "CH4"); ("CH3O", "CH3O"); ("CH2OH", "CH3O");
    ("CH3OH", "CH4O"); ("C2H6", "C2H6"); ("C2H5", "C2H5"); ("C2H4", "C2H4");
  |]

let dme_extra =
  [|
    ("CH2", "CH2"); ("C2H3", "C2H3"); ("C2H2", "C2H2");
    ("CH3O2", "CH3O2"); ("CH3O2H", "CH4O2"); ("HOCH2O", "CH3O2");
    ("HCOOH", "CH2O2"); ("OCHO", "CHO2");
    ("CH3OCH3", "C2H6O"); ("CH3OCH2", "C2H5O"); ("CH3OCH2O", "C2H5O2");
    ("CH3OCHO", "C2H4O2"); ("CH3OCO", "C2H3O2"); ("CH3OCH2O2", "C2H5O3");
    ("CH2OCH2O2H", "C2H5O3"); ("HO2CH2OCHO", "C2H4O4");
    ("OCH2OCHO", "C2H3O3"); ("HOCH2OCO", "C2H3O3");
  |]

let dme_qssa =
  [ "CH2"; "C2H3"; "CH3O"; "CH2OH"; "OCHO"; "CH3OCO"; "OCH2OCHO";
    "HOCH2OCO"; "HOCH2O" ]

let dme_stiff =
  [ "H"; "O"; "OH"; "HO2"; "H2O2"; "HCO"; "CH2O"; "CH3"; "CH3O2"; "CH3O2H";
    "CH3OH"; "C2H2"; "C2H4"; "C2H5"; "C2H6"; "CH3OCH3"; "CH3OCH2";
    "CH3OCH2O"; "CH3OCHO"; "CH3OCH2O2"; "CH2OCH2O2H"; "HO2CH2OCHO" ]

let heptane_extra =
  [|
    ("CH2", "CH2"); ("C2H3", "C2H3"); ("C2H2", "C2H2");
    ("CH3CHO", "C2H4O"); ("CH3CO", "C2H3O"); ("CH2CHO", "C2H3O");
    ("CH2CO", "C2H2O"); ("HCCO", "C2HO");
    ("C2H5O", "C2H5O"); ("C2H5O2", "C2H5O2"); ("C2H5O2H", "C2H6O2");
    ("C3H8", "C3H8"); ("NC3H7", "C3H7"); ("IC3H7", "C3H7");
    ("C3H6", "C3H6"); ("C3H5", "C3H5"); ("C3H4", "C3H4"); ("C3H3", "C3H3");
    ("C3H7O2", "C3H7O2");
    ("C4H8", "C4H8"); ("PC4H9", "C4H9"); ("SC4H9", "C4H9"); ("C4H7", "C4H7");
    ("C4H9O2", "C4H9O2"); ("C4H6", "C4H6");
    ("C5H10", "C5H10"); ("C5H11", "C5H11"); ("C5H11O2", "C5H11O2");
    ("C6H12", "C6H12"); ("C6H13", "C6H13"); ("C6H13O2", "C6H13O2");
    ("NC7H16", "C7H16"); ("C7H15-1", "C7H15"); ("C7H15-2", "C7H15");
    ("C7H15O2", "C7H15O2"); ("C7H14", "C7H14"); ("C7H14OOH", "C7H15O2");
    ("O2C7H14OOH", "C7H15O4"); ("NC7KET", "C7H14O3"); ("C7H15O", "C7H15O");
    ("CH3O2", "CH3O2"); ("CH3O2H", "CH4O2"); ("CH3CO3", "C2H3O3");
    ("CH3CO3H", "C2H4O3"); ("C2H4O1-2", "C2H4O"); ("C2H3CHO", "C3H4O");
    ("C2H5CHO", "C3H6O");
  |]

let heptane_qssa =
  [ "CH2"; "C2H3"; "HCCO"; "CH3CO"; "CH2CHO"; "C2H5O"; "C3H3"; "C3H5";
    "IC3H7"; "C4H7"; "SC4H9"; "C5H11"; "C6H13"; "C7H15O"; "CH3O"; "CH2OH" ]

let heptane_stiff =
  [ "H"; "O"; "OH"; "HO2"; "H2O2"; "HCO"; "CH3"; "CH2O"; "CH3O2"; "CH3O2H";
    "CH3CO3"; "CH3CO3H"; "C2H5O2"; "C2H5O2H"; "C3H7O2"; "C4H9O2"; "C5H11O2";
    "C6H13O2"; "C7H15O2"; "C7H14OOH"; "O2C7H14OOH"; "NC7KET"; "NC7H16";
    "C7H15-1"; "C7H15-2"; "C7H14"; "C2H2" ]

(* GRI-3.0's footprint: 53 species (with the nitrogen sub-mechanism and
   argon), 325 reactions. *)
let methane_extra =
  [|
    ("C", "C"); ("CH", "CH"); ("CH2", "CH2"); ("CH2S", "CH2");
    ("C2H", "C2H"); ("C2H2", "C2H2"); ("C2H3", "C2H3");
    ("HCCO", "C2HO"); ("HCCOH", "C2H2O"); ("CH2CO", "C2H2O");
    ("CH2CHO", "C2H3O"); ("CH3CHO", "C2H4O"); ("C3H7", "C3H7");
    ("C3H8", "C3H8");
    ("N", "N"); ("NH", "HN"); ("NH2", "H2N"); ("NH3", "H3N");
    ("NNH", "HN2"); ("NO", "NO"); ("NO2", "NO2"); ("N2O", "N2O");
    ("HNO", "HNO"); ("CN", "CN"); ("HCN", "CHN"); ("H2CN", "CH2N");
    ("HCNN", "CHN2"); ("HCNO", "CHNO"); ("HOCN", "CHNO"); ("HNCO", "CHNO");
    ("NCO", "CNO"); ("AR", "Ar");
  |]

let methane_qssa = [ "CH2S"; "CH"; "C2H"; "HCCO"; "H2CN"; "NCO" ]

let methane_stiff =
  [ "H"; "O"; "OH"; "HO2"; "H2O2"; "HCO"; "CH3"; "CH2O"; "NO2"; "HNO";
    "N2O"; "CH2CHO" ]

(* One value per generator, whichever domains ask first: the build holds
   the lock, so two callers never get two physical copies (the compiler's
   caches match a mechanism by identity). *)
let memo f =
  let cache = ref None and lock = Mutex.create () in
  fun () ->
    Mutex.protect lock (fun () ->
        match !cache with
        | Some v -> v
        | None ->
            let v = f () in
            cache := Some v;
            v)

let dme =
  memo (fun () ->
      generate ~name:"dme"
        ~species:(Array.append core_species dme_extra)
        ~qssa:dme_qssa ~stiff:dme_stiff ~n_reactions:175 ~seed:0x1D4E5EEDL)

let heptane =
  memo (fun () ->
      generate ~name:"heptane"
        ~species:(Array.append core_species heptane_extra)
        ~qssa:heptane_qssa ~stiff:heptane_stiff ~n_reactions:283
        ~seed:0x4E7EF7A4EL)

let methane =
  memo (fun () ->
      generate ~name:"methane"
        ~species:(Array.append core_species methane_extra)
        ~qssa:methane_qssa ~stiff:methane_stiff ~n_reactions:325
        ~seed:0x63A130L)

let hydrogen =
  memo (fun () ->
      generate ~name:"hydrogen"
        ~species:
          [|
            ("H2", "H2"); ("H", "H"); ("O", "O"); ("O2", "O2"); ("OH", "OH");
            ("H2O", "H2O"); ("HO2", "HO2"); ("H2O2", "H2O2"); ("N2", "N2");
            ("CO", "CO"); ("CO2", "CO2"); ("HCO", "CHO"); ("CH2O", "CH2O");
          |]
        ~qssa:[ "HCO"; "HO2" ]
        ~stiff:[ "H"; "OH"; "H2O2" ]
        ~n_reactions:20 ~seed:0x42L)

let bundled =
  [ ("dme", dme); ("heptane", heptane); ("methane", methane);
    ("hydrogen", hydrogen) ]
