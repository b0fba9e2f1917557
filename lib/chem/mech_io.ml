let ( let* ) = Result.bind

let load_strings ?species_sets ?chemkin_file ?thermo_file ?transport_file
    ?sets_file ~chemkin ~thermo ~transport ~name () =
  let* parsed = Chemkin_parser.parse ?file:chemkin_file chemkin in
  let* thermo_entries = Thermo_parser.parse ?file:thermo_file thermo in
  let* transport_entries = Transport_parser.parse ?file:transport_file transport in
  let* sets =
    match species_sets with
    | None -> Ok ([], [])
    | Some s -> Chemkin_parser.parse_species_sets ?file:sets_file s
  in
  (* Semantic (cross-file resolution) errors are attributed to the CHEMKIN
     mechanism file: that is where species are declared and reactions
     written. *)
  let sem ?token ?(line = 0) fmt =
    Printf.ksprintf
      (fun msg ->
        Error { Srcloc.loc = { Srcloc.file = chemkin_file; line; token }; msg })
      fmt
  in
  (* Names match case-insensitively and the first entry for a name wins,
     so each index keeps the first binding it sees. *)
  let index_by_name entries =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (name, v) ->
        let key = String.uppercase_ascii name in
        if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v)
      entries;
    fun name -> Hashtbl.find_opt tbl (String.uppercase_ascii name)
  in
  let find_thermo =
    index_by_name (List.map (fun e -> (e.Thermo_parser.name, e)) thermo_entries)
  in
  let find_transport = index_by_name transport_entries in
  (* Build the species array in CHEMKIN declaration order. *)
  let build_species sp_name =
    match find_thermo sp_name with
    | None -> sem ~token:sp_name "species %S has no THERMO entry" sp_name
    | Some th ->
        let transport =
          match find_transport sp_name with
          | Some t -> t
          | None -> Species.default_transport
        in
        Ok
          ( Species.make ~transport ~name:sp_name th.Thermo_parser.composition,
            th.Thermo_parser.thermo )
  in
  let rec build_all acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest ->
        let* sp = build_species n in
        build_all (sp :: acc) rest
  in
  let* pairs = build_all [] parsed.Chemkin_parser.species_names in
  let species = Array.of_list (List.map fst pairs) in
  let thermo_table = Array.of_list (List.map snd pairs) in
  let find_species =
    index_by_name
      (List.mapi (fun i sp -> (sp.Species.name, i)) (Array.to_list species))
  in
  let index_of ?line sp_name =
    match find_species sp_name with
    | Some i -> Ok i
    | None -> sem ~token:sp_name ?line "unknown species %S" sp_name
  in
  let resolve_side ?line side =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (n, c) :: rest ->
          let* i = index_of ?line n in
          go ((i, c) :: acc) rest
    in
    go [] side
  in
  let build_reaction (raw : Chemkin_parser.raw_reaction) =
    let line = raw.Chemkin_parser.line in
    let* lhs = resolve_side ~line raw.Chemkin_parser.lhs in
    let* rhs = resolve_side ~line raw.Chemkin_parser.rhs in
    let* rate =
      Result.map_error
        (Srcloc.in_file ?file:chemkin_file)
        (Chemkin_parser.rate_model_of_raw raw)
    in
    let reverse =
      match (raw.Chemkin_parser.rev, raw.Chemkin_parser.reversible) with
      | Some a, _ -> Reaction.Explicit a
      | None, true -> Reaction.From_equilibrium
      | None, false -> Reaction.Irreversible
    in
    let* third_body =
      if raw.Chemkin_parser.third_body || raw.Chemkin_parser.falloff then
        let rec resolve acc = function
          | [] -> Ok (List.rev acc)
          | (n, eff) :: rest ->
              let* i = index_of ~line n in
              resolve ((i, eff) :: acc) rest
        in
        let* enhanced = resolve [] raw.Chemkin_parser.efficiencies in
        Ok (Some { Reaction.enhanced })
      else Ok None
    in
    Ok
      (Reaction.make ~label:raw.Chemkin_parser.equation ~reverse ?third_body
         ~reactants:lhs ~products:rhs rate)
  in
  let rec build_reactions acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | raw :: rest ->
        let* r = build_reaction raw in
        build_reactions (r :: acc) rest
  in
  let* reactions = build_reactions [] parsed.Chemkin_parser.raw_reactions in
  let resolve_set names =
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | n :: rest ->
          let* i = index_of n in
          go (i :: acc) rest
    in
    go [] names
  in
  let* qssa = resolve_set (fst sets) in
  let* stiff = resolve_set (snd sets) in
  let mech =
    Mechanism.make ~name ~species ~reactions ~thermo:thermo_table ~qssa ~stiff ()
  in
  match Mechanism.validate mech with
  | Ok () -> Ok mech
  | Error problems -> sem "%s" (String.concat "; " problems)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  contents

let load_files ?species_sets_path ~chemkin_path ~thermo_path ~transport_path
    ~name () =
  (* [read_file] raises [Sys_error] on a missing or unreadable input;
     contain it as a positioned error so drivers never see an exception. *)
  match
    let species_sets = Option.map read_file species_sets_path in
    ( species_sets,
      read_file chemkin_path,
      read_file thermo_path,
      read_file transport_path )
  with
  | species_sets, chemkin, thermo, transport ->
      load_strings ?species_sets ?sets_file:species_sets_path
        ~chemkin_file:chemkin_path ~thermo_file:thermo_path
        ~transport_file:transport_path ~chemkin ~thermo ~transport ~name ()
  | exception Sys_error msg -> Error { Srcloc.loc = Srcloc.none; msg }

let arrhenius_text (a : Reaction.arrhenius) =
  Printf.sprintf "%.6E %.3f %.3E" a.Reaction.pre_exp a.Reaction.temp_exp
    a.Reaction.activation

let chemkin_of_mechanism (mech : Mechanism.t) =
  let buf = Buffer.create 8192 in
  let name_of i = mech.Mechanism.species.(i).Species.name in
  Buffer.add_string buf "ELEMENTS\n";
  let elements =
    Array.to_list mech.Mechanism.species
    |> List.concat_map (fun sp -> List.map fst sp.Species.composition)
    |> List.sort_uniq compare
  in
  Buffer.add_string buf
    (String.concat " " (List.map Species.element_symbol elements));
  Buffer.add_string buf "\nEND\nSPECIES\n";
  Array.iteri
    (fun i _ ->
      Buffer.add_string buf (name_of i);
      if (i + 1) mod 8 = 0 then Buffer.add_char buf '\n'
      else Buffer.add_char buf ' ')
    mech.Mechanism.species;
  Buffer.add_string buf "\nEND\nREACTIONS\n";
  Array.iter
    (fun (r : Reaction.t) ->
      let side_text side =
        List.map
          (fun (sp, c) ->
            if c = 1 then name_of sp else string_of_int c ^ name_of sp)
          side
        |> String.concat " + "
      in
      let m_text =
        if Reaction.is_falloff r then " (+M)"
        else if r.Reaction.third_body <> None then " + M"
        else ""
      in
      let sep =
        match r.Reaction.reverse with
        | Reaction.Irreversible -> "=>"
        | Reaction.From_equilibrium | Reaction.Explicit _ -> "="
      in
      let high =
        match r.Reaction.rate with
        | Reaction.Simple a -> a
        | Reaction.Falloff { high; _ } -> high
        | Reaction.Landau_teller { arr; _ } -> arr
        | Reaction.Plog table -> snd (List.hd (List.rev table))
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s %s%s    %s\n"
           (side_text r.Reaction.reactants)
           m_text sep
           (side_text r.Reaction.products)
           m_text (arrhenius_text high));
      (match r.Reaction.rate with
      | Reaction.Falloff { low; kind; _ } -> (
          Buffer.add_string buf
            (Printf.sprintf "  LOW / %s /\n" (arrhenius_text low));
          match kind with
          | Reaction.Lindemann -> ()
          | Reaction.Troe p ->
              Buffer.add_string buf
                (Printf.sprintf "  TROE / %.4f %.4E %.4E %.4E /\n"
                   p.Reaction.alpha p.Reaction.t3 p.Reaction.t1 p.Reaction.t2)
          | Reaction.Sri p ->
              Buffer.add_string buf
                (Printf.sprintf "  SRI / %.4f %.4E %.4E %.4f %.4f /\n"
                   p.Reaction.sa p.Reaction.sb p.Reaction.sc p.Reaction.sd
                   p.Reaction.se))
      | Reaction.Landau_teller { b; c; _ } ->
          Buffer.add_string buf (Printf.sprintf "  LT / %.4f %.4f /\n" b c)
      | Reaction.Plog table ->
          List.iter
            (fun (p, a) ->
              Buffer.add_string buf
                (Printf.sprintf "  PLOG / %.6E %s /\n" p (arrhenius_text a)))
            table
      | Reaction.Simple _ -> ());
      (match r.Reaction.reverse with
      | Reaction.Explicit a ->
          Buffer.add_string buf
            (Printf.sprintf "  REV / %s /\n" (arrhenius_text a))
      | Reaction.Irreversible | Reaction.From_equilibrium -> ());
      match r.Reaction.third_body with
      | Some { Reaction.enhanced = [] } | None -> ()
      | Some { Reaction.enhanced } ->
          Buffer.add_string buf " ";
          List.iter
            (fun (sp, eff) ->
              Buffer.add_string buf
                (Printf.sprintf " %s/%.2f/" (name_of sp) eff))
            enhanced;
          Buffer.add_char buf '\n')
    mech.Mechanism.reactions;
  Buffer.add_string buf "END\n";
  Buffer.contents buf

let thermo_of_mechanism (mech : Mechanism.t) =
  Array.to_list mech.Mechanism.species
  |> List.mapi (fun i sp ->
         {
           Thermo_parser.name = sp.Species.name;
           composition = sp.Species.composition;
           thermo = mech.Mechanism.thermo.(i);
         })
  |> Thermo_parser.to_string

let transport_of_mechanism (mech : Mechanism.t) =
  Array.to_list mech.Mechanism.species
  |> List.map (fun sp -> (sp.Species.name, sp.Species.transport))
  |> Transport_parser.to_string

let species_sets_of_mechanism (mech : Mechanism.t) =
  let buf = Buffer.create 512 in
  let section title indices =
    Buffer.add_string buf title;
    Buffer.add_char buf '\n';
    Array.iter
      (fun i ->
        Buffer.add_string buf mech.Mechanism.species.(i).Species.name;
        Buffer.add_char buf '\n')
      indices;
    Buffer.add_string buf "END\n"
  in
  section "QSSA" mech.Mechanism.qssa;
  section "STIFF" mech.Mechanism.stiff;
  Buffer.contents buf

let save_files mech ~dir =
  let write suffix text =
    let path = Filename.concat dir (mech.Mechanism.name ^ suffix) in
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write ".mech" (chemkin_of_mechanism mech);
  write ".therm" (thermo_of_mechanism mech);
  write ".tran" (transport_of_mechanism mech);
  write ".sets" (species_sets_of_mechanism mech)
