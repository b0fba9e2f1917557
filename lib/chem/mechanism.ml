type t = {
  name : string;
  species : Species.t array;
  reactions : Reaction.t array;
  thermo : Thermo.table;
  transport : Transport.t;
  qssa : int array;
  stiff : int array;
}

let make ~name ~species ~reactions ~thermo ?(qssa = [||]) ?(stiff = [||]) () =
  let n = Array.length species in
  let clean tag arr =
    let l = Array.to_list arr |> List.sort_uniq compare in
    List.iter
      (fun i ->
        if i < 0 || i >= n then
          invalid_arg (Printf.sprintf "%s species index %d out of range" tag i))
      l;
    Array.of_list l
  in
  let qssa = clean "QSSA" qssa and stiff = clean "stiff" stiff in
  Array.iter
    (fun i ->
      if Array.exists (( = ) i) stiff then
        invalid_arg "QSSA and stiff species sets must be disjoint")
    qssa;
  let transport = Transport.fit species in
  { name; species; reactions; thermo; transport; qssa; stiff }

let n_species t = Array.length t.species
let n_reactions t = Array.length t.reactions
let n_qssa t = Array.length t.qssa
let n_stiff t = Array.length t.stiff

let is_qssa t i = Array.exists (( = ) i) t.qssa

let computed_species t =
  Array.init (n_species t) (fun i -> i)
  |> Array.to_list
  |> List.filter (fun i -> not (is_qssa t i))
  |> Array.of_list

let molecular_masses t = Array.map Species.molecular_mass t.species

let species_index t name =
  let target = String.uppercase_ascii name in
  let found = ref (-1) in
  Array.iteri
    (fun i sp ->
      if !found < 0 && String.uppercase_ascii sp.Species.name = target then
        found := i)
    t.species;
  if !found < 0 then raise Not_found else !found

let validate t =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let n = n_species t in
  if Array.length t.thermo <> n then
    err "thermo table has %d entries for %d species" (Array.length t.thermo) n;
  Array.iteri
    (fun i e ->
      match Thermo.validate e with
      | Ok () -> ()
      | Error msg -> err "thermo entry %d: %s" i msg)
    t.thermo;
  if Array.length t.transport.Transport.visc_fit <> n then
    err "transport viscosity table size mismatch";
  Array.iteri
    (fun ri r ->
      List.iter
        (fun (sp, coeff) ->
          if sp < 0 || sp >= n then
            err "reaction %d references species %d out of range" ri sp;
          if coeff <= 0 then err "reaction %d has non-positive coefficient" ri)
        (r.Reaction.reactants @ r.Reaction.products);
      if r.Reaction.reactants = [] || r.Reaction.products = [] then
        err "reaction %d has an empty side" ri;
      match Reaction.element_balance t.species r with
      | Ok () -> ()
      | Error msg -> err "reaction %d: %s" ri msg)
    t.reactions;
  match !problems with [] -> Ok () | l -> Error (List.rev l)

let summary t =
  Printf.sprintf "%-10s %9d %8d %5d %6d" t.name (n_reactions t) (n_species t)
    (n_qssa t) (n_stiff t)

let pp ppf t =
  Format.fprintf ppf "mechanism %s: %d species, %d reactions, %d QSSA, %d stiff"
    t.name (n_species t) (n_reactions t) (n_qssa t) (n_stiff t)
