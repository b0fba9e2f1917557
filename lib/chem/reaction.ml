type arrhenius = { pre_exp : float; temp_exp : float; activation : float }

type troe_params = { alpha : float; t3 : float; t1 : float; t2 : float }

type sri_params = { sa : float; sb : float; sc : float; sd : float; se : float }

type falloff_kind = Lindemann | Troe of troe_params | Sri of sri_params

type rate_model =
  | Simple of arrhenius
  | Falloff of { high : arrhenius; low : arrhenius; kind : falloff_kind }
  | Landau_teller of { arr : arrhenius; b : float; c : float }
  | Plog of (float * arrhenius) list

type reverse_spec =
  | Irreversible
  | From_equilibrium
  | Explicit of arrhenius

type third_body = { enhanced : (int * float) list }

type t = {
  label : string;
  reactants : (int * int) list;
  products : (int * int) list;
  rate : rate_model;
  reverse : reverse_spec;
  third_body : third_body option;
}

let merge_side side =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (sp, coeff) ->
      match Hashtbl.find_opt tbl sp with
      | Some c -> Hashtbl.replace tbl sp (c + coeff)
      | None ->
          Hashtbl.add tbl sp coeff;
          order := sp :: !order)
    side;
  List.rev_map (fun sp -> (sp, Hashtbl.find tbl sp)) !order

let make ?(label = "") ?(reverse = From_equilibrium) ?third_body ~reactants
    ~products rate =
  {
    label;
    reactants = merge_side reactants;
    products = merge_side products;
    rate;
    reverse;
    third_body;
  }

let coeff_of side i =
  match List.assoc_opt i side with Some c -> c | None -> 0

let delta_stoich t i = coeff_of t.products i - coeff_of t.reactants i

let involves t i = coeff_of t.reactants i > 0 || coeff_of t.products i > 0

let species_involved t =
  List.map fst t.reactants @ List.map fst t.products
  |> List.sort_uniq compare

let net_molecularity t =
  List.fold_left (fun acc (_, c) -> acc + c) 0 t.products
  - List.fold_left (fun acc (_, c) -> acc + c) 0 t.reactants

let is_falloff t =
  match t.rate with
  | Falloff _ -> true
  | Simple _ | Landau_teller _ | Plog _ -> false

let element_balance species t =
  let n_elem = Array.length (Species.composition_vector species.(0)) in
  let total side =
    let acc = Array.make n_elem 0 in
    List.iter
      (fun (sp, coeff) ->
        let v = Species.composition_vector species.(sp) in
        Array.iteri (fun e n -> acc.(e) <- acc.(e) + (coeff * n)) v)
      side;
    acc
  in
  let lhs = total t.reactants and rhs = total t.products in
  if lhs = rhs then Ok ()
  else
    Error
      (Printf.sprintf "reaction %S does not conserve atoms" t.label)

let pp_side species ppf side =
  let pp_term ppf (sp, coeff) =
    if coeff = 1 then Format.fprintf ppf "%d" sp
    else Format.fprintf ppf "%d*%d" coeff sp;
    ignore species
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
    pp_term ppf side

let pp ppf t =
  Format.fprintf ppf "%s: %a %s %a" t.label (pp_side ()) t.reactants
    (match t.reverse with Irreversible -> "=>" | _ -> "=")
    (pp_side ()) t.products
