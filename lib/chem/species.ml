type element = H | C | O | N | Ar | He

let all_elements = [| H; C; O; N; Ar; He |]

let element_of_string s =
  match String.uppercase_ascii s with
  | "H" -> Some H
  | "C" -> Some C
  | "O" -> Some O
  | "N" -> Some N
  | "AR" -> Some Ar
  | "HE" -> Some He
  | _ -> None

let element_symbol = function
  | H -> "H"
  | C -> "C"
  | O -> "O"
  | N -> "N"
  | Ar -> "AR"
  | He -> "HE"

let atomic_mass = function
  | H -> 1.00794
  | C -> 12.0107
  | O -> 15.9994
  | N -> 14.0067
  | Ar -> 39.948
  | He -> 4.002602

type transport_params = {
  geometry : int;
  well_depth : float;
  diameter : float;
  dipole : float;
  polarizability : float;
  rot_relax : float;
}

let default_transport =
  {
    geometry = 2;
    well_depth = 250.0;
    diameter = 4.0;
    dipole = 0.0;
    polarizability = 1.5;
    rot_relax = 1.0;
  }

type t = {
  name : string;
  composition : (element * int) list;
  transport : transport_params;
}

let element_index = function
  | H -> 0
  | C -> 1
  | O -> 2
  | N -> 3
  | Ar -> 4
  | He -> 5

let make ?(transport = default_transport) ~name comp =
  let counts = Array.make (Array.length all_elements) 0 in
  List.iter (fun (e, n) -> counts.(element_index e) <- counts.(element_index e) + n) comp;
  let composition =
    Array.to_list all_elements
    |> List.filter_map (fun e ->
           let n = counts.(element_index e) in
           if n > 0 then Some (e, n) else None)
  in
  { name; composition; transport }

let parse_formula s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else begin
      (* Longest-match element symbol: try two characters, then one. *)
      let two =
        if i + 2 <= n then element_of_string (String.sub s i 2) else None
      in
      let sym, next =
        match two with
        | Some e -> (Some e, i + 2)
        | None -> (element_of_string (String.sub s i 1), i + 1)
      in
      match sym with
      | None -> Error (Printf.sprintf "bad element at position %d in %S" i s)
      | Some e ->
          let j = ref next in
          while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
            incr j
          done;
          let count =
            if !j = next then 1
            else int_of_string (String.sub s next (!j - next))
          in
          go !j ((e, count) :: acc)
    end
  in
  go 0 []

let of_formula ?transport ~name f =
  match parse_formula f with
  | Ok comp -> make ?transport ~name comp
  | Error msg -> invalid_arg msg

let molecular_mass t =
  List.fold_left
    (fun acc (e, n) -> acc +. (float_of_int n *. atomic_mass e))
    0.0 t.composition

let atom_count t e =
  match List.assoc_opt e t.composition with Some n -> n | None -> 0

let total_atoms t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.composition

let composition_vector t =
  Array.map (fun e -> atom_count t e) all_elements

let formula t =
  (* Hill-ish ordering: C first, then H, then the rest alphabetically. *)
  let order = [ C; H; O; N; Ar; He ] in
  let buf = Buffer.create 16 in
  let emit e =
    match atom_count t e with
    | 0 -> ()
    | 1 -> Buffer.add_string buf (element_symbol e)
    | n ->
        Buffer.add_string buf (element_symbol e);
        Buffer.add_string buf (string_of_int n)
  in
  List.iter emit order;
  if Buffer.length buf = 0 then "(none)" else Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "%s(%s, M=%.3f)" t.name (formula t) (molecular_mass t)
