type raw_side = (string * int) list

type raw_reaction = {
  line : int;
  equation : string;
  lhs : raw_side;
  rhs : raw_side;
  reversible : bool;
  falloff : bool;
  third_body : bool;
  arrhenius : Reaction.arrhenius;
  low : Reaction.arrhenius option;
  troe : Reaction.troe_params option;
  sri : Reaction.sri_params option;
  plog : (float * Reaction.arrhenius) list;
  rev : Reaction.arrhenius option;
  landau_teller : (float * float) option;
  efficiencies : (string * float) list;
  duplicate : bool;
}

type t = {
  elements : string list;
  species_names : string list;
  raw_reactions : raw_reaction list;
}

let fail line fmt = Srcloc.raise_at line fmt

let strip_comment line =
  match String.index_opt line '!' with
  | Some i -> String.sub line 0 i
  | None -> line

let is_blank c = c = ' ' || c = '\t'

(* The end of the token starting at [i]: the next space or tab. *)
let token_end s i =
  let j = ref i in
  while !j < String.length s && not (is_blank s.[!j]) do
    incr j
  done;
  !j

(* The non-empty runs between spaces and tabs, in order. *)
let tokens_of s =
  let rec go acc i =
    if i >= String.length s then List.rev acc
    else if is_blank s.[i] then go acc (i + 1)
    else
      let j = token_end s i in
      go (String.sub s i (j - i) :: acc) j
  in
  go [] 0

(* CHEMKIN numbers sometimes end in a bare '.', which OCaml accepts, and
   use 'D' exponents, which it does not. *)
let number_text s =
  if String.exists (fun c -> c = 'D' || c = 'd') s then
    String.map (fun c -> if c = 'D' || c = 'd' then 'E' else c) s
  else s

let float_of_token line s =
  let s = number_text s in
  match float_of_string_opt s with
  | Some f -> f
  | None -> Srcloc.raise_at ~token:s line "cannot parse number %S" s

(* Parse one side of an equation: "2CH3+H" or "CH4 + H". "(+M)" has already
   been removed; a bare "M" term is handled by the caller. *)
let parse_side line text =
  let terms = String.split_on_char '+' text in
  let parse_term t =
    let t = String.trim t in
    if t = "" then fail line "empty species term in %S" text;
    let len = String.length t in
    let digits = ref 0 in
    while !digits < len && t.[!digits] >= '0' && t.[!digits] <= '9' do
      incr digits
    done;
    let coeff =
      if !digits = 0 then 1
      else
        (* The digit run is unbounded user input: [int_of_string] on
           e.g. "99999999999999999999H2O" raises an anonymous [Failure]
           instead of a positioned parse error. *)
        let d = String.sub t 0 !digits in
        match int_of_string_opt d with
        | Some c -> c
        | None ->
            Srcloc.raise_at ~token:d line
              "stoichiometric coefficient %S does not fit in an integer (term %S)"
              d t
    in
    let name = String.trim (String.sub t !digits (len - !digits)) in
    if name = "" then fail line "missing species name in term %S" t;
    (name, coeff)
  in
  List.map parse_term terms

(* Does [needle] occur in [hay] at [i]? Compared in place, allocating
   nothing. *)
let matches_at hay i needle =
  let nn = String.length needle in
  i + nn <= String.length hay
  &&
  let k = ref 0 in
  while !k < nn && hay.[i + !k] = needle.[!k] do
    incr k
  done;
  !k = nn

let find_substring hay needle =
  let rec go i =
    if i + String.length needle > String.length hay then None
    else if matches_at hay i needle then Some i
    else go (i + 1)
  in
  go 0

let remove_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let buf = Buffer.create nh in
  let i = ref 0 in
  while !i < nh do
    if matches_at hay !i needle then i := !i + nn
    else begin
      Buffer.add_char buf hay.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* Split an equation at its (first) separator; returns lhs, rhs,
   reversible. *)
let split_equation line eq =
  let find = find_substring eq in
  match find "<=>" with
  | Some i ->
      (String.sub eq 0 i, String.sub eq (i + 3) (String.length eq - i - 3), true)
  | None -> (
      match find "=>" with
      | Some i ->
          (String.sub eq 0 i, String.sub eq (i + 2) (String.length eq - i - 2), false)
      | None -> (
          match find "=" with
          | Some i ->
              (String.sub eq 0 i, String.sub eq (i + 1) (String.length eq - i - 1), true)
          | None -> fail line "no '=' separator in equation %S" eq))

let parse_equation line eq =
  let eq_upper = String.uppercase_ascii eq in
  let falloff = find_substring eq_upper "(+M)" <> None in
  let eq_clean = if falloff then remove_substring eq_upper "(+M)" else eq_upper in
  let lhs_text, rhs_text, reversible = split_equation line eq_clean in
  let strip_m side =
    let terms = parse_side line side in
    let has_m = List.exists (fun (n, _) -> n = "M") terms in
    (List.filter (fun (n, _) -> n <> "M") terms, has_m)
  in
  let lhs, m_l = strip_m lhs_text in
  let rhs, m_r = strip_m rhs_text in
  if m_l <> m_r then fail line "unbalanced +M in %S" eq;
  (lhs, rhs, reversible, falloff, falloff || m_l)

(* Auxiliary line handling. Forms:
     LOW / a b e /      TROE / a t3 t1 [t2] /     SRI / a b c [d e] /
     PLOG / p a b e /   REV / a b e /   LT / b c /
     DUPLICATE          sp/eff/ sp/eff/ ... *)
type aux =
  | Aux_low of Reaction.arrhenius
  | Aux_troe of Reaction.troe_params
  | Aux_sri of Reaction.sri_params
  | Aux_plog of float * Reaction.arrhenius
  | Aux_rev of Reaction.arrhenius
  | Aux_lt of float * float
  | Aux_dup
  | Aux_eff of (string * float) list

let parse_aux line text =
  let upper = String.uppercase_ascii (String.trim text) in
  if upper = "DUPLICATE" || upper = "DUP" then Some Aux_dup
  else if not (String.contains upper '/') then None
  else begin
    let fields = String.split_on_char '/' upper |> List.map String.trim in
    match fields with
    | keyword :: body :: _rest
      when List.mem keyword [ "LOW"; "TROE"; "SRI"; "PLOG"; "REV"; "LT" ] -> (
        let nums = tokens_of body |> List.map (float_of_token line) in
        match (keyword, nums) with
        | "LOW", [ a; b; e ] ->
            Some (Aux_low { Reaction.pre_exp = a; temp_exp = b; activation = e })
        | "REV", [ a; b; e ] ->
            Some (Aux_rev { Reaction.pre_exp = a; temp_exp = b; activation = e })
        | "TROE", [ alpha; t3; t1 ] ->
            Some (Aux_troe { Reaction.alpha; t3; t1; t2 = 0.0 })
        | "TROE", [ alpha; t3; t1; t2 ] -> Some (Aux_troe { Reaction.alpha; t3; t1; t2 })
        | "PLOG", [ p; a; b; e ] ->
            Some
              (Aux_plog
                 (p, { Reaction.pre_exp = a; temp_exp = b; activation = e }))
        | "SRI", [ sa; sb; sc ] ->
            Some (Aux_sri { Reaction.sa; sb; sc; sd = 1.0; se = 0.0 })
        | "SRI", [ sa; sb; sc; sd; se ] ->
            Some (Aux_sri { Reaction.sa; sb; sc; sd; se })
        | "LT", [ b; c ] -> Some (Aux_lt (b, c))
        | kw, _ -> fail line "bad %s/ ... / parameter count" kw)
    | _ ->
        (* Efficiency pairs: alternating name / value / name / value /. *)
        let rec pairs = function
          | [] | [ "" ] -> []
          | name :: value :: rest when name <> "" ->
              (name, float_of_token line value) :: pairs rest
          | _ -> fail line "malformed efficiency list %S" text
        in
        Some (Aux_eff (pairs fields))
  end

(* A reaction line ends with three numeric tokens (A, beta, E); anything
   before them, concatenated without spaces, is the equation. *)
let try_parse_reaction_line lineno text =
  let ( let* ) = Option.bind in
  let toks = Array.of_list (tokens_of text) in
  let n = Array.length toks in
  let number k = float_of_string_opt (number_text toks.(k)) in
  (* The last token is the one an auxiliary line ends in ("/"), so it is
     tried first. *)
  let* e = if n < 4 then None else number (n - 1) in
  let* b = number (n - 2) in
  let* a = number (n - 3) in
  let equation = String.concat "" (Array.to_list (Array.sub toks 0 (n - 3))) in
  if not (String.contains equation '=') then None
  else
    let lhs, rhs, reversible, falloff, third_body =
      parse_equation lineno equation
    in
    Some
      {
        line = lineno;
        equation;
        lhs;
        rhs;
        reversible;
        falloff;
        third_body;
        arrhenius = { Reaction.pre_exp = a; temp_exp = b; activation = e };
        low = None;
        troe = None;
        sri = None;
        plog = [];
        rev = None;
        landau_teller = None;
        efficiencies = [];
        duplicate = false;
      }

type section = S_none | S_elements | S_species | S_reactions

let parse ?file contents =
  let lines = String.split_on_char '\n' contents in
  let elements = ref [] in
  let species = ref [] (* reversed *) in
  let declared = Hashtbl.create 64 (* species name -> line *) in
  let declare lineno name =
    match Hashtbl.find_opt declared name with
    | Some first ->
        Srcloc.raise_at ~token:name lineno
          "species %S is declared twice (first on line %d)" name first
    | None ->
        Hashtbl.add declared name lineno;
        species := name :: !species
  in
  let reactions = ref [] in
  let current = ref None in
  let flush_current () =
    match !current with
    | Some r ->
        reactions := r :: !reactions;
        current := None
    | None -> ()
  in
  let section = ref S_none in
  try
    List.iteri
      (fun idx raw_line ->
        let lineno = idx + 1 in
        let text = String.trim (strip_comment raw_line) in
        if text <> "" then begin
          (* [text] is trimmed, so its first token starts at 0. *)
          match String.uppercase_ascii (String.sub text 0 (token_end text 0)) with
          | "ELEMENTS" | "ELEM" -> section := S_elements
          | "SPECIES" | "SPEC" -> section := S_species
          | "REACTIONS" | "REAC" -> section := S_reactions
          | "END" ->
              flush_current ();
              section := S_none
          | _ -> (
              match !section with
              | S_none -> fail lineno "content outside any section: %S" text
              | S_elements ->
                  elements := !elements @ tokens_of (String.uppercase_ascii text)
              | S_species ->
                  List.iter (declare lineno)
                    (tokens_of (String.uppercase_ascii text))
              | S_reactions -> (
                  match try_parse_reaction_line lineno text with
                  | Some r ->
                      flush_current ();
                      current := Some r
                  | None -> (
                      match (parse_aux lineno text, !current) with
                      | None, _ -> fail lineno "unrecognized line %S" text
                      | Some _, None ->
                          fail lineno "auxiliary line before any reaction"
                      | Some aux, Some r ->
                          let r' =
                            match aux with
                            | Aux_low a -> { r with low = Some a }
                            | Aux_troe p -> { r with troe = Some p }
                            | Aux_sri p -> { r with sri = Some p }
                            | Aux_plog (p, a) ->
                                { r with plog = r.plog @ [ (p, a) ] }
                            | Aux_rev a -> { r with rev = Some a }
                            | Aux_lt (b, c) ->
                                { r with landau_teller = Some (b, c) }
                            | Aux_dup -> { r with duplicate = true }
                            | Aux_eff effs ->
                                { r with efficiencies = r.efficiencies @ effs }
                          in
                          current := Some r')))
        end)
      lines;
    flush_current ();
    Ok
      {
        elements = !elements;
        species_names = List.rev !species;
        raw_reactions = List.rev !reactions;
      }
  with Srcloc.Parse_error e -> Error (Srcloc.in_file ?file e)

let parse_file path = Srcloc.with_contents path (parse ~file:path)

let parse_species_sets ?file contents =
  let lines = String.split_on_char '\n' contents in
  let qssa = ref [] and stiff = ref [] in
  let target = ref None in
  try
    List.iteri
      (fun idx raw ->
        let lineno = idx + 1 in
        let text = String.trim (strip_comment raw) in
        if text <> "" then
          match String.uppercase_ascii text with
          | "QSSA" -> target := Some qssa
          | "STIFF" -> target := Some stiff
          | "END" -> target := None
          | upper -> (
              match !target with
              | None -> fail lineno "species name outside QSSA/STIFF section"
              | Some dest -> dest := !dest @ tokens_of upper))
      lines;
    Ok (!qssa, !stiff)
  with Srcloc.Parse_error e -> Error (Srcloc.in_file ?file e)

let rate_model_of_raw r =
  let err fmt = Printf.ksprintf (fun msg -> Error (Srcloc.error_at ~token:r.equation r.line "%s" msg)) fmt in
  if r.plog <> [] then
    if r.falloff || r.low <> None || r.troe <> None || r.sri <> None
       || r.landau_teller <> None
    then err "PLOG/ cannot combine with falloff or LT"
    else
      let sorted = List.sort (fun (p, _) (q, _) -> compare p q) r.plog in
      Ok (Reaction.Plog sorted)
  else
  match (r.falloff, r.low, r.troe, r.sri, r.landau_teller) with
  | _, _, _, _, Some (b, c) ->
      if r.falloff || r.low <> None || r.troe <> None || r.sri <> None then
        err "LT/ cannot combine with falloff"
      else Ok (Reaction.Landau_teller { arr = r.arrhenius; b; c })
  | _, _, Some _, Some _, None -> err "TROE/ and SRI/ are mutually exclusive"
  | true, Some low, None, None, None ->
      Ok (Reaction.Falloff { high = r.arrhenius; low; kind = Reaction.Lindemann })
  | true, Some low, Some troe, None, None ->
      Ok (Reaction.Falloff { high = r.arrhenius; low; kind = Reaction.Troe troe })
  | true, Some low, None, Some sri, None ->
      Ok (Reaction.Falloff { high = r.arrhenius; low; kind = Reaction.Sri sri })
  | true, None, _, _, None -> err "falloff reaction lacks LOW/ line"
  | false, Some _, _, _, None -> err "LOW/ on a non-falloff reaction"
  | false, None, Some _, _, None -> err "TROE/ on a non-falloff reaction"
  | false, None, None, Some _, None -> err "SRI/ on a non-falloff reaction"
  | false, None, None, None, None -> Ok (Reaction.Simple r.arrhenius)
